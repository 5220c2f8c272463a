"""``fleet-shared``: the offline fleet path that ``repro fleet`` runs.

24 clients on the default roster (perceptual, bd, variable-bd, raw) over
the six library scenes, 128x128 per eye, each with its own saccade gaze,
sharing ``WIFI6_LINK`` under the fair scheduler, exact engine, serial.
Each scene is rendered by four clients, so three of every four renders
repeat earlier work: a render or encode cache would show here.

One pass is one ``run_fleet`` call of 24 clients x 2 frames, short
enough that a run makes a dozen or more.  Every pass of a run uses the
same seed, so each pass's report must serialize byte-identically to the
first one's.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys

from harness import Outcome, run_passes, timed_setup
from tracing import layers_if

N_CLIENTS = 24
N_FRAMES = 2
SIZE = 128


def _cold_import(src: str) -> None:
    """Import the fleet path in a fresh interpreter, as ``repro fleet`` starts."""
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run(
        [sys.executable, "-c", "import repro.experiments.fleet"], env=env, check=True, timeout=120
    )


def run(seed: int, seconds: float, tracer, traced: bool, src: str) -> Outcome:
    from repro.experiments import fleet
    from repro.experiments.common import ExperimentConfig
    from repro.streaming import WIFI6_LINK, report_from_json, report_to_json

    out = Outcome()

    def build():
        # Nothing but the roster is prepared ahead of a fleet run, so set-up
        # is the program's cold start plus that roster.
        _cold_import(src)
        config = ExperimentConfig(
            height=SIZE, width=SIZE, n_frames=N_FRAMES, seed=seed % (2**31)
        )
        # The client roster run_fleet will build: checked against the report.
        clients = fleet.build_fleet_clients(
            config, N_CLIENTS, fleet.DEFAULT_FLEET_CODECS
        )
        return config, clients

    config, clients = timed_setup(build, out.host)

    first_json: list[str] = []
    reports = []

    def one_pass(index: int) -> None:
        # In a traced run pass 0 stays untraced, so the same-seed check
        # also proves that tracing leaves the report unchanged.
        trace_this = traced and index > 0
        with layers_if(tracer, trace_this), tracer.span("bench.fleet_pass", request=f"pass{index}"):
            result = out.host.time(
                "pass", fleet.run_fleet,
                config, n_clients=N_CLIENTS, link=WIFI6_LINK, scheduler="fair", n_jobs=1,
            )
        out.attempt(N_CLIENTS * N_FRAMES)
        text = report_to_json(result.report)
        if not first_json:
            first_json.append(text)
        out.check(text == first_json[0], f"fleet pass {index} differs from pass 0 (same seed)")
        out.check(
            report_to_json(report_from_json(text)) == text,
            f"fleet pass {index} report does not round-trip",
        )
        out.check(
            [c.name for c in result.report.clients] == [c.name for c in clients]
            and all(len(c.frames) == N_FRAMES for c in result.report.clients),
            f"fleet pass {index} is missing clients or frames",
        )
        reports.append(result.report)
        out.traced_passes += trace_this

    durations = run_passes(seconds, one_pass, min_passes=2)
    pass_s = out.host.scaled("pass")
    out.end_to_end["throughput_per_s"] = N_CLIENTS * N_FRAMES / pass_s
    out.end_to_end["latency_s"] = pass_s
    out.end_to_end["setup_s"] = out.host.scaled("setup")
    raw_pass_s = statistics.median(out.host.raw("pass"))
    out.named["fleet_client_frames_per_s"] = (N_CLIENTS * N_FRAMES / raw_pass_s, "1/s")
    out.named["fleet_pass_s"] = (raw_pass_s, "s")
    out.notes.append(f"{len(durations)} passes of {N_CLIENTS} clients x {N_FRAMES} frames")

    report = reports[-1]
    out.stats.update(
        {
            "fleet.mean_latency_s": report.mean_latency_s,
            "fleet.p95_latency_s": report.tail_latency_s(95.0),
            "fleet.traffic_bits": report.total_traffic_bits,
            "fleet.clients_meeting_target": report.clients_meeting_target,
        }
    )
    return out
