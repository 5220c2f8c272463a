"""``stream-sim``: the streaming engine and the cohort engine, nothing else.

Set-up encodes small ``FrameBank``s of three scenes (64x64, 3 frames)
whose rung sizes feed both phases.  Timed phase (a): ``StreamingEngine.run``
with 32 exact streams x 48 frames under the buffer controller over the
default ladder, with starts staggered over 50 ms.  Timed phase (b):
``simulate_cohort_fleet`` with 15,000 members in 6 cohorts x 72 frames,
8 tracers each.  Both share one link: a 1200/400 Mbps step trace,
0.5 ms jitter and Gilbert-Elliott loss recovered by ARQ.  Each phase
takes well under a second, so a run times a dozen of each.

The engine is under 1% of ``fleet-shared``; here it is nearly all of
the time, and the two phases run the same per-frame recurrence two
ways.  One pass is (a) then (b); every pass of a run uses the same
seed, so both reports must serialize byte-identically to pass 0's.
"""

from __future__ import annotations

import contextlib
import statistics

import numpy as np

from harness import Outcome, run_passes, timed_setup
from tracing import layers_if

N_STREAMS = 32
N_STREAM_FRAMES = 48
N_MEMBERS = 15_000
N_COHORTS = 6
N_COHORT_FRAMES = 72
N_TRACERS = 8
TARGET_FPS = 72.0
BANK_SIZE = 64
BANK_FRAMES = 3
#: Fixed: the scenes set every payload size, and with them the engines'
#: work, so the seed only staggers the streams and picks their start rungs.
SCENES = ("office", "skyline", "thai")


def _link():
    from repro.streaming import BandwidthTrace, LossTrace, WirelessLink

    return WirelessLink(
        bandwidth_mbps=1200.0,
        propagation_ms=2.0,
        jitter_ms=0.5,
        trace=BandwidthTrace.square(1200.0, 400.0, 0.5),
        loss=LossTrace.gilbert_elliott(0.001, mean_burst_packets=5.0),
    )


def _build(seed: int):
    from repro.serving import FrameBank

    rng = np.random.default_rng(seed)
    banks = [
        FrameBank.from_scene(name, n_frames=BANK_FRAMES, height=BANK_SIZE, width=BANK_SIZE)
        for name in SCENES
    ]
    # Starts within 50 ms of each other: with a wider stagger, how many
    # streams overlap depends on the seed, and the exact engine's work with it.
    starts = np.sort(rng.uniform(0.0, 0.05, size=N_STREAMS))
    start_rungs = rng.integers(0, len(banks[0].ladder), size=N_STREAMS)
    return banks, [float(s) for s in starts], [int(r) for r in start_rungs]


def _stats(prefix: str, mean_s, p95_s, resyncs, switches, stall_s) -> dict[str, float]:
    return {
        f"{prefix}.mean_latency_s": float(mean_s),
        f"{prefix}.p95_latency_s": float(p95_s),
        f"{prefix}.resyncs": int(resyncs),
        f"{prefix}.rung_switches": int(switches),
        f"{prefix}.stall_s": float(stall_s),
    }


def run(seed: int, seconds: float, tracer, traced: bool) -> Outcome:
    from repro.codecs import QualityLadder
    from repro.streaming import (
        AdaptationState,
        ClientReport,
        CohortSpec,
        FleetReport,
        StreamingEngine,
        StreamSpec,
        get_controller,
        report_from_json,
        report_to_json,
        simulate_cohort_fleet,
    )

    out = Outcome()
    banks, starts, start_rungs = timed_setup(lambda: _build(seed), out.host)
    link = _link()
    ladder = QualityLadder.default()
    controller = get_controller("buffer")
    interval_s = 1.0 / TARGET_FPS

    def exact_specs():
        # AdaptationState is per-run mutable state, so every pass builds fresh specs.
        return [
            StreamSpec(
                name=f"stream{i:02d}",
                source=banks[i % len(banks)],
                n_frames=N_STREAM_FRAMES,
                target_fps=TARGET_FPS,
                encode_time_s=banks[i % len(banks)].encode_time_s,
                start_s=starts[i],
                adaptation=AdaptationState(controller, ladder, start_rungs[i], interval_s),
            )
            for i in range(N_STREAMS)
        ]

    members = [
        N_MEMBERS // N_COHORTS + (1 if r < N_MEMBERS % N_COHORTS else 0)
        for r in range(N_COHORTS)
    ]
    cohorts = [
        CohortSpec(
            name=f"cohort{r}",
            scene=banks[r % len(banks)].scene_name,
            n_members=members[r],
            payloads=tuple(banks[r % len(banks)].rung_streams),
            n_frames=N_COHORT_FRAMES,
            target_fps=TARGET_FPS,
            encode_time_s=banks[r % len(banks)].encode_time_s,
            start_s=starts[r],
            n_tracers=N_TRACERS,
            start_rung=start_rungs[r],
        )
        for r in range(N_COHORTS)
    ]

    first: dict[str, str] = {}
    last: dict = {}

    def same_as_first(kind: str, report, index: int) -> None:
        text = report_to_json(report)
        first.setdefault(kind, text)
        out.check(text == first[kind], f"{kind} pass {index} differs from pass 0 (same seed)")
        out.check(
            report_to_json(report_from_json(text)) == text,
            f"{kind} pass {index} report does not round-trip",
        )

    def one_pass(index: int) -> None:
        # Pass 0 of a traced run stays untraced: the same-seed check then
        # also proves that tracing leaves both reports unchanged.
        trace_this = traced and index > 0
        with layers_if(tracer, trace_this), tracer.span("bench.stream_pass", request=f"pass{index}"):
            specs = exact_specs()
            engine = StreamingEngine(link, scheduler="fair", recovery="arq")
            outcomes = out.host.time("exact", engine.run, specs, seed=seed)

            def cohort_run():
                with tracer.span("streaming.cohort_run") if trace_this else contextlib.nullcontext():
                    return simulate_cohort_fleet(
                        cohorts,
                        link,
                        scheduler="fair",
                        seed=seed,
                        controller=controller,
                        ladder=ladder,
                        recovery="arq",
                    )

            cohort_report = out.host.time("cohort", cohort_run)
        out.traced_passes += trace_this
        out.attempt(N_STREAMS * N_STREAM_FRAMES + N_MEMBERS * N_COHORT_FRAMES)
        exact_report = FleetReport(
            clients=tuple(
                ClientReport(
                    encoder="adaptive",
                    frames=outcome.frames,
                    target_fps=spec.target_fps,
                    loss=outcome.loss,
                    name=outcome.name,
                    scene=spec.source.scene_name,
                    adaptive=outcome.adaptive,
                    start_s=spec.start_s,
                )
                for spec, outcome in zip(specs, outcomes)
            ),
            link=link,
            scheduler="fair",
            n_frames=N_STREAM_FRAMES,
            controller=controller.name,
        )
        out.check(
            all(len(o.frames) == N_STREAM_FRAMES for o in outcomes),
            f"exact pass {index}: a stream lost frames",
        )
        out.check(
            cohort_report.n_clients == N_MEMBERS,
            f"cohort pass {index}: {cohort_report.n_clients} members, expected {N_MEMBERS}",
        )
        same_as_first("exact", exact_report, index)
        same_as_first("cohort", cohort_report, index)
        last.update(exact=exact_report, cohort=cohort_report, events=len(engine.last_events))

    durations = run_passes(seconds, one_pass, min_passes=2)
    out.end_to_end["throughput_per_s"] = N_MEMBERS * N_COHORT_FRAMES / out.host.scaled("cohort")
    out.end_to_end["latency_s"] = out.host.scaled("exact")
    out.end_to_end["setup_s"] = out.host.scaled("setup")
    exact_s = statistics.median(out.host.raw("exact"))
    cohort_s = statistics.median(out.host.raw("cohort"))
    out.named["exact_client_frames_per_s"] = (N_STREAMS * N_STREAM_FRAMES / exact_s, "1/s")
    out.named["cohort_client_frames_per_s"] = (N_MEMBERS * N_COHORT_FRAMES / cohort_s, "1/s")
    out.named["exact_run_s"] = (exact_s, "s")
    out.notes.append(
        f"{len(durations)} passes: {N_STREAMS} exact streams x {N_STREAM_FRAMES} frames, "
        f"then {N_MEMBERS} members in {N_COHORTS} cohorts x {N_COHORT_FRAMES} frames"
    )

    exact, cohort = last["exact"], last["cohort"]
    out.stats.update(
        _stats(
            "streaming.exact",
            exact.mean_latency_s,
            exact.tail_latency_s(95.0),
            exact.total_resyncs,
            exact.total_rung_switches,
            exact.total_stall_time_s,
        )
    )
    out.stats.update(
        _stats(
            "streaming.cohort",
            cohort.mean_latency_s,
            cohort.tail_latency_s(95.0),
            cohort.tracer_resyncs,
            sum(c.adaptive.rung_switches for c in cohort.cohorts if c.adaptive is not None),
            cohort.total_stall_time_s,
        )
    )
    out.stats["streaming.events"] = last["events"]
    return out
