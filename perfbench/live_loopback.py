"""``live-loopback``: ``repro serve`` over real sockets, driven by the loadgen.

Set-up starts ``python -m repro serve`` as a child process on a free
port with a 512x512 office bank; its start-up (import, bank encode,
bind) is the set-up time.  The benchmark process then runs
``run_loadgen`` with 2 connections, the rung pinned by the ``fixed``
controller.  The loop is open: the server paces frames whether or not
the client keeps up, and latency is delivery time minus the frame's
scheduled ready time.

* phase a: ``bd`` at 144 fps per connection, below the knee;
* phase b: ``nocom`` at 288 fps per connection, saturated, as six
  consecutive loadgen runs; the loadgen's reads are the limit, so its
  goodput measures the client path and loopback TCP;
* phase c: ``bd`` at 72 fps per connection, reads throttled by a trace
  below the stream rate, so frames sit in kernel socket buffers and the
  server's backpressure path runs.

A loop-lag probe runs inside the loadgen's event loop, and phase c
checks that the throttled clients really read at the trace rate, so its
latency describes the server's backpressure rather than the load
generator.  On any
failure the server is killed; its exit code is checked either way.
"""

from __future__ import annotations

import asyncio
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from harness import Outcome, percentile
from tracing import layers_if

SIZE = 512
N_CONNECTIONS = 2
DEADLINE_S = 0.25
#: Socket read size.  With the loadgen's 4 KiB default the client, not the
#: server, limits phase b, and the throttle's per-chunk sleeps cap phase c
#: far below its trace.
CHUNK_BYTES = 256 * 1024
#: Phase c must read at least this share of the trace rate to count.
MIN_THROTTLE_RATIO = 0.8
START_TIMEOUT_S = 60.0
#: Lifetime of the set-up repetitions that are not kept.
IDLE_S = 0.2
#: Each set-up starts a server that encodes its bank for seconds, so fewer
#: repetitions than elsewhere.
SETUP_REPS = 2
STOP_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Phase:
    key: str
    rung: str
    fps: float
    share: float  # of the run's seconds
    throttle_mbps: float | None = None
    parts: int = 1  # consecutive loadgen runs the phase is split into


def _phases(seed: int) -> list[Phase]:
    # The seed picks the throttle rate; it stays far below the bd stream
    # rate (about 450 Mbps per connection at 72 fps) so phase c always
    # backs up, and within a narrow band because phase c's latency follows it.
    rate = float(np.random.default_rng(seed).uniform(190.0, 210.0))
    return [
        # Warm-up: the first frames a fresh server sends are slow (first
        # connections, socket buffer growth); it is checked, not reported.
        Phase("warm", "bd", 144.0, 0.1),
        Phase("a", "bd", 144.0, 0.15),
        # Saturated, in six loadgen runs; its goodput is their median.
        Phase("b", "nocom", 288.0, 0.45, parts=6),
        Phase("c", "bd", 72.0, 0.3, throttle_mbps=round(rate, 1)),
    ]


class ServerChild:
    """``repro serve`` in a child process, stopped and reaped on close."""

    def __init__(self, root: str, report_path: str, duration_s: float | None = None):
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--host", "127.0.0.1", "--port", "0",
                "--scene", "office", "--bank-frames", "1",
                "--height", str(SIZE), "--width", str(SIZE),
                "--deadline", str(DEADLINE_S),
                "--report", report_path,
            ]
            + ([] if duration_s is None else ["--duration", str(duration_s)]),
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.port = self._await_port()

    def _await_port(self) -> int:
        """Block until the child prints its bound address."""
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            deadline = time.monotonic() + START_TIMEOUT_S
            while time.monotonic() < deadline:
                if not selector.select(timeout=deadline - time.monotonic()):
                    continue
                line = self.proc.stdout.readline()
                if not line:
                    break
                if line.startswith("serving "):
                    return int(line.rsplit(":", 1)[1].split()[0])
        self.kill()
        raise RuntimeError(f"repro serve did not start: {self.proc.stderr.read()[-2000:]}")

    def stop(self, signal_it: bool = True) -> int:
        """Ask for a graceful shutdown (or await one); return the exit code."""
        if signal_it and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


async def _loadgen_with_probe(config, lags: list[float]):
    """Run the loadgen while a probe measures its event loop's lag."""
    from repro.serving import run_loadgen

    loop = asyncio.get_running_loop()
    done = asyncio.Event()

    async def probe() -> None:
        while not done.is_set():
            asked = 0.001
            start = loop.time()
            await asyncio.sleep(asked)
            lags.append(loop.time() - start - asked)

    probe_task = asyncio.create_task(probe())
    try:
        return await run_loadgen(config)
    finally:
        done.set()
        await probe_task


def _delivery_rate_mb_s(report) -> float:
    """Payload MB/s from each connection's first to last delivery, summed.

    Connection set-up and the tail after the last frame are left out, so
    the figure is the steady delivery rate.
    """
    total = 0.0
    for client in report.clients:
        frames = client.frames[1:]
        span_s = sum(f.serialization_time_s for f in frames)
        if span_s > 0:
            total += sum(f.payload_bits for f in frames) / 8 / span_s / 1e6
    return total


def run(seed: int, seconds: float, tracer, traced: bool, root: str, out_dir: str) -> Outcome:
    from repro.serving import FrameBank, LoadgenConfig, StreamSetup
    from repro.streaming import BandwidthTrace, report_from_json, report_to_json

    out = Outcome()
    report_path = os.path.join(out_dir, f"live-server-{seed}.json")
    phases = _phases(seed)
    children: list[ServerChild] = []
    try:
        for rep in range(SETUP_REPS):
            # Set-up repetitions before the last shut themselves down after
            # IDLE_S, which avoids signalling a server still installing its
            # handlers; each must still exit cleanly.
            last = rep == SETUP_REPS - 1
            children.append(
                out.host.time("setup", ServerChild, root, report_path, None if last else IDLE_S)
            )
            if not last:
                code = children[-1].stop(signal_it=False)
                out.check(code == 0, f"an idle server exited with code {code}")
        server = children[-1]
        if traced:
            # The child's bank build, repeated in-process to time it.  Kept
            # outside the layer wrappers so only serving's own span sees it.
            with tracer.span("serving.bank_build"):
                FrameBank.from_scene("office", n_frames=1, height=SIZE, width=SIZE)

        # One entry per loadgen run: (phase, frames per connection, report,
        # loop lags).
        runs = []
        with layers_if(tracer, traced):
            for phase in phases:
                n_frames = max(1, round(phase.fps * phase.share * seconds / phase.parts))
                setup = StreamSetup(
                    scene="office", height=SIZE, width=SIZE, target_fps=phase.fps,
                    n_frames=n_frames, controller="fixed", start_rung=phase.rung,
                )
                config = LoadgenConfig(
                    port=server.port,
                    setup=setup,
                    n_clients=N_CONNECTIONS,
                    trace=(
                        BandwidthTrace.constant(phase.throttle_mbps)
                        if phase.throttle_mbps is not None
                        else None
                    ),
                    chunk_bytes=CHUNK_BYTES,
                    timeout_s=phase.share * seconds + 60.0,
                )
                for _ in range(phase.parts):
                    lags: list[float] = []
                    with tracer.span("bench.live_phase", request=phase.key):
                        report = asyncio.run(_loadgen_with_probe(config, lags))
                    runs.append((phase, n_frames, report, lags))
        exit_code = server.stop()
    except BaseException:
        for child in children:
            child.kill()
        raise
    out.check(exit_code == 0, f"repro serve exited with code {exit_code}")

    with open(report_path, encoding="utf-8") as handle:
        server_text = handle.read()
    server_report = report_from_json(server_text)
    out.check(
        report_to_json(server_report) == server_text,
        "server report does not round-trip through report_from_json",
    )
    served = list(server_report.clients)
    out.check(
        len(served) == N_CONNECTIONS * len(runs),
        f"server reported {len(served)} connections, expected {N_CONNECTIONS * len(runs)}",
    )

    # Checks per loadgen run, then figures per phase.
    by_phase: dict[str, dict] = {}
    for index, (phase, n_frames, report, lags) in enumerate(runs):
        key = phase.key
        scheduled = N_CONNECTIONS * n_frames
        out.attempt(scheduled)
        text = report_to_json(report)
        out.check(report_to_json(report_from_json(text)) == text, f"phase {key}: loadgen report does not round-trip")
        out.check(report.completed_clients == N_CONNECTIONS, f"phase {key}: a stream did not end in BYE")
        out.check(report.protocol_errors == 0, f"phase {key}: {report.protocol_errors} protocol errors")
        mine = served[index * N_CONNECTIONS : (index + 1) * N_CONNECTIONS]
        sent = sum(len(c.frames) for c in mine)
        dropped = sum(c.deadline_drops + c.queue_drops for c in mine)
        out.check(
            sent + dropped == scheduled,
            f"phase {key}: server accounted {sent + dropped} of {scheduled} frames",
        )
        delivered = [f.transmit_time_s for c in report.clients for f in c.frames]
        out.check(len(delivered) == sent, f"phase {key}: {sent} frames sent, {len(delivered)} delivered")
        totals = by_phase.setdefault(
            key,
            {"phase": phase, "scheduled": 0, "delivered": [], "deadline": 0, "queue": 0,
             "lags": [], "goodput": []},
        )
        totals["scheduled"] += scheduled
        totals["delivered"] += delivered
        totals["deadline"] += sum(c.deadline_drops for c in mine)
        totals["queue"] += sum(c.queue_drops for c in mine)
        totals["lags"] += lags
        totals["goodput"].append(_delivery_rate_mb_s(report))

    decode_s = tracer.self_times(by_request=True)
    for key, totals in by_phase.items():
        if key == "warm":
            continue
        phase, scheduled, delivered = totals["phase"], totals["scheduled"], totals["delivered"]
        deadline_drops, queue_drops, lags = totals["deadline"], totals["queue"], totals["lags"]
        goodput = statistics.median(totals["goodput"])
        prefix = f"serving.{key}"
        out.layers.update(
            {
                f"{prefix}.frames_scheduled": scheduled,
                f"{prefix}.frames_delivered": len(delivered),
                f"{prefix}.deadline_drops": deadline_drops,
                f"{prefix}.queue_drops": queue_drops,
                f"{prefix}.loadgen_loop_lag_s_p99": percentile(lags, 99) if lags else 0.0,
                f"{prefix}.client_decode_s": decode_s.get(("serving.client_decode", key), 0.0),
            }
        )
        if key == "a":
            p50, p99 = percentile(delivered, 50), percentile(delivered, 99)
            out.named["live_latency_p50_s"] = (p50, "s")
            out.named["live_latency_p99_s"] = (p99, "s")
            out.layers["serving.a.latency_p50_s"] = p50
            out.layers["serving.a.latency_p99_s"] = p99
        elif key == "b":
            # Not scaled by the host probe: phase b's rate is measured while
            # the probe cannot run, and in a five-run trial scaling by probes
            # between its parts widened its spread from 0.08 to 0.15.
            out.end_to_end["throughput_per_s"] = goodput
            out.named["live_goodput_mb_s"] = (goodput, "MB/s")
        else:
            throttled_p50 = percentile(delivered, 50)
            throttled_p99 = percentile(delivered, 99)
            out.end_to_end["latency_s"] = throttled_p50
            out.named["live_throttled_latency_p50_s"] = (throttled_p50, "s")
            out.named["live_throttled_latency_p99_s"] = (throttled_p99, "s")
            per_connection_mbps = 8 * goodput / N_CONNECTIONS
            ratio = per_connection_mbps / phase.throttle_mbps
            out.layers["serving.throttle_rate_ratio"] = ratio
            out.check(
                ratio >= MIN_THROTTLE_RATIO,
                f"phase c: clients read {per_connection_mbps:.0f} Mbps of a "
                f"{phase.throttle_mbps:g} Mbps trace; the loadgen, not the server, is the limit",
            )
        out.notes.append(
            f"phase {key}: {phase.rung} at {phase.fps:g} fps x {N_CONNECTIONS}"
            + (f" in {phase.parts} parts" if phase.parts > 1 else "")
            + (f", throttled to {phase.throttle_mbps:g} Mbps" if phase.throttle_mbps else "")
            + f": {len(delivered)}/{scheduled} delivered, {deadline_drops} deadline + "
            f"{queue_drops} queue drops, {goodput:.1f} MB/s, loop lag p99 "
            f"{out.layers[f'{prefix}.loadgen_loop_lag_s_p99'] * 1e3:.2f} ms"
        )
    out.end_to_end["setup_s"] = out.host.scaled("setup")
    out.traced_passes = int(traced)
    return out
