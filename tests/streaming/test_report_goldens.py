"""Byte-level goldens for every report tag.

Each case pins the sha256 of ``report_to_json`` for one small report of
one registered tag, so any change to how reports are serialized must
write every report byte for byte as before; each pinned text must also
load back to an object equal to the one that wrote it.  The simulator
reports come from small simulations on precomputed or 32x32 payloads;
the served reports are built directly, as the serving path builds them,
from a simulated stream's frame rows.
"""

import hashlib
import json

import numpy as np
import pytest

import repro.serving  # noqa: F401  (registers the served report tags)
from repro.scenes import get_scene
from repro.serving.client import LoadgenClientReport, LoadgenReport
from repro.serving.server import ServedClientReport, ServerReport
from repro.streaming import (
    BandwidthTrace,
    ClientConfig,
    report_from_json,
    report_to_json,
    simulate_adaptive_session,
    simulate_fleet,
    simulate_session,
)
from repro.streaming.cohort import CohortSpec, simulate_cohort_fleet
from repro.streaming.link import WirelessLink
from repro.streaming.loss import LossTrace

LINK = WirelessLink(bandwidth_mbps=40.0, propagation_ms=2.0)
LOSSY = WirelessLink(
    bandwidth_mbps=40.0, propagation_ms=2.0, jitter_ms=0.5,
    loss=LossTrace.gilbert_elliott(0.2, mean_burst_packets=3.0),
)
TRACED = WirelessLink.traced(
    BandwidthTrace([0.0, 0.03, 0.06], [60.0, 8.0, 30.0]), propagation_ms=2.0
)
RUNG_STREAMS = [(900_000, 400_000, 150_000, 60_000, 20_000)]


def _clients() -> list[ClientConfig]:
    return [
        ClientConfig(name="a", scene="office", codec="bd", height=32, width=32),
        ClientConfig(
            name="b", scene="fortnite", codec="raw", height=32, width=32,
            weight=2.0, start_s=0.01, stop_s=0.04,
        ),
    ]


def _adaptive():
    return simulate_adaptive_session(
        get_scene("office"), TRACED, controller="throughput", n_frames=6,
        target_fps=30.0, rung_streams=RUNG_STREAMS,
    )


def _served(**counters) -> ServedClientReport:
    adaptive = _adaptive()
    return ServedClientReport(
        encoder="adaptive", target_fps=adaptive.target_fps, frames=adaptive.frames,
        name="conn-0", scene="office", adaptive=adaptive.adaptive,
        deadline_drops=2, queue_drops=1, bytes_sent=123_456, **counters,
    )


def _loadgen_client(index: int, **extra) -> LoadgenClientReport:
    session = simulate_session(
        get_scene("office"), LINK, encoder="bd", n_frames=3, height=32, width=32,
        seed=index,
    )
    return LoadgenClientReport(
        encoder="adaptive", target_fps=72.0, frames=session.frames,
        name=f"loadgen-{index}", scene="office", bytes_received=65_536,
        completed=True, **extra,
    )


def _cohorts() -> list[CohortSpec]:
    rng = np.random.default_rng(5)
    payloads = tuple((int(b),) for b in rng.integers(40_000, 400_000, size=5))
    return [
        CohortSpec(name="c0", n_members=40, payloads=payloads, n_frames=6,
                   n_tracers=2, scene="office", codec="bd"),
        CohortSpec(name="c1", n_members=25, payloads=payloads, n_frames=6,
                   target_fps=90.0, weight=2.0, start_s=0.01, stop_s=0.05),
    ]


def _report(case: str):
    office = get_scene("office")
    if case == "session-lossless":
        return simulate_session(office, LINK, encoder="bd", n_frames=3, height=32, width=32)
    if case == "session-lossy":
        return simulate_session(
            office, LOSSY, encoder="bd", n_frames=6, height=32, width=32,
            recovery="arq",
        )
    if case == "adaptive-session-traced":
        return _adaptive()
    if case == "client-window":
        return simulate_fleet(_clients(), LINK, n_frames=4).clients[1]
    if case == "fleet-lossy-buffer":
        return simulate_fleet(
            _clients(), LOSSY, n_frames=4, controller="buffer", recovery="skip"
        )
    if case == "fleet-traced":
        return simulate_fleet(_clients(), TRACED, n_frames=4)
    if case == "cohort-fleet":
        return simulate_cohort_fleet(_cohorts(), LOSSY, seed=9, recovery="arq")
    if case == "served-client":
        return _served()
    if case == "served-client-chaos":
        return _served(chaos_drops=1, chaos_delays=4, chaos_resets=1)
    if case == "served-client-partial-chaos":
        return _served(chaos_delays=3)
    if case == "server-handshake-errors":
        return ServerReport(
            clients=(_served(), _served(chaos_drops=2, chaos_delays=1, chaos_resets=1)),
            ladder=("perceptual", "bd", "raw"), duration_s=1.25, scene="office",
            handshake_errors=2,
        )
    if case == "loadgen-client-reconnects":
        return _loadgen_client(0, reconnects=2, resyncs=3)
    if case == "loadgen":
        return LoadgenReport(
            clients=(_loadgen_client(0), _loadgen_client(1, protocol_errors=1)),
            duration_s=0.5,
        )
    raise AssertionError(case)


#: case -> (tag, sha256 of ``report_to_json``)
GOLDEN = {
    "session-lossless": (
        "session",
        "277272a805a89f0084fb284ce9b1ee85"
        "e4a1040c533780d0b3783a0acbd74d2c",
    ),
    "session-lossy": (
        "session",
        "77ece4ae9b6eb4ee23f08d547c0bf009"
        "81d7ab437adf990a783ef04044ba219e",
    ),
    "adaptive-session-traced": (
        "adaptive-session",
        "a91c1bfb64e77e1681b377618e4c46c5"
        "238344b2b11a96cc274020537885e29f",
    ),
    "client-window": (
        "client",
        "456bf32dc8f7c2383bebbcb9e8e39e38"
        "b02572ee01d667fca89382ddb43d1a69",
    ),
    "fleet-lossy-buffer": (
        "fleet",
        "e68b9c5d8be49317154e459ffcaa7247"
        "4e6d71ea3c97de71a4c5c71cd0d0a2fe",
    ),
    "fleet-traced": (
        "fleet",
        "55bd1d284385a295e94c237b748dbb0b"
        "ea69be9b7b43f661ea37acdeca8a8865",
    ),
    "cohort-fleet": (
        "cohort-fleet",
        "8f1c828ccaf480e052222d67978d9007"
        "72273da80ba1412e080fd783cfd03e5b",
    ),
    "served-client": (
        "served-client",
        "4ebd5ecf93e6e6727de009e4a667b214"
        "d0de6e9f28988566cfd5fe234e96d9e1",
    ),
    "served-client-chaos": (
        "served-client",
        "5882fce7b6c0528e7c9040b8b4ada324"
        "2f6dd55b98a88fc3aa307f9c2e43f4e9",
    ),
    # Re-pinned once: each chaos counter is now written only while it
    # is non-zero (it was all three whenever any was); the three-counter
    # form still loads, see test_partial_chaos_zeros_still_load.
    "served-client-partial-chaos": (
        "served-client",
        "410473693137f82569e81c39659f0507"
        "76a63ec2ffe6a33a5c436df954687fb6",
    ),
    "server-handshake-errors": (
        "server",
        "62032c5677687cda39c0b6951e43d06a"
        "6e2442c828a5e5f3d4ca46f97d5af4cd",
    ),
    "loadgen-client-reconnects": (
        "loadgen-client",
        "06e3f70ed484a03b5792dbb3ea526165"
        "eab246ba728182e005838146cc4d962c",
    ),
    "loadgen": (
        "loadgen",
        "65818f3e3574b13e1f681c4bb5fe4353"
        "bfa89d52529c1f5b2da4372688fec46e",
    ),
}


def test_every_tag_is_pinned():
    from repro.streaming.reports import _REPORT_TYPES

    assert {tag for tag, _ in GOLDEN.values()} == set(_REPORT_TYPES)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_report_matches_golden(case):
    tag, digest = GOLDEN[case]
    report = _report(case)
    text = report_to_json(report)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert f'"report": "{tag}"' in text
    loaded = report_from_json(text)
    assert type(loaded) is type(report)
    assert loaded == report
    assert report_to_json(loaded) == text


def test_partial_chaos_zeros_still_load():
    report = _report("served-client-partial-chaos")
    data = json.loads(report_to_json(report))
    assert "chaos_drops" not in data and "chaos_resets" not in data
    data.update(chaos_drops=0, chaos_resets=0)  # how older writers wrote it
    assert report_from_json(json.dumps(data)) == report
