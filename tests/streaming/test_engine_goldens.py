"""Bit-level goldens for the streaming engine's outcomes and event log.

Each case runs :class:`~repro.streaming.engine.StreamingEngine` (or the
cohort engine's tracers) on precomputed payloads and pins two sha256
digests: one of every :class:`~repro.streaming.engine.StreamOutcome`
(floats by their exact hex form) and, separately, one of the kernel's
``last_events``.  Any change to how the engine prices a frame must
reproduce every outcome bit for bit; the event-log digest additionally
pins the order in which events were processed.

The matrix covers both schedulers, constant and traced links, lossless
links and ARQ/FEC/skip recovery, jitter, an adaptive ``buffer`` stream,
staggered starts and departures, equal and zero-bit payloads, solo
runs, and cohort tracers.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.codecs.ladder import QualityLadder
from repro.streaming.adaptive import get_controller
from repro.streaming.cohort import CohortSpec, simulate_cohort_fleet
from repro.streaming.engine import (
    AdaptationState,
    PrecomputedSource,
    StreamingEngine,
    StreamSpec,
)
from repro.streaming.link import WirelessLink
from repro.streaming.loss import LossTrace
from repro.streaming.traces import BandwidthTrace

CONST = WirelessLink(bandwidth_mbps=40.0, propagation_ms=2.0)
JITTERY = WirelessLink(bandwidth_mbps=40.0, propagation_ms=2.0, jitter_ms=1.5)
TRACED = WirelessLink.traced(
    BandwidthTrace.square(high_mbps=60.0, low_mbps=15.0, period_s=0.025),
    propagation_ms=2.0,
    jitter_ms=0.5,
)
BERNOULLI = WirelessLink(
    bandwidth_mbps=40.0, propagation_ms=2.0, jitter_ms=1.0,
    loss=LossTrace.bernoulli(0.02, reorder_prob=0.1, reorder_depth=2),
)
BURSTY_TRACED = WirelessLink.traced(
    BandwidthTrace.markov(
        levels_mbps=(15.0, 40.0, 90.0), p_switch=0.4, dt_s=0.02, horizon_s=2.0,
        seed=3,
    ),
    propagation_ms=2.0,
    jitter_ms=1.0,
    loss=LossTrace.gilbert_elliott(0.01, mean_burst_packets=4.0),
)
LADDER = QualityLadder.default()
N_FRAMES = 8


def _frames(seed: int, n_rungs: int = 1, n_frames: int = 5) -> list[tuple[int, ...]]:
    """Deterministic per-frame rung sizes, best rung first."""
    rng = np.random.default_rng(seed)
    return [
        tuple(sorted(rng.integers(40_000, 900_000, size=n_rungs).tolist(), reverse=True))
        for _ in range(n_frames)
    ]


def _pinned(name, seed, **kwargs) -> StreamSpec:
    kwargs.setdefault("n_frames", N_FRAMES)
    kwargs.setdefault("target_fps", 72.0)
    return StreamSpec(name=name, source=PrecomputedSource(_frames(seed)), **kwargs)


def _adaptive(name, seed, start_rung=2, **kwargs) -> StreamSpec:
    kwargs.setdefault("n_frames", N_FRAMES)
    kwargs.setdefault("target_fps", 72.0)
    state = AdaptationState(
        get_controller("buffer"), LADDER, start_rung, 1.0 / kwargs["target_fps"]
    )
    return StreamSpec(
        name=name,
        source=PrecomputedSource(_frames(seed, n_rungs=len(LADDER))),
        adaptation=state,
        **kwargs,
    )


def _mixed_fleet() -> list[StreamSpec]:
    return [
        _pinned("a", 1, weight=1.0),
        _pinned("b", 2, weight=2.0, target_fps=90.0),
        _pinned("c", 3, weight=1.0, encode_time_s=0.001),
        _pinned("d", 4, weight=3.0, target_fps=60.0),
    ]


def _staggered_fleet() -> list[StreamSpec]:
    return [
        _pinned("early", 5),
        _pinned("late", 6, start_s=0.013),
        _pinned("leaver", 7, stop_s=0.05),
        _pinned("window", 8, start_s=0.02, stop_s=0.09, weight=2.0),
    ]


def _equal_fleet() -> list[StreamSpec]:
    source = PrecomputedSource([(250_000,)])
    return [
        StreamSpec(name=f"eq{i}", source=source, n_frames=4, target_fps=72.0)
        for i in range(6)
    ]


def _zero_fleet() -> list[StreamSpec]:
    return [
        StreamSpec(name="z0", source=PrecomputedSource([(0,)]), n_frames=3,
                   target_fps=72.0),
        StreamSpec(name="z1", source=PrecomputedSource([(0,), (300_000,)]),
                   n_frames=4, target_fps=72.0),
        _pinned("p", 9, n_frames=4),
        StreamSpec(name="z2", source=PrecomputedSource([(0,)]), n_frames=3,
                   target_fps=72.0, start_s=0.004),
    ]


def _adaptive_fleet() -> list[StreamSpec]:
    return [
        _adaptive("ad0", 10),
        _adaptive("ad1", 11, start_rung=4, weight=2.0),
        _pinned("pin", 12),
    ]


#: name -> (link, scheduler, recovery, streams factory, seed)
ENGINE_CASES = {
    "fair-const": (CONST, "fair", None, _mixed_fleet, 1),
    "priority-const": (CONST, "priority", None, _mixed_fleet, 1),
    "fair-traced-jitter": (TRACED, "fair", None, _mixed_fleet, 2),
    "priority-traced-jitter": (TRACED, "priority", None, _mixed_fleet, 2),
    "fair-jitter-staggered": (JITTERY, "fair", None, _staggered_fleet, 3),
    "priority-staggered": (CONST, "priority", None, _staggered_fleet, 3),
    "fair-equal": (JITTERY, "fair", None, _equal_fleet, 4),
    "priority-equal": (CONST, "priority", None, _equal_fleet, 4),
    "fair-zero": (CONST, "fair", None, _zero_fleet, 5),
    "priority-zero-traced": (TRACED, "priority", None, _zero_fleet, 5),
    "fair-arq": (BERNOULLI, "fair", "arq", _mixed_fleet, 6),
    "fair-fec-traced": (BURSTY_TRACED, "fair", "fec", _staggered_fleet, 7),
    "priority-skip": (BERNOULLI, "priority", "skip", _zero_fleet, 8),
    "fair-adaptive-buffer": (TRACED, "fair", None, _adaptive_fleet, 9),
    "priority-adaptive-arq": (BURSTY_TRACED, "priority", "arq", _adaptive_fleet, 9),
    "solo-jitter": (JITTERY, "fair", None, lambda: [_pinned("solo", 13)], 10),
    "solo-traced-adaptive": (TRACED, "fair", None, lambda: [_adaptive("solo", 14)], 11),
    "solo-fec-staggered": (
        BURSTY_TRACED, "fair", "fec",
        lambda: [_pinned("solo", 15, start_s=0.01, stop_s=0.08)], 12,
    ),
}


def _canonical(value):
    """A JSON-able form of ``value`` with every float as its exact hex."""
    if dataclasses.is_dataclass(value):
        return [type(value).__name__] + [
            [field.name, _canonical(getattr(value, field.name))]
            for field in dataclasses.fields(value)
        ]
    if isinstance(value, dict):
        return [[key, _canonical(item)] for key, item in sorted(value.items())]
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(_canonical(value)).encode()).hexdigest()


def engine_digests(case: str) -> tuple[str, str]:
    """(outcomes digest, event-log digest) of one engine case."""
    link, scheduler, recovery, streams, seed = ENGINE_CASES[case]
    engine = StreamingEngine(link, scheduler=scheduler, recovery=recovery)
    outcomes = engine.run(streams(), seed=seed)
    events = [
        [event.time_s.hex(), event.kind, event.stream, event.frame_index]
        for event in engine.last_events
    ]
    return _digest(outcomes), _digest(events)


def _cohorts() -> list[CohortSpec]:
    return [
        CohortSpec(name="c0", n_members=40, payloads=tuple(_frames(20)),
                   n_frames=N_FRAMES, n_tracers=3),
        CohortSpec(name="c1", n_members=25, payloads=tuple(_frames(21)),
                   n_frames=N_FRAMES, target_fps=90.0, weight=2.0, start_s=0.01,
                   n_tracers=2),
        CohortSpec(name="c2", n_members=10, payloads=tuple(_frames(22)),
                   n_frames=N_FRAMES, stop_s=0.07, encode_time_s=0.001,
                   n_tracers=2),
    ]


def _adaptive_cohorts() -> list[CohortSpec]:
    return [
        CohortSpec(name=f"a{i}", n_members=30, n_frames=N_FRAMES, n_tracers=2,
                   payloads=tuple(_frames(30 + i, n_rungs=len(LADDER))),
                   start_rung=2 + i)
        for i in range(2)
    ]


#: name -> (cohorts factory, link, scheduler, controller, recovery)
COHORT_CASES = {
    "cohort-fair-traced-jitter": (_cohorts, TRACED, "fair", None, None),
    "cohort-priority-arq": (_cohorts, BERNOULLI, "priority", None, "arq"),
    "cohort-fair-fec": (_cohorts, BURSTY_TRACED, "fair", None, "fec"),
    "cohort-adaptive-skip": (_adaptive_cohorts, BERNOULLI, "fair", "buffer", "skip"),
}


def cohort_digest(case: str) -> str:
    """Digest of every tracer report of one cohort case.

    The digest covers the tracers' dataclass field order; the cohort
    pins were re-pinned once when ``SessionReport`` moved ``frames``
    after ``target_fps`` (its serialized order), with every value
    unchanged.
    """
    cohorts, link, scheduler, controller, recovery = COHORT_CASES[case]
    report = simulate_cohort_fleet(
        cohorts(), link, scheduler=scheduler, seed=17, controller=controller,
        recovery=recovery,
    )
    return _digest(report.tracers)


OUTCOME_SHA256 = {
    "cohort-adaptive-skip": (
        "afac29477b680672a119642901678d3e"
        "a63c15a1b925850b0075a21f6217ee3c"
    ),
    "cohort-fair-fec": (
        "dc26a5a277f6ff07d5714d684636aa44"
        "a4d458838dd48b062ef96217dc8979bf"
    ),
    "cohort-fair-traced-jitter": (
        "5f8c2c735c572845c3fc7626dcb13228"
        "d5faf8ac4f4dd7c0dc898cbdc98842be"
    ),
    "cohort-priority-arq": (
        "ecc02d397e7614ab4bf2c26848590b98"
        "3b622b11013519f72f14974f38c76f7c"
    ),
    "fair-adaptive-buffer": (
        "50d524d676de3386007a779857897bae"
        "fd34165072c4f6f6aae1d3e93a642114"
    ),
    "fair-arq": (
        "3e37f23d54640cf0a9a1371ba15d77aa"
        "d4d992d19d279e9a74dfa96c18e3d59f"
    ),
    "fair-const": (
        "a8a6828b5c4275be7c52c6eb7f5622a8"
        "871360b9c499ca3b609fe515cee102e0"
    ),
    "fair-equal": (
        "33420825719012c70d17b793ecb7f4b3"
        "5867be1abda142d39fbf9683b71678d1"
    ),
    "fair-fec-traced": (
        "a488065c10b41e0aefac8dfa593fd067"
        "c7d0b28fc7dc363aebd1e370609395ba"
    ),
    "fair-jitter-staggered": (
        "bf0236c589aa858d77b7560377af04cd"
        "22e796b5134cc843cc3f63ea712a03af"
    ),
    "fair-traced-jitter": (
        "a42b303b726506e32219c9c51c0eb336"
        "be7a67ff2ae98b99430f825338e79284"
    ),
    "fair-zero": (
        "f8081a6f166e8e3ce80b8a6975782bb9"
        "181a73fdd6a57f22fa506fc116e20998"
    ),
    "priority-adaptive-arq": (
        "e3573c64e3d650102e8f7a4e0d1abeae"
        "eec7924888b257be4c8cda237d6b5c11"
    ),
    "priority-const": (
        "62a40660551aaa957793be4453001976"
        "f07ebf0bd07db70ce0487567df7ac5b1"
    ),
    "priority-equal": (
        "feba42917ae8741c4c72d9680b0a0429"
        "97e3c7a4ca5fe440289566e7bd25d4e4"
    ),
    "priority-skip": (
        "f5acf84d59aa4f7bfd04c25b929d56d5"
        "59b4935fe59a45d958619f0d526eb2ca"
    ),
    "priority-staggered": (
        "898140077215837821cf2eade64b19e1"
        "916ff0251f536ce944652366d14e5138"
    ),
    "priority-traced-jitter": (
        "cc8ff179f19a3212ef2ace4345108369"
        "ad31a835b5f0d1401546d7db26b11b4c"
    ),
    "priority-zero-traced": (
        "9708dc079e51a984a09f2ef837d21746"
        "6fd87d96698e36902a0827e334dcd804"
    ),
    "solo-fec-staggered": (
        "8dc06c68f8079265f8997623e13487fd"
        "98e414793a99b78bf31594e49ad0f06c"
    ),
    "solo-jitter": (
        "243a86255de36ca8367da40cfe8641ce"
        "8753081d617b79e723e97d7aa3d1c24a"
    ),
    "solo-traced-adaptive": (
        "384e4548445d76cd6ea8d9ea99bc2256"
        "6b7a2344dc658e2ddd129bfb9cbf69be"
    ),
}

EVENT_SHA256 = {
    "fair-adaptive-buffer": (
        "10d2dee2256b7c33883039a28fde41de"
        "c1dad680391535a928d20eb695e20525"
    ),
    "fair-arq": (
        "51f518258f552999213bc9b25f368e90"
        "adc4737e3e35ef0657baaf51c33ea158"
    ),
    "fair-const": (
        "51f518258f552999213bc9b25f368e90"
        "adc4737e3e35ef0657baaf51c33ea158"
    ),
    "fair-equal": (
        "cbb3dd00ed81511df48b70232d740144"
        "62f3fc6e5942aa1b6ba48881e983f1ed"
    ),
    "fair-fec-traced": (
        "6688991a77f2d871e317cb9f31beb738"
        "3fcd278d9c793fcb8ec8fa8c475dd42a"
    ),
    "fair-jitter-staggered": (
        "a1e7dd037e0e86398f19741de193a11d"
        "fdfd11d5e7848e9d7f548c76834aea16"
    ),
    "fair-traced-jitter": (
        "ffd012908395159f21b45f8d6fd9358f"
        "085a79b681fe38fbc5c0f416ea876cbc"
    ),
    "fair-zero": (
        "b64330ff17aba305ae311e59ae575672"
        "a97cbff315fc5860f2bc1b87b9aabefd"
    ),
    "priority-adaptive-arq": (
        "7414b102816439a144ec3145a40fcb41"
        "45beca8812f67cf595c176e03efbe982"
    ),
    "priority-const": (
        "5cc8f14d78f01ba123e2b18109f3336b"
        "814a904662d92c80efd9f3a54238ab16"
    ),
    "priority-equal": (
        "b2cb6ca9e7a2d2ca47e3a137f6e46288"
        "4cf59d291a2395e96810b06f5c3e43fd"
    ),
    "priority-skip": (
        "21ba8bba0c8991ce5f84cdf8db9b82af"
        "9b78297e6ec0dfe078205917a9f0e7cd"
    ),
    "priority-staggered": (
        "0821ae1510984bbe13e4f94f789225a0"
        "91ed3a3cef14512726a715b88e3bfeb9"
    ),
    "priority-traced-jitter": (
        "699abad1fbaa7fa180049f12c2893e31"
        "1159a3bdfe404fb433db116cdc4e395f"
    ),
    "priority-zero-traced": (
        "05c4edfac95338ed5ca05eb755ab428c"
        "8d428ec7689536c41a933cc17d958c17"
    ),
    "solo-fec-staggered": (
        "c6f9242140f6c5194a15886e24ee4e12"
        "2fdafb5bb275f7a303562167731f2bd2"
    ),
    "solo-jitter": (
        "54de2aff94e50685e356945ad61725b8"
        "b04283d857effd45267ad7c341003dea"
    ),
    "solo-traced-adaptive": (
        "c13c1b0a3b249482e2567f7fb1bfadab"
        "76fcc9d2be7163487bab533c006dd8b3"
    ),
}


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_engine_outcomes_match_golden(case):
    assert engine_digests(case)[0] == OUTCOME_SHA256[case]


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_engine_event_log_matches_golden(case):
    assert engine_digests(case)[1] == EVENT_SHA256[case]


@pytest.mark.parametrize("case", sorted(COHORT_CASES))
def test_cohort_tracers_match_golden(case):
    assert cohort_digest(case) == OUTCOME_SHA256[case]
