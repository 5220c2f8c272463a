"""Byte-level goldens for fleet and cohort reports.

Each case pins the sha256 of ``report_to_json`` for one small fleet, so
any change to how fleet streams are rendered, encoded or fanned out
over processes must reproduce every report byte for byte.  Every case
runs serially and on a two-worker pool; both must hash to the pin.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.fleet import run_fleet
from repro.scenes.gaze import saccade_trace
from repro.streaming import report_to_json
from repro.streaming.link import WirelessLink
from repro.streaming.server import ClientConfig, simulate_fleet

LINK = WirelessLink(bandwidth_mbps=40.0, propagation_ms=2.0)
SMALL = ExperimentConfig(height=32, width=32, n_frames=2, seed=11)


def _gaze(seed: int) -> tuple:
    return tuple(saccade_trace(duration_s=0.1, rng=np.random.default_rng(seed)))


def _windowed_clients() -> list[ClientConfig]:
    """One scene, two resolutions, per-client join/leave windows."""
    specs = [
        # name, codec, height, width, start_s, stop_s
        ("w0", "perceptual", 32, 32, 0.0, None),
        ("w1", "bd", 32, 32, 1 / 72, None),
        ("w2", "variable-bd", 32, 32, 0.0, 2.5 / 72),
        ("w3", "raw", 24, 40, 0.0, 1.5 / 72),
        ("w4", "perceptual", 24, 40, 2 / 72, None),
        ("w5", "perceptual", 32, 32, 0.5 / 72, 3.5 / 72),
    ]
    return [
        ClientConfig(
            name=name,
            scene="office",
            codec=codec,
            height=height,
            width=width,
            gaze_trace=_gaze(index),
            start_s=start_s,
            stop_s=stop_s,
        )
        for index, (name, codec, height, width, start_s, stop_s) in enumerate(specs)
    ]


def _report(case: str, n_jobs: int):
    if case == "thirteen-clients":
        return run_fleet(SMALL, n_clients=13, link=LINK, n_jobs=n_jobs).report
    if case == "windows-two-resolutions":
        return simulate_fleet(
            _windowed_clients(), LINK, n_frames=4, n_jobs=n_jobs, seed=3
        )
    if case == "adaptive-buffer":
        return run_fleet(
            SMALL, n_clients=7, link=LINK, n_jobs=n_jobs, controller="buffer"
        ).report
    if case == "fixed-controller":
        return run_fleet(
            SMALL, n_clients=5, link=LINK, n_jobs=n_jobs, controller="fixed"
        ).report
    if case == "cohorts":
        return run_fleet(
            SMALL, n_clients=50, link=LINK, n_jobs=n_jobs, cohorts=True
        ).report
    raise AssertionError(case)


GOLDEN_SHA256 = {
    "thirteen-clients": (
        "4139d8c4cf38c567ef32b1522de4df13"
        "9464f821c7db9426ef4c46a54441868c"
    ),
    "windows-two-resolutions": (
        "9ed64c8c31534b51f84694ee107072eb"
        "11b6f71b1304ade60e1c4503c5e19f85"
    ),
    "adaptive-buffer": (
        "6f98619438b17512b444526df5e17057"
        "9f4810844ee0040dac39365be5831bc2"
    ),
    "fixed-controller": (
        "5a84e47fe4405c9f21f4ab1058ac76e0"
        "237a8b0582bdb5193bf098aaeebf4572"
    ),
    "cohorts": (
        "bbf9076ac1d39544d446afc6aefef25e"
        "9a93a2da52136e334e02aab5273765e4"
    ),
}


@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize("case", sorted(GOLDEN_SHA256))
def test_report_matches_golden(case, n_jobs):
    text = report_to_json(_report(case, n_jobs))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_SHA256[case]
