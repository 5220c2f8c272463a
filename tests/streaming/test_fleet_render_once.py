"""Work counts of the fleet encode: render once, quantize once per eye.

Clients that share a scene and a resolution see the same frames, so a
fleet renders each of those frames once, quantizes each rendered eye
at most once, and derives eccentricity maps only for the clients whose
codec reads them (the perceptual ones).
"""

import pytest

from repro.codecs.context import FrameContext
from repro.experiments import ExperimentConfig
from repro.experiments.fleet import run_fleet
from repro.scenes.library import Scene
from repro.streaming.server import _encode_tasks

CONFIG = ExperimentConfig(height=32, width=32, n_frames=2)


@pytest.fixture()
def counted(monkeypatch):
    """Record every ``Scene.render`` call and every constructed context."""
    renders = []
    contexts = []
    real_render = Scene.render
    real_init = FrameContext.__init__

    def render(scene, height, width, frame=0, eye=None, **kwargs):
        renders.append((scene.name, frame, eye))
        return real_render(scene, height, width, frame, eye, **kwargs)

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        contexts.append(self)

    monkeypatch.setattr(Scene, "render", render)
    monkeypatch.setattr(FrameContext, "__init__", init)
    return renders, contexts


def test_default_roster_renders_each_shared_frame_once(counted):
    renders, contexts = counted
    result = run_fleet(CONFIG, n_clients=24, n_jobs=1)
    assert len(result.report.clients) == 24
    # 6 scenes x 2 frames x 2 eyes, however many clients watch each scene.
    assert len(renders) == 24
    assert len(set(renders)) == 24
    # One context per rendered eye, each quantized exactly once: every
    # scene group here holds a non-perceptual client.
    assert len(contexts) == 24
    assert [ctx.stats["quantize"] for ctx in contexts] == [1] * 24
    # Maps only for perceptual clients: 6 of 24, 2 frames, 2 eyes each.
    n_perceptual = sum(c.encoder == "perceptual" for c in result.report.clients)
    assert n_perceptual == 6
    assert sum(ctx.stats["eccentricity"] for ctx in contexts) == n_perceptual * 2 * 2


def test_perceptual_only_fleet_never_quantizes(counted):
    renders, contexts = counted
    config = ExperimentConfig(
        height=32, width=32, n_frames=2, codec_names=("perceptual",)
    )
    run_fleet(config, n_clients=12, n_jobs=1)
    assert len(renders) == 24
    assert [ctx.stats["quantize"] for ctx in contexts] == [0] * 24


def test_lossless_only_fleet_builds_no_eccentricity_map(counted):
    _, contexts = counted
    config = ExperimentConfig(
        height=32, width=32, n_frames=2, codec_names=("bd", "raw")
    )
    run_fleet(config, n_clients=12, n_jobs=1)
    assert sum(ctx.stats["eccentricity"] for ctx in contexts) == 0


class TestEncodeTasks:
    def test_one_task_per_group_when_groups_cover_workers(self):
        groups = [[0, 2], [1, 3], [4]]
        assert _encode_tasks(groups, 1) == groups
        assert _encode_tasks(groups, 3) == groups

    def test_groups_split_into_contiguous_chunks_for_idle_workers(self):
        assert _encode_tasks([[0, 1, 2, 3, 4]], 2) == [[0, 1, 2], [3, 4]]
        assert _encode_tasks([[0, 2, 4], [1, 3]], 4) == [[0, 2], [4], [1], [3]]

    def test_never_splits_below_one_client(self):
        assert _encode_tasks([[7]], 4) == [[7]]
