"""``encode-ladder``: the float64 codec/core/perception/colour stack alone.

Set-up renders one stereo frame of every library scene at 512x512 per
eye plus one Quest 2 eye (1832x1920) and derives each eye's
gaze-dependent eccentricity map; none of that is timed.  Timed: each
512x512 eye, one unit, through a ``FrameContext`` and every default
ladder codec (``get_codec(...).encode``), round after round for
``seconds``, then the Quest 2 eye once through ``perceptual`` and ``bd``.
Every BD and variable-BD stream is decoded again.  About 6 MB and about
84 MB of float64 tiles: two working-set sizes, nothing rendered in the
timed region, and no frame repeated within a round, so render or encode
caches should predict no change here.

Seeds choose each scene's frame index and the gaze fixations; the Quest 2
eye is always the office scene.
"""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np

from harness import Outcome, timed_setup
from tracing import layers_if

SIZE = 512
QUEST2_SHAPE = (1832, 1920)
QUEST2_CODECS = ("perceptual", "bd")
QUEST2_SCENE = "office"
#: The perceptual guarantee as the test suite bounds it.
MAHALANOBIS_BOUND = 1.0 + 1e-9
#: Paper figures (Fig. 10): mean saving against an uncompressed
#: framebuffer, and the largest saving against plain BD.
PAPER_VS_NOCOM = 0.669
PAPER_VS_BD_MAX = 0.204
#: Set-up renders take seconds here, so fewer repetitions than elsewhere.
SETUP_REPS = 2


def _eyes(seed: int):
    """(label, linear frame, eccentricity map) per eye, from ``seed``."""
    from repro import QUEST2_DISPLAY, SCENE_NAMES, get_scene

    rng = np.random.default_rng(seed)
    eyes = []
    for name in SCENE_NAMES:
        frame = int(rng.integers(0, 64))
        fixation = tuple(float(v) for v in rng.uniform(0.3, 0.7, size=2))
        ecc = QUEST2_DISPLAY.eccentricity_map(SIZE, SIZE, fixation=fixation)
        left, right = get_scene(name).render_stereo(SIZE, SIZE, frame=frame)
        eyes.append((f"{name}/frame{frame}/left", left, ecc))
        eyes.append((f"{name}/frame{frame}/right", right, ecc))
    # One fixed scene: which scene it is moves the Quest 2 encode time by
    # more than the benchmark's bounds, and the seed should not.
    name = QUEST2_SCENE
    frame = int(rng.integers(0, 64))
    fixation = tuple(float(v) for v in rng.uniform(0.3, 0.7, size=2))
    height, width = QUEST2_SHAPE
    quest = get_scene(name).render(height, width, frame=frame, eye="left")
    ecc = QUEST2_DISPLAY.eccentricity_map(height, width, fixation=fixation)
    return eyes, (f"{name}/frame{frame}/quest2", quest, ecc)


def _codecs(names):
    from repro import get_codec

    return {
        name: get_codec(name, payload=True) if name in ("bd", "variable-bd") else get_codec(name)
        for name in names
    }


def run(seed: int, seconds: float, tracer, traced: bool) -> Outcome:
    from repro import FrameContext, QualityLadder
    from repro.encoding.bd import BDCodec
    from repro.encoding.bd import EncodedFrame as BDFrame
    from repro.encoding.bd_variable import VariableBDCodec, VariableEncodedFrame

    out = Outcome()
    ladder_names = QualityLadder.default().names
    eyes, quest = timed_setup(lambda: _eyes(seed), out.host, reps=SETUP_REPS)
    ladder = _codecs(ladder_names)
    quest_codecs = _codecs(QUEST2_CODECS)
    bd_decoder = BDCodec(tile_size=4)
    vbd_decoder = VariableBDCodec(tile_size=4, group_size=4)

    def encode_eye(label, frame, ecc, codecs):
        """Encode one eye with every codec and decode its BD streams (timed)."""
        with tracer.span("bench.eye", request=label):
            ctx = FrameContext(frame, eccentricity=ecc)
            results = {name: codec.encode(ctx) for name, codec in codecs.items()}
            decoded = {}
            _, grid = ctx.tiles(4)
            if "bd" in results:
                r = results["bd"]
                decoded["bd"] = bd_decoder.decode(
                    BDFrame(data=r.metadata["payload"], grid=grid, breakdown=r.breakdown)
                )
            if "variable-bd" in results:
                r = results["variable-bd"]
                decoded["variable-bd"] = vbd_decoder.decode(
                    VariableEncodedFrame(
                        data=r.metadata["payload"], grid=grid, group_size=4,
                        breakdown=r.breakdown,
                    )
                )
        return ctx, results, decoded

    def check_eye(label, ctx, results, decoded) -> None:
        out.attempt(len(results) + len(decoded))
        for name, image in decoded.items():
            out.check(
                np.array_equal(image, ctx.srgb8), f"{label}: {name} decode != sRGB8 input"
            )
        perceptual = results.get("perceptual")
        if perceptual is not None:
            out.check(
                perceptual.max_mahalanobis <= MAHALANOBIS_BOUND,
                f"{label}: perceptual max_mahalanobis {perceptual.max_mahalanobis!r} > 1",
            )
        for name, result in results.items():
            out.check(result.total_bits > 0, f"{label}: {name} encoded to 0 bits")

    eye_bits: dict[str, dict[str, int]] = {}
    started = time.perf_counter()
    with layers_if(tracer, traced), tracer.span("bench.encode_pass", request="pass0"):
        # The 512x512 eyes for ``seconds``.  A traced run makes one round,
        # so its per-pass figures cover every eye once; an untraced one
        # goes round again while time is left.
        for index in itertools.count():
            if index >= len(eyes) and (
                traced
                or time.perf_counter() - started + statistics.median(out.host.raw("eye")) > seconds
            ):
                break
            label, frame, ecc = eyes[index % len(eyes)]
            ctx, results, decoded = out.host.time("eye", encode_eye, label, frame, ecc, ladder)
            check_eye(label, ctx, results, decoded)
            sizes = {name: result.total_bits for name, result in results.items()}
            out.check(
                eye_bits.setdefault(label, sizes) == sizes,
                f"{label}: encoded sizes changed between rounds",
            )

        # Then the Quest 2 eye, once: at about 8 s it is too long to sample
        # repeatedly, so its rate is printed by name and not gated.
        ctx, results, decoded = out.host.time("quest2_eye", encode_eye, *quest, quest_codecs)
        check_eye(quest[0], ctx, results, decoded)
        quest_bits = {n: r.total_bits for n, r in results.items()}
        quest_mpx = ctx.n_pixels / 1e6
        del ctx, results, decoded
    out.traced_passes = int(traced)

    eye_mpx = SIZE * SIZE / 1e6
    out.end_to_end["throughput_per_s"] = eye_mpx / out.host.scaled("eye")
    out.end_to_end["latency_s"] = out.host.scaled("eye")
    out.end_to_end["setup_s"] = out.host.scaled("setup")
    out.named["encode_mpx_per_s"] = (eye_mpx / statistics.median(out.host.raw("eye")), "Mpx/s")
    out.named["encode_quest2_mpx_per_s"] = (quest_mpx / out.host.raw("quest2_eye")[0], "Mpx/s")
    out.notes.append(
        f"{len(out.host.raw('eye'))} encodes of {len(eyes)} eyes at {SIZE}x{SIZE} through "
        f"{', '.join(ladder_names)} + 1 Quest 2 eye through {', '.join(QUEST2_CODECS)}"
    )
    bits = {name: sum(sizes[name] for sizes in eye_bits.values()) for name in ladder_names}
    for name, total in bits.items():
        out.stats[f"codecs.bits.{name}"] = total
    for name, total in quest_bits.items():
        out.stats[f"codecs.quest2_bits.{name}"] = total
    vs_nocom = 1.0 - bits["perceptual"] / bits["nocom"]
    vs_bd = 1.0 - bits["perceptual"] / bits["bd"]
    out.notes.append(
        f"paper reference: perceptual saves {vs_nocom:.1%} vs nocom (paper "
        f"{PAPER_VS_NOCOM:.1%}) and {vs_bd:.1%} vs bd (paper up to {PAPER_VS_BD_MAX:.1%}) "
        f"on the {SIZE}x{SIZE} set; the scenes are "
        "procedural stand-ins, so no error against the paper is claimed"
    )
    out.named["perceptual_saving_vs_nocom"] = (vs_nocom, "fraction")
    out.named["perceptual_saving_vs_bd"] = (vs_bd, "fraction")
    return out
