"""Spans around the program's layer boundaries, recorded from outside it.

A traced run installs wrappers on public functions and methods of
``repro`` (scenes, color, codecs, perception, core, encoding, streaming,
serving) for its duration and removes them afterwards; nothing under
``src/`` changes.  Each call becomes a span — name, start, end, parent,
request id — kept in memory and written out at the end as Chrome
trace-event JSON, which Perfetto opens.

A layer's self time is its span duration minus the time its child
spans cover.  Wrappers only time and count: they never touch
arguments or results, so simulated outputs must come out identical
with tracing on or off (the workloads check that).
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

_NOW = time.perf_counter


class Tracer:
    """In-memory span recorder with a current request id."""

    def __init__(self) -> None:
        # Each span: [name, start_s, end_s, parent_index, request, args]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = ""
        self.render_keys: set[tuple] = set()

    def enter(self, name: str, args: dict | None = None) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, _NOW(), 0.0, parent, self.request, args])

    def exit(self) -> None:
        self.spans[self._stack.pop()][2] = _NOW()

    @contextlib.contextmanager
    def span(self, name: str, request: str | None = None):
        """Record one span; ``request`` also becomes the current request id."""
        previous = self.request
        if request is not None:
            self.request = request
        self.enter(name)
        try:
            yield
        finally:
            self.exit()
            self.request = previous

    # -- analysis ---------------------------------------------------------

    def self_times(self, by_request: bool = False) -> dict:
        """Self seconds per span name (or per (name, request))."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, request, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict = defaultdict(float)
        for index, (name, start, end, _, request, _) in enumerate(self.spans):
            key = (name, request) if by_request else name
            totals[key] += (end - start) - child_time[index]
        return totals

    def calls(self, name: str, under: str | None = None) -> int:
        """How many ``name`` spans ran (only those below an ``under`` span)."""
        count = 0
        for span in self.spans:
            if span[0] != name:
                continue
            if under is None or self._has_ancestor(span, under):
                count += 1
        return count

    def _has_ancestor(self, span: list, name: str) -> bool:
        parent = span[3]
        while parent >= 0:
            ancestor = self.spans[parent]
            if ancestor[0] == name:
                return True
            parent = ancestor[3]
        return False

    def write_chrome_trace(self, path: str, metadata: dict) -> None:
        """Write every span as a Chrome trace "complete" event."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = []
        for index, (name, start, end, parent, request, args) in enumerate(self.spans):
            event_args = {"id": index, "parent": parent, "request": request}
            if args:
                event_args.update(args)
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": event_args,
                }
            )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms", "metadata": metadata},
                handle,
            )


def _timed(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return wrapper


class _Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self) -> None:
        self._undo: list = []

    def attr(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        old = vars(owner).get(attr)
        setattr(owner, attr, value)
        self._undo.append((owner, attr, had, old))

    def function(self, original, replacement) -> None:
        """Replace ``original`` in every loaded ``repro`` module that binds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.attr(module, attr, replacement)

    def undo(self) -> None:
        for owner, attr, had, old in reversed(self._undo):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo.clear()


#: Ladder codecs whose ``encode`` gets a ``codecs.encode.<name>`` span.
CODEC_NAMES = ("nocom", "png", "bd", "variable-bd", "perceptual")


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Install span wrappers on the program's layer boundaries."""
    from repro.codecs import FrameContext, get_codec
    from repro.color.srgb import encode_srgb8
    from repro.core import adjust_tiles, optimize_tiles
    from repro.core.pipeline import PerceptualEncoder
    from repro.encoding.bd import BDCodec, bd_breakdown, bd_stream_bytes
    from repro.encoding.bd_variable import VariableBDCodec, variable_bd_stream_bytes
    from repro.perception.geometry import mahalanobis
    from repro.perception.model import ParametricModel, RBFModel, ScaledModel
    from repro.scenes.display import DisplayGeometry
    from repro.scenes.library import Scene
    from repro.serving.protocol import MessageDecoder
    from repro.streaming.cohort import plan_member_links
    from repro.streaming.engine import StreamingEngine

    patches = _Patches()
    try:
        original_render = Scene.render

        @functools.wraps(original_render)
        def render(scene, height, width, frame=0, eye=None, **kwargs):
            tracer.render_keys.add((tracer.request, scene.name, frame, height, width, eye))
            tracer.enter("scenes.render", {"scene": scene.name, "frame": frame, "eye": eye})
            try:
                return original_render(scene, height, width, frame, eye, **kwargs)
            finally:
                tracer.exit()

        patches.attr(Scene, "render", render)
        patches.attr(
            DisplayGeometry,
            "eccentricity_map",
            _timed(tracer, "scenes.eccentricity", DisplayGeometry.eccentricity_map),
        )
        patches.function(encode_srgb8, _timed(tracer, "color.srgb8", encode_srgb8))

        patches.attr(FrameContext, "__init__", _timed(tracer, "codecs.context", FrameContext.__init__))
        patches.attr(FrameContext, "tiles", _timed(tracer, "codecs.context", FrameContext.tiles))
        for prop in ("srgb8", "eccentricity"):
            getter = vars(FrameContext)[prop].fget
            patches.attr(FrameContext, prop, property(_timed(tracer, "codecs.context", getter)))
        for name in CODEC_NAMES:
            cls = type(get_codec(name))
            patches.attr(cls, "encode", _timed(tracer, f"codecs.encode.{name}", cls.encode))

        for cls in (ParametricModel, RBFModel, ScaledModel):
            patches.attr(cls, "semi_axes", _timed(tracer, "perception.semi_axes", cls.semi_axes))
        patches.function(mahalanobis, _timed(tracer, "perception.mahalanobis", mahalanobis))

        patches.attr(
            PerceptualEncoder,
            "encode_frame",
            _timed(tracer, "core.encode_frame", PerceptualEncoder.encode_frame),
        )
        patches.function(optimize_tiles, _timed(tracer, "core.optimize_tiles", optimize_tiles))
        patches.function(adjust_tiles, _timed(tracer, "core.adjust_tiles", adjust_tiles))

        patches.function(bd_breakdown, _timed(tracer, "encoding.bd_breakdown", bd_breakdown))
        patches.function(bd_stream_bytes, _timed(tracer, "encoding.bd_encode", bd_stream_bytes))
        patches.function(
            variable_bd_stream_bytes,
            _timed(tracer, "encoding.vbd_encode", variable_bd_stream_bytes),
        )
        patches.attr(BDCodec, "decode", _timed(tracer, "encoding.bd_decode", BDCodec.decode))
        patches.attr(
            VariableBDCodec,
            "decode",
            _timed(tracer, "encoding.vbd_decode", VariableBDCodec.decode),
        )

        patches.attr(StreamingEngine, "run", _timed(tracer, "streaming.engine_run", StreamingEngine.run))
        patches.function(
            plan_member_links, _timed(tracer, "streaming.cohort_plan", plan_member_links)
        )
        patches.attr(
            MessageDecoder, "feed", _timed(tracer, "serving.client_decode", MessageDecoder.feed)
        )
        yield tracer
    finally:
        patches.undo()


def layers_if(tracer: Tracer, enabled: bool):
    """``instrumented(tracer)`` when ``enabled``, else a no-op context."""
    return instrumented(tracer) if enabled else contextlib.nullcontext()


#: Span name -> per-layer metric name for self time.
SELF_TIME_METRICS = {
    "scenes.render": "scenes.render_s",
    "scenes.eccentricity": "scenes.eccentricity_s",
    "color.srgb8": "color.srgb8_s",
    "codecs.context": "codecs.context_s",
    **{f"codecs.encode.{name}": f"codecs.encode_s.{name}" for name in CODEC_NAMES},
    "perception.semi_axes": "perception.semi_axes_s",
    "perception.mahalanobis": "perception.mahalanobis_s",
    "core.encode_frame": "core.encode_frame_s",
    "core.optimize_tiles": "core.optimize_tiles_s",
    "core.adjust_tiles": "core.adjust_tiles_s",
    "encoding.bd_breakdown": "encoding.bd_breakdown_s",
    "encoding.bd_encode": "encoding.bd_encode_s",
    "encoding.bd_decode": "encoding.bd_decode_s",
    "encoding.vbd_encode": "encoding.vbd_encode_s",
    "encoding.vbd_decode": "encoding.vbd_decode_s",
    "streaming.engine_run": "streaming.engine_run_s",
    "streaming.cohort_run": "streaming.cohort_run_s",
    "streaming.cohort_plan": "streaming.cohort_plan_s",
    "serving.bank_build": "serving.bank_build_s",
}


def layer_metrics(tracer: Tracer, n_passes: int) -> dict[str, float]:
    """Per-pass self times and call counts of the in-process layers."""
    n = max(1, n_passes)
    self_times = tracer.self_times()
    metrics = {
        metric: self_times.get(span, 0.0) / n for span, metric in SELF_TIME_METRICS.items()
    }
    render_calls = tracer.calls("scenes.render")
    metrics["scenes.render_calls"] = render_calls / n
    metrics["scenes.render_unique_ratio"] = (
        len(tracer.render_keys) / render_calls if render_calls else 0.0
    )
    frames = tracer.calls("core.encode_frame")
    for span, metric in (
        ("perception.semi_axes", "perception.semi_axes_calls_per_eye"),
        ("encoding.bd_breakdown", "encoding.bd_breakdown_calls_per_eye"),
    ):
        metrics[metric] = tracer.calls(span, under="core.encode_frame") / frames if frames else 0.0
    return metrics
