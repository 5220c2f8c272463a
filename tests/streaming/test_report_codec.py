"""The report codec: round trips of every tag, and precise rejections.

Two contracts of :mod:`repro.streaming.reports` beyond the byte goldens:

* **round trip** — a report of any registered tag, with every field
  set to a non-default value, loads back to an equal object and
  re-serializes to the same bytes;
* **loud, precise failure** — a payload with a missing field, a value
  of the wrong JSON type, or a wrong format constant raises
  :class:`ValueError` naming the tag and the dotted field path.
"""

import dataclasses
import json
import re
import types
import typing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.serving  # noqa: F401  (registers the served report tags)
from repro.streaming import BandwidthTrace, report_from_json, report_to_json
from repro.streaming.engine import FrameTiming
from repro.streaming.link import WirelessLink
from repro.streaming.reports import (
    _REPORT_TYPES,
    register_report_type,
    report_from_dict,
    report_to_dict,
)
from repro.streaming.server import ClientReport, FleetReport
from repro.streaming.session import SessionReport
from repro.streaming.sketch import QuantileSketch

# Every float a report field takes in this test lies in (0, 1): valid
# for probabilities and positive rates, and never a field's default.
_FLOATS = st.floats(min_value=0.01, max_value=0.99)
_NAMES = st.text(alphabet="abcxyz-", min_size=1, max_size=6)


def _sketch(values: list[float]) -> QuantileSketch:
    sketch = QuantileSketch(max_centroids=8)
    sketch.add(values)
    return sketch


def _trace(steps: list[float], rates: list[float]) -> BandwidthTrace:
    times = [0.0]
    for step in steps:
        times.append(times[-1] + step)
    return BandwidthTrace(times, rates[: len(times)])


#: Leaf (non-dataclass) field types and how to draw one.
_LEAVES = {
    QuantileSketch: st.builds(_sketch, st.lists(_FLOATS, min_size=1, max_size=20)),
    BandwidthTrace: st.builds(
        _trace, st.lists(_FLOATS, max_size=3), st.lists(_FLOATS, min_size=4, max_size=4)
    ),
}


def non_default(hint) -> st.SearchStrategy:
    """Values of ``hint`` that differ from any field default."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is float:
        return _FLOATS
    if hint is int:
        return st.integers(min_value=1, max_value=999)
    if hint is str:
        return _NAMES
    if hint is bool:
        return st.just(True)
    if origin in (typing.Union, types.UnionType):
        (present,) = [arg for arg in args if arg is not type(None)]
        return non_default(present)
    if origin in (list, tuple):
        return st.lists(non_default(args[0]), min_size=1, max_size=3).map(origin)
    if origin is dict:
        return st.dictionaries(_NAMES, non_default(args[1]), min_size=1, max_size=3)
    if hint in _LEAVES:
        return _LEAVES[hint]
    hints = typing.get_type_hints(hint)
    fields = {
        field.name: non_default(hints[field.name]) for field in dataclasses.fields(hint)
    }
    return st.builds(hint, **fields)


class TestRoundTrip:
    @pytest.mark.parametrize("tag", sorted(_REPORT_TYPES))
    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(data=st.data())
    def test_every_field_survives(self, tag, data):
        cls = _REPORT_TYPES[tag][0]
        report = data.draw(non_default(cls))
        text = report_to_json(report)
        loaded = report_from_json(text)
        assert type(loaded) is cls
        assert loaded == report
        assert report_to_json(loaded) == text
        # Omittable fields are written too, once they leave their default.
        assert set(json.loads(text)) >= {f.name for f in dataclasses.fields(cls)}


def _frame(index: int) -> FrameTiming:
    return FrameTiming(
        frame_index=index, payload_bits=1000 + index, encode_time_s=0.001,
        serialization_time_s=0.002, transmit_time_s=0.004, rung="bd",
    )


def _payload(tag: str) -> dict:
    """A valid payload of ``tag`` to break one field of."""
    cls = _REPORT_TYPES[tag][0]
    common = dict(encoder="bd", target_fps=72.0, frames=[_frame(0), _frame(1)])
    if tag == "session":
        report = SessionReport(**common)
    elif tag == "fleet":
        client = ClientReport(**common, name="a", scene="office")
        report = FleetReport(
            clients=(client,), scheduler="fair", n_frames=2,
            link=WirelessLink.traced(BandwidthTrace([0.0, 0.1], [40.0, 4.0])),
        )
    else:
        report = cls(**common, name="a", scene="office")
    return report_to_dict(report)


def _set(path: list, value):
    def mutate(data: dict) -> None:
        *parents, last = path
        for key in parents:
            data = data[key]
        if value is _DELETE:
            del data[last]
        else:
            data[last] = value

    return mutate


_DELETE = object()

#: case -> (tag, mutation, dotted path named in the error)
MALFORMED = {
    "missing field": (
        "loadgen-client", _set(["frames"], _DELETE), "loadgen-client.frames"
    ),
    "missing nested field": (
        "session", _set(["frames", 1, "rung"], _DELETE), "session.frames[1].rung"
    ),
    "string for a float": (
        "session", _set(["target_fps"], "72"), "session.target_fps"
    ),
    "bool for an int": ("fleet", _set(["n_frames"], True), "fleet.n_frames"),
    "float for an int": (
        "served-client", _set(["frames", 0, "payload_bits"], 1.5),
        "served-client.frames[0].payload_bits",
    ),
    "scalar for a list": (
        "loadgen-client", _set(["frames"], 3), "loadgen-client.frames"
    ),
    "scalar for an object": ("fleet", _set(["link"], 5), "fleet.link"),
    "object for a string": (
        "fleet", _set(["clients", 0, "name"], {}), "fleet.clients[0].name"
    ),
    "malformed leaf": (
        "fleet", _set(["link", "trace"], {"times_s": [0.0]}), "fleet.link.trace"
    ),
    "invalid value": (
        "fleet", _set(["link", "bandwidth_mbps"], -1.0), "fleet.link"
    ),
    "bad constant": ("fleet", _set(["pricing"], "round"), "fleet.pricing"),
    "missing constant": ("fleet", _set(["pricing"], _DELETE), "fleet.pricing"),
}


class TestMalformed:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_names_tag_and_field(self, case):
        tag, mutate, path = MALFORMED[case]
        data = _payload(tag)
        mutate(data)
        with pytest.raises(ValueError, match="^" + re.escape(path) + ": "):
            report_from_json(json.dumps(data))

    def test_unmarked_fields_are_required(self):
        # Only omit-when-default fields may be left out of a payload.
        data = _payload("client")
        del data["stop_s"]
        with pytest.raises(ValueError, match=r"^client\.stop_s: missing$"):
            report_from_dict(data)

    def test_unsupported_field_type_rejected_at_registration(self):
        @dataclasses.dataclass(frozen=True)
        class Odd:
            pair: tuple[int, str]

        with pytest.raises(TypeError, match="no report codec"):
            register_report_type("odd", Odd)
        assert "odd" not in _REPORT_TYPES
