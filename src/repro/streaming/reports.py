"""One JSON format for every streaming report, simulated or served.

The simulators (:mod:`repro.streaming.session`, ``adaptive``,
``server``) and the real serving path (:mod:`repro.serving`) all
describe their outcomes with the same vocabulary — per-frame
:class:`~repro.streaming.engine.FrameTiming` rows, per-stream
:class:`~repro.streaming.engine.AdaptiveStats`, per-client reports
rolling up into a fleet/server aggregate.  This module gives that
vocabulary one serialized form, so ``repro serve --report`` output and
``simulate_fleet`` results are *diffable with the same tooling*: load
either side with :func:`report_from_json` and compare attribute by
attribute, or diff the JSON directly.

Every payload carries a ``"report"`` type tag and a ``"version"``;
decoding dispatches on the tag through a registry that each report
module fills with the dataclasses it defines
(:func:`register_report_type`), so one loader handles simulator and
server output alike.  One codec, driven by the dataclass fields,
serves every type:

* a body is the fields in declaration order; nested dataclasses,
  lists, tuples and dicts map onto JSON objects and arrays, and any
  other object is written by its ``to_dict`` and read by its
  ``from_dict``;
* a field declared with :func:`omit_when_default` is written only
  while it differs from its default; it is the only kind of field a
  payload may leave out;
* format constants given at registration are written after the fields
  and must match on read;
* reading checks every value against its field's annotation and
  raises :class:`ValueError` naming the tag and the field path, e.g.
  ``loadgen-client.frames[3].payload_bits``.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from functools import cache
from typing import Any, Callable, Mapping

__all__ = [
    "REPORT_FORMAT_VERSION",
    "JsonReport",
    "omit_when_default",
    "register_report_type",
    "report_to_dict",
    "report_from_dict",
    "report_to_json",
    "report_from_json",
]

#: Version stamped into every serialized report; bump on breaking
#: format changes so old payloads fail loudly instead of silently.
#: Version 2 added the ``cohort-fleet`` report type and its quantile-
#: sketch latency roll-up (see ``docs/fleet-scale.md``).  The lossy-
#: link fields (``"loss"`` on session bodies and link mappings) are
#: omitted while unset, so lossless version-2 payloads are
#: byte-identical to pre-loss ones and no version bump is warranted.
REPORT_FORMAT_VERSION = 2

#: Versions :func:`report_from_dict` accepts.  Version-1 payloads are
#: a strict subset of version 2 (no field changed shape), so old
#: reports keep loading.
_SUPPORTED_VERSIONS = frozenset({1, 2})

_OMIT = "report_omit_when_default"


def omit_when_default(default: Any) -> Any:
    """A dataclass field written only while it differs from ``default``.

    Use it for fields added after a report type first shipped, so
    payloads that never set them stay byte-identical to older ones.
    """
    return dataclasses.field(default=default, metadata={_OMIT: True})


# -- the report-type registry -------------------------------------------

#: tag -> (dataclass, format constants).
_REPORT_TYPES: dict[str, tuple[type, dict[str, Any]]] = {}


def register_report_type(
    tag: str, cls: type, constants: Mapping[str, Any] | None = None
) -> None:
    """Teach the serializer a new report type.

    Parameters
    ----------
    tag:
        The payload's ``"report"`` value.  Must be unique.
    cls:
        The exact dataclass the tag stands for (dispatch is on
        ``type(report)``, so subclasses register their own tags).
    constants:
        Format constants written after the fields; a payload with any
        other value for one of them is rejected on read.
    """
    if tag in _REPORT_TYPES:
        raise ValueError(f"report tag {tag!r} already registered")
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"report type {cls.__name__} is not a dataclass")
    _codec(cls)  # resolve every field annotation now, not on first use
    _REPORT_TYPES[tag] = (cls, dict(constants or {}))


def report_to_dict(report: Any) -> dict[str, Any]:
    """Serialize any registered report to its tagged mapping form."""
    for tag, (cls, constants) in _REPORT_TYPES.items():
        if type(report) is cls:
            body = _codec(cls)[0](report)
            return {"report": tag, "version": REPORT_FORMAT_VERSION, **body, **constants}
    raise TypeError(
        f"no serializer registered for {type(report).__name__}; "
        f"known tags: {sorted(_REPORT_TYPES)}"
    )


def report_from_dict(data: dict[str, Any]) -> Any:
    """Rebuild a report from its tagged mapping form.

    A payload that does not fit its tagged type raises
    :class:`ValueError` naming the tag and the offending field.
    """
    tag = data.get("report") if isinstance(data, dict) else None
    if tag not in _REPORT_TYPES:
        raise ValueError(
            f"unknown report tag {tag!r}; known tags: {sorted(_REPORT_TYPES)}"
        )
    version = data.get("version")
    if version not in _SUPPORTED_VERSIONS:
        raise ValueError(
            f"report format version {version!r} not supported "
            f"(this build reads versions {sorted(_SUPPORTED_VERSIONS)})"
        )
    cls, constants = _REPORT_TYPES[tag]
    for key, expected in constants.items():
        if data.get(key) != expected:
            raise ValueError(
                f"{tag}.{key}: report field {key!r} is {data.get(key)!r}; "
                f"this build reads only {expected!r}"
            )
    try:
        return _codec(cls)[1](data)
    except _Mismatch as error:
        path = "".join(
            f"[{step}]" if isinstance(step, int) else f".{step}"
            for step in reversed(error.path)
        )
        raise ValueError(f"{tag}{path}: {error}") from None


def report_to_json(report: Any, indent: int | None = 2) -> str:
    """Any registered report as a JSON document."""
    return json.dumps(report_to_dict(report), indent=indent)


def report_from_json(text: str) -> Any:
    """Load whichever report type a JSON document declares."""
    return report_from_dict(json.loads(text))


class JsonReport:
    """``to_json``/``from_json`` for a registered report dataclass."""

    def to_json(self, indent: int | None = 2) -> str:
        """This report as a tagged JSON document.

        The payload is type-tagged, so the generic
        :func:`report_from_json` loader — and the ``from_json``
        classmethod on any report class — can read it back.
        Subclasses serialize with their own tag and extra fields.
        """
        return report_to_json(self, indent=indent)

    @classmethod
    def from_json(cls, text: str):
        """Load a report serialized by :meth:`to_json`.

        Decoding dispatches on the payload's type tag; the result must
        be an instance of ``cls`` (calling ``ClientReport.from_json``
        on a fleet payload is an error, but ``SessionReport.from_json``
        accepts any session subclass).
        """
        report = report_from_json(text)
        if not isinstance(report, cls):
            raise TypeError(
                f"payload decodes to {type(report).__name__}, not {cls.__name__}"
            )
        return report


# -- the codec ------------------------------------------------------------


class _Mismatch(Exception):
    """A payload value that does not fit its field.

    ``path`` collects field names and list indices, innermost first,
    as the error propagates out of the nested decoders.
    """

    def __init__(self, problem: str, *path: str | int):
        super().__init__(problem)
        self.path = list(path)


def _check(value: Any, *kinds: type) -> None:
    if type(value) not in kinds:
        raise _Mismatch(f"expected {kinds[0].__name__}, got {type(value).__name__}")


def _step(step: str | int, decode: Callable[[Any], Any], value: Any) -> Any:
    """``decode(value)``, adding ``step`` to the path of any mismatch."""
    try:
        return decode(value)
    except _Mismatch as error:
        error.path.append(step)
        raise


@cache
def _codec(hint: Any) -> tuple[Callable[[Any], Any] | None, Callable[[Any], Any]]:
    """``(encode, decode)`` for one resolved field annotation.

    ``encode`` is ``None`` where the value is written as it is.
    """
    if hint in (int, float, str, bool):
        kinds = (float, int) if hint is float else (hint,)

        def decode(value):
            _check(value, *kinds)
            return hint(value)

        return None, decode
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        present = [arg for arg in args if arg is not type(None)]
        if len(present) != 1:
            raise TypeError(f"no report codec for field type {hint!r}")
        inner_encode, inner_decode = _codec(present[0])

        def encode(value):
            return None if value is None else inner_encode(value)

        def decode(value):
            return None if value is None else inner_decode(value)

        return (None if inner_encode is None else encode), decode
    if origin is list or (origin is tuple and args[1:] == (...,)):
        inner_encode, inner_decode = _codec(args[0])

        def decode(value):
            _check(value, list)
            return origin(
                [_step(index, inner_decode, item) for index, item in enumerate(value)]
            )

        if inner_encode is None:
            return list, decode
        return (lambda value: [inner_encode(item) for item in value]), decode
    if origin is dict and args[0] is str and _codec(args[1])[0] is None:
        inner_decode = _codec(args[1])[1]

        def decode(value):
            _check(value, dict)
            return {key: _step(key, inner_decode, item) for key, item in value.items()}

        return dict, decode
    if dataclasses.is_dataclass(hint):
        return _dataclass_codec(hint)
    if isinstance(hint, type) and hasattr(hint, "from_dict"):

        def decode(value):
            _check(value, dict)
            try:
                return hint.from_dict(value)
            except (KeyError, TypeError, ValueError) as error:
                raise _Mismatch(f"invalid {hint.__name__}: {error!r}") from None

        return (lambda value: value.to_dict()), decode
    raise TypeError(f"no report codec for field type {hint!r}")


def _dataclass_codec(cls: type) -> tuple[Callable[[Any], Any], Callable[[Any], Any]]:
    hints = typing.get_type_hints(cls)
    fields = [
        (f.name, *_codec(hints[f.name]), f.metadata.get(_OMIT, False), f.default)
        for f in dataclasses.fields(cls)
    ]
    omittable = [(name, default) for name, _, _, omit, default in fields if omit]
    nested = [(name, encode) for name, encode, _, _, _ in fields if encode is not None]

    def encode(value):
        # A dataclass __init__ stores the fields in declaration order, so
        # the instance dict is the body unless something else is cached
        # there; copying it is several times faster than reading fields.
        body = vars(value).copy()
        if len(body) != len(fields):
            body = {name: body[name] for name, _, _, _, _ in fields}
        for name, default in omittable:
            if body[name] == default:
                del body[name]
        for name, inner in nested:
            if name in body:
                body[name] = inner(body[name])
        return body

    def decode(value):
        _check(value, dict)
        kwargs = {}
        for name, _, inner, optional, _ in fields:
            if name in value:
                kwargs[name] = _step(name, inner, value[name])
            elif not optional:
                raise _Mismatch("missing", name)
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as error:
            raise _Mismatch(f"invalid {cls.__name__}: {error}") from None

    return encode, decode
