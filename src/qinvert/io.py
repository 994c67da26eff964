"""JSON state files with explicit [re, im] entry pairs.

The decimal encoding uses Python's shortest round-trip float repr, so a
write/read cycle reproduces every entry exactly.

Both directions stream one matrix row at a time, so no D^2-sized tree of
Python objects exists.  The writer emits the text in chunks: the header,
then ``json.dumps`` of each row of the float64 pair view, then the label.
The reader reads the whole text and scans its top-level object with the
json module's own scanner; a mixed file whose ``dims`` and ``kind`` come
before ``data`` (every file the writer produces) has its rows decoded one
at a time into one preallocated (D, 2D) float64 array, which the state
then owns without a copy.  Any other layout, and any row that is not D
[re, im] pairs of JSON numbers, is scanned whole, so its diagnostic is
that of the nested lists.

Measured with tracemalloc on an 8-qubit mixed file, writing peaks at 0.1
D x D complex arrays, and reading at the file's length plus 3.1 arrays:
the text is held twice over while the file's bytes are decoded, then
once while it is scanned, and is dropped before validation.
"""

from __future__ import annotations

import itertools
import json
from json.decoder import WHITESPACE, JSONDecodeError, scanstring
from pathlib import Path
from typing import Iterator

import numpy as np

from .dims import DEFAULT_DIM_CAP, SubsystemDims
from .states import DensityMatrix, PureState

_scan_once = json.JSONDecoder().scan_once
_skip_ws = WHITESPACE.match
# rows of floats hold no cycles; the check would record every pair list in a dict
_encode = json.JSONEncoder(check_circular=False).encode


class StateFileError(ValueError):
    """Raised when a state file cannot be parsed or fails validation."""


def _pairs(state: DensityMatrix | PureState) -> tuple[str, np.ndarray]:
    """The kind of ``state`` and its entries as [re, im] pairs: one float64
    view of shape (D, 2) or (D, D, 2), row-major."""
    if isinstance(state, PureState):
        kind, values = "pure", state.vector
    elif isinstance(state, DensityMatrix):
        kind, values = "mixed", state.matrix
    else:
        raise TypeError(f"cannot serialize {type(state).__name__}")
    return kind, np.ascontiguousarray(values).view(np.float64).reshape(values.shape + (2,))


def state_to_dict(state: DensityMatrix | PureState, label: str | None = None) -> dict:
    kind, pairs = _pairs(state)
    out = {"dims": list(state.dims.dims), "kind": kind, "data": pairs.tolist()}
    if label is not None:
        out["label"] = label
    return out


def _rows_text(pairs: np.ndarray) -> Iterator[str]:
    yield "["
    for i, row in enumerate(pairs):
        if i:
            yield ", "
        yield _encode(row.tolist())
    yield "]"


def state_chunks(state: DensityMatrix | PureState, label: str | None = None) -> Iterator[str]:
    """The JSON object of a state file in chunks, without its final
    newline; joined, they are ``json.dumps(state_to_dict(state, label))``.
    Only one row's Python floats exist at a time.  The header and label are
    encoded before the first chunk is returned, so a state or label the
    codec cannot write raises before anything is written."""
    kind, pairs = _pairs(state)
    head = f'{{"dims": {json.dumps(list(state.dims.dims))}, "kind": "{kind}", "data": '
    tail = "}" if label is None else f', "label": {json.dumps(label)}}}'
    return itertools.chain((head,), _rows_text(pairs), (tail,))


def state_text(state: DensityMatrix | PureState, label: str | None = None) -> str:
    """The JSON object of a state file, without its final newline."""
    return "".join(state_chunks(state, label=label))


def write_state_file(
    path: str | Path, state: DensityMatrix | PureState, label: str | None = None
) -> None:
    chunks = state_chunks(state, label=label)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)
        fh.write("\n")


def _flat_numbers(data, shape: tuple[int, ...]) -> list | None:
    """The numbers of ``data`` in row-major order when it is nested lists
    of ``shape`` holding [re, im] pairs of ints and floats, else None."""
    rows = [data]
    for n in shape + (2,):
        if set(map(type, rows)) != {list} or set(map(len, rows)) != {n}:
            return None
        rows = list(itertools.chain.from_iterable(rows))
    return rows if set(map(type, rows)) <= {int, float} else None


def _entries(data, shape: tuple[int, ...]) -> np.ndarray:
    """The complex array of ``shape`` held in ``data`` as nested [re, im]
    pairs of real JSON numbers (not booleans or strings).  Well-formed
    data is read in one flat pass; anything else takes the nested
    conversion, whose errors name what is wrong."""
    numbers = _flat_numbers(data, shape)
    if numbers is not None:
        try:
            return np.array(numbers, dtype=np.float64).view(np.complex128).reshape(shape)
        except OverflowError:
            pass
    try:
        pairs = np.array(data, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise StateFileError(f"invalid data: {exc}") from exc
    if pairs.shape != shape + (2,):
        raise StateFileError(f"data shape {pairs.shape} is not {shape + (2,)} (length {shape[0]})")
    numbers = data
    for _ in shape:
        numbers = itertools.chain.from_iterable(numbers)
    for t in set(map(type, numbers)):
        if t is bool or not issubclass(t, (int, float)):
            raise StateFileError(f"data entries must be JSON numbers, got {t.__name__}")
    return pairs.view(np.complex128).reshape(shape)


def _dims(value, cap: int) -> SubsystemDims:
    try:
        if not isinstance(value, list) or any(type(d) is not int for d in value):
            raise TypeError(f"expected a list of JSON integers, got {value!r}")
        return SubsystemDims(tuple(value), cap=cap)
    except (TypeError, ValueError) as exc:
        raise StateFileError(f"invalid dims: {exc}") from exc


def _header(obj: dict, cap: int) -> tuple[str, SubsystemDims, tuple[int, ...]]:
    """The kind, dims and data shape of a parsed state file, each checked
    (all but the data itself)."""
    if not isinstance(obj, dict):
        raise StateFileError("state file must hold a JSON object")
    for key in ("dims", "kind", "data"):
        if key not in obj:
            raise StateFileError(f"state file is missing the {key!r} field")
    dims = _dims(obj["dims"], cap)
    if "label" in obj and not isinstance(obj["label"], str):
        raise StateFileError(f"invalid label: expected a JSON string, got {obj['label']!r}")
    kind = obj["kind"]
    if kind not in ("pure", "mixed"):
        raise StateFileError(f"unknown state kind {kind!r}")
    d = dims.total
    return kind, dims, (d,) if kind == "pure" else (d, d)


def _state(kind: str, dims: SubsystemDims, values: np.ndarray) -> DensityMatrix | PureState:
    # ``values`` is always a fresh array, which the state takes over uncopied
    try:
        if kind == "pure":
            return PureState(values, dims, _owned=True)
        return DensityMatrix(values, dims, _owned=True)
    except ValueError as exc:
        raise StateFileError(f"invalid state data: {exc}") from exc


def state_from_dict(obj: dict, cap: int = DEFAULT_DIM_CAP) -> DensityMatrix | PureState:
    kind, dims, shape = _header(obj, cap)
    return _state(kind, dims, _entries(obj["data"], shape))


# ---------------------------------------------------------------------------
# the streaming reader


def _value(s: str, idx: int):
    """The JSON value at ``idx`` and the index after it, as json.loads
    scans it."""
    try:
        return _scan_once(s, idx)
    except StopIteration as err:
        raise JSONDecodeError("Expecting value", s, err.value) from None


def _mixed_dim(obj: dict, cap: int) -> int | None:
    """D when the members read so far name valid dims and kind "mixed"."""
    if obj.get("kind") == "mixed" and "dims" in obj:
        try:
            return _dims(obj["dims"], cap).total
        except StateFileError:
            pass
    return None


def _rows(s: str, start: int, d: int):
    """The value at ``start`` and the index after it.  A list of d rows,
    each d [re, im] pairs of JSON numbers that fit a double, is decoded one
    row at a time into a (d, 2d) float64 array; any other value is scanned
    again whole and returned as its JSON value."""
    buf = np.empty((d, 2 * d))
    idx = start
    if s[idx:idx + 1] == "[":
        for i in range(d):
            try:
                row, idx = _scan_once(s, _skip_ws(s, idx + 1).end())
            except (StopIteration, JSONDecodeError):
                break
            numbers = _flat_numbers(row, (d,))
            if numbers is None:
                break
            try:
                buf[i] = numbers
            except OverflowError:
                break
            idx = _skip_ws(s, idx).end()
            if s[idx:idx + 1] != ("]" if i == d - 1 else ","):
                break
        else:
            return buf, idx + 1
    return _value(s, start)


def _object(s: str, idx: int, cap: int) -> tuple[dict, int]:
    """The members of the JSON object that opens just before ``idx`` and
    the index after it, with json.loads' errors at json.loads' positions
    (later duplicate keys win).  A ``data`` value met after mixed dims and
    kind is read by :func:`_rows`; if the members that follow change D or
    the kind, it is scanned again whole."""
    obj: dict = {}
    data_at = None
    idx = _skip_ws(s, idx).end()
    if s[idx:idx + 1] != "}":
        while True:
            if s[idx:idx + 1] != '"':
                raise JSONDecodeError("Expecting property name enclosed in double quotes", s, idx)
            key, idx = scanstring(s, idx + 1)
            idx = _skip_ws(s, idx).end()
            if s[idx:idx + 1] != ":":
                raise JSONDecodeError("Expecting ':' delimiter", s, idx)
            idx = _skip_ws(s, idx + 1).end()
            d = _mixed_dim(obj, cap) if key == "data" else None
            if d is not None:
                data_at = idx
                obj[key], idx = _rows(s, idx, d)
            else:
                obj[key], idx = _value(s, idx)
            idx = _skip_ws(s, idx).end()
            if s[idx:idx + 1] == "}":
                break
            if s[idx:idx + 1] != ",":
                raise JSONDecodeError("Expecting ',' delimiter", s, idx)
            idx = _skip_ws(s, idx + 1).end()
    data = obj.get("data")
    if isinstance(data, np.ndarray) and _mixed_dim(obj, cap) != data.shape[0]:
        obj["data"] = _value(s, data_at)[0]
    return obj, idx + 1


def _decode(s: str, cap: int):
    """The JSON value of the text ``s``, read as json.loads reads it, except
    that a state file's mixed ``data`` may be a (D, 2D) float64 array."""
    if s.startswith("\ufeff"):
        raise JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", s, 0)
    idx = _skip_ws(s, 0).end()
    if s[idx:idx + 1] == "{":
        obj, idx = _object(s, idx + 1, cap)
    else:
        obj, idx = _value(s, idx)
    idx = _skip_ws(s, idx).end()
    if idx != len(s):
        raise JSONDecodeError("Extra data", s, idx)
    return obj


def _parse(path: str | Path, cap: int):
    """The decoded JSON of a state file; its text is dropped on return."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise StateFileError(f"cannot read state file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise StateFileError(f"state file {path} is not UTF-8 text: {exc}") from exc
    try:
        return _decode(text, cap)
    except JSONDecodeError as exc:
        raise StateFileError(f"state file {path} is not valid JSON: {exc}") from exc


def _fields(path: str | Path, cap: int) -> tuple[str, SubsystemDims, np.ndarray]:
    """The checked kind, dims and entries of a state file; any parsed lists
    are dropped on return, before validation."""
    obj = _parse(path, cap)
    kind, dims, shape = _header(obj, cap)
    data = obj["data"]
    # an array is the decoder's own row buffer, already checked against shape
    values = data.view(np.complex128) if isinstance(data, np.ndarray) else _entries(data, shape)
    return kind, dims, values


def read_state_file(
    path: str | Path, cap: int = DEFAULT_DIM_CAP
) -> DensityMatrix | PureState:
    return _state(*_fields(path, cap))
