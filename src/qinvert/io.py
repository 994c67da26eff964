"""JSON state files with explicit [re, im] entry pairs.

The decimal encoding uses Python's shortest round-trip float repr, so a
write/read cycle reproduces every entry exactly.

The nested lists of a state file hold no reference cycles, so the cyclic
garbage collector is paused while they are built and serialized or parsed:
it would free nothing, and each of its passes would walk all D^2 lists.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
from pathlib import Path

import numpy as np

from .dims import DEFAULT_DIM_CAP, SubsystemDims
from .states import DensityMatrix, PureState


class StateFileError(ValueError):
    """Raised when a state file cannot be parsed or fails validation."""


@contextlib.contextmanager
def _gc_paused():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def state_to_dict(state: DensityMatrix | PureState, label: str | None = None) -> dict:
    out: dict = {"dims": list(state.dims.dims)}
    if isinstance(state, PureState):
        out["kind"] = "pure"
        values = state.vector
    elif isinstance(state, DensityMatrix):
        out["kind"] = "mixed"
        values = state.matrix
    else:
        raise TypeError(f"cannot serialize {type(state).__name__}")
    # the [re, im] pairs, row-major, as Python floats
    pairs = np.ascontiguousarray(values).view(np.float64)
    out["data"] = pairs.reshape(values.shape + (2,)).tolist()
    if label is not None:
        out["label"] = label
    return out


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


def _fields(obj: dict, cap: int) -> tuple[str, SubsystemDims, np.ndarray]:
    """The kind, dims and entries of a parsed state file, each checked."""
    if not isinstance(obj, dict):
        raise StateFileError("state file must hold a JSON object")
    for key in ("dims", "kind", "data"):
        if key not in obj:
            raise StateFileError(f"state file is missing the {key!r} field")
    try:
        if not isinstance(obj["dims"], list) or any(type(d) is not int for d in obj["dims"]):
            raise TypeError(f"expected a list of JSON integers, got {obj['dims']!r}")
        dims = SubsystemDims(tuple(obj["dims"]), cap=cap)
    except (TypeError, ValueError) as exc:
        raise StateFileError(f"invalid dims: {exc}") from exc
    if "label" in obj and not isinstance(obj["label"], str):
        raise StateFileError(f"invalid label: expected a JSON string, got {obj['label']!r}")
    kind = obj["kind"]
    if kind not in ("pure", "mixed"):
        raise StateFileError(f"unknown state kind {kind!r}")
    d = dims.total
    return kind, dims, _entries(obj["data"], (d,) if kind == "pure" else (d, d))


def _state(kind: str, dims: SubsystemDims, values: np.ndarray) -> DensityMatrix | PureState:
    try:
        return PureState(values, dims) if kind == "pure" else DensityMatrix(values, dims)
    except ValueError as exc:
        raise StateFileError(f"invalid state data: {exc}") from exc


def state_from_dict(obj: dict, cap: int = DEFAULT_DIM_CAP) -> DensityMatrix | PureState:
    return _state(*_fields(obj, cap))


def state_text(state: DensityMatrix | PureState, label: str | None = None) -> str:
    """The JSON object of a state file, without its final newline."""
    with _gc_paused():
        return json.dumps(state_to_dict(state, label=label), check_circular=False)


def write_state_file(
    path: str | Path, state: DensityMatrix | PureState, label: str | None = None
) -> None:
    text = state_text(state, label=label)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def _parse(path: str | Path):
    """The parsed JSON of a state file; its text is dropped on return."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise StateFileError(f"cannot read state file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise StateFileError(f"state file {path} is not UTF-8 text: {exc}") from exc
    try:
        with _gc_paused():
            return json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFileError(f"state file {path} is not valid JSON: {exc}") from exc


def read_state_file(
    path: str | Path, cap: int = DEFAULT_DIM_CAP
) -> DensityMatrix | PureState:
    # the parsed lists are dropped once _fields returns, before validation
    return _state(*_fields(_parse(path), cap))
