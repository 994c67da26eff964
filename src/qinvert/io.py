"""JSON state files with explicit [re, im] entry pairs.

The decimal encoding uses Python's shortest round-trip float repr, so a
write/read cycle reproduces every entry exactly.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from .dims import DEFAULT_DIM_CAP, SubsystemDims
from .states import DensityMatrix, PureState


class StateFileError(ValueError):
    """Raised when a state file cannot be parsed or fails validation."""


def state_to_dict(state: DensityMatrix | PureState, label: str | None = None) -> dict:
    out: dict = {"dims": list(state.dims.dims)}
    if isinstance(state, PureState):
        out["kind"] = "pure"
        out["data"] = [[z.real, z.imag] for z in state.vector]
    elif isinstance(state, DensityMatrix):
        out["kind"] = "mixed"
        out["data"] = [[[z.real, z.imag] for z in row] for row in state.matrix]
    else:
        raise TypeError(f"cannot serialize {type(state).__name__}")
    if label is not None:
        out["label"] = label
    return out


def _entries(data, shape: tuple[int, ...]) -> np.ndarray:
    """The complex array of ``shape`` held in ``data`` as nested [re, im]
    pairs of real JSON numbers (not booleans or strings)."""
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


def state_from_dict(obj: dict, cap: int = DEFAULT_DIM_CAP) -> DensityMatrix | PureState:
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
    values = _entries(obj["data"], (d,) if kind == "pure" else (d, d))
    try:
        return PureState(values, dims) if kind == "pure" else DensityMatrix(values, dims)
    except ValueError as exc:
        raise StateFileError(f"invalid state data: {exc}") from exc


def write_state_file(
    path: str | Path, state: DensityMatrix | PureState, label: str | None = None
) -> None:
    payload = state_to_dict(state, label=label)
    Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


def read_state_file(
    path: str | Path, cap: int = DEFAULT_DIM_CAP
) -> DensityMatrix | PureState:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise StateFileError(f"cannot read state file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise StateFileError(f"state file {path} is not UTF-8 text: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFileError(f"state file {path} is not valid JSON: {exc}") from exc
    return state_from_dict(obj, cap=cap)
