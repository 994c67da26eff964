"""JSON state files with explicit [re, im] entry pairs.

The decimal encoding uses Python's shortest round-trip float repr, so a
write/read cycle reproduces every entry exactly.

The writer codes one matrix row at a time with the row codec of
:mod:`qinvert._rowcodec`, so no D^2-sized tree of Python objects exists:
it emits the header, then the text of each row of the float64 pair view,
then the label.  The reader reads the file's bytes once and takes one of
two routes.  A mixed state with at least :data:`HELPER_PAIRS` entries
(D >= 256) laid out as the writer lays it out (rows joined by ``", "``)
has its rows cut out of the bytes and decoded a piece of text at a time
into one preallocated (D, 2D) float64 array, which the state then owns
without a copy; only the rest of the object becomes text, which
``json.loads`` reads to check the header and that the cut is the
top-level ``data``.  Every other file, and any whose cut rows are not D
rows of D pairs, is decoded to text whole and read by ``json.loads``, so
its diagnostics are those of the nested lists.

A mixed state with at least :data:`HELPER_PAIRS` entries, in a process
that may run on more than one CPU, is coded by two processes.
The rows after the first :data:`SHARE` of them go to one helper process,
which runs the row codec as a script (``python -I -S``, no numpy) while
this process codes the rest.  The writer sends the helper the float64
bytes of its rows, streams its own rows, then copies the helper's text;
the reader sends the helper the bytes of its rows' text and reads the
float64 rows it answers straight into the array.  A helper that cannot
start has its rows coded here.  A writer's helper that answers anything
but the text of its rows has them encoded here too; a reader's helper
that answers anything but exactly its rows' float64 bytes sends the file
to ``json.loads``, as an irregular row does.  So the bytes written and
the values read never depend on the helper.  It is waited for only once
its output has ended, and killed and reaped before the call returns
whatever happened.  The helper costs about 35 ms to start; on a 2-core
x86-64 VM it loses below the threshold (D = 192: write 0.13 s against
0.11 s in one process, read 0.09 s against 0.06 s), and the writer's
helper wins from it on (D = 256: 0.16 s against 0.22 s; D = 512: 0.55 s
against 0.98 s).  The reader's helper still loses at D = 256 and wins
at D = 512: on a shared 2-CPU x86-64 container, medians of seven
interleaved fresh processes of :func:`_fields` were 0.085 s with the
helper against 0.068 s in one process at D = 256, and 0.24 against
0.27 s at D = 512 (ranges 0.18-0.32 against 0.25-0.35 s).  Writer and
reader share the threshold, so the reader's own crossover, between
those sizes, is not measured.

Measured with tracemalloc, writing an 8-qubit mixed file peaks at 0.1
D x D complex arrays in one process and 1.5 with a helper (its text,
held until it has exited cleanly), and reading it at the file's length
plus 1.5 arrays: the bytes, the row array and a piece of text, all
dropped before validation.  In one process on a shared 2-CPU x86-64
container the cut parses in less time than ``json.loads`` of the whole
text (medians of seven fresh processes: 0.068 against 0.086 s at
D = 256, 0.27 against 0.42 s at D = 512).  At D = 128 the cut read
30-50% slower inside the benchmark's passes, for a reason not found, so
smaller files take ``json.loads``, which holds the file's text and then
the tree of its ``data`` until it is converted: a 7-qubit mixed file
peaks at its length plus 9.0 arrays (3.9 times its length).
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import sys
from json.decoder import JSONDecodeError
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterator

import numpy as np

from . import _rowcodec
from ._rowcodec import ROW_START, flat_numbers
from .dims import DEFAULT_DIM_CAP, SubsystemDims
from .states import DensityMatrix, PureState

if TYPE_CHECKING:
    import subprocess

# a helper process codes part of a mixed state with at least this many
# entries (measured crossover between D = 192 and D = 256), and the
# reader cuts its rows out of the bytes, with a helper or without
HELPER_PAIRS = 1 << 16
# the share of the rows (by count when writing, by bytes when reading)
# this process codes when a helper codes the rest
SHARE = 0.56
# the size of the pieces of the helper's text handed to the writer's handle
_PIECE = 1 << 16


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


# ---------------------------------------------------------------------------
# the helper process


def _spare_cpu() -> bool:
    """Whether this process may run on more than one CPU."""
    try:
        return len(os.sched_getaffinity(0)) > 1
    except AttributeError:  # no affinity call on this platform
        return (os.cpu_count() or 1) > 1


def _helper_rows(d: int) -> int:
    """The rows of a D = d mixed state a helper process codes, 0 for none."""
    if d * d < HELPER_PAIRS or not sys.executable or not _spare_cpu():
        return 0
    return d - max(1, round(SHARE * d))


def _spawn(mode: str, d: int) -> subprocess.Popen:
    """Start the row codec as a helper process that codes rows of d pairs."""
    import subprocess  # here, so a command that starts no helper does not import it

    return subprocess.Popen(
        [sys.executable, "-I", "-S", _rowcodec.__file__, mode, str(d)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)


@contextlib.contextmanager
def _helper(mode: str, d: int, wanted: bool) -> Iterator[subprocess.Popen | None]:
    """A helper process coding rows of d pairs, or None when it is not
    wanted or cannot start; killed and reaped on exit, whatever happened."""
    proc = None
    if wanted:
        with contextlib.suppress(OSError):
            proc = _spawn(mode, d)
    try:
        yield proc
    finally:
        if proc is not None:
            proc.kill()
            with contextlib.suppress(OSError):  # input left unflushed to a dead helper
                proc.stdin.close()
            proc.stdout.close()
            proc.wait()


def _feed(proc: subprocess.Popen | None, data: memoryview) -> bool:
    """Send the helper its whole input; False when there is no helper or
    it is gone."""
    if proc is None:
        return False
    try:
        proc.stdin.write(data)
        proc.stdin.close()
    except OSError:
        return False
    return True


def _answered(proc: subprocess.Popen, out: memoryview) -> bool:
    """Whether the helper's output, read into ``out``, is exactly that long
    and it exited cleanly.  It is waited for only once its output has
    ended: a helper that writes more may be blocked on the pipe, and is
    left to the kill that reaps it."""
    try:
        if proc.stdout.readinto(out) != len(out) or proc.stdout.read(1):
            return False
    except OSError:
        return False
    return proc.wait() == 0


# ---------------------------------------------------------------------------
# the writer


def _helper_text(proc: subprocess.Popen, rows: int) -> bytearray | None:
    """The text of the helper's rows, or None unless it sent a length, that
    many bytes of ASCII holding ``rows`` rows and nothing more, and exited
    cleanly."""
    try:
        text = bytearray(int(proc.stdout.readline(32)))
    except (OSError, ValueError):
        return None
    if not _answered(proc, memoryview(text)) or not (
            text.isascii() and text.startswith(b"[[") and text.endswith(b"]]")
            and text.count(b"]], [[") == rows - 1):
        return None
    return text


def _joined(texts: Iterator[str]) -> Iterator[str]:
    for text in texts:
        yield ", "
        yield text


def _mixed_data(pairs: np.ndarray) -> Iterator[str]:
    """The text of a mixed state's ``data``: its rows joined by ``", "`` in
    brackets, the last rows coded by a helper process when it is large."""
    d = len(pairs)
    raw = memoryview(pairs).cast("B")
    row = 16 * d
    n = _helper_rows(d)
    h = d - n
    with _helper("encode", d, n > 0) as proc:
        fed = _feed(proc, raw[h * row:])
        texts = _rowcodec.encode(raw[:h * row], d)
        yield "["
        yield next(texts)
        yield from _joined(texts)
        text = _helper_text(proc, n) if fed else None
        if text is None:
            yield from _joined(_rowcodec.encode(raw[h * row:], d))
        else:
            yield ", "
            view = memoryview(text)
            yield from (str(view[k:k + _PIECE], "ascii") for k in range(0, len(text), _PIECE))
        yield "]"


def state_chunks(state: DensityMatrix | PureState, label: str | None = None) -> Iterator[str]:
    """The JSON object of a state file in chunks, without its final
    newline; joined, they are ``json.dumps(state_to_dict(state, label))``.
    Only one row's Python floats exist at a time, in each process.  The
    header and label are encoded before the first chunk is returned, so a
    state or label the codec cannot write raises before anything is
    written.  A generator: closing it early reaps the helper at once."""
    kind, pairs = _pairs(state)
    head = f'{{"dims": {json.dumps(list(state.dims.dims))}, "kind": "{kind}", "data": '
    tail = "}" if label is None else f', "label": {json.dumps(label)}}}'
    if kind == "pure":  # the whole list of pairs is one row
        data = _rowcodec.encode(memoryview(pairs).cast("B"), len(pairs))
    else:
        data = _mixed_data(pairs)
    return _chunks(head, data, tail)


def _chunks(head: str, data: Iterator[str], tail: str) -> Iterator[str]:
    yield head
    yield from data
    yield tail


def write_state(fh: IO[str], state: DensityMatrix | PureState, label: str | None = None) -> None:
    """Write a state file's text and final newline to the text handle ``fh``."""
    with contextlib.closing(state_chunks(state, label=label)) as chunks:
        fh.writelines(chunks)
    fh.write("\n")


def write_state_file(
    path: str | Path, state: DensityMatrix | PureState, label: str | None = None
) -> None:
    chunks = state_chunks(state, label=label)
    with contextlib.closing(chunks), open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)
        fh.write("\n")


def _entries(data, shape: tuple[int, ...]) -> np.ndarray:
    """The complex array of ``shape`` held in ``data`` as nested [re, im]
    pairs of real JSON numbers (not booleans or strings).  Well-formed
    data is read in one flat pass; anything else takes the nested
    conversion, whose errors name what is wrong."""
    numbers = flat_numbers(data, shape)
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
# the reader


def _cut_rows(raw: bytes, cap: int) -> tuple[SubsystemDims, np.ndarray] | None:
    """The dims and (D, 2D) float64 rows of a mixed state file with at
    least :data:`HELPER_PAIRS` entries whose rows, joined by ``", "`` as
    the writer joins them, run from just after its first ``[[[`` to just
    before its last ``]]]``'s final bracket; the last rows are decoded by
    a helper process when one may run.  None for any other file.

    Only the rest of the object becomes text.  It is read with a ``0`` and
    then a ``1`` in the rows' place, and must read as a valid header with
    ``data`` ``[0]`` and then ``[1]``: so the cut is the top-level
    ``data``, not a string holding rows text or a member a later
    duplicate replaces."""
    first, end = raw.find(b"[[["), raw.rfind(b"]]]")
    if first < 0 or end <= first:
        return None
    start, stop = first + 1, end + 2
    view = memoryview(raw)
    try:
        head, tail = str(view[:start], "utf-8"), str(view[stop:], "utf-8")
        objs = [json.loads(head + token + tail) for token in "01"]
        if not all(isinstance(obj, dict) and obj.get("data") == [k]
                   for k, obj in enumerate(objs)):
            return None
        kind, dims, _ = _header(objs[0], cap)
    except (UnicodeDecodeError, JSONDecodeError, StateFileError):
        return None
    d = dims.total
    if kind != "mixed" or d * d < HELPER_PAIRS:
        # in the benchmark's passes, cut rows of D <= 128 decoded 30-50%
        # slower than the same rows decoded from the whole text
        return None
    buf = np.empty((d, 2 * d))
    out = memoryview(buf).cast("B").cast("d")
    split = stop
    if _helper_rows(d):
        cut = raw.find(ROW_START, start + int(SHARE * (stop - start)), stop)
        split = stop if cut < 0 else cut
    with _helper("decode", d, split < stop) as proc:
        if proc is None:  # no helper, or it could not start: every row is decoded here
            split = stop
        fed = _feed(proc, view[split + 2:stop])
        rows = _rowcodec.decode_text(raw, start, split, d, out, 0)
        if proc is not None and rows is not None:
            # any answer but exactly its rows sends the file to json.loads
            rows = d if fed and _answered(proc, out[2 * d * rows:].cast("B")) else None
    return (dims, buf) if rows == d else None


def _text(raw: bytes, path: str | Path) -> str:
    """The text of a state file as ``Path.read_text`` reads it: UTF-8, with
    universal newlines."""
    try:
        text = str(raw, "utf-8")
    except UnicodeDecodeError as exc:
        raise StateFileError(f"state file {path} is not UTF-8 text: {exc}") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _fields(path: str | Path, cap: int) -> tuple[str, SubsystemDims, np.ndarray]:
    """The checked kind, dims and entries of a state file; its bytes, text
    and parsed lists are dropped on return, before validation."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise StateFileError(f"cannot read state file {path}: {exc}") from exc
    cut = _cut_rows(raw, cap)
    if cut is not None:
        # the state owns the decoder's row buffer, already checked against D
        return "mixed", cut[0], cut[1].view(np.complex128)
    text = _text(raw, path)
    del raw
    try:
        obj = json.loads(text)
    except JSONDecodeError as exc:
        raise StateFileError(f"state file {path} is not valid JSON: {exc}") from exc
    del text
    kind, dims, shape = _header(obj, cap)
    return kind, dims, _entries(obj["data"], shape)


def read_state_file(
    path: str | Path, cap: int = DEFAULT_DIM_CAP
) -> DensityMatrix | PureState:
    return _state(*_fields(path, cap))
