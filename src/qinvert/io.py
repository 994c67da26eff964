"""JSON state files with explicit [re, im] entry pairs.

The decimal encoding uses Python's shortest round-trip float repr, so a
write/read cycle reproduces every entry exactly.

Both directions code one matrix row at a time with the row codec of
:mod:`qinvert._rowcodec`, so no D^2-sized tree of Python objects exists.
The writer emits the header, then the text of each row of the float64
pair view, then the label.  The reader reads the file's bytes once and
decodes them to text, whose top-level object the json module's scanner
reads; a mixed ``data`` met after ``dims`` and ``kind`` is decoded one
row at a time into one preallocated (D, 2D) float64 array, which the
state then owns without a copy.  A mixed state with at least
:data:`HELPER_PAIRS` entries (D >= 256) laid out as the writer lays it
out (rows joined by ``", "``) has its rows cut out of the bytes instead:
only the rest of the object becomes one text, and the rows are decoded
a piece of text at a time.  Any other layout, and any irregular row, is
scanned whole, so its diagnostic is that of the nested lists.

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
to the whole-text route, as an irregular row does.  So the bytes written
and the values read never depend on the helper.  It is waited for only
once its output has ended, and killed and reaped before the call
returns whatever happened.  The helper costs
about 35 ms to start; on a 2-core x86-64 VM it loses below the threshold
(D = 192: write 0.13 s against 0.11 s in one process, read 0.09 s
against 0.06 s) and wins from it on (D = 256: write 0.16 s against
0.22 s, read 0.09 s against 0.11 s; D = 512: write 0.55 s against
0.98 s, read 0.26 s against 0.48 s).

Measured with tracemalloc on an 8-qubit mixed file, writing peaks at 0.1
D x D complex arrays in one process and 1.5 with a helper (its text,
held until it has exited cleanly), and reading at the file's length plus
1.5 arrays: the bytes, the row array and a piece of text, all dropped
before validation.  The rows are cut out from the threshold on in one
process too: there the cut reads in the time of the whole text (D = 192,
256 and 512: medians of ten fresh processes each, 0.065 against 0.064 s,
0.110 against 0.103 s and 0.335 against 0.346 s, within each other's
quartiles) and holds the text of one piece instead of the whole file.
At D = 128 the cut read 30-50% slower inside the benchmark's passes, for
a reason not found.  Smaller files, and any file the cut does not take,
hold their bytes and their text at once while the text is decoded.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import sys
from json.decoder import WHITESPACE, JSONDecodeError, scanstring
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterator

import numpy as np

from . import _rowcodec
from ._rowcodec import ROW_START, flat_numbers
from .dims import DEFAULT_DIM_CAP, SubsystemDims
from .states import DensityMatrix, PureState

if TYPE_CHECKING:
    import subprocess

_scan_once = json.JSONDecoder().scan_once
_skip_ws = WHITESPACE.match

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


def state_text(state: DensityMatrix | PureState, label: str | None = None) -> str:
    """The JSON object of a state file, without its final newline."""
    with contextlib.closing(state_chunks(state, label=label)) as chunks:
        return "".join(chunks)


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


class _WholeText(Exception):
    """The rows cut out of a state file's bytes are not read apart: the
    file is read again as one text."""


class _Cut:
    """The rows of a mixed ``data`` value, cut out of the text the object
    scanner reads: ``raw[start:stop]`` holds them, and the scanner's text
    holds ``[]`` in their place, its ``]`` at index ``at``."""

    def __init__(self, raw: bytes, start: int, stop: int, at: int) -> None:
        self.raw, self.start, self.stop, self.at = raw, start, stop, at
        self.rows: np.ndarray | None = None

    def read(self, d: int) -> np.ndarray:
        """The rows as a (d, 2d) float64 array, the last ones decoded by a
        helper process when the state is large."""
        if d * d < HELPER_PAIRS:
            # the whole text: in the benchmark's passes, cut rows of D <= 128
            # decoded 30-50% slower (the same decode on the same text)
            raise _WholeText
        raw, start, stop = self.raw, self.start, self.stop
        buf = np.empty((d, 2 * d))
        out = memoryview(buf).cast("B").cast("d")
        split = stop
        if _helper_rows(d):
            cut = raw.find(ROW_START, start + int(SHARE * (stop - start)), stop)
            split = stop if cut < 0 else cut
        with _helper("decode", d, split < stop) as proc:
            if proc is None:  # no helper, or it could not start: every row is decoded here
                split = stop
            fed = _feed(proc, memoryview(raw)[split + 2:stop])
            h = _decode_text(raw, start, split, d, out, 0)
            if proc is not None:
                # any answer but the exact rows: the whole text, whose diagnostic
                # names an irregular row, decodes the rows again
                if not (fed and _answered(proc, out[2 * d * h:].cast("B"))):
                    raise _WholeText
                h = d
        if h != d:
            raise _WholeText
        self.rows = buf
        return buf


def _decode_text(raw: bytes, start: int, stop: int, d: int, out: memoryview, first: int) -> int:
    """:func:`qinvert._rowcodec.decode_text`, raising :class:`_WholeText`
    where it finds no rows."""
    row = _rowcodec.decode_text(raw, start, stop, d, out, first)
    if row is None:
        raise _WholeText
    return row


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


def _rows(s: str, start: int, d: int, cut: _Cut | None):
    """The value at ``start`` and the index after it.  The cut-out rows,
    when they stand there, and a list of d rows, each d [re, im] pairs of
    JSON numbers that fit a double, are read into a (d, 2d) float64 array;
    any other value is scanned again whole and returned as its JSON
    value."""
    if cut is not None and start + 1 == cut.at:
        return cut.read(d), start + 2
    buf = np.empty((d, 2 * d))
    if s[start:start + 1] == "[":
        read = _rowcodec.decode(s, start + 1, d, memoryview(buf).cast("B").cast("d"), 0)
        if read is not None and read[1] == d:
            idx = _skip_ws(s, read[0]).end()
            if s[idx:idx + 1] == "]":
                return buf, idx + 1
    return _value(s, start)


def _object(s: str, idx: int, cap: int, cut: _Cut | None) -> tuple[dict, int]:
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
                obj[key], idx = _rows(s, idx, d, cut)
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
        if cut is not None and data is cut.rows:
            raise _WholeText
        obj["data"] = _value(s, data_at)[0]
    return obj, idx + 1


def _decode(s: str, cap: int, cut: _Cut | None = None):
    """The JSON value of the text ``s``, read as json.loads reads it, except
    that a state file's mixed ``data`` may be a (D, 2D) float64 array."""
    if s.startswith("\ufeff"):
        raise JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", s, 0)
    idx = _skip_ws(s, 0).end()
    if s[idx:idx + 1] == "{":
        obj, idx = _object(s, idx + 1, cap, cut)
    else:
        obj, idx = _value(s, idx)
    idx = _skip_ws(s, idx).end()
    if idx != len(s):
        raise JSONDecodeError("Extra data", s, idx)
    return obj


def _decode_cut(raw: bytes, cap: int):
    """The decoded JSON of a state file's bytes with the rows of a large
    mixed ``data`` cut out of the text and decoded apart, or None when the
    file is not laid out so (the rows run from just after the first
    ``[[[`` to just before the last ``]]]``'s final bracket), the state is
    below the threshold, or the file reads otherwise."""
    first, end = raw.find(b"[[["), raw.rfind(b"]]]")
    if first < 0 or end <= first:
        return None
    start, stop = first + 1, end + 2
    view = memoryview(raw)
    try:
        head = str(view[:start], "utf-8")
        cut = _Cut(raw, start, stop, len(head))
        obj = _decode(head + str(view[stop:], "utf-8"), cap, cut)
    except (UnicodeDecodeError, JSONDecodeError, _WholeText):
        return None
    return obj if cut.rows is not None else None


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


def _parse(path: str | Path, cap: int):
    """The decoded JSON of a state file; its bytes are dropped on return."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise StateFileError(f"cannot read state file {path}: {exc}") from exc
    obj = _decode_cut(raw, cap)
    if obj is not None:
        return obj
    text = _text(raw, path)
    del raw
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
