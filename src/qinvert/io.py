"""JSON state files with explicit [re, im] entry pairs.

The decimal encoding uses Python's shortest round-trip float repr, so a
write/read cycle reproduces every entry exactly.

The writer codes one matrix row at a time with the row codec of
:mod:`qinvert._rowcodec`, so no D^2-sized tree of Python objects exists:
it emits the header, then the text of each row of the float64 pair view,
then the label.  The reader takes one of two routes.  A seekable file
holding a mixed state with at least :data:`HELPER_PAIRS` entries
(D >= 256) laid out as the writer lays it out (rows joined by ``", "``)
is read in place: the first ``[[[`` of its first :data:`WINDOW` bytes
and the last ``]]]`` of its last :data:`WINDOW` bytes bound its rows,
which are read at their file offsets and decoded a piece of text at a
time into one preallocated (D, 2D) float64 array, which the state then
owns without a copy; only the rest of the object becomes text, which
``json.loads`` reads to check the header and that the cut is the
top-level ``data``.  An input that cannot seek (a pipe, a FIFO, a piped
``/dev/stdin``) is first copied to an unlinked temporary file, which
takes the same routes.  Every other file, and any whose cut rows are not
D rows of D pairs, is read whole, decoded to text and read by
``json.loads``, so its diagnostics are those of the nested lists.

A mixed state with at least :data:`HELPER_PAIRS` entries, in a process
that may run on more than one CPU, is coded by two processes.
The rows after the first :data:`SHARE` of them go to one helper process,
which runs the row codec as a script (``python -I -S``, no numpy) while
this process codes the rest.  The helper reads a byte count given on
its command line from its standard input, from the position it starts
at, and writes its answer to a temporary file made by
``tempfile.TemporaryFile`` in ``tempfile``'s default directory and
unlinked at creation, so nothing is left on disk.  The writer gives it
the float64 bytes of its rows in one more such file, checks the text it
answers and copies it, a piece at a time.  The reader gives it the state
file itself, positioned at its share of the rows (this process reads the
file with ``os.pread``, which leaves that position alone), and reads the
float64 rows it answers straight into the array.  Exit status 0 with an
answer of the expected size is the only success: 16*D bytes a row for the
reader, the ASCII text of its rows for the writer.  A helper that cannot start, or
whose files cannot be made, has its rows coded here.  A writer's helper
that answers anything else has its rows encoded here too; a reader's
sends the file to ``json.loads``, as an irregular row does.  So the
bytes written and the values read never depend on the helper.  It is
killed and reaped, and the files made for it are closed, before the
call returns whatever happened.  On a shared 2-core x86-64 container,
medians of seven interleaved fresh processes with the helper against
one process were: at D = 256, write 0.18 against 0.20 s and read
(:func:`_fields`) 0.092 against 0.110 s, with overlapping ranges (write
0.14-0.25 against 0.13-0.24 s); at D = 512, write 0.52 against 0.88 s
and read 0.25 against 0.41 s.  The threshold was set when the helper
talked over pipes and lost at D = 192 (write 0.13 s against 0.11 s,
read 0.09 against 0.06 s) and, reading, at D = 256; the crossover with
files is not measured.  Then, with the reader's helper disabled, the
``large-state-9q`` benchmark's ``wall_s`` rose from 1.09-1.20 s to
1.46-1.49 s (five alternating 10 s pairs).

Measured with tracemalloc (numpy 2.4.6, Python 3.11.7), writing an
8-qubit mixed file peaks at 0.1 D x D complex arrays in one process and
0.2 with a helper (0.06 at D = 512), whose answer is checked and then
copied a :data:`_PIECE` at a time, never held whole.  Reading
it in place peaks at 2.2 arrays, helper or not, with no term in the
file's length: the row array and about 1.2 MB of pieces of text and
their rows, which at D = 512 is 1.3 arrays.  Holding the file's bytes
beside the array took its length (3.1 arrays) plus 1.5.  In one process
on a shared 2-CPU x86-64 container the cut parses in less time than
``json.loads`` of the whole text (medians of seven fresh processes:
0.068 against 0.086 s at D = 256, 0.27 against 0.42 s at D = 512).  At
D = 128 the cut read 30-50% slower inside the benchmark's passes, for a
reason not found, so smaller files take ``json.loads``, which holds the
file's text and then the tree of its ``data`` until it is converted: a
7-qubit mixed file peaks at its length plus 9.0 arrays (3.9 times its
length).
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
from .states import DensityMatrix, FactorState, PureState

if TYPE_CHECKING:
    import subprocess

    # a started helper process and the file it answers in
    _Helper = tuple[subprocess.Popen, IO[bytes]]

# a helper process codes part of a mixed state with at least this many
# entries (measured crossover between D = 192 and D = 256), and the
# reader cuts its rows out of the bytes, with a helper or without
HELPER_PAIRS = 1 << 16
# the share of the rows (by count when writing, by bytes when reading)
# this process codes when a helper codes the rest
SHARE = 0.56
# the size of the pieces of the helper's text handed to the writer's handle
_PIECE = 1 << 16
# the bytes at the start of a state file searched for its first "[[[", and
# at its end for its last "]]]", where the row cut looks for the rows
WINDOW = 1 << 16


class StateFileError(ValueError):
    """Raised when a state file cannot be parsed or fails validation."""


def _pairs(state: DensityMatrix | FactorState) -> tuple[str, np.ndarray]:
    """The kind of ``state`` and its entries as [re, im] pairs: one float64
    view of shape (D, 2), (D, r, 2) or (D, D, 2), row-major."""
    if isinstance(state, PureState):
        kind, values = "pure", state.vector
    elif isinstance(state, FactorState):
        kind, values = "factor", state.factor
    elif isinstance(state, DensityMatrix):
        kind, values = "mixed", state.matrix
    else:
        raise TypeError(f"cannot serialize {type(state).__name__}")
    return kind, np.ascontiguousarray(values).view(np.float64).reshape(values.shape + (2,))


def state_to_dict(state: DensityMatrix | FactorState, label: str | None = None) -> dict:
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


def _spawn(mode: str, d: int, source: IO[bytes], size: int,
           answer: IO[bytes]) -> subprocess.Popen:
    """Start the row codec as a helper process that codes the ``size``
    bytes of rows of d pairs in the file ``source`` from its position on
    and writes its answer to ``answer``."""
    import subprocess  # here, so a command that starts no helper does not import it

    return subprocess.Popen(
        [sys.executable, "-I", "-S", _rowcodec.__file__, mode, str(d), str(size)],
        stdin=source, stdout=answer, stderr=subprocess.DEVNULL)


@contextlib.contextmanager
def _helper(mode: str, d: int, rows: memoryview | IO[bytes],
            size: int) -> Iterator[_Helper | None]:
    """A helper process coding the ``size`` bytes of rows of d pairs in
    ``rows``, with the unlinked temporary file it answers in; None when
    there are no such bytes or the helper cannot start.  ``rows`` is a
    file positioned at them, which the helper reads itself, or their
    bytes, which it reads from an unlinked temporary copy.  On exit it is
    killed and reaped and the files made here are closed, whatever
    happened."""
    proc = None
    with contextlib.ExitStack() as files:
        if size > 0:
            import tempfile  # here, so a command that starts no helper does not import it

            with contextlib.suppress(OSError):
                if isinstance(rows, memoryview):
                    data, rows = rows, files.enter_context(tempfile.TemporaryFile())
                    rows.write(data)
                    rows.seek(0)
                answer = files.enter_context(tempfile.TemporaryFile())
                proc = _spawn(mode, d, rows, size, answer)
        try:
            yield None if proc is None else (proc, answer)
        finally:
            if proc is not None:
                proc.kill()
                proc.wait()


def _answer(helper: _Helper | None,
            out: memoryview | None = None) -> memoryview | IO[bytes] | None:
    """The helper's answer once it has exited: read into ``out``, or, when
    ``out`` is None, its file, unread.  None when there is no helper, it
    exited with a status other than 0, or its answer is not exactly as
    long as ``out``."""
    if helper is None or helper[0].wait() != 0:
        return None
    answer = helper[1]
    if out is None:
        return answer
    try:
        size = answer.seek(0, os.SEEK_END)
        answer.seek(0)
        return out if len(out) == size and answer.readinto(out) == size else None
    except OSError:
        return None


# ---------------------------------------------------------------------------
# the writer


def _joined(texts: Iterator[str]) -> Iterator[str]:
    for text in texts:
        yield ", "
        yield text


def _pieces(answer: IO[bytes]) -> Iterator[bytes]:
    """The bytes of the file ``answer`` from its start, :data:`_PIECE` at a time."""
    answer.seek(0)
    while piece := answer.read(_PIECE):
        yield piece


def _rows_text(answer: IO[bytes] | None, n: int) -> bool:
    """Whether the answer file holds the ASCII text of n rows: at least 4
    bytes, from ``[[`` to ``]]``, with n - 1 row separators; read a piece
    at a time, so the text is never held whole."""
    if answer is None:
        return False
    sep = b"]], [["
    head = tail = b""
    count = size = 0
    try:
        for piece in _pieces(answer):
            if not piece.isascii():
                return False
            head = head or piece[:2]
            joined = tail + piece  # a separator may span two pieces
            count += joined.count(sep)
            tail = joined[1 - len(sep):]
            size += len(piece)
    except OSError:
        return False
    return size >= 4 and head == b"[[" and tail.endswith(b"]]") and count == n - 1


def _mixed_data(pairs: np.ndarray) -> Iterator[str]:
    """The text of a mixed state's ``data``: its rows joined by ``", "`` in
    brackets, the last rows coded by a helper process when it is large.
    The helper's answer is checked, then copied, a piece at a time."""
    d = len(pairs)
    raw = memoryview(pairs).cast("B")
    n = _helper_rows(d)
    split = 16 * d * (d - n)
    with _helper("encode", d, raw[split:], len(raw) - split) as helper:
        texts = _rowcodec.encode(raw[:split], d)
        yield "["
        yield next(texts)
        yield from _joined(texts)
        # any answer but the ASCII text of its rows has them encoded here
        answer = _answer(helper)
        if _rows_text(answer, n):
            yield ", "
            yield from (str(piece, "ascii") for piece in _pieces(answer))
        else:
            yield from _joined(_rowcodec.encode(raw[split:], d))
        yield "]"


def state_chunks(state: DensityMatrix | FactorState, label: str | None = None) -> Iterator[str]:
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
    elif kind == "factor":  # D rows of r pairs
        data = _listed(_rowcodec.encode(memoryview(pairs).cast("B"), pairs.shape[1]))
    else:
        data = _mixed_data(pairs)
    return _chunks(head, data, tail)


def _listed(texts: Iterator[str]) -> Iterator[str]:
    yield "["
    yield next(texts)
    yield from _joined(texts)
    yield "]"


def _chunks(head: str, data: Iterator[str], tail: str) -> Iterator[str]:
    yield head
    yield from data
    yield tail


def write_state(fh: IO[str], state: DensityMatrix | FactorState, label: str | None = None) -> None:
    """Write a state file's text and final newline to the text handle ``fh``."""
    with contextlib.closing(state_chunks(state, label=label)) as chunks:
        fh.writelines(chunks)
    fh.write("\n")


def write_state_file(
    path: str | Path, state: DensityMatrix | FactorState, label: str | None = None
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


def _members(pairs: list[tuple[str, object]]) -> dict:
    """The ``object_pairs_hook`` of both reader routes: a JSON object as a
    dict, refusing a repeated key, which ``json.loads`` would otherwise
    resolve by keeping the last member."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise StateFileError(f"state file repeats the key {key!r} in one object")
            seen.add(key)
    return obj


def _dims(value, cap: int) -> SubsystemDims:
    try:
        if not isinstance(value, list) or any(type(d) is not int for d in value):
            raise TypeError(f"expected a list of JSON integers, got {value!r}")
        return SubsystemDims(tuple(value), cap=cap)
    except (TypeError, ValueError) as exc:
        raise StateFileError(f"invalid dims: {exc}") from exc


def _header(obj: dict, cap: int) -> tuple[str, SubsystemDims]:
    """The kind and dims of a parsed state file, each checked (all but the
    data)."""
    if not isinstance(obj, dict):
        raise StateFileError("state file must hold a JSON object")
    for key in ("dims", "kind", "data"):
        if key not in obj:
            raise StateFileError(f"state file is missing the {key!r} field")
    dims = _dims(obj["dims"], cap)
    if "label" in obj and not isinstance(obj["label"], str):
        raise StateFileError(f"invalid label: expected a JSON string, got {obj['label']!r}")
    kind = obj["kind"]
    if kind not in ("pure", "factor", "mixed"):
        raise StateFileError(f"unknown state kind {kind!r}")
    return kind, dims


def _shape(kind: str, d: int, data) -> tuple[int, ...]:
    """The shape of the entries ``data`` must hold: (D,), (D, D), or for a
    factor (D, r), r the length of its first row, 1 <= r <= D, checked
    against every row."""
    if kind != "factor":
        return (d,) if kind == "pure" else (d, d)
    if not isinstance(data, list) or len(data) != d:
        got = f"{len(data)} rows" if isinstance(data, list) else type(data).__name__
        raise StateFileError(f"invalid data: a factor holds D = {d} rows of pairs, got {got}")
    r = len(data[0]) if isinstance(data[0], list) else 0
    if not 1 <= r <= d:
        raise StateFileError(f"invalid data: a factor's rows hold r pairs, 1 <= r <= D = {d}; "
                             f"row 1 holds {r}")
    for i, row in enumerate(data, 1):
        if not isinstance(row, list) or len(row) != r:
            got = f"{len(row)} pairs" if isinstance(row, list) else type(row).__name__
            raise StateFileError(f"invalid data: factor row {i} holds {got}, not the {r} of row 1")
    return d, r


def _state(kind: str, dims: SubsystemDims, values: np.ndarray) -> DensityMatrix | FactorState:
    # ``values`` is always a fresh array, which the state takes over uncopied
    try:
        if kind == "pure":
            return PureState(values, dims, _owned=True)
        if kind == "factor":
            return FactorState(values, dims, _owned=True)
        return DensityMatrix(values, dims, _owned=True)
    except ValueError as exc:
        raise StateFileError(f"invalid state data: {exc}") from exc


def _checked(obj: dict, cap: int) -> tuple[str, SubsystemDims, np.ndarray]:
    """The checked kind, dims and entries of a parsed state file."""
    kind, dims = _header(obj, cap)
    return kind, dims, _entries(obj["data"], _shape(kind, dims.total, obj["data"]))


def state_from_dict(obj: dict, cap: int = DEFAULT_DIM_CAP) -> DensityMatrix | FactorState:
    return _state(*_checked(obj, cap))


# ---------------------------------------------------------------------------
# the reader


def _find(fd: int, pattern: bytes, begin: int, end: int) -> int:
    """The offset of the first ``pattern`` wholly inside the bytes
    [begin, end) of the file ``fd``, or -1, read a piece at a time."""
    while begin < end:
        window = os.pread(fd, min(_rowcodec.PIECE, end - begin), begin)
        at = window.find(pattern)
        if at >= 0:
            return begin + at
        if begin + len(window) >= end or len(window) < len(pattern):
            break
        begin += len(window) - len(pattern) + 1
    return -1


def _reader(fd: int, offset: int):
    """``read(n)`` of the file ``fd`` from ``offset`` on, by ``os.pread``,
    which leaves the file's position to the helper that shares it."""
    def read(n: int) -> bytes:
        nonlocal offset
        data = os.pread(fd, n, offset)
        offset += len(data)
        return data
    return read


def _cut_rows(fh: IO[bytes], cap: int) -> tuple[SubsystemDims, np.ndarray] | None:
    """The dims and (D, 2D) float64 rows of a mixed state file with at
    least :data:`HELPER_PAIRS` entries whose rows, joined by ``", "`` as
    the writer joins them, run from just after the first ``[[[`` of its
    first :data:`WINDOW` bytes to just before the final bracket of the
    last ``]]]`` of its last :data:`WINDOW` bytes; the last rows are
    decoded by a helper process when one may run.  None for any other
    file.  ``fh`` is a seekable, unbuffered binary file; the rows are
    read in place, at file offsets, and decoded a piece at a time
    straight into the array, and the helper reads its share itself.

    Only the rest of the object becomes text.  It is read with a ``0`` and
    then a ``1`` in the rows' place, and must read as a valid header with
    ``data`` ``[0]`` and then ``[1]``: so the cut is the top-level
    ``data``, not a string holding rows text.  A key repeated in the rest
    sends the file to ``json.loads`` too, which refuses it naming the
    key, so every diagnostic is that of the whole text."""
    fd = fh.fileno()
    size = os.fstat(fd).st_size
    head = os.pread(fd, WINDOW, 0)
    tail_at = max(0, size - WINDOW)
    tail = os.pread(fd, size - tail_at, tail_at)
    first, end = head.find(b"[[["), tail.rfind(b"]]]")
    if first < 0 or end < 0 or tail_at + end <= first:
        return None
    start, stop = first + 1, tail_at + end + 2
    try:
        before, after = str(head[:start], "utf-8"), str(tail[end + 2:], "utf-8")
        objs = [json.loads(before + token + after, object_pairs_hook=_members)
                for token in "01"]
        if not all(isinstance(obj, dict) and obj.get("data") == [k]
                   for k, obj in enumerate(objs)):
            return None
        kind, dims = _header(objs[0], cap)
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
        cut = _find(fd, ROW_START, start + int(SHARE * (stop - start)), stop)
        split = stop if cut < 0 else cut
    fh.seek(split + 2)
    with _helper("decode", d, fh, stop - split - 2) as helper:
        if helper is None:  # no helper, or it could not start: every row is decoded here
            split = stop
        rows = _rowcodec.decode_stream(_reader(fd, start), split - start, d, out, 0)
        if helper is not None and rows is not None:
            # any answer but exactly its rows sends the file to json.loads
            rows = d if _answer(helper, out[2 * d * rows:].cast("B")) is not None else None
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


def _spooled(fh: IO[bytes], files: contextlib.ExitStack) -> IO[bytes]:
    """An unlinked temporary file holding the rest of the input ``fh``
    (a pipe or a FIFO), at its start, closed with ``files``; ``fh``
    itself when the file cannot be made."""
    import shutil
    import tempfile  # here, so a command that reads no pipe does not import them

    try:
        spool = files.enter_context(tempfile.TemporaryFile(buffering=0))
    except OSError:
        return fh
    shutil.copyfileobj(fh, spool, _rowcodec.PIECE)
    spool.seek(0)
    return spool


def _fields(path: str | Path, cap: int) -> tuple[str, SubsystemDims, np.ndarray]:
    """The checked kind, dims and entries of a state file; whatever it
    read is dropped on return, before validation.  The file, or a copy
    of an input that cannot seek, is first offered to the row cut
    (:func:`_cut_rows`); a file it leaves is read whole as bytes."""
    try:
        with contextlib.ExitStack() as files:
            fh = files.enter_context(Path(path).open("rb", buffering=0))
            if hasattr(os, "pread"):  # the row cut reads at file offsets
                if not fh.seekable():
                    fh = _spooled(fh, files)
                if fh.seekable():
                    cut = _cut_rows(fh, cap)
                    if cut is not None:
                        # the state owns the decoder's row buffer, already checked against D
                        return "mixed", cut[0], cut[1].view(np.complex128)
                    fh.seek(0)
            raw = fh.read()
    except OSError as exc:
        raise StateFileError(f"cannot read state file {path}: {exc}") from exc
    text = _text(raw, path)
    del raw
    try:
        obj = json.loads(text, object_pairs_hook=_members)
    except JSONDecodeError as exc:
        raise StateFileError(f"state file {path} is not valid JSON: {exc}") from exc
    del text
    return _checked(obj, cap)


def read_state_file(
    path: str | Path, cap: int = DEFAULT_DIM_CAP
) -> DensityMatrix | FactorState:
    return _state(*_fields(path, cap))
