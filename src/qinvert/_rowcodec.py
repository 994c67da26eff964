"""The row codec of state files, shared by the CLI process and its helper.

A mixed state's ``data`` is a list of D rows, each a list of D [re, im]
pairs of JSON numbers; a pure state's is one such row, and a factor's D
rows of r pairs.  Rows are coded
here one at a time: :func:`encode` turns the float64 bytes of whole rows
into their JSON text, and :func:`decode` reads rows of JSON text back
into a flat float64 buffer, checking each row's nesting and number types
with :func:`flat_numbers`.  The text is the json module's own, so the
bytes are those of ``json.dumps`` and the values those of ``json.loads``.

Run as a script, the module is the helper process that codes the last
rows of a large mixed state while the CLI process codes the first ones
(see :mod:`qinvert.io`).  It imports only json, array and sys, so it
starts without numpy or the rest of the package::

    python -I -S _rowcodec.py encode D SIZE  # float64 bytes of rows in, their text out
    python -I -S _rowcodec.py decode D SIZE  # the text of rows in, their float64 bytes out

Either reads SIZE bytes from its standard input, from its position on,
which need not be the start or the end of a file.  ``encode`` writes
the text of the rows joined by ``", "``, and nothing else.  ``decode``
reads rows joined by ``", "``, as the writer joins them, a piece at a
time (:func:`pieces`), and writes D*16 bytes per row.  Either exits with
:data:`NOT_ROWS`, writing nothing, when those bytes are not whole rows
of D pairs.
"""

import array
import json
import sys

# rows of floats hold no cycles; the check would record every pair list in a dict
_encode = json.JSONEncoder(check_circular=False).encode
_scan_once = json.JSONDecoder().scan_once
_skip_ws = json.decoder.WHITESPACE.match
# a row starts with "[[" after the ", " that ends the row before it, and
# nowhere else in the writer's layout: pairs are lists of numbers
ROW_START = b", [["
# the helper's exit status when its input is not whole rows (EX_DATAERR)
NOT_ROWS = 65
# about this many bytes of rows are decoded to one text at a time
PIECE = 1 << 18


def flat_numbers(data, shape: tuple) -> list | None:
    """The numbers of ``data`` in row-major order when it is nested lists
    of ``shape`` holding [re, im] pairs of ints and floats, else None."""
    rows = [data]
    for n in shape + (2,):
        if set(map(type, rows)) != {list} or set(map(len, rows)) != {n}:
            return None
        flat: list = []
        for row in rows:
            flat.extend(row)
        rows = flat
    return rows if set(map(type, rows)) <= {int, float} else None


def encode(raw: memoryview, d: int):
    """The JSON text of each row held in ``raw``, the float64 bytes of
    whole rows of d [re, im] pairs."""
    step = 16 * d
    for start in range(0, len(raw), step):
        yield _encode(raw[start:start + step].cast("d", (d, 2)).tolist())


def decode(s: str, d: int, out: memoryview, first: int) -> int | None:
    """Read the text ``s``, rows of d [re, im] pairs joined by commas with
    JSON whitespace around each, into the flat float64 buffer ``out`` from
    row ``first`` on.  Returns the row after the last one read, or None
    when ``s`` is not such rows of JSON numbers that fit a double, or they
    do not fit in ``out``."""
    width = 2 * d
    idx = 0
    for i in range(first, len(out) // width):
        try:
            row, idx = _scan_once(s, _skip_ws(s, idx).end())
        except (StopIteration, json.JSONDecodeError):
            return None
        numbers = flat_numbers(row, (d,))
        if numbers is None:
            return None
        try:
            out[i * width:(i + 1) * width] = array.array("d", numbers)
        except OverflowError:
            return None
        idx = _skip_ws(s, idx).end()
        if idx == len(s):
            return i + 1
        if s[idx] != ",":
            return None
        idx += 1
    return None


def pieces(read, size: int):
    """The text of the ``size`` bytes of rows that ``read(n)``, called in
    turn, returns at most n at a time, in pieces of about :data:`PIECE`
    bytes, each cut just before a row start with the ``", "`` before it
    left out.  A last piece None ends it when the bytes end early or a
    piece is not UTF-8."""
    rest = b""
    while True:
        more = read(min(PIECE, size)) if size else b""
        if size and not more:
            yield None
            return
        size -= len(more)
        text = rest + more
        cut = text.rfind(ROW_START) if size else len(text)
        if cut < 0:
            rest = text
            continue
        try:
            yield str(memoryview(text)[:cut], "utf-8")
        except UnicodeDecodeError:
            yield None
            return
        if not size:
            return
        rest = text[cut + 2:]


def decode_stream(read, size: int, d: int, out: memoryview, first: int) -> int | None:
    """Read the ``size`` bytes of rows, joined by ``", "``, that ``read``
    returns (as for :func:`pieces`) into ``out`` from row ``first`` on, a
    piece at a time.  Returns the row after the last one read, or None
    when the bytes are not whole rows of d pairs that fit in ``out``, are
    not UTF-8 or end early."""
    row = first
    for text in pieces(read, size):
        row = None if text is None else decode(text, d, out, row)
        if row is None:
            return None
    return row


def _main(argv: list) -> int:
    mode, d, size = argv[0], int(argv[1]), int(argv[2])
    if mode == "encode":
        data = sys.stdin.buffer.read(size)
        if not data or len(data) != size or size % (16 * d):
            return NOT_ROWS
        sys.stdout.buffer.write(", ".join(encode(memoryview(data), d)).encode("ascii"))
        return 0
    answer = []
    for text in pieces(sys.stdin.buffer.read, size):
        if text is None:
            return NOT_ROWS
        rows = text.count(ROW_START.decode()) + 1
        part = array.array("d", [0.0]) * (2 * d * rows)
        if decode(text, d, memoryview(part), 0) != rows:
            return NOT_ROWS
        answer.append(part)
    for part in answer:
        sys.stdout.buffer.write(part)
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
