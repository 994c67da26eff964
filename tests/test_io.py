import gc
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qinvert import _rowcodec
from qinvert import io as qio
from qinvert.cli import main
from qinvert.dims import SubsystemDims
from qinvert.io import (
    StateFileError,
    _entries,
    read_state_file,
    state_chunks,
    state_from_dict,
    write_state_file,
)
from qinvert.states import DensityMatrix, FactorState, PureState
from qinvert.zoo import ginibre_factor, ginibre_mixed, haar_pure


def test_pure_roundtrip_is_exact(tmp_path):
    dims = SubsystemDims((2, 3))
    psi = haar_pure(dims, 400)
    path = tmp_path / "psi.json"
    write_state_file(path, psi, label="sample")
    loaded = read_state_file(path)
    assert isinstance(loaded, PureState)
    assert loaded.dims.dims == (2, 3)
    assert np.array_equal(loaded.vector, psi.vector)


def test_mixed_roundtrip_is_exact(tmp_path):
    dims = SubsystemDims((2, 2))
    rho = ginibre_mixed(dims, 401)
    path = tmp_path / "rho.json"
    write_state_file(path, rho)
    loaded = read_state_file(path)
    assert isinstance(loaded, DensityMatrix)
    assert np.array_equal(loaded.matrix, rho.matrix)


# -0.0 and subnormals are where a lossy float encoding shows first;
# array_equal would call -0.0 equal to 0.0, so bit patterns are compared
SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320])
ROUNDTRIP = settings(max_examples=25, deadline=None, derandomize=True)


def roundtrip_bits(tmp_path, state):
    path = tmp_path / "state.json"
    write_state_file(path, state)
    loaded = read_state_file(path)
    before = state.vector if isinstance(state, PureState) else state.matrix
    after = loaded.vector if isinstance(loaded, PureState) else loaded.matrix
    assert type(loaded) is type(state)
    assert np.array_equal(after.view(np.uint64), before.view(np.uint64))


@ROUNDTRIP
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_pure_roundtrip_keeps_bit_patterns(tmp_path_factory, seed, data):
    dims = SubsystemDims((2, 3))
    vec = np.array(haar_pure(dims, seed).vector)
    picks = data.draw(st.lists(st.integers(0, dims.total - 1), min_size=1, max_size=3, unique=True))
    vec[picks] = 0.0
    vec /= np.linalg.norm(vec)
    for k in picks:
        vec[k] = complex(data.draw(SPECIAL), data.draw(SPECIAL))
    roundtrip_bits(tmp_path_factory.mktemp("pure"), PureState(vec, dims))


@ROUNDTRIP
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_mixed_roundtrip_keeps_bit_patterns(tmp_path_factory, seed, data):
    dims = SubsystemDims((2, 2))
    d = dims.total
    # mostly maximally mixed, so zeroing two off-diagonal pairs keeps it PSD
    mat = 0.1 * ginibre_mixed(dims, seed).matrix + 0.9 * np.eye(d) / d
    pairs = data.draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1))
                               .filter(lambda p: p[0] < p[1]), max_size=2, unique=True))
    for i, j in pairs:
        mat[i, j] = complex(data.draw(SPECIAL), data.draw(SPECIAL))
        mat[j, i] = mat[i, j].conjugate()
    for k in data.draw(st.lists(st.integers(0, d - 1), max_size=d, unique=True)):
        mat[k, k] = complex(mat[k, k].real, -0.0)
    roundtrip_bits(tmp_path_factory.mktemp("mixed"), DensityMatrix(mat, dims))


def test_factor_roundtrip_is_bit_for_bit(tmp_path):
    state = ginibre_factor(SubsystemDims((2, 3)), 5, 3)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    write_state_file(first, state, label="rank 3")
    loaded = read_state_file(first)
    assert type(loaded) is FactorState and loaded.rank == 3
    assert loaded.factor.view(np.uint64).tobytes() == state.factor.view(np.uint64).tobytes()
    obj = json.loads(first.read_text())
    assert obj["kind"] == "factor" and len(obj["data"]) == 6
    assert all(len(row) == 3 for row in obj["data"])
    write_state_file(second, loaded, label="rank 3")
    assert second.read_bytes() == first.read_bytes()
    assert first.read_text() == json.dumps(qio.state_to_dict(state, "rank 3")) + "\n"


def test_a_pure_file_is_the_rank_one_factor_and_keeps_its_format(tmp_path):
    psi = haar_pure(SubsystemDims((3, 2)), 8)
    path = tmp_path / "psi.json"
    write_state_file(path, psi)
    loaded = read_state_file(path)
    assert type(loaded) is PureState and loaded.rank == 1
    assert json.loads(path.read_text())["kind"] == "pure"
    # formed exactly Hermitian, so marginal and detect act on the matrix itself
    rho = loaded.density()
    assert rho.operand is rho.matrix


def factor_text(data, norm=1.0, first=None):
    """A (2, 3) factor file whose data is ``data`` (rows of [re, im]
    pairs) scaled to Frobenius norm ``norm``, its first number replaced
    by ``first`` when given."""
    scale = norm / math.sqrt(math.fsum(x * x for row in data for pair in row for x in pair))
    rows = [[[x * scale for x in pair] for pair in row] for row in data]
    if first is not None:
        rows[0][0][0] = first
    return json.dumps({"dims": [2, 3], "kind": "factor", "data": rows})


GOOD_ROWS = [[[1.0, 0.5], [0.25, -1.0]] for _ in range(6)]


@pytest.mark.parametrize("text, message", [
    (factor_text(GOOD_ROWS[:2] + [[[1.0, 0.5]]] + GOOD_ROWS[3:]),
     "invalid data: factor row 3 holds 1 pairs, not the 2 of row 1"),
    (factor_text(GOOD_ROWS[:5]), "invalid data: a factor holds D = 6 rows of pairs, got 5 rows"),
    ('{"dims": [2, 3], "kind": "factor", "data": [[], [], [], [], [], []]}',
     r"invalid data: a factor's rows hold r pairs, 1 <= r <= D = 6; row 1 holds 0"),
    (factor_text([[[1.0, 0.5]] * 7] * 6),
     r"invalid data: a factor's rows hold r pairs, 1 <= r <= D = 6; row 1 holds 7"),
    (factor_text(GOOD_ROWS, first=math.nan), "invalid state data: factor has non-finite entries"),
    (factor_text(GOOD_ROWS, first=-math.inf), "invalid state data: factor has non-finite entries"),
    (factor_text(GOOD_ROWS, first=True), "data entries must be JSON numbers, got bool"),
    (factor_text(GOOD_ROWS, norm=1.0 + 2e-12), "invalid state data: factor norm .* is not 1"),
    (factor_text(GOOD_ROWS, norm=1.0 - 2e-12), "invalid state data: factor norm .* is not 1"),
], ids=["row-length", "row-count", "rank-0", "rank-above-D", "nan", "inf", "bool", "norm-high",
        "norm-low"])
def test_a_malformed_factor_file_exits_2_naming_the_field(tmp_path, capsys, text, message):
    path = tmp_path / "factor.json"
    path.write_text(text)
    assert main(["check", "--state", str(path), "--families", "correlation"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(message, captured.err), captured.err


def test_a_factor_within_the_norm_tolerance_is_read(tmp_path):
    path = tmp_path / "factor.json"
    path.write_text(factor_text(GOOD_ROWS, norm=1.0 + 5e-13))
    assert read_state_file(path).rank == 2


def test_label_preserved(tmp_path):
    rho = ginibre_mixed(SubsystemDims((2,)), 402)
    path = tmp_path / "rho.json"
    write_state_file(path, rho, label="noisy source")
    obj = json.loads(path.read_text())
    assert obj["label"] == "noisy source"


def test_missing_field():
    with pytest.raises(StateFileError, match="missing"):
        state_from_dict({"dims": [2], "kind": "pure"})


def test_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dims": [2, 2], "kind": "pure", "data": [[1.0')
    with pytest.raises(StateFileError, match="JSON"):
        read_state_file(path)


def test_wrong_length_pure():
    with pytest.raises(StateFileError, match="length"):
        state_from_dict({"dims": [2, 2], "kind": "pure", "data": [[1.0, 0.0]]})


def test_invalid_state_fails_invariant():
    obj = {
        "dims": [2],
        "kind": "mixed",
        "data": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    }
    with pytest.raises(ValueError, match="trace"):
        state_from_dict(obj)


def test_unknown_kind():
    with pytest.raises(StateFileError, match="kind"):
        state_from_dict({"dims": [2], "kind": "stabilizer", "data": []})


def test_dims_with_trivial_party_rejected():
    with pytest.raises(StateFileError, match="dims"):
        state_from_dict({"dims": [2, 1], "kind": "pure", "data": [[1.0, 0.0], [0.0, 0.0]]})


def test_missing_file():
    with pytest.raises(StateFileError, match="cannot read"):
        read_state_file("/nonexistent/state.json")


KET_00 = [[1, 0], [0, 0], [0, 0], [0, 0]]


@pytest.mark.parametrize("dims", [[2.9, 2], [2.0, 2], ["2", "2"], "22"])
def test_dims_must_be_json_integers(dims):
    with pytest.raises(StateFileError, match="dims"):
        state_from_dict({"dims": dims, "kind": "pure", "data": KET_00})


@pytest.mark.parametrize("kind, data", [
    ("pure", [[True, False], [False, False], [False, False], [False, False]]),
    ("pure", [[1, 0], [0, 0], [0, 0], [0, True]]),
    ("mixed", [[[1, 0], [0, 0]], [[0, 0], [0, False]]]),
])
def test_data_entries_must_not_be_booleans(kind, data):
    dims = [2, 2] if kind == "pure" else [2]
    with pytest.raises(StateFileError, match="data entries must be JSON numbers, got bool"):
        state_from_dict({"dims": dims, "kind": kind, "data": data})


@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_an_overflowing_data_number_is_a_state_file_error(tmp_path, kind):
    huge = "9" * 400
    if kind == "pure":
        data = f"[[{huge}, 0], [0, 0]]"
    else:
        data = f"[[[1, 0], [0, 0]], [[0, 0], [0, {huge}]]]"
    path = tmp_path / "huge.json"
    path.write_text(f'{{"dims": [2], "kind": "{kind}", "data": {data}}}')
    with pytest.raises(StateFileError, match="invalid data"):
        read_state_file(path)


def test_integer_data_entries_are_accepted_exactly():
    state = state_from_dict({"dims": [2, 2], "kind": "pure", "data": KET_00})
    assert np.array_equal(state.vector.view(np.uint64),
                          np.array([1, 0, 0, 0], dtype=np.complex128).view(np.uint64))


def per_entry_state_text(state, label=None):
    """The writer as it was before it read the [re, im] pairs from one
    float64 view: one pair per complex entry, then json.dumps and a
    newline.  Kept as the byte-for-byte oracle."""
    out = {"dims": list(state.dims.dims)}
    if isinstance(state, PureState):
        out["kind"] = "pure"
        out["data"] = [[z.real, z.imag] for z in state.vector]
    else:
        out["kind"] = "mixed"
        out["data"] = [[[z.real, z.imag] for z in row] for row in state.matrix]
    if label is not None:
        out["label"] = label
    return json.dumps(out) + "\n"


def unchecked(cls, values, dims):
    """A state holding ``values`` without validation: the codec reads only
    the dims and the stored array, so entries no valid state can hold
    (3.0, 1e16) still reach the writer."""
    state = object.__new__(cls)
    object.__setattr__(state, "vector" if cls is PureState else "matrix", np.asarray(values))
    object.__setattr__(state, "dims", dims)
    return state


ENCODED = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-5, 3.0, 0.1, 1 / 3])


@ROUNDTRIP
@given(seed=st.integers(0, 2**32 - 1), local=st.sampled_from([(2,), (2, 3), (2, 2, 2)]),
       label=st.sampled_from([None, "", "ghz é\n\"q\""]), data=st.data())
def test_the_writer_writes_the_bytes_of_the_per_entry_encoder(tmp_path_factory, seed, local,
                                                             label, data):
    dims = SubsystemDims(local)
    d = dims.total
    n = data.draw(st.integers(1, 4))
    picks = data.draw(st.lists(st.integers(0, d * d - 1), min_size=n, max_size=n, unique=True))
    specials = [complex(data.draw(ENCODED), data.draw(ENCODED)) for _ in picks]
    vec = np.array(haar_pure(dims, seed).vector)
    vec[[k % d for k in picks]] = specials
    mat = np.array(ginibre_mixed(dims, seed).matrix)
    mat.reshape(-1)[picks] = specials
    states = [haar_pure(dims, seed), ginibre_mixed(dims, seed),
              unchecked(PureState, vec, dims), unchecked(DensityMatrix, mat, dims)]
    path = tmp_path_factory.mktemp("writer") / "state.json"
    for state in states:
        write_state_file(path, state, label=label)
        assert path.read_bytes() == per_entry_state_text(state, label).encode("utf-8")
        assert "".join(state_chunks(state, label)) + "\n" == per_entry_state_text(state, label)


@pytest.mark.parametrize("state", [haar_pure(SubsystemDims((3, 2)), 7),
                                   ginibre_mixed(SubsystemDims((2, 3)), 7, rank=2)])
def test_read_then_write_gives_back_the_same_bytes(tmp_path, state):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    write_state_file(first, state, label="again")
    write_state_file(second, read_state_file(first), label="again")
    assert second.read_bytes() == first.read_bytes()


numbers = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-2**1100, 2**1100))


@ROUNDTRIP
@given(data=st.data(), d=st.integers(1, 4), mixed=st.booleans())
def test_the_flat_decoder_reads_what_the_nested_conversion_reads(data, d, mixed):
    shape = (d, d) if mixed else (d,)
    values = data.draw(st.lists(numbers, min_size=2 * d**len(shape), max_size=2 * d**len(shape)))
    nested = np.array(values, dtype=object).reshape(shape + (2,)).tolist()
    try:
        expected = np.array(nested, dtype=np.float64)
    except OverflowError:
        with pytest.raises(StateFileError, match="invalid data: int too large"):
            _entries(nested, shape)
        return
    got = _entries(nested, shape)
    assert got.shape == shape
    assert got.view(np.float64).tobytes() == expected.tobytes()


def test_a_state_file_with_a_negative_eigenvalue_names_it():
    obj = {"dims": [2], "kind": "mixed", "data": [[[1.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]}
    with pytest.raises(StateFileError) as exc:
        state_from_dict(obj)
    assert str(exc.value) == (
        "invalid state data: density matrix has negative eigenvalue -5.000e-01 below -1e-09")


def no_repeated_key(pairs):
    keys = [key for key, _ in pairs]
    for i, key in enumerate(keys):
        if key in keys[:i]:
            raise StateFileError(f"state file repeats the key {key!r} in one object")
    return dict(pairs)


def loads_route(path):
    """The reader as it was before it streamed rows: json.loads of the
    whole text, refusing a key repeated in one object, then the dict
    route.  Kept as the oracle of read_state_file."""
    text = path.read_text(encoding="utf-8")
    try:
        obj = json.loads(text, object_pairs_hook=no_repeated_key)
    except json.JSONDecodeError as exc:
        raise StateFileError(f"state file {path} is not valid JSON: {exc}") from exc
    return state_from_dict(obj)


WHITESPACE = ["", "", "", " ", "  ", "\n", "\t", "\r\n  "]


def dump(value, rnd) -> str:
    """JSON text of ``value`` with random JSON whitespace around each
    token; an object is a list of (key, value) members, duplicates allowed."""
    ws = lambda: rnd.choice(WHITESPACE)  # noqa: E731
    if isinstance(value, tuple):
        return "{" + ",".join(ws() + json.dumps(k) + ws() + ":" + ws() + dump(v, rnd) + ws()
                              for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + (",".join(ws() + dump(v, rnd) + ws() for v in value) or ws()) + "]"
    return json.dumps(value)


CASES = [((2,), "mixed"), ((3,), "mixed"), ((2, 2), "mixed"), ((2, 3), "mixed"),
         ((2, 2), "pure"), ((3,), "pure")]
DECOYS = {"dims": [[2], [4], [3, 3], "x"], "kind": ["pure", "mixed", "other"],
          "data": [[], [[1, 0]], "x"], "label": [5, "decoy"]}
ENTRY_MUTATIONS = {"bool": True, "false": False, "string": "1.0", "word": "abc", "null": None,
                   "nan": float("nan"), "inf": float("-inf"), "overflow": 10**400,
                   "big_int": 2**53 + 1, "huge_int": 2**64 + 3}
MUTATIONS = [None] * 6 + sorted(ENTRY_MUTATIONS) + [
    "short_row", "long_row", "extra_row", "missing_row", "bad_pair", "late_dims", "late_kind",
    "late_data",
] + ["truncate", "trailing", "drop_comma", "bom", "top_array"] * 2


def valid_data(draw, dims: SubsystemDims, kind: str) -> list:
    """The nested [re, im] lists of a valid state with signed zeros,
    subnormals and integer entries among its entries."""
    d = dims.total
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "pure":
        vec = np.array(haar_pure(dims, seed).vector)
        zeros = draw(st.lists(st.integers(0, d - 1), max_size=d - 1, unique=True))
        vec[zeros] = 0.0
        vec /= np.linalg.norm(vec)
        data = vec.view(np.float64).reshape(d, 2).tolist()
        for k in zeros:
            data[k] = draw(st.sampled_from([[0, 0], [-0.0, 0], [0, -0.0]]))
        return data
    if draw(st.booleans()):  # a basis projector written in integers
        k = draw(st.integers(0, d - 1))
        return [[[int(i == j == k), 0] for j in range(d)] for i in range(d)]
    mat = 0.1 * ginibre_mixed(dims, seed).matrix + 0.9 * np.eye(d) / d
    data = mat.view(np.float64).reshape(d, d, 2).tolist()
    for i, j in draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1))
                              .filter(lambda p: p[0] < p[1]), max_size=3, unique=True)):
        re, im = draw(SPECIAL), draw(SPECIAL)
        data[i][j], data[j][i] = [re, im], [re, -im]
        if draw(st.booleans()):
            data[i][j], data[j][i] = [0, 0], [0, 0]
    for k in draw(st.lists(st.integers(0, d - 1), max_size=d, unique=True)):
        data[k][k][1] = -0.0
    return data


@st.composite
def state_files(draw):
    """A state file's text, valid when its mutation is None: any member
    order, optional label, random whitespace.  A decoy earlier member of
    a key makes it invalid, as the "repeated_key" mutation."""
    local, kind = draw(st.sampled_from(CASES))
    dims = SubsystemDims(local)
    data = valid_data(draw, dims, kind)
    mutation = draw(st.sampled_from(MUTATIONS))
    k = draw(st.integers(0, len(data) - 1))
    row = data[k] if kind == "mixed" else data
    if mutation in ENTRY_MUTATIONS:
        pair = row[draw(st.integers(0, len(row) - 1))]
        pair[draw(st.integers(0, 1))] = ENTRY_MUTATIONS[mutation]
    elif mutation == "short_row":
        del row[-1]
    elif mutation == "long_row":
        row.append([0.0, 0.0])
    elif mutation == "extra_row":
        data.append(list(data[k]))
    elif mutation == "missing_row":
        del data[k]
    elif mutation == "bad_pair":
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from([[0.0], [0.0, 0.0, 0.0]]))
    members = [("dims", list(local)), ("kind", kind), ("data", data)]
    members = draw(st.permutations(members))
    if draw(st.booleans()):
        # a plain label, or one holding the text of the rows of a D x D
        # projector, which the row cut must not read as data
        projector = [[[int(i == j == 0), 0] for j in range(dims.total)] for i in range(dims.total)]
        label = draw(st.sampled_from(["a \u00e9 \"label\"", json.dumps(projector)]))
        members.insert(draw(st.integers(0, len(members))), ("label", label))
    if draw(st.booleans()):  # an earlier member of the same key, which the reader refuses
        key, _ = member = draw(st.sampled_from(members))
        decoy = (key, draw(st.sampled_from(DECOYS[key])))
        members.insert(draw(st.integers(0, members.index(member))), decoy)
        mutation = mutation or "repeated_key"
    if mutation == "late_dims":
        members.append(("dims", [dims.total + 1]))
    elif mutation == "late_kind":
        members.append(("kind", "pure" if kind == "mixed" else "mixed"))
    elif mutation == "late_data":  # the token the row cut reads in the rows' place
        members.append(("data", draw(st.sampled_from([[0], [1]]))))
    if draw(st.booleans()):  # the writer's layout, duplicate members kept
        text = "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in members) + "}"
    else:
        text = dump(tuple(members), draw(st.randoms(use_true_random=False)))
    if mutation == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif mutation == "trailing":
        text += draw(st.sampled_from([" x", "{}", "]", ",", " 1", "\n\n}"]))
    elif mutation == "drop_comma":
        commas = [i for i, c in enumerate(text) if c == ","]
        i = draw(st.sampled_from(commas))
        text = text[:i] + text[i + 1:]
    elif mutation == "bom":
        text = "\ufeff" + text
    elif mutation == "top_array":
        text = "[" + text + "]"
    return text, mutation


def cut_decoys(test):
    """Try first the files the row cut must leave to json.loads, which the
    draws rarely reach: a later duplicate of each token it reads in the
    rows' place, and a pure state whose label holds rows text of its D and
    whose later kind would make it mixed.  Each repeats a key, so both
    routes refuse it naming that key."""
    rows = "[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]"
    for late in ("[0]", "[1]"):
        test = example(case=(f'{{"dims": [2], "kind": "mixed", "data": {rows}, "data": {late}}}',
                             "late_data"))(test)
    text = f'{{"dims": [2], "kind": "pure", "data": [[1, 0], [0, 0]], "label": "{rows}", '
    return example(case=(text + '"kind": "mixed"}', "late_kind"))(test)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(case=state_files())
@cut_decoys
def test_the_streaming_reader_reads_what_json_loads_reads(tmp_path_factory, case):
    reads_as_json_loads(tmp_path_factory, case)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=state_files())
@cut_decoys
def test_the_cut_rows_read_what_json_loads_reads(tmp_path_factory, case):
    """The same property with the rows of every mixed state cut out of the
    bytes, the route of states at the helper threshold (in one process)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qio, "HELPER_PAIRS", 1)
        patch.setattr(qio, "_spare_cpu", lambda: False)
        reads_as_json_loads(tmp_path_factory, case)


def reads_as_json_loads(tmp_path_factory, case):
    text, mutation = case
    path = tmp_path_factory.getbasetemp() / "oracle.json"
    path.write_text(text, encoding="utf-8")
    try:
        expected = loads_route(path)
    except StateFileError as exc:
        assert mutation is not None, f"a valid file was rejected: {exc}"
        with pytest.raises(StateFileError) as got:
            read_state_file(path)
        assert str(got.value) == str(exc)
        return
    got = read_state_file(path)
    assert type(got) is type(expected) and got.dims.dims == expected.dims.dims
    values = got.vector if isinstance(got, PureState) else got.matrix
    before = expected.vector if isinstance(expected, PureState) else expected.matrix
    assert values.tobytes() == before.tobytes()


def test_the_codec_holds_no_tree_of_the_matrix(tmp_path):
    """An 8-qubit mixed file is written in under two D x D complex arrays
    of traced memory, and read back and validated in under its own length
    plus four."""
    rho = ginibre_mixed(SubsystemDims((2,) * 8), 8)
    matrix_bytes = rho.matrix.nbytes
    path = tmp_path / "rho.json"
    tracemalloc.start()
    try:
        write_state_file(path, rho)
        written = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        loaded = read_state_file(path)
        read = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written < 2 * matrix_bytes
    assert read < path.stat().st_size + 4 * matrix_bytes
    assert np.array_equal(loaded.matrix, rho.matrix)


# ---------------------------------------------------------------------------
# the helper process: a mixed state at or above io.HELPER_PAIRS entries is
# coded by two processes; these tests lower the threshold so small states
# take that route, and check it against the one-process codec


@pytest.fixture()
def no_child_left():
    """Fail unless every process the test started was reaped, and every
    file it opened was closed (an unclosed file warns when collected); a
    test still running after a minute, waiting for a helper, fails too."""
    def hung(signum, frame):
        raise TimeoutError("still waiting after a minute, for a helper")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            yield
            gc.collect()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def spawned(monkeypatch, no_child_left):
    """Route every state with at least 64 entries through a helper, on any
    machine, and record the helpers started."""
    started = []
    spawn = qio._spawn

    def record(mode, d, source, size, answer):
        started.append(mode)
        return spawn(mode, d, source, size, answer)

    monkeypatch.setattr(qio, "HELPER_PAIRS", 64)
    monkeypatch.setattr(qio, "_spare_cpu", lambda: True)
    monkeypatch.setattr(qio, "_spawn", record)
    return started


def mixed_file(tmp_path, local, seed=11, label=None):
    rho = ginibre_mixed(SubsystemDims(local), seed)
    path = tmp_path / "rho.json"
    path.write_text(per_entry_state_text(rho, label), encoding="utf-8")
    return rho, path


@pytest.mark.parametrize("local", [(2, 3), (2, 2, 2), (3, 3), (2, 2, 2, 2)])
def test_the_helper_writes_and_reads_the_bytes_and_bits_of_one_process(tmp_path, spawned,
                                                                      monkeypatch, local):
    """D = 6 stays in one process (36 < 64 entries); D = 8, 9 and 16 start
    one helper for each mixed state written and one to read.  The chunks
    are the documented bytes, ``json.dumps(state_to_dict(state, label))``,
    for pure and mixed states, with and without a label."""
    rho, oracle = mixed_file(tmp_path, local, label="two")
    answered = []

    answer = qio._answer

    def used(helper, out=None):  # each helper's answer is used
        got = answer(helper, out)
        if helper is not None:
            answered.append(got is not None)
        return got

    monkeypatch.setattr(qio, "_answer", used)
    d = rho.dims.total
    if d * d >= 64:  # and the whole text is never decoded
        monkeypatch.setattr(qio, "_text", None)
    path = tmp_path / "written.json"
    write_state_file(path, rho, label="two")
    assert path.read_bytes() == oracle.read_bytes()
    loaded = read_state_file(path)
    assert loaded.matrix.tobytes() == loads_route(oracle).matrix.tobytes()
    assert json.dumps(qio.state_to_dict(rho, "two")) + "\n" == oracle.read_text(encoding="utf-8")
    for state, label in itertools.product([rho, haar_pure(rho.dims, 3)], [None, "two"]):
        assert "".join(state_chunks(state, label)) == json.dumps(qio.state_to_dict(state, label))
    assert spawned == ([] if d * d < 64 else ["encode", "decode", "encode", "encode"])
    assert answered == [True] * len(spawned)


@pytest.mark.parametrize("dims", ["2,3", "2,2,2", "3,3", "2,2,2,2"])
def test_make_state_writes_the_bytes_of_one_process(tmp_path, spawned, monkeypatch, capsys,
                                                    dims):
    """``--out FILE`` and ``--out -`` give the bytes one process gives, on
    both sides of the (lowered) threshold."""
    argv = ["make-state", "--kind", "ginibre_mixed", "--dims", dims, "--seed", "7"]
    assert main(argv + ["--out", str(tmp_path / "two.json")]) == 0
    assert main(argv + ["--out", "-"]) == 0
    printed = capsys.readouterr().out
    monkeypatch.setattr(qio, "_spare_cpu", lambda: False)
    assert main(argv + ["--out", str(tmp_path / "one.json")]) == 0
    one = (tmp_path / "one.json").read_text(encoding="utf-8")
    assert (tmp_path / "two.json").read_text(encoding="utf-8") == printed == one
    d = math.prod(map(int, dims.split(",")))
    assert spawned == ([] if d * d < 64 else ["encode", "encode"])


def exits(code: int):
    return [sys.executable, "-c", f"import sys; sys.exit({code})"]


def codec(mode, d, size):
    return [sys.executable, "-I", "-S", _rowcodec.__file__, mode, str(d), str(size)]


def killed(mode, d, source, size, answer):
    proc = subprocess.Popen(codec(mode, d, size), stdin=source, stdout=answer)
    proc.kill()
    return proc


def answering(change, status=0):
    """A launcher whose helper exits with ``status`` having answered
    ``change`` of the row codec's answer."""
    def spawn(mode, d, source, size, answer):
        answer.write(change(subprocess.run(codec(mode, d, size), stdin=source,
                                           stdout=subprocess.PIPE).stdout))
        answer.flush()
        return subprocess.Popen(exits(status))
    return spawn


def launcher(kind):
    if kind == "oserror":
        def spawn(mode, d, source, size, answer):
            raise OSError("no helper")
    elif kind == "killed":
        spawn = killed
    elif kind == "short":  # the answer less its last 8 bytes
        spawn = answering(lambda out: out[:-8])
    elif kind == "long":  # the answer twice over: twice the rows asked for
        spawn = answering(lambda out: out + out)
    elif kind == "wrong_exit3":  # other values of the answer's size, then exit 3
        spawn = answering(lambda out: out.translate(bytes.maketrans(b"12", b"21")), 3)
    else:
        argv = {"exit3": exits(3), "exit0": exits(0), "not_rows": exits(_rowcodec.NOT_ROWS)}[kind]

        def spawn(mode, d, source, size, answer):
            return subprocess.Popen(argv, stdin=source, stdout=answer)
    return spawn


@pytest.mark.parametrize("kind", ["no_tempfile", "oserror", "exit3", "exit0", "not_rows",
                                  "killed", "short", "long", "wrong_exit3"])
def test_a_failed_helper_changes_no_byte_and_no_bit(tmp_path, spawned, monkeypatch, kind):
    """Whatever happens to the helper, or to its temporary files, the file
    written, the values read and the diagnostic of a malformed last row
    are those of one process."""
    rho, oracle = mixed_file(tmp_path, (2, 2, 3))
    bad = tmp_path / "bad.json"
    data = rho.matrix.view(np.float64).reshape(12, 12, 2).tolist()
    del data[-1][-1]
    bad.write_text(json.dumps({"dims": [2, 2, 3], "kind": "mixed", "data": data}),
                   encoding="utf-8")
    with pytest.raises(StateFileError) as expected:
        loads_route(bad)
    if kind == "no_tempfile":
        def no_file(*args, **kwargs):
            raise OSError("no temporary file")

        monkeypatch.setattr(tempfile, "TemporaryFile", no_file)
        monkeypatch.setattr(qio, "_spawn", None)  # no helper starts
    else:
        monkeypatch.setattr(qio, "_spawn", launcher(kind))
    path = tmp_path / "written.json"
    write_state_file(path, rho)
    assert path.read_bytes() == oracle.read_bytes()
    assert read_state_file(path).matrix.tobytes() == loads_route(oracle).matrix.tobytes()
    with pytest.raises(StateFileError) as got:
        read_state_file(bad)
    assert str(got.value) == str(expected.value)
    assert main(["invariants", "--state", str(bad)]) == 2


LAST_ROW_MUTATIONS = sorted(ENTRY_MUTATIONS) + ["short_row", "long_row", "bad_pair",
                                                "extra_row", "missing_row"]


@pytest.mark.parametrize("mutation", LAST_ROW_MUTATIONS)
def test_a_malformed_last_row_keeps_the_one_process_diagnostic(tmp_path, spawned, mutation):
    """The last row is in the helper's share; its diagnostic is still the
    one the whole text gives, and the CLI exits 2 with it."""
    dims = SubsystemDims((3, 3))
    d = dims.total
    data = (0.1 * ginibre_mixed(dims, 5).matrix + 0.9 * np.eye(d) / d).view(np.float64)
    data = data.reshape(d, d, 2).tolist()
    row = data[-1]
    if mutation in ENTRY_MUTATIONS:
        row[3][1] = ENTRY_MUTATIONS[mutation]
    elif mutation == "short_row":
        del row[-1]
    elif mutation == "long_row":
        row.append([0.0, 0.0])
    elif mutation == "bad_pair":
        row[2] = [0.0]
    elif mutation == "extra_row":
        data.append(list(row))
    else:
        del data[-1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dims": [3, 3], "kind": "mixed", "data": data}),
                    encoding="utf-8")
    with pytest.raises(StateFileError) as expected:
        loads_route(path)
    with pytest.raises(StateFileError) as got:
        read_state_file(path)
    assert str(got.value) == str(expected.value)
    assert "decode" in spawned
    assert main(["invariants", "--state", str(path)]) == 2


def test_an_answer_with_more_rows_than_asked_is_refused(tmp_path, spawned, monkeypatch):
    """A D = 16 file with 1000 extra rows, of which this process keeps the
    first: the helper decodes its share, 260 kB of rows where D rows fit,
    and exits 0.  The reader refuses an answer of that size; the whole
    text then gives the shape diagnostic and the CLI exits 2."""
    monkeypatch.setattr(qio, "SHARE", 0.01)
    d = 16
    data = ginibre_mixed(SubsystemDims((2,) * 4), 2).matrix.view(np.float64)
    data = data.reshape(d, d, 2).tolist()
    data += [data[-1]] * 1000
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"dims": [2, 2, 2, 2], "kind": "mixed", "data": data}),
                    encoding="utf-8")
    with pytest.raises(StateFileError) as expected:
        loads_route(path)
    with pytest.raises(StateFileError) as got:
        read_state_file(path)
    assert str(got.value) == str(expected.value)
    assert main(["invariants", "--state", str(path)]) == 2
    assert spawned == ["decode", "decode"]


def test_no_helper_starts_for_a_seven_qubit_state(tmp_path, monkeypatch, no_child_left):
    """At the shipped threshold, a D = 128 file is written and read in one
    process, however many CPUs there are."""
    def spawn(mode, d, source, size, answer):
        raise AssertionError(f"a {mode} helper started for D = {d}")

    monkeypatch.setattr(qio, "_spare_cpu", lambda: True)
    monkeypatch.setattr(qio, "_spawn", spawn)
    rho = ginibre_mixed(SubsystemDims((2,) * 7), 3)
    path = tmp_path / "rho.json"
    write_state_file(path, rho)
    assert np.array_equal(read_state_file(path).matrix, rho.matrix)


def test_no_helper_starts_on_one_cpu(tmp_path, monkeypatch, no_child_left):
    monkeypatch.setattr(qio, "HELPER_PAIRS", 64)
    monkeypatch.setattr(qio, "_spare_cpu", lambda: False)
    monkeypatch.setattr(qio, "_spawn", None)
    rho, oracle = mixed_file(tmp_path, (2, 2, 2))
    write_state_file(tmp_path / "written.json", rho)
    assert (tmp_path / "written.json").read_bytes() == oracle.read_bytes()
    assert read_state_file(oracle).matrix.tobytes() == rho.matrix.tobytes()


def test_closing_the_chunks_early_reaps_the_helper(spawned):
    chunks = state_chunks(ginibre_mixed(SubsystemDims((2, 2, 2)), 1))
    assert next(chunks).startswith('{"dims"')
    assert next(chunks) == "["
    assert spawned == ["encode"]
    chunks.close()


@pytest.mark.parametrize("helper", [False, True])
def test_the_reader_holds_the_file_once(tmp_path, monkeypatch, no_child_left, helper):
    """An 8-qubit mixed file in the writer's layout is read and validated
    in under three D x D complex arrays of traced memory, helper or not,
    with no term in the file's length: the rows are read in place into
    the array the state keeps, and the PSD certificate shifts that array's
    diagonal in place (reading all the file's bytes first, and shifting a
    copy, took the length plus 1.5 arrays)."""
    monkeypatch.setattr(qio, "_spare_cpu", lambda: helper)
    rho = ginibre_mixed(SubsystemDims((2,) * 8), 8)
    path = tmp_path / "rho.json"
    write_state_file(path, rho)
    tracemalloc.start()
    try:
        loaded = read_state_file(path)
        read = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read < 3 * rho.matrix.nbytes
    assert loaded.matrix.tobytes() == rho.matrix.tobytes()


def test_another_layout_at_the_threshold_is_read_whole(tmp_path, monkeypatch, no_child_left):
    """A D = 256 file in a layout other than the writer's reads the bits of
    the writer's file, through json.loads of its whole text, with no
    helper."""
    rho = ginibre_mixed(SubsystemDims((2,) * 8), 4)
    written, indented = tmp_path / "written.json", tmp_path / "indented.json"
    write_state_file(written, rho)
    indented.write_text(json.dumps(json.loads(written.read_text(encoding="utf-8")), indent=1),
                        encoding="utf-8")
    expected = read_state_file(written).matrix.tobytes()
    whole = []
    text = qio._text

    def spawn(mode, d, source, size, answer):
        raise AssertionError(f"a {mode} helper started for D = {d}")

    def read_whole(raw, path):
        whole.append(path)
        return text(raw, path)

    monkeypatch.setattr(qio, "_spare_cpu", lambda: True)
    monkeypatch.setattr(qio, "_spawn", spawn)
    monkeypatch.setattr(qio, "_text", read_whole)
    assert read_state_file(indented).matrix.tobytes() == expected
    assert whole == [indented]


@pytest.mark.parametrize("helper", [False, True])
def test_the_cut_refuses_a_repeated_header_key(tmp_path, monkeypatch, no_child_left, helper):
    """A D = 256 file in the writer's layout with "kind" twice, the same
    value both times, would read as the matrix if the row cut's header
    parse kept the last member; it is refused naming the key, before any
    helper starts."""
    rho = ginibre_mixed(SubsystemDims((2,) * 8), 5)
    path = tmp_path / "twice.json"
    write_state_file(path, rho)
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b'"kind": "mixed", ', b'"kind": "mixed", "kind": "mixed", ', 1))

    def spawn(mode, d, source, size, answer):
        raise AssertionError(f"a {mode} helper started for D = {d}")

    monkeypatch.setattr(qio, "_spare_cpu", lambda: helper)
    monkeypatch.setattr(qio, "_spawn", spawn)
    with pytest.raises(StateFileError, match="repeats the key 'kind'"):
        read_state_file(path)


def test_the_whole_text_refuses_a_repeated_key_in_any_object(tmp_path):
    rho = ginibre_mixed(SubsystemDims((2, 2)), 5)
    path = tmp_path / "twice.json"
    write_state_file(path, rho, label="x")
    text = path.read_text(encoding="utf-8")
    path.write_text(text.rstrip()[:-1] + ', "label": "y"}', encoding="utf-8")
    with pytest.raises(StateFileError, match="repeats the key 'label'"):
        read_state_file(path)


def test_the_helper_runs_as_a_script_without_numpy():
    """The row codec imports only json, array and sys, so the helper starts
    with no package import.  Its answer is the functions' text or float64
    rows and nothing else; it writes nothing when its input is not whole
    rows."""
    rows = np.arange(24, dtype=np.float64).reshape(3, 4, 2) / 7
    encoded = ", ".join(_rowcodec.encode(memoryview(rows).cast("B"), 4)).encode("ascii")
    not_rows = _rowcodec.NOT_ROWS
    for mode, data, status, answer in [("encode", rows.tobytes(), 0, encoded),
                                       ("decode", encoded, 0, rows.tobytes()),
                                       ("encode", rows.tobytes()[:-8], not_rows, b""),
                                       ("decode", encoded[:-1], not_rows, b"")]:
        got = subprocess.run(codec(mode, 4, len(data)), input=data, capture_output=True)
        assert (got.returncode, got.stdout, got.stderr) == (status, answer, b"")
    probe = (f"import runpy, sys; runpy.run_path({_rowcodec.__file__!r}); "
             "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'qinvert'}))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


# ---------------------------------------------------------------------------
# input routes: a file in the writer's layout is cut in place, a pipe or
# a FIFO is copied to a temporary file first, and a file whose brackets
# lie outside the windows is read whole, with the same values and the
# same report lines


def untimed(out: str) -> list[dict]:
    return [{k: v for k, v in json.loads(line).items() if k != "elapsed_ms"}
            for line in out.splitlines()]


def fresh_cli(argv, **kwargs):
    """``python -m qinvert argv`` in a new process, warnings as errors."""
    src = os.path.dirname(os.path.dirname(qio.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "qinvert", *argv],
                          capture_output=True, env=env, **kwargs)


@pytest.fixture(scope="module")
def d256(tmp_path_factory):
    """A D = 256 mixed file in the writer's layout and the report lines
    of ``invariants`` on it."""
    path = tmp_path_factory.mktemp("d256") / "rho.json"
    write_state_file(path, ginibre_mixed(SubsystemDims((2,) * 8), 6))
    done = fresh_cli(["invariants", "--state", str(path)])
    assert done.returncode == 0 and done.stderr == b""
    return path, untimed(done.stdout.decode())


def test_stdin_gives_the_report_lines_of_the_file(d256):
    """``--state /dev/stdin``, redirected from the file (cut in place) and
    fed through a pipe (copied to a temporary file, then cut), prints the
    lines the file's path prints, with nothing on stderr."""
    path, expected = d256
    with open(path, "rb") as fh:
        redirected = fresh_cli(["invariants", "--state", "/dev/stdin"], stdin=fh)
    piped = fresh_cli(["invariants", "--state", "/dev/stdin"], input=path.read_bytes())
    for done in (redirected, piped):
        assert done.returncode == 0 and done.stderr == b""
        assert untimed(done.stdout.decode()) == expected


@pytest.mark.parametrize("spool", [True, False])
def test_a_fifo_gives_the_report_lines_of_the_file(tmp_path, d256, monkeypatch, capsys,
                                                   no_child_left, spool):
    """A FIFO cannot seek: it is copied to an unlinked temporary file whose
    rows are cut in place, or, when that file cannot be made, read whole.
    Either way it prints the lines the file's path prints."""
    path, expected = d256
    fifo = tmp_path / "rho.fifo"
    os.mkfifo(fifo)
    whole = []
    text = qio._text
    monkeypatch.setattr(qio, "_text", lambda raw, name: whole.append(name) or text(raw, name))
    if not spool:
        def no_file(*args, **kwargs):
            raise OSError("no temporary file")

        monkeypatch.setattr(tempfile, "TemporaryFile", no_file)
    feeder = subprocess.Popen([sys.executable, "-c",
                               "import shutil, sys; shutil.copyfileobj(open(sys.argv[1], 'rb'),"
                               " open(sys.argv[2], 'wb'))", str(path), str(fifo)])
    try:
        code = main(["invariants", "--state", str(fifo)])
    finally:
        try:
            feeder.wait(timeout=60)
        finally:
            feeder.kill()
            feeder.wait()
    assert code == 0 and feeder.returncode == 0
    assert untimed(capsys.readouterr().out) == expected
    assert whole == ([] if spool else [str(fifo)])


@pytest.mark.parametrize("where", ["before", "after"])
def test_brackets_outside_the_windows_send_the_file_to_the_whole_text(tmp_path, d256,
                                                                      monkeypatch, capsys,
                                                                      where):
    """A label of WINDOW bytes before the data pushes its ``[[[`` out of
    the head window; after the data, its ``]]]`` out of the tail window.
    Either file is read whole, with the values and lines of the file."""
    path, expected = d256
    raw = path.read_bytes()
    label = b'"label": "' + b"x" * qio.WINDOW + b'"'
    moved = tmp_path / "labelled.json"
    if where == "before":
        moved.write_bytes(b"{" + label + b", " + raw[1:])
    else:
        moved.write_bytes(raw.rstrip()[:-1] + b", " + label + b"}\n")
    whole = []
    text = qio._text
    monkeypatch.setattr(qio, "_text", lambda raw, name: whole.append(name) or text(raw, name))
    assert read_state_file(moved).matrix.tobytes() == read_state_file(path).matrix.tobytes()
    assert whole == [moved]
    assert main(["invariants", "--state", str(moved)]) == 0
    assert untimed(capsys.readouterr().out) == expected


@pytest.mark.parametrize("helper", [False, True])
@pytest.mark.parametrize("edit", ["truncate", "first_rows", "last_rows"])
def test_a_large_file_broken_inside_its_rows_keeps_the_whole_text_diagnostic(
    tmp_path, d256, monkeypatch, capsys, no_child_left, helper, edit
):
    """A D = 256 file cut short inside its rows, or with a number replaced
    by ``true`` in a row this process decodes or in one the helper
    decodes, is refused with the diagnostic of json.loads of its whole
    text, and the CLI exits 2 with it."""
    monkeypatch.setattr(qio, "_spare_cpu", lambda: helper)
    path, _ = d256
    raw = path.read_bytes()
    broken = tmp_path / "broken.json"
    if edit == "truncate":
        broken.write_bytes(raw[:len(raw) // 2])
    else:
        at = raw.index(b"[[", len(raw) // 4 if edit == "first_rows" else 3 * len(raw) // 4)
        number = raw.index(b",", at) - at - 2
        broken.write_bytes(raw[:at + 2] + b"true".ljust(number) + raw[at + 2 + number:])
    with pytest.raises(StateFileError) as expected:
        loads_route(broken)
    with pytest.raises(StateFileError) as got:
        read_state_file(broken)
    assert str(got.value) == str(expected.value)
    assert main(["invariants", "--state", str(broken)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and str(expected.value) in captured.err
