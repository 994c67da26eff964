import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qinvert.dims import SubsystemDims
from qinvert.io import (
    StateFileError,
    _entries,
    read_state_file,
    state_from_dict,
    state_text,
    write_state_file,
)
from qinvert.states import DensityMatrix, PureState
from qinvert.zoo import ginibre_mixed, haar_pure


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
        assert state_text(state, label) + "\n" == per_entry_state_text(state, label)


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


def loads_route(path):
    """The reader as it was before it streamed rows: json.loads of the
    whole text, then the dict route.  Kept as the oracle of
    read_state_file."""
    text = path.read_text(encoding="utf-8")
    try:
        obj = json.loads(text)
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
    order, optional label and decoy duplicate member, random whitespace."""
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
        members.insert(draw(st.integers(0, len(members))), ("label", "a \u00e9 \"label\""))
    if draw(st.booleans()):  # an earlier member of the same key, which the later one replaces
        key, _ = member = draw(st.sampled_from(members))
        decoy = (key, draw(st.sampled_from(DECOYS[key])))
        members.insert(draw(st.integers(0, members.index(member))), decoy)
    if mutation == "late_dims":
        members.append(("dims", [dims.total + 1]))
    elif mutation == "late_kind":
        members.append(("kind", "pure" if kind == "mixed" else "mixed"))
    if draw(st.booleans()):
        text = json.dumps(dict(members))  # the writer's layout
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


@settings(max_examples=600, deadline=None, derandomize=True)
@given(case=state_files())
def test_the_streaming_reader_reads_what_json_loads_reads(tmp_path_factory, case):
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


def test_no_state_file_read_calls_json_loads(tmp_path, monkeypatch):
    path = tmp_path / "rho.json"
    write_state_file(path, ginibre_mixed(SubsystemDims((2, 2)), 3))
    monkeypatch.setattr(json, "loads", None)
    monkeypatch.setattr(json.JSONDecoder, "decode", None)
    read_state_file(path)
    path.write_text('{"dims": [2], "kind": "mixed", "data": [[[1, 0], [0, 0]], [[0, 0]]]}')
    with pytest.raises(StateFileError, match="invalid data"):
        read_state_file(path)


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
