import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qinvert.dims import SubsystemDims
from qinvert.io import (
    StateFileError,
    read_state_file,
    state_from_dict,
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
