import numpy as np
import pytest

from qinvert import states
from qinvert.constraints import correlation_report, entropy_inequalities, monogamy_report
from qinvert.dims import SubsystemDims
from qinvert.invariants import invariant_table
from qinvert.states import DensityMatrix, PureState
from qinvert.zoo import bell_state, ginibre_mixed, haar_pure


def test_density_matrix_accepts_valid_state():
    dims = SubsystemDims((2, 2))
    rho = DensityMatrix(np.eye(4) / 4, dims)
    assert rho.matrix.shape == (4, 4)
    assert not rho.matrix.flags.writeable


def test_density_matrix_shape_mismatch():
    dims = SubsystemDims((2, 2))
    with pytest.raises(ValueError, match="shape"):
        DensityMatrix(np.eye(3) / 3, dims)


def test_density_matrix_rejects_non_hermitian():
    dims = SubsystemDims((2,))
    mat = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(mat, dims)


def test_density_matrix_rejects_bad_trace():
    dims = SubsystemDims((2,))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2), dims)


def test_density_matrix_rejects_negative_eigenvalue():
    dims = SubsystemDims((2,))
    mat = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(mat, dims)


def test_pure_state_norm_validation():
    dims = SubsystemDims((2,))
    PureState(np.array([1.0, 0.0]), dims)
    with pytest.raises(ValueError, match="norm"):
        PureState(np.array([1.0, 1.0]), dims)


def test_pure_state_density_roundtrip():
    psi = bell_state()
    rho = psi.density()
    assert np.allclose(rho.matrix, np.outer(psi.vector, psi.vector.conj()))


def test_reduce_returns_valid_state():
    dims = SubsystemDims((2, 3))
    rho = ginibre_mixed(dims, 2)
    red = rho.reduce(0b10)
    assert red.dims.dims == (3,)
    assert abs(np.trace(red.matrix) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        rho.reduce(0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_non_finite_entries_are_rejected(bad):
    dims = SubsystemDims((2, 2))
    mat = np.eye(4, dtype=complex) / 4
    mat[2, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(mat, dims)
    vec = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    vec[1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        PureState(vec, dims)


def test_purity_profile_is_swept_once_per_state_and_read_only(monkeypatch):
    calls = []
    sweep = states.subset_purities
    monkeypatch.setattr(states, "subset_purities", lambda *a: calls.append(a) or sweep(*a))
    dims = SubsystemDims((2, 3, 2))
    rho, psi = ginibre_mixed(dims, 4), haar_pure(dims, 4)
    for state in (rho, psi):
        correlation_report(state)
        entropy_inequalities(state)
        invariant_table(state)
    monogamy_report(psi)
    assert len(calls) == 2
    for state in (rho, psi):
        with pytest.raises(ValueError, match="read-only"):
            state.purities[1] = 0.0
