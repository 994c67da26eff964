import tracemalloc

import numpy as np
import pytest

from qinvert import states, tensor
from qinvert.constraints import correlation_report, entropy_inequalities, monogamy_report
from qinvert.dims import SubsystemDims
from qinvert.invariants import invariant_table
from qinvert.states import DensityMatrix, FactorState, PureState, gram_density
from qinvert.tensor import block_product
from qinvert.zoo import _ginibre_factor, bell_state, ginibre_factor, ginibre_mixed, haar_pure


def test_density_matrix_accepts_valid_state():
    dims = SubsystemDims((2, 2))
    rho = DensityMatrix(np.eye(4) / 4, dims)
    assert rho.matrix.shape == (4, 4)
    assert not rho.matrix.flags.writeable


def test_a_stack_gets_the_checks_of_each_state_with_its_worst_value():
    mats = np.stack([np.eye(2) / 2] * 3).astype(np.complex128)
    states._require_density(mats)
    mats[1] = [[0.5, 0.0], [0.0, 0.25]]
    with pytest.raises(ValueError, match=r"density matrix stack trace \(0.75\+0j\) is not 1"):
        states._require_density(mats)
    mats[1] = [[1.5, 0.0], [0.0, -0.5]]
    with pytest.raises(ValueError, match="stack has negative eigenvalue -5.000e-01"):
        states._require_density(mats)
    states._require_density(mats, psd=False)
    mats[2, 0, 1] = 1e-3
    with pytest.raises(ValueError, match="matrix 2 of the stack is not Hermitian: .* 1.000e-03"):
        states._require_density(mats)


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
    for name in ("subset_purities", "factor_purities"):
        kernel = getattr(states, name)
        monkeypatch.setattr(states, name,
                            lambda *a, name=name, kernel=kernel: calls.append(name) or kernel(*a))
    dims = SubsystemDims((2, 3, 2))
    rho, psi = ginibre_mixed(dims, 4), haar_pure(dims, 4)
    for state in (rho, psi):
        correlation_report(state)
        entropy_inequalities(state)
        invariant_table(state)
    monogamy_report(psi)
    # the mixed state sweeps its matrix, the pure state reads its factor
    assert calls == ["subset_purities", "factor_purities"]
    for state in (rho, psi):
        with pytest.raises(ValueError, match="read-only"):
            state.purities[1] = 0.0


def test_pure_density_skips_only_the_psd_eigen_solve(monkeypatch):
    psi = haar_pure(SubsystemDims((2, 3)), 5)
    solves = []
    real = states.psd_violation
    monkeypatch.setattr(states, "psd_violation", lambda *a: solves.append(a) or real(*a))
    rho = psi.density()
    assert solves == []
    assert np.array_equal(rho.matrix, gram_density(psi.vector[:, None]))
    assert np.max(np.abs(rho.matrix - np.outer(psi.vector, psi.vector.conj()))) <= 1e-15
    assert not rho.matrix.flags.writeable
    DensityMatrix(rho.matrix, rho.dims)
    assert len(solves) == 1
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]), SubsystemDims((2,)), _psd_known=True)


@pytest.mark.parametrize("local_dims, s", [
    ((2, 2), 0b01), ((2, 3, 2), 0b101), ((3, 2, 2), 0b011), ((2, 2, 2, 2), 0b0110),
])
def test_product_constructor_is_the_validated_product_without_a_psd_check(
    monkeypatch, local_dims, s
):
    dims = SubsystemDims(local_dims)
    sc = dims.full_mask ^ s
    rho_s = ginibre_mixed(SubsystemDims(dims.dims_of(s)), 3, member=0, rank=1)
    rho_c = ginibre_mixed(SubsystemDims(dims.dims_of(sc)), 3, member=1)
    validated = DensityMatrix(block_product({s: rho_s.matrix, sc: rho_c.matrix}, dims), dims)
    checks = []
    real = states.psd_violation
    monkeypatch.setattr(states, "psd_violation", lambda *a: checks.append(a) or real(*a))
    for prod in (DensityMatrix.from_product({s: rho_s, sc: rho_c}, dims),
                 DensityMatrix.from_product({sc: rho_c, s: rho_s}, dims)):
        assert np.array_equal(prod.matrix, validated.matrix)
        assert not prod.matrix.flags.writeable
    assert checks == []


def test_product_constructor_checks_its_blocks():
    dims = SubsystemDims((2, 3))
    qubit, qutrit = ginibre_mixed(SubsystemDims((2,)), 1), ginibre_mixed(SubsystemDims((3,)), 2)
    with pytest.raises(ValueError, match="cover all parties"):
        DensityMatrix.from_product({0b01: qubit}, dims)
    with pytest.raises(ValueError, match=r"block 01 has dims \(2,\), expected \(3,\)"):
        DensityMatrix.from_product({0b01: qubit, 0b10: qubit}, dims)
    with pytest.raises(ValueError, match="disjoint"):
        DensityMatrix.from_product({0b01: qubit, 0b10: qutrit, 0b11: ginibre_mixed(dims, 3)}, dims)


def gram_out_of_place(g):
    """The Gram state's matrix as a chain of out-of-place operations; kept
    as the oracle of the in-place :func:`gram_density`."""
    mat = g @ g.conj().T
    mat = (mat + mat.conj().T) / 2.0
    return mat / np.trace(mat).real


@pytest.mark.parametrize("local_dims, rank", [
    ((2,), 1), ((2,), 2), ((3,), 2), ((2, 2), 1), ((2, 2), 4), ((2, 3), 5), ((2, 2, 2), 3),
    ((3, 3), 9), ((2, 2, 2, 2), 16),
])
def test_gram_states_are_the_out_of_place_expression_bit_for_bit(local_dims, rank):
    """A state from a Gram matrix, by :func:`gram_density` and by
    :func:`ginibre_mixed` (which draws its G from member 0's stream)."""
    dims = SubsystemDims(local_dims)
    rng = np.random.default_rng(rank * 100 + dims.total)
    g = rng.normal(size=(dims.total, rank)) + 1j * rng.normal(size=(dims.total, rank))
    g[0, 0] = -0.0  # a signed zero in the product
    assert gram_density(g).tobytes() == gram_out_of_place(g).tobytes()
    seed = rank * 100 + dims.total
    rho = ginibre_mixed(dims, seed, rank=rank)
    g = _ginibre_factor(dims, seed, 0, rank)
    assert rho.matrix.tobytes() == gram_out_of_place(g).tobytes()
    assert not rho.matrix.flags.writeable


@pytest.mark.parametrize("d, r, hold", [
    (512, 512, None), (512, 4, None), (301, 301, None), (301, 301, 16 * 602 * 7),
    (129, 4, 16 * 133 * 64), (121, 400, None),
])
def test_a_gram_state_by_column_blocks_is_the_one_shot_product_bit_for_bit(monkeypatch, d, r,
                                                                          hold):
    """One D x r factor's product is formed a block of columns at a time,
    each starting at a multiple of 8 columns: at D = 512 (blocks of 64 or
    120), at D = 301 (104, 104 and 93, or 8 at a time, the last 5 wide),
    and with a last column merged into the block before it (D = 129 and
    121), all bit for bit the one-shot product, as a stack of the same
    factor, which runs the same blocks, is.  Beyond G it holds the result
    and one block, not G's whole conjugate."""
    if hold is not None:
        monkeypatch.setattr(states, "HOLD_BYTES", hold)
    rng = np.random.default_rng(d + r)
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    one_shot = gram_out_of_place(g).tobytes()
    assert gram_density(g[np.newaxis])[0].tobytes() == one_shot
    tracemalloc.start()
    try:
        got = gram_density(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == one_shot
    assert peak <= got.nbytes + tensor.HOLD_BYTES + (1 << 12)


def test_an_owned_array_is_kept_and_any_other_is_copied():
    dims = SubsystemDims((2, 3))
    values = np.array(ginibre_mixed(dims, 6).matrix)
    copied = DensityMatrix(values, dims)
    assert not np.shares_memory(copied.matrix, values) and values.flags.writeable
    kept = DensityMatrix(values, dims, _owned=True)
    assert kept.matrix is values and not values.flags.writeable
    vec = np.array(haar_pure(dims, 6).vector)
    assert not np.shares_memory(PureState(vec, dims).vector, vec)
    assert np.shares_memory(PureState(vec, dims, _owned=True).vector, vec)


def unit_factor(d, r, seed=0):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    return g / np.linalg.norm(g)


def test_a_factor_state_is_checked_by_shape_finiteness_and_norm_only(monkeypatch):
    solves = []
    real = states.psd_violation
    monkeypatch.setattr(states, "psd_violation", lambda *a: solves.append(a) or real(*a))
    dims = SubsystemDims((2, 3))
    g = unit_factor(6, 2)
    state = FactorState(g, dims)
    assert state.rank == 2 and not state.factor.flags.writeable
    assert not np.shares_memory(state.factor, g)
    assert solves == []
    for bad in (g[:, 0], g[:5], np.zeros((6, 0)), unit_factor(6, 7)):
        with pytest.raises(ValueError, match="factor shape"):
            FactorState(bad, dims)
    nan = g.copy()
    nan[3, 1] = np.nan
    with pytest.raises(ValueError, match="factor has non-finite entries"):
        FactorState(nan, dims)
    with pytest.raises(ValueError, match="factor norm"):
        FactorState(g * (1.0 + 2e-12), dims)
    FactorState(g * (1.0 + 1e-13), dims)


def test_a_pure_state_is_the_rank_one_factor_state():
    psi = haar_pure(SubsystemDims((2, 3, 2)), 4)
    assert isinstance(psi, FactorState) and psi.rank == 1
    assert psi.factor.shape == (12, 1) and np.shares_memory(psi.factor, psi.vector)
    as_factor = FactorState(psi.vector[:, None], psi.dims)
    assert as_factor.purities.tobytes() == psi.purities.tobytes()
    assert as_factor.density().matrix.tobytes() == psi.density().matrix.tobytes()


def test_a_factor_density_is_exactly_hermitian_and_is_its_own_operand():
    """np.outer(v, v.conj()) has a Hermiticity defect of 2.8e-17 on this
    state, which made marginal and detect build a second D x D array; the
    Gram density is exactly Hermitian, so the operand is the matrix."""
    psi = haar_pure(SubsystemDims((2, 3, 2)), 4)
    assert tensor.herm_defect(np.outer(psi.vector, psi.vector.conj())) > 0.0
    for state in (psi, FactorState(unit_factor(12, 3), psi.dims)):
        rho = state.density()
        assert tensor.herm_defect(rho.matrix) == 0.0
        assert rho.operand is rho.matrix
        assert np.max(np.abs(rho.purities - state.purities)) <= 1e-13


@pytest.mark.parametrize("local_dims, rank", [((2, 3), 1), ((2, 3), 4), ((2, 2, 2), 8)])
def test_the_ginibre_factor_state_is_the_ginibre_state_to_rounding(local_dims, rank):
    dims = SubsystemDims(local_dims)
    state = ginibre_factor(dims, 7, rank, member=2)
    assert state.rank == rank
    assert abs(np.linalg.norm(state.factor) - 1.0) <= 1e-15
    want = ginibre_mixed(dims, 7, member=2, rank=rank).matrix
    assert np.max(np.abs(state.density().matrix - want)) <= 1e-15
