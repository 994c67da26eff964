import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qinvert.dims import SubsystemDims
from qinvert.invariants import (
    bipartite_concurrence_squared,
    c_t,
    c_t_squared,
    invariant_table,
)
from qinvert.states import DensityMatrix, PureState
from qinvert.tensor import signed_subset_sums
from qinvert.zoo import (
    bell_state,
    ghz_state,
    ginibre_mixed,
    haar_pure,
    random_local_unitary,
    stream_rng,
    w_state,
)


def test_bell_full_mask_value():
    rho = bell_state().density()
    assert abs(c_t_squared(rho, 0b11) - 1.0) < 1e-12
    assert abs(c_t(rho, 0b11) - 1.0) < 1e-12


def test_odd_masks_vanish_on_pure_states():
    dims = SubsystemDims((2, 3, 2))
    for k in range(10):
        rho = haar_pure(dims, 200, member=k).density()
        for t in dims.subset_masks():
            if bin(t).count("1") % 2 == 1:
                assert abs(c_t_squared(rho, t)) < 1e-10


def test_single_qubit_table():
    dims = SubsystemDims((2,))
    rho = DensityMatrix(np.diag([1.0, 0.0]), dims)
    table = invariant_table(rho)
    assert abs(table.c_squared(0) - 2.0) < 1e-12
    assert abs(table.c_squared(1) - 0.0) < 1e-12


def test_two_qubit_maximally_mixed_table():
    dims = SubsystemDims((2, 2))
    table = invariant_table(DensityMatrix(np.eye(4) / 4, dims))
    assert abs(table.c_squared(0b11) - 0.25) < 1e-12


def test_product_pure_state_full_mask_vanishes():
    dims = SubsystemDims((2, 2))
    psi = PureState(np.kron([1, 0], [1 / math.sqrt(2), 1 / math.sqrt(2)]), dims)
    assert abs(c_t_squared(psi.density(), 0b11)) < 1e-12


def test_both_routes_agree():
    # definition route Tr[rho I_T(rho)] against the purity-expansion table
    dims = SubsystemDims((2, 3))
    for k in range(10):
        rho = ginibre_mixed(dims, 201, member=k)
        table = invariant_table(rho)
        for t in dims.subset_masks():
            assert abs(c_t_squared(rho, t) - table.c_squared(t)) < 1e-10


def test_local_unitary_invariance():
    dims = SubsystemDims((2, 2, 2))
    rng = stream_rng(202)
    for k in range(5):
        rho = ginibre_mixed(dims, 203, member=k)
        u = random_local_unitary(dims, rng)
        rotated = DensityMatrix(u @ rho.matrix @ u.conj().T, dims)
        for t in dims.subset_masks():
            assert abs(c_t_squared(rho, t) - c_t_squared(rotated, t)) < 1e-9


@st.composite
def mixed_dims(draw, max_total=48):
    dims = [draw(st.integers(2, 4))]
    while draw(st.booleans()):
        d = draw(st.integers(2, 4))
        if math.prod(dims) * d > max_total:
            break
        dims.append(d)
    return SubsystemDims(tuple(dims))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(dims=mixed_dims(), seed=st.integers(0, 2**32 - 1))
def test_invariant_table_is_local_unitary_invariant(dims, seed):
    """Every C_T^2 is a degree-two LU invariant: rotating the state by
    U_1 (x) ... (x) U_N leaves the whole table unchanged."""
    rho = ginibre_mixed(dims, seed)
    u = random_local_unitary(dims, stream_rng(seed, 1))
    rotated = DensityMatrix(u @ rho.matrix @ u.conj().T, dims)
    before, after = invariant_table(rho), invariant_table(rotated)
    for t in dims.subset_masks():
        assert abs(before.c_squared(t) - after.c_squared(t)) < 1e-10


def test_factorization_on_product_states():
    dims = SubsystemDims((2, 2, 2))
    s, sc = 0b011, 0b100
    rho_s = ginibre_mixed(SubsystemDims((2, 2)), 204, member=0)
    rho_c = ginibre_mixed(SubsystemDims((2,)), 204, member=1)
    prod = DensityMatrix.from_product({s: rho_s, sc: rho_c}, dims)
    for t in dims.subset_masks():
        t_s = t & 0b011
        t_c = (t & 0b100) >> 2
        lhs = c_t(prod, t)
        rhs = c_t(rho_s, t_s) * c_t(rho_c, t_c)
        assert abs(lhs - rhs) < 1e-9


@pytest.mark.parametrize("pure", [False, True])
def test_invariant_table_is_a_read_only_float64_array_read_as_python_scalars(pure):
    """values is the signed subset sums of the purity profile, one float64
    per mask, read-only; the methods return Python floats and bools, which
    the report writer's json module can encode."""
    dims = SubsystemDims((2, 3, 2))
    state = haar_pure(dims, 9) if pure else ginibre_mixed(dims, 9)
    table = invariant_table(state)
    assert isinstance(table.values, np.ndarray)
    assert table.values.dtype == np.float64 and table.values.shape == (1 << dims.n,)
    assert not table.values.flags.writeable
    assert table.values.tobytes() == signed_subset_sums(state.purities).tobytes()
    for t in range(1 << dims.n):
        row = [table.c_squared(t), table.c_squared_clamped(t), table.c(t), table.was_clamped(t)]
        assert [type(x) for x in row] == [float, float, float, bool]
        json.dumps(row)


def test_clamping_of_solver_noise():
    from qinvert.invariants import InvariantTable

    table = InvariantTable(np.array([-5e-10, 0.5]))
    assert table.c_squared_clamped(0) == 0.0
    assert table.was_clamped(0)
    assert not table.was_clamped(1)
    assert table.c(0) == 0.0


def test_bipartite_concurrence_ghz():
    psi = ghz_state(3)
    for s in (0b001, 0b010, 0b100):
        assert abs(bipartite_concurrence_squared(psi, s) - 1.0) < 1e-12


def test_bipartite_concurrence_w_state():
    psi = w_state(3)
    # single-party reduction is diag(2/3, 1/3): tau = 2 (1 - 5/9) = 8/9
    assert abs(bipartite_concurrence_squared(psi, 0b001) - 8.0 / 9.0) < 1e-12


def test_bipartite_concurrence_product_state():
    dims = SubsystemDims((2, 2))
    psi = PureState(np.kron([1, 0], [0, 1]), dims)
    assert abs(bipartite_concurrence_squared(psi, 0b01)) < 1e-12


def test_bipartite_concurrence_complementarity():
    dims = SubsystemDims((2, 2, 3))
    for k in range(5):
        psi = haar_pure(dims, 205, member=k)
        for s in range(1, dims.full_mask):
            a = bipartite_concurrence_squared(psi, s)
            b = bipartite_concurrence_squared(psi, dims.full_mask ^ s)
            assert abs(a - b) < 1e-11


def test_bipartite_concurrence_rejects_trivial_splits():
    psi = ghz_state(3)
    with pytest.raises(ValueError):
        bipartite_concurrence_squared(psi, 0)
    with pytest.raises(ValueError):
        bipartite_concurrence_squared(psi, 0b111)
