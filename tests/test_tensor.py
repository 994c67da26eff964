import numpy as np
import pytest

from qinvert import states
from qinvert.dims import SubsystemDims
from qinvert.states import DensityMatrix, linear_entropies, purity
from qinvert.tensor import (
    block_product,
    embed,
    min_eigenvalue,
    partial_trace,
    subset_purities,
    trace_product,
)
from qinvert.zoo import bell_state, ginibre_mixed, stream_rng


def random_hermitian(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2.0


def test_block_product_basis_projectors():
    """Party 1 is the most significant factor: |0><0| on party 1 and
    |1><1| on party 2 is |01><01|, at global index 0*2 + 1."""
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    out = block_product({0b01: p0, 0b10: p1}, SubsystemDims((2, 2)))
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = 1.0
    assert np.array_equal(out, expected)


def test_partial_trace_full_mask_is_identity_operation():
    dims = SubsystemDims((2, 2))
    rho = ginibre_mixed(dims, 3).matrix
    assert np.array_equal(partial_trace(rho, dims, 0b11), rho)


def test_partial_trace_bell_reduction():
    rho = bell_state().density()
    red = partial_trace(rho.matrix, rho.dims, 0b01)
    assert np.allclose(red, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_product_factorization():
    dims = SubsystemDims((2, 3))
    rng = stream_rng(11)
    a = ginibre_mixed(SubsystemDims((2,)), 11, member=0).matrix
    b = ginibre_mixed(SubsystemDims((3,)), 11, member=1).matrix
    rho = np.kron(a, b)
    assert np.allclose(partial_trace(rho, dims, 0b01), a, atol=1e-13)
    assert np.allclose(partial_trace(rho, dims, 0b10), b, atol=1e-13)
    del rng


def test_partial_trace_preserves_trace():
    dims = SubsystemDims((2, 2, 3))
    rho = ginibre_mixed(dims, 5).matrix
    for keep in range(1, 8):
        assert abs(np.trace(partial_trace(rho, dims, keep)) - 1.0) < 1e-12


def test_partial_trace_empty_keep_gives_full_trace():
    dims = SubsystemDims((2, 2))
    rho = ginibre_mixed(dims, 9).matrix
    out = partial_trace(rho, dims, 0)
    assert out.shape == (1, 1)
    assert abs(out[0, 0] - 1.0) < 1e-12


def test_partial_trace_composes_exactly():
    # tracing out party 1, then party 2 of the remainder, must equal the
    # single-shot trace bit for bit (both contract in ascending order)
    dims = SubsystemDims((2, 3, 2))
    rho = ginibre_mixed(dims, 21).matrix
    step1 = partial_trace(rho, dims, 0b110)
    step2 = partial_trace(step1, SubsystemDims((3, 2)), 0b10)
    direct = partial_trace(rho, dims, 0b100)
    assert np.array_equal(step2, direct)


def test_partial_trace_invalid_mask():
    dims = SubsystemDims((2, 2))
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), dims, 0b101)


def test_trace_insertion_identity():
    # Tr[M1 (Tr_{S^c} M2 (x) 1)] == Tr[(Tr_{S^c} M1)(Tr_{S^c} M2)]
    dims = SubsystemDims((2, 2, 2))
    rng = stream_rng(13)
    m1 = random_hermitian(8, rng)
    m2 = random_hermitian(8, rng)
    for s in range(8):
        lhs = trace_product(m1, embed(partial_trace(m2, dims, s), s, dims)).real
        rhs = trace_product(
            partial_trace(m1, dims, s), partial_trace(m2, dims, s)
        ).real
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_embed_single_party_positions():
    dims = SubsystemDims((2, 2))
    rho = ginibre_mixed(SubsystemDims((2,)), 1).matrix
    assert np.array_equal(embed(rho, 0b01, dims), np.kron(rho, np.eye(2)))
    assert np.array_equal(embed(rho, 0b10, dims), np.kron(np.eye(2), rho))


def test_embed_permutation_brute_force():
    # embed on parties {1,3} of three qubits, checked entry by entry
    dims = SubsystemDims((2, 2, 2))
    rng = stream_rng(2)
    x = random_hermitian(4, rng)
    out = embed(x, 0b101, dims)
    expected = np.zeros((8, 8), dtype=complex)
    for i1 in range(2):
        for i2 in range(2):
            for i3 in range(2):
                for j1 in range(2):
                    for j2 in range(2):
                        for j3 in range(2):
                            if i2 != j2:
                                continue
                            row = 4 * i1 + 2 * i2 + i3
                            col = 4 * j1 + 2 * j2 + j3
                            expected[row, col] = x[2 * i1 + i3, 2 * j1 + j3]
    assert np.allclose(out, expected, atol=1e-14)


def test_embed_empty_mask_scales_identity():
    dims = SubsystemDims((2, 2))
    out = embed(np.array([[2.5 + 0j]]), 0, dims)
    assert np.array_equal(out, 2.5 * np.eye(4))


def test_embed_shape_mismatch():
    dims = SubsystemDims((2, 3))
    with pytest.raises(ValueError):
        embed(np.eye(3), 0b01, dims)


def test_embed_then_trace_back_recovers_scaled_operator():
    dims = SubsystemDims((2, 3, 2))
    rng = stream_rng(4)
    for s in (0b001, 0b010, 0b101, 0b110):
        d_s = dims.block_dim(s)
        x = random_hermitian(d_s, rng)
        d_comp = dims.block_dim(dims.complement(s))
        back = partial_trace(embed(x, s, dims), dims, s)
        assert np.max(np.abs(back - d_comp * x)) <= 1e-12 * max(1.0, np.max(np.abs(x)))


def test_block_product_disjointness():
    dims = SubsystemDims((2, 2))
    with pytest.raises(ValueError):
        block_product({0b01: np.eye(2), 0b11: np.eye(4)}, dims)


def test_purity_examples_and_range():
    bell = bell_state().density()
    assert abs(purity(bell) - 1.0) < 1e-12
    dims = SubsystemDims((2, 2))
    mixed = DensityMatrix(np.eye(4) / 4, dims)
    assert abs(purity(mixed) - 0.25) < 1e-12
    for k in range(10):
        rho = ginibre_mixed(dims, 31, member=k)
        p = purity(rho)
        assert 1.0 / 4 - 1e-12 <= p <= 1.0 + 1e-12


def test_linear_entropies_bell():
    taus = linear_entropies(bell_state().density())
    assert abs(taus[0b01] - 1.0) < 1e-12
    assert abs(taus[0b10] - 1.0) < 1e-12
    assert abs(taus[0b11] - 0.0) < 1e-12


def test_linear_entropy_bounds():
    dims = SubsystemDims((2, 3))
    for k in range(10):
        rho = ginibre_mixed(dims, 17, member=k)
        taus = linear_entropies(rho)
        for s, tau in taus.items():
            upper = 2.0 * (1.0 - 1.0 / dims.block_dim(s))
            assert -1e-12 <= tau <= upper + 1e-12


def test_subset_purities_empty_entry():
    dims = SubsystemDims((2, 2))
    rho = ginibre_mixed(dims, 8).matrix
    pur = subset_purities(rho, dims)
    assert abs(pur[0] - 1.0) < 1e-12


def test_min_eigenvalue_examples():
    assert abs(min_eigenvalue(np.eye(4)) - 1.0) < 1e-14
    assert abs(min_eigenvalue(np.diag([0.3, 0.7])) - 0.3) < 1e-14
    bell = bell_state().density()
    op = np.eye(4) / 2 - bell.matrix
    # spectrum is {1/2, 1/2, 1/2, -1/2}
    assert abs(min_eigenvalue(op) + 0.5) < 1e-12


def test_min_eigenvalue_rejects_non_hermitian():
    with pytest.raises(ValueError):
        min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermiticity_errors_name_the_worst_member_of_a_stack():
    """One Hermiticity check serves operators and density matrices: of two
    non-Hermitian members of a stack, both name the worse one."""
    mats = np.stack([np.eye(2) / 2] * 4).astype(np.complex128)
    mats[1, 0, 1] = 1e-6
    mats[2, 1, 0] = 1e-3
    with pytest.raises(ValueError, match=r"operator 2 of the stack is not Hermitian: .* 1\.000e-03"):
        min_eigenvalue(mats)
    with pytest.raises(ValueError,
                       match=r"density matrix 2 of the stack is not Hermitian: .* 1\.000e-03"):
        states._require_density(mats)
