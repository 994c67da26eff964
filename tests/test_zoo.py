import math

import numpy as np
import pytest

from qinvert import states
from qinvert.dims import SubsystemDims
from qinvert.invariants import invariant_table
from qinvert.states import DensityMatrix, PureState
from qinvert.zoo import (
    StateRecipe,
    basis_product_state,
    bell_pair_with_mixed_qubit,
    bell_state,
    build,
    ghz_state,
    ginibre_mixed,
    haar_pure,
    haar_unitary,
    measurement_kraus_pair,
    monotone_counterexample,
    pinned_ghz_invariant,
    pinned_ghz_state,
    pinned_mix_invariant,
    pinned_mix_state,
    stream_rng,
    w_state,
)


def test_bell_amplitudes():
    psi = bell_state()
    expected = np.zeros(4)
    expected[0] = expected[3] = 1 / math.sqrt(2)
    assert np.allclose(psi.vector, expected)


def test_ghz_qutrit_amplitudes():
    psi = ghz_state(2, d=3)
    expected = np.zeros(9)
    expected[0] = expected[4] = expected[8] = 1 / math.sqrt(3)
    assert np.allclose(psi.vector, expected)


def test_w_state_amplitudes():
    psi = w_state(3)
    hot = {0b100, 0b010, 0b001}
    for idx in range(8):
        if idx in hot:
            assert abs(psi.vector[idx] - 1 / math.sqrt(3)) < 1e-12
        else:
            assert abs(psi.vector[idx]) < 1e-15


def test_basis_product_state_indexing():
    dims = SubsystemDims((2, 3, 2))
    psi = basis_product_state(dims, excited=0b101)  # |1, 0, 1>
    index = 1 * 6 + 0 * 2 + 1
    assert abs(psi.vector[index] - 1.0) < 1e-15
    assert abs(np.linalg.norm(psi.vector) - 1.0) < 1e-15


def test_pinned_mix_all_pinned_is_basis_projector():
    rho = pinned_mix_state(2, 0b11)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(rho.matrix, expected)


def test_pinned_mix_structure():
    rho = pinned_mix_state(2, 0b01)
    expected = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2)
    assert np.allclose(rho.matrix, expected)


def test_pinned_ghz_fully_pinned_tail():
    # pins = {2, 3}: party 1 carries the superposition alone
    psi = pinned_ghz_state(3, 0b110)
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    zero = np.array([1.0, 0.0])
    expected = np.kron(np.kron(plus, zero), zero)
    assert np.allclose(psi.vector, expected)


def test_pinned_ghz_no_pins_is_ghz():
    psi = pinned_ghz_state(3, 0)
    assert np.allclose(psi.vector, ghz_state(3).vector)


def test_pinned_ghz_rejects_party_one():
    with pytest.raises(ValueError):
        pinned_ghz_state(3, 0b001)


def test_bell_mixed_placements():
    rho12 = bell_pair_with_mixed_qubit((1, 2))
    bell = bell_state().density()
    red12 = rho12.reduce(0b011)
    assert np.allclose(red12.matrix, bell.matrix, atol=1e-13)
    red3 = rho12.reduce(0b100)
    assert np.allclose(red3.matrix, np.eye(2) / 2, atol=1e-13)

    rho13 = bell_pair_with_mixed_qubit((1, 3))
    red13 = rho13.reduce(0b101)
    assert np.allclose(red13.matrix, bell.matrix, atol=1e-13)
    red2 = rho13.reduce(0b010)
    assert np.allclose(red2.matrix, np.eye(2) / 2, atol=1e-13)


def test_seeded_builders_are_reproducible():
    dims = SubsystemDims((2, 3))
    a = haar_pure(dims, 99, member=5)
    b = haar_pure(dims, 99, member=5)
    assert np.array_equal(a.vector, b.vector)
    c = haar_pure(dims, 99, member=6)
    assert not np.allclose(a.vector, c.vector)
    ra = ginibre_mixed(dims, 99, member=5)
    rb = ginibre_mixed(dims, 99, member=5)
    assert np.array_equal(ra.matrix, rb.matrix)


def test_ginibre_rank_control():
    dims = SubsystemDims((2, 2))
    rho = ginibre_mixed(dims, 12, rank=1)
    eigs = np.linalg.eigvalsh(rho.matrix)
    assert abs(eigs[-1] - 1.0) < 1e-12  # rank one: a pure state
    with pytest.raises(ValueError):
        ginibre_mixed(dims, 12, rank=5)


@pytest.mark.parametrize("local_dims, rank", [
    ((2,), 1), ((2, 3), None), ((2, 3), 1), ((3, 2, 4), 5), ((4, 2), 8), ((2, 2, 2), 2),
])
def test_ginibre_is_the_validated_gram_state_without_an_eigen_solve(monkeypatch, local_dims, rank):
    """The Gram constructor skips only the PSD check: the matrix is
    the one the fully validated construction stores, bit for bit."""
    dims = SubsystemDims(local_dims)
    rng = stream_rng(31, 2)
    d = dims.total
    g = rng.normal(size=(d, rank or d)) + 1j * rng.normal(size=(d, rank or d))
    mat = g @ g.conj().T
    mat = (mat + mat.conj().T) / 2.0
    validated = DensityMatrix(mat / np.trace(mat).real, dims)
    solves = []
    real = states.psd_violation
    monkeypatch.setattr(states, "psd_violation", lambda *a: solves.append(a) or real(*a))
    rho = ginibre_mixed(dims, 31, member=2, rank=rank)
    assert solves == []
    assert np.array_equal(rho.matrix, validated.matrix)
    assert not rho.matrix.flags.writeable


def test_haar_unitary_is_unitary():
    rng = stream_rng(13)
    for d in (2, 3):
        u = haar_unitary(d, rng)
        assert np.max(np.abs(u @ u.conj().T - np.eye(d))) < 1e-12


def test_closed_form_pinned_mix_examples():
    assert abs(pinned_mix_invariant(2, 0b01, 0b10) - 1.0) < 1e-15
    assert abs(pinned_mix_invariant(3, 0, 0) - 27.0 / 8.0) < 1e-15
    assert pinned_mix_invariant(3, 0b011, 0b001) == 0.0


def test_closed_form_pinned_ghz_examples():
    # fully pinned tail, empty mask: 2^(n-1) + 2^|pins| = 4 + 4
    assert abs(pinned_ghz_invariant(3, 0b110, 0) - 8.0) < 1e-15
    # even nonempty mask disjoint from the pins
    assert abs(pinned_ghz_invariant(3, 0b100, 0b011) - 2.0) < 1e-15
    assert pinned_ghz_invariant(3, 0b010, 0b010) == 0.0
    # odd masks vanish identically on the pure family
    assert pinned_ghz_invariant(3, 0, 0b010) == 0.0


def test_closed_forms_match_numerics():
    for n in (2, 3):
        for pins in range(1 << n):
            table = invariant_table(pinned_mix_state(n, pins))
            for t in range(1 << n):
                assert abs(table.c_squared(t) - pinned_mix_invariant(n, pins, t)) < 1e-10
        for idx in range(1 << (n - 1)):
            pins = idx << 1
            table = invariant_table(pinned_ghz_state(n, pins).density())
            for t in range(1 << n):
                assert abs(table.c_squared(t) - pinned_ghz_invariant(n, pins, t)) < 1e-10


def test_recipe_build_dispatch():
    dims3 = SubsystemDims((2, 2, 2))
    ghz = build(StateRecipe(kind="ghz", dims=dims3))
    assert isinstance(ghz, PureState)
    mixed = build(StateRecipe(kind="ginibre_mixed", dims=dims3, seed=4))
    assert isinstance(mixed, DensityMatrix)
    pinned = build(StateRecipe(kind="pinned_mix", dims=dims3, s=0b010))
    assert isinstance(pinned, DensityMatrix)


def test_recipe_validation():
    dims = SubsystemDims((2, 2))
    with pytest.raises(ValueError):
        StateRecipe(kind="nope", dims=dims)
    with pytest.raises(ValueError):
        StateRecipe(kind="haar_pure", dims=dims)  # missing seed
    with pytest.raises(ValueError):
        StateRecipe(kind="pinned_mix", dims=dims)  # missing mask
    with pytest.raises(ValueError):
        build(StateRecipe(kind="bell_phi_plus", dims=SubsystemDims((2, 3))))
    with pytest.raises(ValueError):
        build(StateRecipe(kind="ghz", dims=SubsystemDims((2, 3))))


@pytest.mark.parametrize("kind, options, named", [
    ("ghz", {"rank": 3}, "rank"),
    ("ghz", {"seed": 1}, "seed"),
    ("bell_phi_plus", {"s": 0b01}, "s"),
    ("product_basis", {"seed": 1}, "seed"),
    ("pinned_mix", {"s": 0b01, "rank": 2}, "rank"),
    ("haar_pure", {"seed": 1, "s": 0b01}, "s"),
    ("haar_pure", {"seed": 1, "rank": 2}, "rank"),
    ("ginibre_mixed", {"seed": 1, "s": 0b01}, "s"),
])
def test_recipe_rejects_an_option_its_kind_does_not_read(kind, options, named):
    with pytest.raises(ValueError, match=f"does not read the option '{named}'"):
        StateRecipe(kind=kind, dims=SubsystemDims((2, 2)), **options)


@pytest.mark.parametrize("kind, options", [
    ("ghz", {}),
    ("product_basis", {}),
    ("product_basis", {"s": 0b10}),
    ("pinned_ghz", {"s": 0b10}),
    ("haar_pure", {"seed": 1}),
    ("ginibre_mixed", {"seed": 1}),
    ("ginibre_mixed", {"seed": 1, "rank": 2}),
])
def test_recipe_accepts_the_options_its_kind_reads(kind, options):
    build(StateRecipe(kind=kind, dims=SubsystemDims((2, 2)), **options))


def test_povm_completeness():
    for d in (2, 3, 4):
        a1, a2 = measurement_kraus_pair(d)
        total = a1.conj().T @ a1 + a2.conj().T @ a2
        assert np.max(np.abs(total - np.eye(d))) < 1e-12


def test_monotone_counterexample_values():
    before, after = monotone_counterexample()
    assert abs(before - 1.0) < 1e-9
    assert abs(after - math.sqrt(2.0)) < 1e-9
    assert after > before


def test_monotone_counterexample_higher_dimensional_first_party():
    before, after = monotone_counterexample(d_first=3)
    assert after > before
