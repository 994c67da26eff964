import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qinvert import states, zoo
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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(local=st.lists(st.integers(2, 4), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1), member=st.integers(0, 9), rank=st.integers(0, 64))
def test_the_ginibre_factor_is_the_sum_of_its_two_draws_bit_for_bit(local, seed, member, rank):
    """The real parts then the imaginary parts, filled into one array, are
    rng.normal(...) + 1j * rng.normal(...) of the same stream, bit for bit."""
    dims = SubsystemDims(tuple(local))
    d = dims.total
    rank = min(rank, d) or None
    g = zoo._ginibre_factor(dims, seed, member, rank)
    rng = stream_rng(seed, member)
    shape = (d, rank or d)
    want = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    assert g.dtype == want.dtype and g.shape == want.shape
    assert g.tobytes() == want.tobytes()


def test_an_eight_qubit_ginibre_state_holds_at_most_three_arrays():
    """Drawn, formed and validated at D = 256 within three D x D complex
    arrays of traced memory: the factor, its conjugate and their product
    at the Gram product, which no step exceeds (the factor is dropped
    before validation, and the symmetrization and checks run in blocks).
    The slack is for the arrays' and generator's small objects."""
    dims = SubsystemDims((2,) * 8)
    ginibre_mixed(SubsystemDims((2, 2)), 0)  # the generator's one-time setup
    tracemalloc.start()
    try:
        rho = ginibre_mixed(dims, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * rho.matrix.nbytes + (1 << 14)


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
        # the family tables verify's closed_form suite reads
        mix, (ghz, _) = zoo.pinned_mix_table(n), zoo.pinned_ghz_tables(n)
        for t in range(1 << n):
            for pins in range(1 << n):
                assert abs(mix[pins, t] - pinned_mix_invariant(n, pins, t)) < 1e-10
            for idx in range(1 << (n - 1)):
                assert abs(ghz[idx, t] - pinned_ghz_invariant(n, idx << 1, t)) < 1e-10


@pytest.mark.parametrize("entries, message", [
    ({(2, 0, 0): np.nan}, "density matrix stack has non-finite"),
    ({(3, 0, 1): 0.5}, "density matrix 3 of the stack is not Hermitian"),
    ({(2, 1, 1): 0.75}, r"density matrix stack trace \(1.75\+0j\) is not 1"),
    # member 1, diag(1/2, 1/2, 0, 0), becomes diag(1, 1/2, 0, -1/2)
    ({(1, 0, 0): 1.0, (1, 3, 3): -0.5}, "negative eigenvalue -5.000e-01"),
])
def test_pin_or_mix_table_checks_every_member_as_its_state_does(monkeypatch, entries, message):
    real = zoo._pin_or_mix

    def corrupted(dims, pins):
        mats = real(dims, pins)
        for index, value in entries.items():
            mats[index] = value
        return mats

    monkeypatch.setattr(zoo, "_pin_or_mix", corrupted)
    with pytest.raises(ValueError, match=message):
        zoo.pinned_mix_table(2)


def test_pinned_ghz_tables_check_each_member_and_the_reduced_stack(monkeypatch):
    built = []
    real_state, real_trace = zoo.pinned_ghz_state, zoo.partial_trace
    monkeypatch.setattr(zoo, "pinned_ghz_state", lambda n, pins: built.append(pins)
                        or real_state(n, pins))
    zoo.pinned_ghz_tables(3)
    assert built == [0, 2, 4, 6]

    def corrupted(mat, dims, keep):
        reduced = real_trace(mat, dims, keep)
        reduced[1, 0, 0] += 0.5
        return reduced

    monkeypatch.setattr(zoo, "partial_trace", corrupted)
    with pytest.raises(ValueError, match=r"density matrix stack trace \(1.5\+0j\) is not 1"):
        zoo.pinned_ghz_tables(3)


STACKS = settings(max_examples=30, deadline=None, derandomize=True)
# local dimensions 2, 3 and 4, up to D = 24
local_dims = st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=3).filter(
    lambda dims: math.prod(dims) <= 24)
# unordered, with repeats
member_lists = st.lists(st.integers(0, 9), min_size=1, max_size=5)


@STACKS
@given(local=local_dims, seed=st.integers(0, 2**32 - 1), members=member_lists,
       rank=st.none() | st.integers(1, 24))
@example(local=[3], seed=1, members=[4, 0, 4], rank=2)
# D = 256 and 301: two or three Gram column blocks, full rank and rank 3
@example(local=[2] * 8, seed=1, members=[3, 0, 3], rank=None)
@example(local=[2] * 8, seed=1, members=[3, 0, 3], rank=3)
@example(local=[7, 43], seed=1, members=[3, 0, 3], rank=None)
@example(local=[7, 43], seed=1, members=[3, 0, 3], rank=3)
def test_ginibre_stack_members_are_their_single_states_bit_for_bit(local, seed, members, rank):
    dims = SubsystemDims(tuple(local))
    rank = None if rank is None else min(rank, dims.total)
    mats = zoo.ginibre_stack(dims, seed, members, rank=rank)
    assert mats.shape == (len(members), dims.total, dims.total)
    for mat, k in zip(mats, members):
        assert mat.tobytes() == ginibre_mixed(dims, seed, member=k, rank=rank).matrix.tobytes()


def _factor_stacks(dims, seed, members, s):
    """Ginibre members 2k on ``s`` and 2k + 1 on the other parties."""
    return {part: zoo.ginibre_stack(SubsystemDims(dims.dims_of(part)), seed,
                                    [2 * k + j for k in members])
            for j, part in enumerate((s, dims.full_mask ^ s))}


@STACKS
@given(local=local_dims.filter(lambda dims: len(dims) > 1), seed=st.integers(0, 2**32 - 1),
       members=member_lists, data=st.data())
def test_product_stack_members_are_from_product_bit_for_bit(local, seed, members, data):
    dims = SubsystemDims(tuple(local))
    s = data.draw(st.integers(1, dims.full_mask - 1))
    products = zoo.product_stack(_factor_stacks(dims, seed, members, s), dims)
    for mat, k in zip(products, members):
        parts = {part: ginibre_mixed(SubsystemDims(dims.dims_of(part)), seed, member=2 * k + j)
                 for j, part in enumerate((s, dims.full_mask ^ s))}
        assert mat.tobytes() == DensityMatrix.from_product(parts, dims).matrix.tobytes()


@STACKS
@given(local=local_dims.filter(lambda dims: len(dims) > 1), seed=st.integers(0, 2**32 - 1),
       size=st.integers(1, 5), fault=st.sampled_from(["hermitian", "finite"]), data=st.data())
def test_stacks_with_one_bad_member_are_rejected_by_its_name(local, seed, size, fault, data):
    dims = SubsystemDims(tuple(local))
    bad = data.draw(st.integers(0, size - 1))
    message = {"hermitian": f"density matrix {bad} of the stack is not Hermitian",
               "finite": rf"density matrix stack has non-finite .* at index \({bad}, "}[fault]

    def corrupt(mats):
        if fault == "hermitian":
            mats[bad, 0, 1] += 0.5
        else:
            mats[bad, 1, 0] = np.nan
        return mats

    with pytest.MonkeyPatch.context() as patch:
        real = zoo.gram_density
        patch.setattr(zoo, "gram_density", lambda g: corrupt(real(g)))
        with pytest.raises(ValueError, match=message):
            zoo.ginibre_stack(dims, seed, range(size))
    s = data.draw(st.integers(1, dims.full_mask - 1))
    parts = _factor_stacks(dims, seed, range(size), s)
    corrupt(parts[s])
    with pytest.raises(ValueError, match=message):
        zoo.product_stack(parts, dims)


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
