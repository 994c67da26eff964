import tracemalloc

import numpy as np
import pytest

from qinvert.constraints import (
    PASS_TOL,
    ConstraintReport,
    MarginalWitness,
    _entry,
    correlation_constraint,
    correlation_report,
    entropy_inequalities,
    independence_rank,
    independence_rank_pure,
    marginal_report,
    marginal_witnesses,
    marginal_witnesses_from_marginals,
    monogamy_check,
    monogamy_report,
    shadow_report,
    shadow_value,
)
from qinvert import constraints, inversion
from qinvert.dims import SubsystemDims, mask_bitstring
from qinvert.invariants import c_t_squared, invariant_table
from qinvert.inversion import STACK_HOLD_BYTES, invert_product, invert_sum
from qinvert.states import DensityMatrix, PureState
from qinvert.tensor import embed, herm_defect, min_eigenvalue, partial_trace
from qinvert.zoo import (
    bell_pair_with_mixed_qubit,
    bell_state,
    ghz_state,
    ginibre_mixed,
    haar_pure,
    pinned_ghz_state,
    pinned_ghz_tables,
    pinned_mix_state,
    pinned_mix_table,
    random_psd,
    stream_rng,
)


# ---------------------------------------------------------------------------
# correlation constraints


def test_two_qubit_maximally_mixed_values():
    dims = SubsystemDims((2, 2))
    rho = DensityMatrix(np.eye(4) / 4, dims)
    assert abs(correlation_constraint(rho, 0b11) - 0.25) < 1e-12
    assert abs(correlation_constraint(rho, 0b01) - 0.75) < 1e-12
    assert abs(correlation_constraint(rho, 0b10) - 0.75) < 1e-12


def test_pure_product_state_gives_zero():
    dims = SubsystemDims((2, 2))
    psi = PureState(np.kron([1, 0], [1, 0]), dims)
    rho = psi.density()
    for t in range(1, 4):
        assert abs(correlation_constraint(rho, t)) < 1e-12


def test_empty_mask_rejected():
    rho = bell_state().density()
    with pytest.raises(ValueError):
        correlation_constraint(rho, 0)
    with pytest.raises(ValueError):
        monogamy_check(bell_state(), 0)


def test_correlation_agrees_with_invariant():
    dims = SubsystemDims((2, 3))
    for k in range(20):
        rho = ginibre_mixed(dims, 300, member=k)
        for t in range(1, 1 << dims.n):
            assert abs(correlation_constraint(rho, t) - c_t_squared(rho, t)) < 1e-10


def test_correlation_nonnegative_on_random_states():
    for local_dims in ((2, 2), (2, 2, 2)):
        dims = SubsystemDims(local_dims)
        for k in range(30):
            rho = ginibre_mixed(dims, 301, member=k)
            for t in range(1, 1 << dims.n):
                assert correlation_constraint(rho, t) >= -1e-9


def test_correlation_report_labels_ascending():
    rho = bell_state().density()
    report = correlation_report(rho)
    assert [e.label for e in report.entries] == ["10", "01", "11"]
    assert report.all_pass
    values = [e.value for e in report.entries]
    assert abs(values[0]) < 1e-12 and abs(values[1]) < 1e-12
    assert abs(values[2] - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# monogamy


def test_ghz_monogamy_values():
    psi = ghz_state(3)
    assert abs(monogamy_check(psi, 0b111)) < 1e-12
    assert abs(monogamy_check(psi, 0b011) - 2.0) < 1e-12


def test_product_pure_state_monogamy_zero():
    dims = SubsystemDims((2, 2, 2))
    psi = PureState(np.kron(np.kron([1, 0], [0, 1]), [1, 0]), dims)
    for t in range(1, 8):
        assert abs(monogamy_check(psi, t)) < 1e-12


def test_monogamy_nonnegative_and_odd_masks_vanish():
    dims = SubsystemDims((2, 2, 2))
    for k in range(30):
        psi = haar_pure(dims, 302, member=k)
        for t in range(1, 8):
            value = monogamy_check(psi, t)
            assert value >= -1e-9
            if bin(t).count("1") % 2 == 1:
                assert abs(value) < 1e-9


def test_monogamy_report_shape():
    report = monogamy_report(ghz_state(3))
    assert len(report.entries) == 7
    assert report.all_pass


# ---------------------------------------------------------------------------
# shadow inequalities


def test_shadow_two_term_example():
    dims = SubsystemDims((2,))
    p0 = np.diag([1.0, 0.0]).astype(complex)
    assert abs(shadow_value(p0, p0, dims, 0b1) - 0.0) < 1e-12
    half = np.eye(2, dtype=complex) / 2
    assert abs(shadow_value(half, half, dims, 0b1) - 0.5) < 1e-12


def test_shadow_cross_check_with_inversion():
    dims = SubsystemDims((2, 2))
    for k in range(10):
        psi = haar_pure(dims, 303, member=k)
        rho = ginibre_mixed(dims, 304, member=k)
        proj = np.outer(psi.vector, psi.vector.conj())
        for t in dims.subset_masks():
            lhs = shadow_value(proj, rho.matrix, dims, t)
            rhs = np.vdot(psi.vector, invert_sum(rho.matrix, dims, t) @ psi.vector).real
            assert abs(lhs - rhs) < 1e-10


def test_shadow_nonnegative_for_unnormalized_psd_pairs():
    rng = stream_rng(305)
    for local_dims in ((2, 2), (2, 3)):
        dims = SubsystemDims(local_dims)
        for _ in range(20):
            m1 = random_psd(dims, rng, trace_scale=float(rng.uniform(0.1, 10.0)))
            m2 = random_psd(dims, rng, trace_scale=float(rng.uniform(0.1, 10.0)))
            for t in dims.subset_masks():
                assert shadow_value(m1, m2, dims, t) >= -1e-9


def test_shadow_rejects_non_hermitian():
    dims = SubsystemDims((2,))
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        shadow_value(bad, np.eye(2), dims, 0b1)


def test_shadow_report_flags_non_psd_input():
    dims = SubsystemDims((2,))
    indefinite = np.diag([1.0, -0.5]).astype(complex)
    report = shadow_report(indefinite, indefinite, dims)
    assert report.notes
    assert all(not e.theorem for e in report.entries)
    assert report.all_pass  # judgement suppressed, nothing counts as failure
    ok = shadow_report(np.eye(2, dtype=complex), np.eye(2, dtype=complex), dims)
    assert all(e.theorem for e in ok.entries)


@pytest.mark.parametrize("pure", [False, True])
def test_shadow_report_on_a_purity_profile_is_the_operands_report(pure):
    """A validated state passed as both operands is read off its purity
    profile's table: the lines of M1 = M2 = rho, judged as theorems, bit
    for bit for a mixed state and within 1e-12 for a pure state, whose
    profile comes from its factor.  A state with another operand, or with
    other dims, is an error."""
    dims = SubsystemDims((2, 3, 2))
    state = haar_pure(dims, 5) if pure else ginibre_mixed(dims, 5)
    rho = state.density().matrix if pure else state.matrix
    want = shadow_report(rho, rho, dims)
    got = shadow_report(state, state, dims)
    assert all(e.theorem for e in got.entries)
    if pure:
        assert [e.label for e in got.entries] == [e.label for e in want.entries]
        assert all(e.passed for e in got.entries) and got.notes == want.notes == []
        assert max(abs(e.value - w.value) for e, w in zip(got.entries, want.entries)) <= 1e-12
    else:
        assert got == want
    with pytest.raises(ValueError, match="a state as both operands"):
        shadow_report(state, rho, dims)
    with pytest.raises(ValueError, match="a state as both operands"):
        shadow_report(state, state, SubsystemDims((6, 2)))


# ---------------------------------------------------------------------------
# entropy inequalities


def test_bell_entropy_report():
    report = entropy_inequalities(bell_state().density())
    by_label = {e.label: e for e in report.entries}
    assert abs(by_label["subadditivity:1|2"].value - 2.0) < 1e-12
    assert abs(by_label["triangle:1|2"].value - 0.0) < 1e-12
    assert report.all_pass


def test_bell_mixed_12_reproduces_known_violation():
    rho = bell_pair_with_mixed_qubit((1, 2))
    report = entropy_inequalities(rho)
    by_label = {e.label: e for e in report.entries}
    bad = by_label["ssa-analogue:mid=2"]
    assert not bad.theorem
    assert abs(bad.margin + 0.5) < 1e-12
    assert not bad.passed
    assert report.all_pass  # only the non-theorem falsifier is violated
    for label in ("reversed-ssa-symmetrized", "weak-monotonicity:1|3 via 2"):
        assert by_label[label].passed


def test_bell_mixed_13_violates_reversed_analogue():
    rho = bell_pair_with_mixed_qubit((1, 3))
    report = entropy_inequalities(rho)
    by_label = {e.label: e for e in report.entries}
    bad = by_label["ssa-analogue-reversed:mid=2"]
    assert not bad.theorem
    assert bad.margin < -0.5
    assert report.all_pass


def test_three_qubit_maximally_mixed_passes():
    dims = SubsystemDims((2, 2, 2))
    rho = DensityMatrix(np.eye(8) / 8, dims)
    report = entropy_inequalities(rho)
    assert report.all_pass


def test_entropy_other_party_counts_fall_back():
    dims = SubsystemDims((2, 2, 2, 2))
    rho = ginibre_mixed(dims, 306)
    report = entropy_inequalities(rho)
    assert report.notes
    assert [e.label for e in report.entries] == ["inclusion-exclusion:full"]
    assert report.all_pass


# ---------------------------------------------------------------------------
# marginal witnesses


def test_ghz_marginal_witnesses_are_psd():
    rho = ghz_state(3).density()
    for w in marginal_witnesses(rho):
        assert w.min_eig >= -1e-9


def test_witness_sign_pattern_odd_full_mask():
    dims = SubsystemDims((2, 2, 2))
    rho = ginibre_mixed(dims, 307)
    marg = {s: partial_trace(rho.matrix, dims, s) for s in range(1, 7)}
    expected = (
        np.eye(8)
        - embed(marg[0b001], 0b001, dims)
        - embed(marg[0b010], 0b010, dims)
        - embed(marg[0b100], 0b100, dims)
        + embed(marg[0b011], 0b011, dims)
        + embed(marg[0b101], 0b101, dims)
        + embed(marg[0b110], 0b110, dims)
    )
    witness = next(w for w in marginal_witnesses(rho) if w.t == 0b111)
    assert np.max(np.abs(witness.operator - expected)) < 1e-12


def test_witness_sign_pattern_single_party_mask():
    dims = SubsystemDims((2, 2, 2))
    rho = ginibre_mixed(dims, 308)
    marg = {s: partial_trace(rho.matrix, dims, s) for s in range(1, 7)}
    expected = (
        np.eye(8)
        - embed(marg[0b001], 0b001, dims)
        + embed(marg[0b010], 0b010, dims)
        + embed(marg[0b100], 0b100, dims)
        - embed(marg[0b011], 0b011, dims)
        - embed(marg[0b101], 0b101, dims)
        + embed(marg[0b110], 0b110, dims)
    )
    witness = next(w for w in marginal_witnesses(rho) if w.t == 0b001)
    assert np.max(np.abs(witness.operator - expected)) < 1e-12


def test_from_marginals_matches_direct_construction():
    dims = SubsystemDims((2, 2, 2))
    rho = ginibre_mixed(dims, 309)
    marg = {s: partial_trace(rho.matrix, dims, s) for s in range(1, 7)}
    direct = marginal_witnesses(rho)
    supplied = marginal_witnesses_from_marginals(marg, dims)
    assert len(direct) == len(supplied)
    for a, b in zip(direct, supplied):
        assert a.t == b.t
        assert np.max(np.abs(a.operator - b.operator)) < 1e-12


def test_from_marginals_missing_marginal():
    dims = SubsystemDims((2, 2))
    with pytest.raises(ValueError, match="missing marginal"):
        marginal_witnesses_from_marginals({0b01: np.eye(2) / 2}, dims)


def test_from_marginals_inconsistent_overlap():
    dims = SubsystemDims((2, 2, 2))
    rho = ginibre_mixed(dims, 310)
    marg = {s: partial_trace(rho.matrix, dims, s) for s in range(1, 7)}
    marg[0b011] = np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])).astype(complex)
    with pytest.raises(ValueError, match="disagree"):
        marginal_witnesses_from_marginals(marg, dims)


def test_from_marginals_names_the_first_disagreeing_pair_in_ascending_order():
    """Marginals 101 and 011 both disagree with the rest; pairs are
    compared in ascending mask order, so 100 against 101 is named,
    whatever order the overlaps are traced in."""
    dims = SubsystemDims((2, 2, 2))
    rho = ginibre_mixed(dims, 311)
    marg = {s: partial_trace(rho.matrix, dims, s) for s in range(1, 7)}
    marg[0b101] = marg[0b110] = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="^marginals 100 and 101 disagree on their overlap by"):
        marginal_witnesses_from_marginals(marg, dims)


@pytest.mark.parametrize("key, kind", [
    (0, "the empty set"), (0b111, "the full set"), (0b1000, "not a mask of the 3 parties"),
])
def test_from_marginals_rejects_a_key_that_is_not_a_proper_nonempty_subset(key, kind):
    """Named before the other checks, so even with every marginal missing."""
    dims = SubsystemDims((2, 2, 2))
    rho = ginibre_mixed(dims, 312)
    marg = {s: partial_trace(rho.matrix, dims, s) for s in range(1, 7)}
    for table in ({**marg, key: np.eye(2) / 2}, {key: np.eye(2) / 2}):
        with pytest.raises(ValueError, match=f"^marginal key {key} is {kind}; keys are the "
                                             "proper nonempty subsets 1..6$"):
            marginal_witnesses_from_marginals(table, dims)


def test_from_marginals_embeds_each_marginal_and_traces_each_overlap_once(monkeypatch):
    """(2,3,2,2): 15 embeds (the empty set's identity among them) and one
    trace per subset-overlap pair, 46, against 120 and 132 per mask and
    per pair."""
    dims = SubsystemDims((2, 3, 2, 2))
    rho = ginibre_mixed(dims, 313)
    marg = {s: partial_trace(rho.matrix, dims, s) for s in range(1, 15)}
    calls = {"embed": 0, "partial_trace": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(constraints, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(constraints, name, counted)
    assert len(marginal_witnesses_from_marginals(marg, dims)) == 8
    assert calls == {"embed": 15, "partial_trace": 46}


def test_from_marginals_names_a_non_hermitian_marginal():
    """A skewed entry that leaves every overlap and trace intact is named
    up front, not found later inside a witness's eigen-solve."""
    dims = SubsystemDims((2, 2, 2))
    marg = {s: np.eye(dims.block_dim(s), dtype=complex) / dims.block_dim(s) for s in range(1, 7)}
    marg[0b011][0, 3] = 0.1
    with pytest.raises(ValueError, match=r"marginal 110 is not Hermitian: .* 1\.000e-01"):
        marginal_witnesses_from_marginals(marg, dims)


def test_from_marginals_within_tolerance_give_exactly_hermitian_witnesses():
    """Three marginals, each with a Hermiticity defect of 9e-11 (inside the
    1e-10 tolerance) at entry (0, 1) and agreeing on every overlap, are
    accepted: each one is replaced by its lower-triangle completion, so
    no witness sums the defects of its terms (1.8e-10 before, refused as
    a non-Hermitian operator).  Every witness is exactly Hermitian and is
    the one built from the completed marginals, whose entry (0, 1) is
    the conjugate of entry (1, 0)."""
    dims = SubsystemDims((2, 2, 2))
    marg = {s: np.eye(dims.block_dim(s), dtype=complex) / dims.block_dim(s) for s in range(1, 7)}
    completed = {s: m.copy() for s, m in marg.items()}
    for s in (0b100, 0b101, 0b110):
        marg[s][0, 1], marg[s][1, 0] = 4.5e-11, -4.5e-11
        completed[s][0, 1] = completed[s][1, 0] = -4.5e-11
        assert herm_defect(marg[s]) == 9e-11
    witnesses = marginal_witnesses_from_marginals(marg, dims)
    assert [w.t for w in witnesses] == [0b001, 0b010, 0b100, 0b111]
    for w, want in zip(witnesses, marginal_witnesses_from_marginals(completed, dims)):
        assert herm_defect(w.operator) == 0.0
        assert np.array_equal(w.operator, want.operator)


def test_witness_rejects_a_non_finite_operator():
    operator = np.eye(2, dtype=complex)
    operator[0, 1] = np.nan
    with pytest.raises(ValueError, match="witness operator has non-finite"):
        MarginalWitness(t=0b1, operator=operator, min_eig=0.0)


def test_from_marginals_bad_trace():
    dims = SubsystemDims((2, 2))
    with pytest.raises(ValueError, match="trace"):
        marginal_witnesses_from_marginals(
            {0b01: np.eye(2), 0b10: np.eye(2) / 2}, dims
        )


def test_incompatible_bell_marginals_are_detected():
    # three mutually Bell-correlated pairs admit no joint three-qubit state
    dims = SubsystemDims((2, 2, 2))
    bell = bell_state().density().matrix
    marg = {
        0b011: bell,
        0b101: bell,
        0b110: bell,
        0b001: np.eye(2, dtype=complex) / 2,
        0b010: np.eye(2, dtype=complex) / 2,
        0b100: np.eye(2, dtype=complex) / 2,
    }
    witnesses = marginal_witnesses_from_marginals(marg, dims)
    assert min(w.min_eig for w in witnesses) < -1e-6


def test_marginal_report_labels():
    rho = ghz_state(3).density()
    report = marginal_report(rho)
    assert [e.label for e in report.entries] == ["100", "010", "001", "111"]
    assert report.all_pass


def per_mask_marginal_report(rho):
    """marginal_report as it was before odd_inversions: one invert_product
    and one added copy of rho per mask, in ascending mask order."""
    odd = [t for t in rho.dims.subset_masks() if bin(t).count("1") % 2]
    entries = [
        _entry(mask_bitstring(t, rho.dims.n),
               min_eigenvalue(invert_product(rho.matrix, rho.dims, t) + rho.matrix), PASS_TOL)
        for t in odd
    ]
    return ConstraintReport(family="marginal", entries=entries, tolerance=PASS_TOL)


def traced_peak(build, rho):
    build(rho)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = build(rho)
        return tracemalloc.get_traced_memory()[1] - base, report
    finally:
        tracemalloc.stop()


def test_the_depth_first_witnesses_hold_at_most_the_stack_budget_more(monkeypatch):
    """The tree counts the D^2 operators it holds for masks still to
    come against STACK_HOLD_BYTES and holds no trace across a subtree, so
    while a witness is solved it holds at most that much above the
    per-mask route of the same code (STACK_HOLD_BYTES = 0): that bound is
    structural, plus 16 KiB for the tree's generator frames and weight
    dicts.  Against the route that kept a report entry per solved mask,
    it peaks below STACK_HOLD_BYTES more.  The lines are that route's."""
    rho = ginibre_mixed(SubsystemDims((2,) * 7), 1)
    parent, reference = traced_peak(per_mask_marginal_report, rho)
    with monkeypatch.context() as patch:
        patch.setattr(inversion, "STACK_HOLD_BYTES", 0)
        per_mask, per_mask_report = traced_peak(marginal_report, rho)
    peak, report = traced_peak(marginal_report, rho)
    assert peak <= per_mask + STACK_HOLD_BYTES + (1 << 14)
    assert peak <= parent + STACK_HOLD_BYTES
    assert report == per_mask_report == reference


def hermitian_within_tolerance(n, defect=4e-11, seed=1):
    """A valid n-qubit Ginibre state plus an anti-Hermitian perturbation
    with zero diagonal, so its matrix has Hermiticity defect ``defect``,
    inside the 1e-10 tolerance, and unit trace."""
    dims = SubsystemDims((2,) * n)
    rho = ginibre_mixed(dims, seed).matrix
    rng = np.random.default_rng(seed)
    k = np.triu(rng.normal(size=rho.shape) + 1j * rng.normal(size=rho.shape), 1)
    k -= k.conj().T
    k *= defect / 2 / np.abs(k).max()
    return DensityMatrix(rho + k, dims)


def lower_triangle(mat):
    """What eigvalsh and the Cholesky certificate read of ``mat``, as an
    exactly Hermitian matrix: its real diagonal and strict lower triangle."""
    low = np.tril(mat, -1)
    return low + low.conj().T + np.diag(mat.diagonal().real)


def test_a_state_hermitian_within_tolerance_gets_the_witnesses_of_its_lower_triangle():
    """A 5-qubit state with Hermiticity defect 4e-11 is accepted, and its
    witnesses are those of its lower-triangle completion: every marginal
    value is the per-mask route's (invert_product plus eigvalsh) on that
    completion, bit for bit, where checking each witness again would
    reject it (the sums amplify the defect to about 6e-10)."""
    rho = hermitian_within_tolerance(5)
    assert 3.9e-11 < herm_defect(rho.matrix) < 4.1e-11
    op = lower_triangle(rho.matrix)
    assert np.array_equal(rho.operand, op) and herm_defect(rho.operand) == 0.0
    assert not rho.operand.flags.writeable and rho.operand is rho.operand
    odd = [t for t in rho.dims.subset_masks() if bin(t).count("1") % 2]
    want = [float(np.linalg.eigvalsh(invert_product(op, rho.dims, t) + op)[0]) for t in odd]
    assert [e.value for e in marginal_report(rho).entries] == want
    assert [w.min_eig for w in marginal_witnesses(rho)] == want
    raw = invert_product(rho.matrix, rho.dims, 0b10101) + rho.matrix
    with pytest.raises(ValueError, match="operator is not Hermitian"):
        min_eigenvalue(raw)  # the check the witnesses no longer run


def test_an_exactly_hermitian_state_is_its_own_operand():
    rho = ginibre_mixed(SubsystemDims((2, 3, 2)), 4)
    assert herm_defect(rho.matrix) == 0.0
    assert rho.operand is rho.matrix


def test_witness_sign_vectors_are_linearly_independent():
    # the odd-mask witnesses carry pairwise distinct, independent sign
    # patterns over the proper subsets
    dims = SubsystemDims((2, 2, 2))
    odd_masks = [t for t in range(8) if bin(t).count("1") % 2 == 1]
    rows = []
    for t in odd_masks:
        rows.append([
            (-1) ** bin(s & t).count("1") for s in range(7)
        ])
    matrix = np.array(rows, dtype=float)
    assert np.linalg.matrix_rank(matrix) == len(odd_masks)


# ---------------------------------------------------------------------------
# functional independence


def test_independence_rank_small_cases():
    assert independence_rank(1) == 2
    assert independence_rank(2) == 4
    assert independence_rank(3) == 8


def test_independence_rank_n1_matrix_entries():
    # the 2x2 matrix for one qubit is [[2, 0], [3/2, 1/2]]
    from qinvert.invariants import invariant_table
    from qinvert.zoo import pinned_mix_state

    rows = {}
    for pins in (0, 1):
        table = invariant_table(pinned_mix_state(1, pins))
        rows[pins] = (table.c_squared(0), table.c_squared(1))
    assert abs(rows[1][0] - 2.0) < 1e-12 and abs(rows[1][1]) < 1e-12
    assert abs(rows[0][0] - 1.5) < 1e-12 and abs(rows[0][1] - 0.5) < 1e-12


def test_independence_rank_pure_family():
    assert independence_rank_pure(2) == 2
    assert independence_rank_pure(3) == 4


def test_independence_rank_range_errors():
    with pytest.raises(ValueError):
        independence_rank(0)
    with pytest.raises(ValueError):
        independence_rank(6)
    with pytest.raises(ValueError):
        independence_rank_pure(1)


def old_numerical_rank(matrix):
    sigma = np.linalg.svd(matrix, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.sum(sigma > 1e-8 * sigma[0]))


def old_mix_matrix(n, d):
    """The per-state loop of the pin-or-mix rank before the family table."""
    size = 1 << n
    return np.array([[invariant_table(pinned_mix_state(n, s, d=d)).c_squared(t)
                      for t in range(size)] for s in range(size)])


def old_pure_matrix(n):
    """The per-state loop of the pinned-GHZ rank: each member's reduced
    DensityMatrix on parties 2..n and its own invariant table."""
    size = 1 << (n - 1)
    rows = []
    for idx in range(size):
        psi = pinned_ghz_state(n, idx << 1)
        table = invariant_table(psi.density().reduce(psi.dims.full_mask ^ 0b1))
        rows.append([table.c_squared(t) for t in range(size)])
    return np.array(rows)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_independence_rank_reads_the_per_state_tables_bit_for_bit(n, d):
    old = old_mix_matrix(n, d)
    assert pinned_mix_table(n, d).tobytes() == old.tobytes()
    assert independence_rank(n, d) == old_numerical_rank(old) == 1 << n


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_independence_rank_pure_reads_the_per_state_tables_bit_for_bit(n):
    old = old_pure_matrix(n)
    tables, reduced = pinned_ghz_tables(n)
    for idx, row in enumerate(tables):
        psi = pinned_ghz_state(n, idx << 1)
        table = invariant_table(psi.density())
        assert row.tolist() == [table.c_squared(t) for t in range(1 << n)]
        # the pure state's own table comes from its factor
        assert np.max(np.abs(row - invariant_table(psi).values)) <= 1e-13
    assert reduced.tobytes() == old.tobytes()
    assert independence_rank_pure(n) == old_numerical_rank(old) == 1 << (n - 1)


@pytest.mark.parametrize("n", [0, 6])
def test_independence_ranks_keep_their_range(n):
    for d in (2, 3):
        with pytest.raises(ValueError, match="supports 1 <= n <= 5"):
            independence_rank(n, d)
    with pytest.raises(ValueError, match="supports 2 <= n <= 5"):
        independence_rank_pure(n)


# ---------------------------------------------------------------------------
# non-finite operands never reach a verdict


def test_min_eigenvalue_rejects_non_finite_entries():
    h = np.eye(3, dtype=complex)
    h[1, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        min_eigenvalue(h)


@pytest.mark.parametrize("which", ["M1", "M2"])
def test_shadow_report_names_a_non_finite_operand(which):
    dims = SubsystemDims((2, 2))
    good = ginibre_mixed(dims, 12).matrix
    bad = good.copy()
    bad[1, 1] = np.nan
    m1, m2 = (bad, good) if which == "M1" else (good, bad)
    with pytest.raises(ValueError, match=f"{which} has non-finite"):
        shadow_report(m1, m2, dims)
    with pytest.raises(ValueError, match=f"{which} has non-finite"):
        shadow_value(m1, m2, dims, 0b11)


@pytest.mark.parametrize("s", [0b001, 0b110])
def test_from_marginals_names_a_non_finite_marginal(s):
    dims = SubsystemDims((2, 2, 2))
    rho = ginibre_mixed(dims, 13)
    marg = {t: partial_trace(rho.matrix, dims, t) for t in range(1, 7)}
    marg[s] = marg[s].copy()
    marg[s][0, 0] = np.nan
    with pytest.raises(ValueError, match=f"marginal {mask_bitstring(s, 3)} has non-finite"):
        marginal_witnesses_from_marginals(marg, dims)
