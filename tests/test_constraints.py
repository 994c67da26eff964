import numpy as np
import pytest

from qinvert.constraints import (
    MarginalWitness,
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
from qinvert.dims import SubsystemDims, mask_bitstring
from qinvert.invariants import c_t_squared, invariant_table
from qinvert.inversion import invert_sum
from qinvert.states import DensityMatrix, PureState
from qinvert.tensor import embed, min_eigenvalue, partial_trace
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
    """A validated state's purity profile gives the lines of M1 = M2 = rho
    bit for bit, judged as theorems; a profile with operands, or of the
    wrong length, is an error."""
    dims = SubsystemDims((2, 3, 2))
    state = haar_pure(dims, 5) if pure else ginibre_mixed(dims, 5)
    rho = state.density().matrix if pure else state.matrix
    want = shadow_report(rho, rho, dims)
    got = shadow_report(None, None, dims, purities=state.purities)
    assert got == want and all(e.theorem for e in got.entries)
    with pytest.raises(ValueError, match="not both"):
        shadow_report(rho, None, dims, purities=state.purities)
    with pytest.raises(ValueError, match="does not match 2 parties"):
        shadow_report(None, None, SubsystemDims((6, 2)), purities=state.purities)


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


def test_from_marginals_names_a_non_hermitian_marginal():
    """A skewed entry that leaves every overlap and trace intact is named
    up front, not found later inside a witness's eigen-solve."""
    dims = SubsystemDims((2, 2, 2))
    marg = {s: np.eye(dims.block_dim(s), dtype=complex) / dims.block_dim(s) for s in range(1, 7)}
    marg[0b011][0, 3] = 0.1
    with pytest.raises(ValueError, match=r"marginal 110 is not Hermitian: .* 1\.000e-01"):
        marginal_witnesses_from_marginals(marg, dims)


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
        table = invariant_table(pinned_ghz_state(n, idx << 1))
        assert row.tolist() == [table.c_squared(t) for t in range(1 << n)]
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
