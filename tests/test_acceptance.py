"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line (written past the capture so the lines always
appear in the terminal)."""

import math
import sys

import numpy as np
import pytest

from qinvert.constraints import (
    correlation_report,
    entropy_inequalities,
    independence_rank,
    independence_rank_pure,
    marginal_witnesses,
    monogamy_report,
    shadow_value,
)
from qinvert.dims import SubsystemDims
from qinvert.invariants import invariant_table
from qinvert.inversion import (
    DetectionParams,
    Grouping,
    apply_detection_map,
    choi_matrix,
    coarse_grain_invert,
    invert_kraus,
    invert_product,
    invert_sum,
)
from qinvert.states import linear_entropies
from qinvert.tensor import embed, min_eigenvalue, partial_trace
from qinvert.zoo import (
    bell_pair_with_mixed_qubit,
    bell_state,
    ginibre_mixed,
    haar_pure,
    monotone_counterexample,
    pinned_ghz_invariant,
    pinned_ghz_state,
    pinned_mix_invariant,
    pinned_mix_state,
    random_psd,
    stream_rng,
)

ENSEMBLE_DIMS = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 2, 2)]


@pytest.fixture()
def report(capsys):
    def _report(number: int, ok: bool, label: str, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            sys.stdout.write(f"\n[criterion {number:02d}] {status} {label}: {detail}\n")
            sys.stdout.flush()

    return _report


def test_criterion_01_cross_form_oracle(report):
    worst = 0.0
    for local_dims in ENSEMBLE_DIMS:
        dims = SubsystemDims(local_dims)
        for k in range(200):
            rho = ginibre_mixed(dims, 1000, member=k).matrix
            every = range(1 << dims.n)
            by_sum, by_kraus = invert_sum(rho, dims, every), invert_kraus(rho, dims, every)
            for t, ref in enumerate(by_sum):
                worst = max(worst, float(np.max(np.abs(ref - invert_product(rho, dims, t)))))
                worst = max(worst, float(np.max(np.abs(ref - by_kraus[t]))))
    ok = worst < 1e-10
    report(1, ok, "cross-form oracle",
           f"worst sum/product/Kraus deviation {worst:.3e} (tol 1e-10)")
    assert ok


def test_criterion_02_positivity_battery(report):
    low = math.inf
    for local_dims in ENSEMBLE_DIMS:
        dims = SubsystemDims(local_dims)
        for k in range(200):
            rho = ginibre_mixed(dims, 1000, member=k).matrix
            for t in dims.subset_masks():
                low = min(low, min_eigenvalue(invert_sum(rho, dims, t)))
    ok = low >= -1e-9
    report(2, ok, "positivity battery",
           f"worst min eigenvalue {low:.3e} (floor -1e-9)")
    assert ok


def test_criterion_03_correlation_constraints(report):
    low = math.inf
    for local_dims in ENSEMBLE_DIMS:
        dims = SubsystemDims(local_dims)
        for k in range(500):
            rho = ginibre_mixed(dims, 1003, member=k)
            rep = correlation_report(rho)
            low = min(low, min(e.value for e in rep.entries))
    ok = low >= -1e-9
    report(3, ok, "correlation constraints",
           f"worst value over 500-state ensembles {low:.3e} (floor -1e-9)")
    assert ok


def test_criterion_04_monogamy_and_odd_mask_vanishing(report):
    low = math.inf
    worst_odd = 0.0
    for local_dims in ENSEMBLE_DIMS:
        dims = SubsystemDims(local_dims)
        for k in range(500):
            psi = haar_pure(dims, 1004, member=k)
            rep = monogamy_report(psi)
            for e in rep.entries:
                low = min(low, e.value)
                if e.label.count("1") % 2 == 1:
                    worst_odd = max(worst_odd, abs(e.value))
    ok = low >= -1e-9 and worst_odd < 1e-9
    report(4, ok, "monogamy inequalities",
           f"worst value {low:.3e} (floor -1e-9), worst odd-mask residue "
           f"{worst_odd:.3e} (tol 1e-9)")
    assert ok


def test_criterion_05_closed_forms_and_independence_ranks(report):
    worst = 0.0
    for n in (2, 3, 4):
        for pins in range(1 << n):
            table = invariant_table(pinned_mix_state(n, pins))
            for t in range(1 << n):
                worst = max(worst, abs(table.c_squared(t) - pinned_mix_invariant(n, pins, t)))
        for idx in range(1 << (n - 1)):
            pins = idx << 1
            table = invariant_table(pinned_ghz_state(n, pins).density())
            for t in range(1 << n):
                worst = max(worst, abs(table.c_squared(t) - pinned_ghz_invariant(n, pins, t)))
    ranks_ok = all(independence_rank(n) == 1 << n for n in (1, 2, 3, 4))
    ranks_pure_ok = all(independence_rank_pure(n) == 1 << (n - 1) for n in (2, 3, 4))
    ok = worst < 1e-10 and ranks_ok and ranks_pure_ok
    report(5, ok, "closed-form invariants and independence",
           f"worst closed-form residue {worst:.3e} (tol 1e-10), "
           f"full ranks {ranks_ok}, pure-family ranks {ranks_pure_ok}")
    assert ok


def test_criterion_06_parity_sums(report):
    worst = 0.0
    for local_dims in [(2, 2), (2, 3), (2, 2, 2), (2, 2, 2, 2)]:
        dims = SubsystemDims(local_dims)
        eye = np.eye(dims.total)
        scale = 2.0 ** (1 - dims.n)
        for k in range(25):
            rho = ginibre_mixed(dims, 1006, member=k).matrix
            odd = sum(invert_sum(rho, dims, t) for t in dims.subset_masks()
                      if bin(t).count("1") % 2 == 1)
            even = sum(invert_sum(rho, dims, t) for t in dims.subset_masks()
                       if bin(t).count("1") % 2 == 0)
            worst = max(worst, float(np.max(np.abs(scale * odd - (eye - rho)))))
            worst = max(worst, float(np.max(np.abs(scale * even - (eye + rho)))))
    ok = worst < 1e-11
    report(6, ok, "parity sums", f"worst residual {worst:.3e} (tol 1e-11)")
    assert ok


def test_criterion_07_coarse_graining(report):
    dims3 = SubsystemDims((2, 2, 2))
    grouping3 = Grouping(blocks=(0b001, 0b110), n=3)
    worst = 0.0
    for k in range(25):
        rho = ginibre_mixed(dims3, 1007, member=k).matrix
        lhs = coarse_grain_invert(rho, dims3, grouping3, 0b10)
        avg = 0.5 * (invert_sum(rho, dims3, 0b010) + invert_sum(rho, dims3, 0b100))
        worst = max(worst, float(np.max(np.abs(lhs - avg))))
        merged = invert_sum(rho, SubsystemDims((2, 4)), 0b10)
        worst = max(worst, float(np.max(np.abs(lhs - merged))))
    dims4 = SubsystemDims((2, 2, 2, 2))
    grouping4 = Grouping(blocks=(0b0011, 0b1100), n=4)
    rho = ginibre_mixed(dims4, 1007, member=999).matrix
    for t_coarse in range(4):
        lhs = coarse_grain_invert(rho, dims4, grouping4, t_coarse)
        merged = invert_sum(rho, SubsystemDims((4, 4)), t_coarse)
        worst = max(worst, float(np.max(np.abs(lhs - merged))))
    ok = worst < 1e-11
    report(7, ok, "coarse graining", f"worst residual {worst:.3e} (tol 1e-11)")
    assert ok


def test_criterion_08_entropy_falsifiers(report):
    rho_a = bell_pair_with_mixed_qubit((1, 2))
    taus = linear_entropies(rho_a)
    lhs = taus[0b010] + taus[0b111]
    rhs = taus[0b011] + taus[0b110]
    exact = abs(lhs - 2.0) < 1e-12 and abs(rhs - 1.5) < 1e-12
    rep_a = entropy_inequalities(rho_a)
    entry_a = next(e for e in rep_a.entries if e.label == "ssa-analogue:mid=2")
    margin_ok = abs(entry_a.margin + 0.5) < 1e-12

    rho_b = bell_pair_with_mixed_qubit((1, 3))
    rep_b = entropy_inequalities(rho_b)
    entry_b = next(e for e in rep_b.entries if e.label == "ssa-analogue-reversed:mid=2")
    reverse_violated = entry_b.margin < 0

    theorem_ok = rep_a.all_pass and rep_b.all_pass
    ok = exact and margin_ok and reverse_violated and theorem_ok
    report(8, ok, "entropy falsifiers",
           f"lhs {lhs} rhs {rhs}, falsifier margin {entry_a.margin:+.3e}, "
           f"reverse margin {entry_b.margin:+.3e}, theorem entries pass={theorem_ok}")
    assert ok


def test_criterion_09_detection_and_werner_holevo(report):
    bell = bell_state().density()
    params = DetectionParams(t=0b10, act_on=0b10, alpha=1.0)
    low = min_eigenvalue(apply_detection_map(bell.matrix, bell.dims, params))
    bell_ok = abs(low + 0.5) < 1e-10

    dims2 = SubsystemDims((2, 2))
    detections = 0
    for k in range(100):
        a = ginibre_mixed(SubsystemDims((2,)), 1009, member=2 * k).matrix
        b = ginibre_mixed(SubsystemDims((2,)), 1009, member=2 * k + 1).matrix
        out = apply_detection_map(np.kron(a, b), dims2, params)
        if min_eigenvalue(out) < -1e-9:
            detections += 1
    products_ok = detections == 0

    choi_low = math.inf
    for local_dims in [(2,), (3,), (2, 2)]:
        dims = SubsystemDims(local_dims)
        for t in dims.subset_masks():
            choi = choi_matrix("t_inversion_after_transpose", dims, t=t)
            choi_low = min(choi_low, min_eigenvalue(choi))
    choi_ok = choi_low >= -1e-9

    ok = bell_ok and products_ok and choi_ok
    report(9, ok, "detection and complete positivity",
           f"Bell min eig {low:.12f}, false detections {detections}/100, "
           f"worst Choi min eig {choi_low:.3e}")
    assert ok


def test_criterion_10_measurement_counterexample(report):
    before, after = monotone_counterexample()
    ok = abs(before - 1.0) < 1e-9 and abs(after - math.sqrt(2.0)) < 1e-9
    report(10, ok, "measurement averaging counterexample",
           f"before {before:.12f}, after-average {after:.12f} (target sqrt 2)")
    assert ok


def test_criterion_11_shadow_inequalities(report):
    rng = stream_rng(1011)
    low = math.inf
    for local_dims in ENSEMBLE_DIMS:
        dims = SubsystemDims(local_dims)
        for _ in range(200):
            m1 = random_psd(dims, rng, trace_scale=float(rng.uniform(0.1, 10.0)))
            m2 = random_psd(dims, rng, trace_scale=float(rng.uniform(0.1, 10.0)))
            for t in dims.subset_masks():
                low = min(low, shadow_value(m1, m2, dims, t))
    nonneg_ok = low >= -1e-9

    worst_dev = 0.0
    dims = SubsystemDims((2, 2, 2))
    for k in range(50):
        psi = haar_pure(dims, 1011, member=k)
        rho = ginibre_mixed(dims, 1012, member=k)
        proj = np.outer(psi.vector, psi.vector.conj())
        for t in dims.subset_masks():
            lhs = shadow_value(proj, rho.matrix, dims, t)
            rhs = np.vdot(psi.vector, invert_sum(rho.matrix, dims, t) @ psi.vector).real
            worst_dev = max(worst_dev, abs(lhs - rhs))
    bracket_ok = worst_dev < 1e-10

    ok = nonneg_ok and bracket_ok
    report(11, ok, "shadow inequalities",
           f"worst value {low:.3e} (floor -1e-9), worst expectation "
           f"cross-check deviation {worst_dev:.3e} (tol 1e-10)")
    assert ok


def test_criterion_12_marginal_witnesses(report):
    dims = SubsystemDims((2, 2, 2))
    low = math.inf
    for k in range(100):
        rho = ginibre_mixed(dims, 1013, member=k)
        for w in marginal_witnesses(rho):
            low = min(low, w.min_eig)
    psd_ok = low >= -1e-9

    rho = ginibre_mixed(dims, 1014)
    marg = {s: partial_trace(rho.matrix, dims, s) for s in range(1, 7)}
    delta = (
        np.eye(8)
        - embed(marg[0b001], 0b001, dims)
        - embed(marg[0b010], 0b010, dims)
        - embed(marg[0b100], 0b100, dims)
        + embed(marg[0b011], 0b011, dims)
        + embed(marg[0b101], 0b101, dims)
        + embed(marg[0b110], 0b110, dims)
    )
    single = (
        np.eye(8)
        - embed(marg[0b001], 0b001, dims)
        + embed(marg[0b010], 0b010, dims)
        + embed(marg[0b100], 0b100, dims)
        - embed(marg[0b011], 0b011, dims)
        - embed(marg[0b101], 0b101, dims)
        + embed(marg[0b110], 0b110, dims)
    )
    witnesses = {w.t: w.operator for w in marginal_witnesses(rho)}
    sign_dev = max(
        float(np.max(np.abs(witnesses[0b111] - delta))),
        float(np.max(np.abs(witnesses[0b001] - single))),
    )
    signs_ok = sign_dev < 1e-12

    ok = psd_ok and signs_ok
    report(12, ok, "marginal witnesses",
           f"worst min eigenvalue {low:.3e} (floor -1e-9), sign-pattern "
           f"deviation {sign_dev:.3e}")
    assert ok
