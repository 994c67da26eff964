"""Inequality families generated by the positivity of the inversion map:
correlation constraints on linear entropies, monogamy relations for pure
states, shadow inequalities for PSD operator pairs, named entropy
inequalities, and operator witnesses for marginal compatibility.

The scalar families read one table, C_T^2 = Tr[rho I_T(rho)] of
:func:`~qinvert.invariants.invariant_table`, through one report builder:
correlation is C_T^2 for T != {}, pure monogamy 2 C_T^2, the shadow
lines of one state passed to :func:`shadow_report` as both operands
(Rains' inequalities) C_T^2 for every T, the entropy fallback C^2 of
the full set."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from .dims import SubsystemDims, mask_bitstring, parties_from_mask, relative_mask
from .invariants import invariant_table
from .inversion import _butterfly, odd_inversions
from .states import TOL_PSD, DensityMatrix, FactorState, PureState
from .tensor import (
    _require_hermitian,
    _require_shape,
    embed,
    lower_completion,
    min_eigenvalue,
    partial_trace,
    psd_violation,
    reduction_sweep,
    signed_subset_sums,
    trace_product,
)
from .zoo import pinned_ghz_tables, pinned_mix_table

PASS_TOL = 1e-9
OVERLAP_TOL = 1e-8

FAMILIES = ("correlation", "monogamy", "shadow", "entropy", "marginal")


@dataclass(frozen=True)
class ReportEntry:
    label: str
    value: float
    threshold: float
    margin: float
    passed: bool
    theorem: bool = True
    extra: Mapping[str, object] | None = None


@dataclass
class ConstraintReport:
    """One family's entries plus note lines; notes carry their full
    report-line label ("note: ...", "warning: ...")."""

    family: str
    entries: list[ReportEntry]
    tolerance: float
    notes: list[str] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        """True when every theorem-backed entry passes; entries tagged as
        non-theorem falsifiers never count against the report."""
        return all(e.passed for e in self.entries if e.theorem)


def _entry(
    label: str, value: float, tol: float, threshold: float = 0.0, theorem: bool = True,
    extra: Mapping[str, object] | None = None,
) -> ReportEntry:
    """The one pass rule of every report line: value - threshold >= -tol."""
    margin = value - threshold
    return ReportEntry(label, value, threshold, margin, margin >= -tol, theorem, extra)


def _table_report(family: str, state: DensityMatrix | FactorState, tol: float,
                  scale: float = 1.0, first: int = 1) -> ConstraintReport:
    """One line per mask T >= ``first``, in ascending order, with the value
    ``scale`` C_T^2 read off :func:`invariant_table`: the report of every
    family that lists the table (correlation, monogamy, ``check``'s shadow)."""
    n = state.dims.n
    values = (scale * invariant_table(state).values[first:]).tolist()
    entries = [_entry(mask_bitstring(t, n), v, tol) for t, v in enumerate(values, first)]
    return ConstraintReport(family=family, entries=entries, tolerance=tol)


# ---------------------------------------------------------------------------
# correlation constraints and monogamy relations


def correlation_constraint(rho: DensityMatrix | FactorState, t: int) -> float:
    """C_T^2 = Tr[rho I_T(rho)] as in :func:`invariant_table`, nonnegative for
    every rho; (1/2) sum_{S != 0} (-1)^{|S & T| + 1} tau_S up to 1 - (Tr rho)^2."""
    rho.dims.validate_mask(t)
    if t == 0:
        raise ValueError("t = empty set gives the trivial constraint; pick t != 0")
    return invariant_table(rho).c_squared(t)


def correlation_report(rho: DensityMatrix | FactorState, tol: float = PASS_TOL) -> ConstraintReport:
    return _table_report("correlation", rho, tol)


def monogamy_check(psi: PureState, t: int) -> float:
    """2 C_T^2; for pure states the sum over proper nonempty S of
    (-1)^{|S & T| + 1} C^2_{S|S^c} up to 1 - |psi|^4, nonnegative for t != 0."""
    psi.dims.validate_mask(t)
    if t == 0:
        raise ValueError("t = empty set gives the trivial constraint; pick t != 0")
    return 2.0 * invariant_table(psi).c_squared(t)


def monogamy_report(psi: PureState, tol: float = PASS_TOL) -> ConstraintReport:
    return _table_report("monogamy", psi, tol, scale=2.0)


# ---------------------------------------------------------------------------
# shadow inequalities


def _shadow_sums(m1: np.ndarray, m2: np.ndarray, dims: SubsystemDims) -> list[float]:
    """Shadow values for every mask: one reduction sweep per operand, then
    one O(N 2^N) signed subset sum.  With M2 = M1 = rho the terms are the
    subset purities and the values are the invariant table's, bit for bit."""
    for name, m in (("M1", m1), ("M2", m2)):
        _require_shape(m, dims, name)
    for name, m in (("M1", m1), ("M2", m2)):
        _require_hermitian(np.asarray(m), name)
    terms = np.empty(1 << dims.n)
    for (s, a), (_, b) in zip(reduction_sweep(m1, dims), reduction_sweep(m2, dims)):
        terms[s] = trace_product(a, b).real
    return signed_subset_sums(terms).tolist()


def shadow_value(
    m1: np.ndarray, m2: np.ndarray, dims: SubsystemDims, t: int
) -> float:
    """sum_S (-1)^{|S & T|} Tr[Tr_{S^c}(M1) Tr_{S^c}(M2)]; nonnegative for
    PSD M1, M2 of any normalization."""
    dims.validate_mask(t)
    return _shadow_sums(m1, m2, dims)[t]


def is_psd(mat: np.ndarray) -> bool:
    """lambda_min >= -TOL_PSD for a finite Hermitian operator (or each member
    of a stack), by the Cholesky certificate of :func:`~qinvert.tensor.psd_violation`."""
    h = np.asarray(mat, dtype=np.complex128)
    _require_hermitian(h, "operator")
    return psd_violation(h, TOL_PSD) is None


def shadow_report(
    m1: np.ndarray | DensityMatrix | FactorState,
    m2: np.ndarray | DensityMatrix | FactorState,
    dims: SubsystemDims,
    tol: float = PASS_TOL,
) -> ConstraintReport:
    """Evaluate every mask; if either operator fails the PSD check the
    entries are still reported but tagged non-theorem (no pass/fail
    judgement applies).  One validated state passed as both operands (as
    ``check`` does) is read off its invariant table from the empty mask,
    bit for bit the lines of its matrix, with its validation as the PSD
    certificate."""
    if isinstance(m1, (DensityMatrix, FactorState)):
        if m2 is not m1 or m1.dims != dims:
            raise ValueError("pass a state as both operands, with its own dims")
        return _table_report("shadow", m1, tol, first=0)
    sums = _shadow_sums(m1, m2, dims)
    psd_ok = is_psd(m1) and is_psd(m2)
    entries = [
        _entry(mask_bitstring(t, dims.n), value, tol, theorem=psd_ok)
        for t, value in enumerate(sums)
    ]
    notes = [] if psd_ok else ["note: inputs are not PSD: pass/fail judgement suppressed"]
    return ConstraintReport(family="shadow", entries=entries, tolerance=tol, notes=notes)


# ---------------------------------------------------------------------------
# named entropy inequalities


def _pset(mask: int) -> str:
    return "".join(str(p) for p in parties_from_mask(mask))


def entropy_inequalities(rho: DensityMatrix | FactorState,
                         tol: float = PASS_TOL) -> ConstraintReport:
    """Named linear-entropy inequalities for the party count at hand.

    Two parties: subadditivity and the triangle inequality.  Three
    parties: those on every coarse bipartition, the symmetrized reversed
    strong-subadditivity relation, the weak-monotonicity analogues, and
    the corrected strong-subadditivity analogues, over all relabelings.
    The plain strong-subadditivity analogue and its reverse are included
    as tagged non-theorem entries: both are known to fail on suitable
    states, and reproducing the failure is part of the contract.
    Other party counts get the full-mask inclusion-exclusion constraint
    only, with a note.
    """
    n = rho.dims.n
    tau = (2.0 * (1.0 - rho.purities)).tolist()
    full = rho.dims.full_mask
    entries: list[ReportEntry] = []
    notes: list[str] = []

    if n == 2:
        m1, m2 = 0b01, 0b10
        entries.append(_entry("subadditivity:1|2", tau[m1] + tau[m2] - tau[full], tol))
        entries.append(
            _entry("triangle:1|2", tau[full] - abs(tau[m1] - tau[m2]), tol)
        )
    elif n == 3:
        for a in (0b001, 0b010, 0b100):
            b = full ^ a
            lbl = f"{_pset(a)}|{_pset(b)}"
            entries.append(_entry(f"subadditivity:{lbl}", tau[a] + tau[b] - tau[full], tol))
            entries.append(_entry(f"triangle:{lbl}", tau[full] - abs(tau[a] - tau[b]), tol))
        entries.append(
            _entry(
                "reversed-ssa-symmetrized",
                tau[0b001] + tau[0b010] + tau[0b100] + tau[full]
                - tau[0b011] - tau[0b101] - tau[0b110],
                tol,
            )
        )
        parties = (1, 2, 3)
        for b in parties:
            a, c = (p for p in parties if p != b)
            mb = 1 << (b - 1)
            ma, mc = 1 << (a - 1), 1 << (c - 1)
            entries.append(
                _entry(
                    f"weak-monotonicity:{a}|{c} via {b}",
                    tau[ma | mb] + tau[mb | mc] + 2 * tau[full] - tau[ma] - tau[mc],
                    tol,
                )
            )
        for b in parties:
            rest = [p for p in parties if p != b]
            mb = 1 << (b - 1)
            for c in rest:
                a = next(p for p in rest if p != c)
                ma, mc = 1 << (a - 1), 1 << (c - 1)
                entries.append(
                    _entry(
                        f"ssa-corrected:mid={b},double={c}",
                        tau[ma | mb] + tau[mb | mc] + 2 * tau[mc] - tau[mb] - tau[full],
                        tol,
                    )
                )
        for b in parties:
            a, c = (p for p in parties if p != b)
            mb = 1 << (b - 1)
            ma, mc = 1 << (a - 1), 1 << (c - 1)
            lhs = tau[mb] + tau[full]
            rhs = tau[ma | mb] + tau[mb | mc]
            entries.append(
                _entry(f"ssa-analogue:mid={b}", rhs - lhs, tol, theorem=False)
            )
            entries.append(
                _entry(f"ssa-analogue-reversed:mid={b}", lhs - rhs, tol, theorem=False)
            )
    else:
        c2_full = invariant_table(rho).c_squared(full)
        entries.append(_entry("inclusion-exclusion:full", c2_full, tol))
        notes.append(
            f"note: named 2- and 3-party inequality families are skipped for N = {n}; "
            "only the full-mask constraint is reported"
        )
    return ConstraintReport(family="entropy", entries=entries, tolerance=tol, notes=notes)


# ---------------------------------------------------------------------------
# marginal-compatibility witnesses


@dataclass(frozen=True, eq=False)
class MarginalWitness:
    """Signed sum of identity-padded marginals over proper subsets for an
    odd-size mask ``t``.  A joint rho forces the operator to be PSD, so
    a negative minimal eigenvalue certifies incompatible marginals."""

    t: int
    operator: np.ndarray
    min_eig: float

    def __post_init__(self) -> None:
        if self.t.bit_count() % 2 == 0:
            raise ValueError("marginal witnesses exist only for odd-size masks")
        _require_hermitian(self.operator, "witness operator", 1e-9)


def _witness(t: int, out: np.ndarray) -> MarginalWitness:
    return MarginalWitness(t=t, operator=out, min_eig=min_eigenvalue(out))


def _witness_operators(rho: DensityMatrix) -> Iterator[tuple[int, np.ndarray]]:
    """``(T, W_T)`` for every odd-size mask T, in the order of
    :func:`~qinvert.inversion.odd_inversions`: W_T = I_T(rho) + rho (the
    full-set term of I_T(rho) is -rho for odd T), formed in place in the
    fresh inversion, from the state's exactly Hermitian
    :attr:`~qinvert.states.DensityMatrix.operand`.  Each step of the
    factor kernel (a trace in a fixed order, a real scale, a diagonal add)
    and the added rho map conjugate entry pairs to conjugate pairs, so
    every W_T is exactly Hermitian too, and finite, and is not checked
    again."""
    op = rho.operand
    for t, w in odd_inversions(op, rho.dims):
        w += op
        yield t, w
        del w  # not held while the next witness is built


def marginal_witnesses(rho: DensityMatrix) -> list[MarginalWitness]:
    """Witnesses for every odd-size mask, in ascending mask order, from the
    state's own marginals (always PSD up to solver noise for a genuine
    state), with the global state known; built from the state's
    :attr:`~qinvert.states.DensityMatrix.operand`."""
    return sorted((_witness(t, w) for t, w in _witness_operators(rho)), key=lambda w: w.t)


def marginal_witnesses_from_marginals(
    marginals: Mapping[int, np.ndarray],
    dims: SubsystemDims,
) -> list[MarginalWitness]:
    """Witnesses from user-supplied marginals, in ascending mask order.

    Every key must be a proper nonempty subset (an error names any other
    key) and every such subset must be present, finite and Hermitian (an
    error names the marginal); traces must be 1 and overlapping marginals
    must agree on their common reduction within :data:`OVERLAP_TOL`
    (consistency is checked, not assumed), the first disagreeing pair in
    ascending order named.  After its trace check, a marginal whose
    Hermiticity defect is not exactly 0.0 is replaced by its
    :func:`~qinvert.tensor.lower_completion` (as in
    :attr:`~qinvert.states.DensityMatrix.operand`), so no witness sums
    the defects of its terms; exactly Hermitian marginals keep their bits.

    Each marginal is traced once onto each of its overlaps and embedded
    once (the empty set's identity too).  For odd |T| a subset and its
    complement take opposite signs, so W_T is row T' = T without party N
    of the :func:`~qinvert.inversion._butterfly` of y_S = m_S (x) 1 -
    m_{S^c} (x) 1 (y_0 = 1, the full set has no marginal) over the S
    without party N: (N - 1) 2^(N-1) adds.  The operators are views of
    one (2^(N-1), D, D) stack, which the returned list holds anyway.
    """
    full = dims.full_mask
    for s in marginals:
        if not 0 < s < full:
            kind = ("the empty set" if s == 0 else "the full set" if s == full
                    else f"not a mask of the {dims.n} parties")
            raise ValueError(f"marginal key {s} is {kind}; keys are the proper "
                             f"nonempty subsets 1..{full - 1}")
    table: dict[int, np.ndarray] = {}
    for s in range(1, full):
        bits = mask_bitstring(s, dims.n)
        if s not in marginals:
            raise ValueError(f"missing marginal for subset {bits}")
        m = np.asarray(marginals[s], dtype=np.complex128)
        d_s = dims.block_dim(s)
        if m.shape != (d_s, d_s):
            raise ValueError(f"marginal {bits} has shape {m.shape}, expected {(d_s, d_s)}")
        defect = _require_hermitian(m, f"marginal {bits}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > OVERLAP_TOL:
            raise ValueError(f"marginal {bits} has trace {tr}, expected 1")
        table[s] = m if defect == 0.0 else lower_completion(m)

    @functools.cache
    def reduced(s: int, overlap: int) -> np.ndarray:
        return partial_trace(table[s], SubsystemDims(dims.dims_of(s)), relative_mask(overlap, s))

    for s1 in table:
        for s2 in range(s1 + 1, full):
            overlap = s1 & s2
            if overlap == 0:
                continue
            dev = float(np.max(np.abs(reduced(s1, overlap) - reduced(s2, overlap))))
            if dev > OVERLAP_TOL:
                raise ValueError(
                    f"marginals {mask_bitstring(s1, dims.n)} and "
                    f"{mask_bitstring(s2, dims.n)} disagree on their overlap "
                    f"by {dev:.3e}"
                )
    del reduced  # the traced overlaps are not held while the witnesses are built
    half = 1 << (dims.n - 1)
    stack = np.empty((half, dims.total, dims.total), dtype=np.complex128)
    stack[0] = embed(np.ones((1, 1)), 0, dims)
    for s in range(1, half):
        stack[s] = embed(table[s], s, dims)
        stack[s] -= embed(table[full ^ s], full ^ s, dims)
    _butterfly(stack)
    rows = {t if t.bit_count() % 2 else t | half: t for t in range(half)}
    return [_witness(t, stack[rows[t]]) for t in sorted(rows)]


def marginal_report(rho: DensityMatrix, tol: float = PASS_TOL) -> ConstraintReport:
    """2^(N-1) D x D eigen-solves, reported in ascending mask order;
    witnesses are built by :func:`_witness_operators`, exactly Hermitian
    from the validated state, each solved by ``eigvalsh`` with no further
    check and dropped one at a time."""
    values = {}
    for t, w in _witness_operators(rho):
        values[t] = float(np.linalg.eigvalsh(w)[0])
        del w  # not held while the next witness is built
    entries = [_entry(mask_bitstring(t, rho.dims.n), values[t], tol) for t in sorted(values)]
    return ConstraintReport(family="marginal", entries=entries, tolerance=tol)


# ---------------------------------------------------------------------------
# functional independence of the constraint family


def independence_rank(n: int, d: int = 2) -> int:
    """Numerical rank of the squared invariants over the pin-or-mix family
    (:func:`~qinvert.zoo.pinned_mix_table`); full rank 2^n certifies that
    no nontrivial linear combination of the constraints vanishes identically."""
    if not 1 <= n <= 5:
        raise ValueError("dense independence evaluation supports 1 <= n <= 5")
    return numerical_rank(pinned_mix_table(n, d))


def independence_rank_pure(n: int) -> int:
    """Companion rank test on the reduced states of the pinned GHZ family
    (:func:`~qinvert.zoo.pinned_ghz_tables`); the expected value is 2^(n-1)."""
    if not 2 <= n <= 5:
        raise ValueError("the pure-family rank test supports 2 <= n <= 5")
    return numerical_rank(pinned_ghz_tables(n)[1])


def numerical_rank(matrix: np.ndarray) -> int:
    """Number of singular values above 1e-8 of the largest: the rank
    verdict of both independence tests."""
    sigma = np.linalg.svd(matrix, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.sum(sigma > 1e-8 * sigma[0]))
