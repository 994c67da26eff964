"""Correctness gate: the report lines every op must print, built from
:mod:`perfbench.reference`, and the strict comparison against them.

A report line is checked for strict JSON (``NaN`` and ``Infinity`` are
refused), for the README key order, for its command, family and label,
for the threshold and tolerance the contract fixes, for
``margin == value - threshold`` and ``pass == (margin >= -tolerance)``,
and for its value against the reference.  ``elapsed_ms`` is ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import reference as ref

REPORT_KEYS = (
    "command", "family", "label", "value", "threshold", "margin", "pass",
    "tolerance", "elapsed_ms",
)
EXTRA_KEYS = {"invariants": ("c", "clamped"), "detect": ("verdict",)}
CHECK_FAMILIES = ("correlation", "monogamy", "shadow", "entropy", "marginal")
TOL = 1e-9
VALUE_TOL = 1e-9


@dataclass
class Row:
    """One expected report line.  ``value`` None means the value is
    bounded only through ``threshold``/``tolerance`` and ``passed``."""

    command: str
    family: str
    label: str
    value: float | None
    threshold: float = 0.0
    tolerance: float = TOL
    passed: bool | None = True
    extras: dict = field(default_factory=dict)


class GateError(Exception):
    """An op's output disagrees with its expectation."""


def _reject_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_loads(text: str):
    """json.loads that refuses NaN and +/-Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def parse_report(text: str) -> list[dict]:
    rows = []
    for n, line in enumerate(text.splitlines(), 1):
        try:
            obj = strict_loads(line)
        except ValueError as exc:
            raise GateError(f"line {n}: {exc}") from exc
        if not isinstance(obj, dict):
            raise GateError(f"line {n}: not a JSON object")
        rows.append(obj)
    return rows


def _close(got, want: float) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= VALUE_TOL * max(1.0, abs(want))


def check_report(text: str, expected: list[Row]) -> list[dict]:
    """Return the parsed lines; raise GateError on the first
    disagreement between ``text`` and ``expected``."""
    rows = parse_report(text)
    if len(rows) != len(expected):
        raise GateError(f"{len(rows)} report lines, expected {len(expected)}")
    for n, (got, want) in enumerate(zip(rows, expected), 1):
        keys = REPORT_KEYS + EXTRA_KEYS.get(want.command, ())
        if tuple(got) != keys:
            raise GateError(f"line {n}: keys {list(got)}, expected {list(keys)}")
        for key in ("command", "family", "label", "threshold", "tolerance", "pass"):
            wanted = getattr(want, "passed" if key == "pass" else key)
            if got[key] != wanted:
                raise GateError(f"line {n} ({want.label}): {key} {got[key]!r}, expected {wanted!r}")
        value, margin = got["value"], got["margin"]
        if not isinstance(value, (int, float)) or margin != value - want.threshold:
            raise GateError(f"line {n} ({want.label}): margin {margin!r} != value - threshold")
        if got["pass"] is not None and got["pass"] != (margin >= -want.tolerance):
            raise GateError(f"line {n} ({want.label}): pass disagrees with the margin")
        if want.value is not None and not _close(value, want.value):
            raise GateError(f"line {n} ({want.label}): value {value!r}, reference {want.value!r}")
        for key, check in want.extras.items():
            if not check(got[key], got):
                raise GateError(f"line {n} ({want.label}): {key} {got[key]!r} is wrong")
    return rows


def bitstring(mask: int, n: int) -> str:
    return "".join("1" if mask >> j & 1 else "0" for j in range(n))


def _note(command: str, family: str, label: str) -> Row:
    return Row(command, family, label, 0.0, passed=None)


# ---------------------------------------------------------------------------
# expected lines per subcommand


def check_rows(
    rho: np.ndarray, c2: np.ndarray, dims: tuple[int, ...], families: tuple[str, ...],
    pure: bool,
) -> list[Row]:
    """``check`` on a genuine state ``rho`` with squared invariants
    ``c2``: every theorem-backed entry passes."""
    n = len(dims)
    full = (1 << n) - 1
    rows: list[Row] = []
    for fam in (f for f in CHECK_FAMILIES if f in families):
        if fam == "correlation" or (fam == "monogamy" and not pure):
            if fam == "monogamy":
                rows.append(_note("check", "monogamy",
                                  "warning: mixed state; monogamy downgraded to correlation"))
            rows += [Row("check", "correlation", bitstring(t, n), c2[t]) for t in range(1, full + 1)]
        elif fam == "monogamy":
            # pure state: the full-set linear entropy vanishes, so the
            # monogamy sum is twice the correlation sum
            rows += [Row("check", "monogamy", bitstring(t, n), 2.0 * c2[t]) for t in range(1, full + 1)]
        elif fam == "shadow":
            rows += [Row("check", "shadow", bitstring(t, n), c2[t]) for t in range(full + 1)]
        elif fam == "entropy":
            rows += _entropy_rows(c2, n)
        else:
            eigs = ref.witness_min_eigs(rho, dims)
            rows += [Row("check", "marginal", bitstring(t, n), eigs[t]) for t in sorted(eigs)]
    return rows


def _pset(mask: int) -> str:
    return "".join(str(j + 1) for j in range(mask.bit_length()) if mask >> j & 1)


def _entropy_rows(c2: np.ndarray, n: int) -> list[Row]:
    full = (1 << n) - 1
    if n != 3:
        if n < 3:
            raise ValueError("the benchmark's entropy reference covers N >= 3")
        return [
            _note("check", "entropy",
                  f"note: named 2- and 3-party inequality families are skipped for N = {n}; "
                  "only the full-mask constraint is reported"),
            Row("check", "entropy", "inclusion-exclusion:full", c2[full]),
        ]
    tau = ref.linear_entropies(c2, n)

    def t(*parties: int) -> float:
        return tau[sum(1 << (p - 1) for p in parties)]

    rows = []
    for a in (1, 2, 3):
        b = full ^ 1 << (a - 1)
        lbl = f"{a}|{_pset(b)}"
        rows.append(Row("check", "entropy", f"subadditivity:{lbl}", t(a) + tau[b] - tau[full]))
        rows.append(Row("check", "entropy", f"triangle:{lbl}", tau[full] - abs(t(a) - tau[b])))
    rows.append(Row("check", "entropy", "reversed-ssa-symmetrized",
                    t(1) + t(2) + t(3) + tau[full] - t(1, 2) - t(1, 3) - t(2, 3)))
    for b in (1, 2, 3):
        a, c = (p for p in (1, 2, 3) if p != b)
        rows.append(Row("check", "entropy", f"weak-monotonicity:{a}|{c} via {b}",
                        t(a, b) + t(b, c) + 2 * tau[full] - t(a) - t(c)))
    for b in (1, 2, 3):
        rest = [p for p in (1, 2, 3) if p != b]
        for c in rest:
            a = next(p for p in rest if p != c)
            rows.append(Row("check", "entropy", f"ssa-corrected:mid={b},double={c}",
                            t(a, b) + t(b, c) + 2 * t(c) - t(b) - tau[full]))
    for b in (1, 2, 3):
        a, c = (p for p in (1, 2, 3) if p != b)
        gap = t(a, b) + t(b, c) - t(b) - tau[full]
        rows.append(Row("check", "entropy", f"ssa-analogue:mid={b}", gap, passed=None))
        rows.append(Row("check", "entropy", f"ssa-analogue-reversed:mid={b}", -gap, passed=None))
    return rows


def invariants_rows(c2: np.ndarray, dims: tuple[int, ...]) -> list[Row]:
    n = len(dims)
    rows = []
    for t, want in enumerate(c2):
        floor = max(float(want), 0.0)
        extras = {
            "c": lambda c, _, floor=floor: isinstance(c, float) and _close(c * c, floor),
            "clamped": lambda flag, row: flag is False or (flag is True and row["value"] == 0.0),
        }
        rows.append(Row("invariants", "invariants", bitstring(t, n), float(want), extras=extras))
    return rows


def detect_rows(
    rho: np.ndarray, dims: tuple[int, ...], act_on: tuple[int, ...], t: tuple[int, ...]
) -> list[Row]:
    low = ref.detection_min_eig(rho, dims, act_on, t)
    label = f"act_on={','.join(map(str, act_on))};t={','.join(map(str, t))}"
    verdict = "detected" if low < -TOL else "inconclusive"
    return [Row("detect", "detection", label, low, passed=None,
                extras={"verdict": lambda v, _: v == verdict})]


def verify_rows(dims: tuple[int, ...], size: int, seed: int) -> list[Row]:
    """``verify`` with every suite.  Deviation rows are bounded by their
    fixed thresholds; the positivity row is recomputed here."""
    n_eff = min(len(dims), 4)
    low = min(
        ref.inversion_min_eig(ref.ginibre(dims, seed, k), dims) for k in range(size)
    )
    rows = [
        Row("verify", "cross_form", "max deviation between forms", None, -1e-10, 0.0),
        Row("verify", "positivity", "worst min eigenvalue of inverted states", low, 0.0, TOL),
        Row("verify", "parity", "max parity-sum residual", None, -1e-11, 0.0),
        Row("verify", "factorization", "max product-state factorization residual",
            None, -1e-11, 0.0),
        Row("verify", "independence", f"pin-or-mix family rank at n={n_eff}", 0.0, 0.0, 0.0),
    ]
    if n_eff >= 2:
        rows.append(Row("verify", "independence", f"pinned-GHZ family rank at n={n_eff}",
                        0.0, 0.0, 0.0))
    rows.append(Row("verify", "closed_form", f"max closed-form residual at n={n_eff}",
                    None, -1e-10, 0.0))
    rows.append(Row("verify", "summary", "worst margin", None, 0.0, 0.0))
    return rows


def check_state_file(text: str, dims: tuple[int, ...], want: np.ndarray) -> None:
    """A mixed-state file written by ``make-state`` holds ``want``."""
    try:
        obj = strict_loads(text)
    except ValueError as exc:
        raise GateError(f"state file: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("dims") != list(dims) or obj.get("kind") != "mixed":
        raise GateError("state file: wrong dims or kind")
    try:
        got = np.array([[complex(re, im) for re, im in row] for row in obj["data"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise GateError(f"state file: malformed data: {exc}") from exc
    if got.shape != want.shape or not np.allclose(got, want, rtol=0.0, atol=1e-12):
        raise GateError("state file: entries differ from the seeded recipe")
