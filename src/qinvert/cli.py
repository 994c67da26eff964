"""Command-line interface.

check, invariants, detect and verify hand ConstraintReports to one writer,
which emits one JSON object per line with a stable key order: command,
family, label, value, threshold, margin, pass, tolerance, elapsed_ms (then
c, clamped for invariants and verdict for detect).  A line passes when
value - threshold >= -tolerance; non-theorem lines, such as the entropy
falsifiers and every detect line, carry pass null.  elapsed_ms is the
line's share of the time taken to produce its report.  Exit codes, the same
for every subcommand: 0 every theorem-backed line passes, 1 some line
prints pass false, 2 input error (reported before any line is written).

The environment variable QINVERT_DIM_CAP overrides the total-dimension
cap (default 4096).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import IO, Iterable, Iterator

import numpy as np

from .constraints import (
    FAMILIES,
    PASS_TOL,
    ConstraintReport,
    ReportEntry,
    _entry,
    correlation_report,
    entropy_inequalities,
    independence_rank,
    independence_rank_pure,
    marginal_report,
    monogamy_report,
    shadow_report,
)
from .dims import DEFAULT_DIM_CAP, SubsystemDims, mask_bitstring, parse_party_list, relative_mask
from .invariants import invariant_table
from .inversion import (
    DetectionParams, apply_detection_map, invert_product, reference_inversions
)
from .io import StateFileError, read_state_file, write_state_file
from .states import DensityMatrix, PureState
from .tensor import block_product, min_eigenvalue
from .zoo import (
    StateRecipe,
    assemble_product,
    build,
    ginibre_mixed,
    pinned_ghz_invariant,
    pinned_ghz_state,
    pinned_mix_invariant,
    pinned_mix_state,
    stream_rng,
)

CAP_ENV_VAR = "QINVERT_DIM_CAP"


def _dim_cap() -> int:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{CAP_ENV_VAR}={raw!r} is not an integer") from exc


def _emit(stream: IO[str], command: str, report: ConstraintReport,
          e: ReportEntry, elapsed_ms: float) -> None:
    obj = {
        "command": command,
        "family": report.family,
        "label": e.label,
        "value": e.value,
        "threshold": e.threshold,
        "margin": e.margin,
        "pass": e.passed if e.theorem else None,
        "tolerance": report.tolerance,
        "elapsed_ms": round(elapsed_ms, 3),
        **(e.extra or {}),
    }
    stream.write(json.dumps(obj, allow_nan=False) + "\n")


def _write_reports(out: str | None, command: str, reports: Iterable[ConstraintReport]) -> int:
    """Write the note and entry lines of every report to ``out`` (stdout
    for None or "-"); each entry's ``elapsed_ms`` is its share of the time
    taken to produce its report.  Returns the exit code: 1 when some
    theorem-backed entry fails, else 0."""
    stream = sys.stdout if out in (None, "-") else open(out, "w", encoding="utf-8")
    failed = False
    try:
        t0 = time.perf_counter()
        for report in reports:
            share = (time.perf_counter() - t0) * 1e3 / max(len(report.entries), 1)
            for note in report.notes:
                _emit(stream, command, report, ReportEntry(note, 0.0, 0.0, 0.0, True, False), 0.0)
            for e in report.entries:
                _emit(stream, command, report, e, share)
            failed = failed or not report.all_pass
            t0 = time.perf_counter()
    finally:
        if stream is not sys.stdout:
            stream.close()
    return 1 if failed else 0


def _tolerance(tol: float) -> float:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"--tol must be a finite number >= 0, got {tol}")
    return tol


def _select(text: str | None, valid: tuple[str, ...], what: str, option: str) -> list[str]:
    """The entries of ``valid`` named in the comma list ``text`` (all of
    them when it is None), in the order of ``valid``."""
    names = valid if text is None else [x.strip() for x in text.split(",") if x.strip()]
    if not names:
        raise ValueError(f"{option} names no {what}; valid: {', '.join(valid)}")
    for name in names:
        if name not in valid:
            raise ValueError(f"unknown {what} {name!r}; valid: {', '.join(valid)}")
    return [x for x in valid if x in names]


def _seed(seed: int | None) -> int | None:
    if seed is not None and seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {seed}")
    return seed


def _read_state(path: str) -> DensityMatrix | PureState:
    return read_state_file(path, cap=_dim_cap())


def _parse_dims(text: str) -> SubsystemDims:
    try:
        dims = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse dims {text!r}") from exc
    return SubsystemDims(dims, cap=_dim_cap())


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args: argparse.Namespace) -> int:
    tol = _tolerance(args.tol)
    state = _read_state(args.state)
    families = _select(args.families, FAMILIES, "family", "--families")
    needs_matrix = isinstance(state, PureState) and {"shadow", "marginal"} & set(families)
    rho = state.density() if needs_matrix else state

    def reports() -> Iterator[ConstraintReport]:
        for fam in families:
            if fam == "correlation":
                yield correlation_report(state, tol=tol)
            elif fam == "monogamy" and isinstance(state, PureState):
                yield monogamy_report(state, tol=tol)
            elif fam == "monogamy":
                yield ConstraintReport("monogamy", [], tol, [
                    "warning: mixed state; monogamy downgraded to correlation"])
                yield correlation_report(state, tol=tol)
            elif fam == "shadow":
                yield shadow_report(rho.matrix, rho.matrix, rho.dims, tol=tol)
            elif fam == "entropy":
                yield entropy_inequalities(state, tol=tol)
            else:
                yield marginal_report(rho, tol=tol)

    return _write_reports(args.out, "check", reports())


def cmd_invariants(args: argparse.Namespace) -> int:
    tol = _tolerance(args.tol)
    state = _read_state(args.state)
    if args.masks == "all":
        masks = list(state.dims.subset_masks())
    else:
        tokens = [tok.strip() for tok in args.masks.split(";")]
        if "" in tokens:
            raise ValueError(f'--masks token {tokens.index("") + 1} is empty; '
                             '"0" names the empty mask')
        masks = [state.dims.validate_mask(0 if tok == "0" else parse_party_list(tok))
                 for tok in tokens]

    def reports() -> Iterator[ConstraintReport]:
        table = invariant_table(state)
        entries = [
            _entry(mask_bitstring(t, state.dims.n), table.c_squared_clamped(t), tol,
                   extra={"c": table.c(t), "clamped": table.was_clamped(t)})
            for t in masks
        ]
        yield ConstraintReport("invariants", entries, tol)

    return _write_reports(args.out, "invariants", reports())


def cmd_detect(args: argparse.Namespace) -> int:
    tol = _tolerance(args.tol)
    state = _read_state(args.state)
    rho = state if isinstance(state, DensityMatrix) else state.density()
    act_on = rho.dims.validate_mask(parse_party_list(args.act_on))
    if act_on == 0:
        raise ValueError("--act-on must name at least one party")
    t = rho.dims.validate_mask(parse_party_list(args.t)) if args.t else 0
    alpha = _parse_weights(args.alpha, "--alpha")
    beta = _parse_weights(args.beta, "--beta")
    params = DetectionParams(t=t, act_on=act_on, alpha=alpha, beta=beta)

    def reports() -> Iterator[ConstraintReport]:
        low = min_eigenvalue(apply_detection_map(rho.matrix, rho.dims, params))
        verdict = "detected" if low < -tol else "inconclusive"
        yield ConstraintReport("detection", [
            _entry(f"act_on={args.act_on};t={args.t or ''}", low, tol, theorem=False,
                   extra={"verdict": verdict})], tol)

    return _write_reports(args.out, "detect", reports())


def _parse_weights(text: str | None, option: str) -> dict[int, float] | float:
    """Weights as a scalar ("1.0") or per-party pairs ("2:1.0,3:0.5")."""
    if text is None:
        return 1.0
    if ":" not in text:
        try:
            return float(text)
        except ValueError:
            raise ValueError(f"{option} {text!r} is not a weight or party:weight list") from None
    table = {}
    for tok in text.split(","):
        party, _, weight = tok.partition(":")
        try:
            key, value = int(party), float(weight)
        except ValueError:
            raise ValueError(f"{option} token {tok!r} is not a party:weight pair") from None
        if key in table:
            raise ValueError(f"{option} names party {key} more than once")
        table[key] = value
    return table


def cmd_verify(args: argparse.Namespace) -> int:
    dims = _parse_dims(args.dims)
    if args.size < 1:
        raise ValueError(f"--size must be at least 1, got {args.size}")
    seed = _seed(args.seed)
    suites = _select(args.suites, VERIFY_SUITES, "suite", "--suites")

    def reports() -> Iterator[ConstraintReport]:
        rows: list[ReportEntry] = []
        for suite in suites:
            report = _run_suite(suite, dims, args.size, seed)
            rows += report.entries
            yield report
        worst = min(e.margin for e in rows)
        summary = ReportEntry("worst margin", worst, 0.0, worst, all(e.passed for e in rows))
        yield ConstraintReport("summary", [summary], 0.0)

    return _write_reports(args.out, "verify", reports())


def _cross_form(dims: SubsystemDims, size: int, seed: int) -> list[tuple[str, float, float]]:
    dev = 0.0
    for k in range(size):
        rho = ginibre_mixed(dims, seed, member=k)
        for t, ref, kraus in reference_inversions(rho.matrix, dims):
            dev = max(dev, float(np.max(np.abs(ref - invert_product(rho.matrix, dims, t)))))
            dev = max(dev, float(np.max(np.abs(ref - kraus))))
    return [("max deviation between forms", -dev, -1e-10)]


def _positivity(dims: SubsystemDims, size: int, seed: int) -> list[tuple[str, float, float]]:
    low = math.inf
    for k in range(size):
        rho = ginibre_mixed(dims, seed, member=k)
        for t in dims.subset_masks():
            low = min(low, min_eigenvalue(invert_product(rho.matrix, dims, t)))
    return [("worst min eigenvalue of inverted states", low, 0.0)]


def _parity(dims: SubsystemDims, size: int, seed: int) -> list[tuple[str, float, float]]:
    dev = 0.0
    masks = list(dims.subset_masks())
    eye = np.eye(dims.total)
    scale = 2.0 ** (1 - dims.n)
    for k in range(size):
        rho = ginibre_mixed(dims, seed, member=k)
        odd = sum(invert_product(rho.matrix, dims, t) for t in masks if t.bit_count() % 2)
        even = sum(invert_product(rho.matrix, dims, t) for t in masks if not t.bit_count() % 2)
        dev = max(dev, float(np.max(np.abs(scale * odd - (eye - rho.matrix)))))
        dev = max(dev, float(np.max(np.abs(scale * even - (eye + rho.matrix)))))
    return [("max parity-sum residual", -dev, -1e-11)]


def _factorization(dims: SubsystemDims, size: int, seed: int) -> list[tuple[str, float, float]]:
    if dims.n < 2:
        return [("skipped: needs at least 2 parties", 0.0, 0.0)]
    dev = 0.0
    rng = stream_rng(seed, 10_001)
    for k in range(size):
        s = int(rng.integers(1, dims.full_mask))
        sc = dims.full_mask ^ s
        rho_s = ginibre_mixed(SubsystemDims(dims.dims_of(s)), seed, member=2 * k)
        rho_c = ginibre_mixed(SubsystemDims(dims.dims_of(sc)), seed, member=2 * k + 1)
        prod = assemble_product(dims, {s: rho_s.matrix, sc: rho_c.matrix})
        for t in dims.subset_masks():
            lhs = invert_product(prod.matrix, dims, t)
            rhs_s = invert_product(rho_s.matrix, rho_s.dims, relative_mask(t, s))
            rhs_c = invert_product(rho_c.matrix, rho_c.dims, relative_mask(t, sc))
            rhs = block_product({s: rhs_s, sc: rhs_c}, dims)
            dev = max(dev, float(np.max(np.abs(lhs - rhs))))
    return [("max product-state factorization residual", -dev, -1e-11)]


def _independence(dims: SubsystemDims, size: int, seed: int) -> list[tuple[str, float, float]]:
    n_eff = min(dims.n, 4)
    rank = independence_rank(n_eff)
    rows = [(f"pin-or-mix family rank at n={n_eff}", float(rank - (1 << n_eff)), 0.0)]
    if n_eff >= 2:
        rank_pure = independence_rank_pure(n_eff)
        rows.append((f"pinned-GHZ family rank at n={n_eff}",
                     float(rank_pure - (1 << (n_eff - 1))), 0.0))
    return rows


def _closed_form(dims: SubsystemDims, size: int, seed: int) -> list[tuple[str, float, float]]:
    n_eff = min(dims.n, 4)
    dev = 0.0
    for pins in range(1 << n_eff):
        table = invariant_table(pinned_mix_state(n_eff, pins))
        for t in range(1 << n_eff):
            dev = max(dev, abs(table.c_squared(t) - pinned_mix_invariant(n_eff, pins, t)))
    if n_eff >= 2:
        for idx in range(1 << (n_eff - 1)):
            pins = idx << 1
            table = invariant_table(pinned_ghz_state(n_eff, pins).density())
            for t in range(1 << n_eff):
                dev = max(dev, abs(table.c_squared(t) - pinned_ghz_invariant(n_eff, pins, t)))
    return [(f"max closed-form residual at n={n_eff}", -dev, -1e-10)]


_SUITES = {
    "cross_form": (_cross_form, 0.0),
    "positivity": (_positivity, 1e-9),
    "parity": (_parity, 0.0),
    "factorization": (_factorization, 0.0),
    "independence": (_independence, 0.0),
    "closed_form": (_closed_form, 0.0),
}
VERIFY_SUITES = tuple(_SUITES)


def _run_suite(suite: str, dims: SubsystemDims, size: int, seed: int) -> ConstraintReport:
    """One verification battery as a report.  A battery returns (label,
    value, threshold) rows, judged at the suite's tolerance; deviation rows
    are value = -deviation against threshold = -limit."""
    battery, tol = _SUITES[suite]
    rows = [_entry(label, value, tol, threshold=threshold)
            for label, value, threshold in battery(dims, size, seed)]
    return ConstraintReport(suite, rows, tol)


def cmd_make_state(args: argparse.Namespace) -> int:
    dims = _parse_dims(args.dims)
    s = dims.validate_mask(parse_party_list(args.s)) if args.s else None
    recipe = StateRecipe(
        kind=args.kind, dims=dims, s=s, seed=_seed(args.seed), rank=args.rank
    )
    state = build(recipe)
    if args.out is None or args.out == "-":
        from .io import state_to_dict

        sys.stdout.write(json.dumps(state_to_dict(state, label=args.label)) + "\n")
    else:
        write_state_file(args.out, state, label=args.label)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qinvert",
        description=(
            "Evaluate inversion-map constraint families (correlation, monogamy, "
            "shadow, entropy, marginal) on multipartite quantum states."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run constraint families on a state file")
    p.add_argument("--state", required=True, help="path to a JSON state file")
    p.add_argument("--families", default=None,
                   help=f"comma list from: {', '.join(FAMILIES)} (default: all)")
    p.add_argument("--tol", type=float, default=PASS_TOL)
    p.add_argument("--out", default=None, help="report file (default: stdout)")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("invariants", help="squared invariants for subset masks")
    p.add_argument("--state", required=True)
    p.add_argument("--masks", default="all",
                   help='"all" or semicolon-separated party lists, e.g. "1;2;1,2" '
                        '("0" is the empty mask)')
    p.add_argument("--tol", type=float, default=PASS_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("detect", help="apply the tunable detection map")
    p.add_argument("--state", required=True)
    p.add_argument("--act-on", dest="act_on", required=True,
                   help="party list the map acts on, e.g. \"2\"")
    p.add_argument("--t", default=None, help="parties with the minus sign")
    p.add_argument("--alpha", default=None,
                   help='scalar or per-party pairs "2:1.0,3:0.5" (default 1.0)')
    p.add_argument("--beta", default=None, help="same format as --alpha")
    p.add_argument("--tol", type=float, default=PASS_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("verify", help="seeded self-verification campaigns")
    p.add_argument("--dims", required=True, help='local dimensions, e.g. "2,2,2"')
    p.add_argument("--size", type=int, default=100, help="ensemble size per suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--suites", default=None,
                   help=f"comma list from: {', '.join(VERIFY_SUITES)} (default: all)")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("make-state", help="emit a state file for a recipe")
    p.add_argument("--kind", required=True)
    p.add_argument("--dims", required=True)
    p.add_argument("--s", default=None, help="party list for recipes that need one")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--label", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_make_state)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (StateFileError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
