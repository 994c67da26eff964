"""Command-line interface.

Reports are emitted as one JSON object per line with a stable key order:
command, family, label, value, threshold, margin, pass, tolerance,
elapsed_ms (plus documented extras for some commands).  Exit codes:
0 all theorem-backed entries pass, 1 at least one fails, 2 input error.

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
from typing import IO

import numpy as np

from .constraints import (
    FAMILIES,
    PASS_TOL,
    ConstraintReport,
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
    DetectionParams, apply_detection_map, invert_kraus, invert_product, invert_sum
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

VERIFY_SUITES = (
    "cross_form",
    "positivity",
    "parity",
    "factorization",
    "independence",
    "closed_form",
)


def _dim_cap() -> int:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{CAP_ENV_VAR}={raw!r} is not an integer") from exc


def _emit(
    stream: IO[str],
    command: str,
    family: str,
    label: str,
    value: float,
    threshold: float,
    margin: float,
    passed: bool | None,
    tolerance: float,
    elapsed_ms: float,
    extra: dict | None = None,
) -> None:
    obj = {
        "command": command,
        "family": family,
        "label": label,
        "value": value,
        "threshold": threshold,
        "margin": margin,
        "pass": passed,
        "tolerance": tolerance,
        "elapsed_ms": round(elapsed_ms, 3),
    }
    if extra:
        obj.update(extra)
    stream.write(json.dumps(obj, allow_nan=False) + "\n")


def _emit_report(
    stream: IO[str], command: str, report: ConstraintReport, elapsed_ms: float
) -> None:
    share = elapsed_ms / max(len(report.entries), 1)
    for note in report.notes:
        _emit(stream, command, report.family, f"note: {note}", 0.0, 0.0, 0.0,
              None, report.tolerance, 0.0)
    for e in report.entries:
        _emit(
            stream,
            command,
            report.family,
            e.label,
            e.value,
            e.threshold,
            e.margin,
            e.passed if e.theorem else None,
            report.tolerance,
            share,
        )


def _tolerance(tol: float) -> float:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"--tol must be a finite number >= 0, got {tol}")
    return tol


def _select(text: str | None, valid: tuple[str, ...], what: str) -> list[str]:
    """The entries of ``valid`` named in the comma list ``text`` (all of
    them when it is None), in the order of ``valid``."""
    names = valid if text is None else [x.strip() for x in text.split(",") if x.strip()]
    for name in names:
        if name not in valid:
            raise ValueError(f"unknown {what} {name!r}; valid: {', '.join(valid)}")
    return [x for x in valid if x in names]


def _read_state(path: str) -> tuple[DensityMatrix | PureState, DensityMatrix]:
    """The state file's state and its density matrix."""
    state = read_state_file(path, cap=_dim_cap())
    return state, (state if isinstance(state, DensityMatrix) else state.density())


def _parse_dims(text: str, cap: int) -> SubsystemDims:
    try:
        dims = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse dims {text!r}") from exc
    return SubsystemDims(dims, cap=cap)


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args: argparse.Namespace) -> int:
    tol = _tolerance(args.tol)
    state, rho = _read_state(args.state)
    families = _select(args.families, FAMILIES, "family")
    stream, close = _open_out(args.out)
    failed = False
    try:
        for fam in families:
            t0 = time.perf_counter()
            if fam == "correlation":
                report = correlation_report(rho, tol=tol)
            elif fam == "monogamy":
                if isinstance(state, PureState):
                    report = monogamy_report(state, tol=tol)
                else:
                    _emit(stream, "check", "monogamy",
                          "warning: mixed state; monogamy downgraded to correlation",
                          0.0, 0.0, 0.0, None, tol, 0.0)
                    report = correlation_report(rho, tol=tol)
            elif fam == "shadow":
                report = shadow_report(rho.matrix, rho.matrix, rho.dims, tol=tol)
            elif fam == "entropy":
                report = entropy_inequalities(rho, tol=tol)
            else:
                report = marginal_report(rho, tol=tol)
            elapsed = (time.perf_counter() - t0) * 1e3
            _emit_report(stream, "check", report, elapsed)
            if not report.all_pass:
                failed = True
    finally:
        if close:
            stream.close()
    return 1 if failed else 0


def cmd_invariants(args: argparse.Namespace) -> int:
    tol = _tolerance(args.tol)
    _, rho = _read_state(args.state)
    n = rho.dims.n
    if args.masks == "all":
        masks = list(rho.dims.subset_masks())
    else:
        masks = []
        for tok in args.masks.split(";"):
            tok = tok.strip()
            mask = 0 if tok in ("", "0") else parse_party_list(tok)
            masks.append(rho.dims.validate_mask(mask))
    stream, close = _open_out(args.out)
    try:
        t0 = time.perf_counter()
        table = invariant_table(rho)
        elapsed = (time.perf_counter() - t0) * 1e3
        share = elapsed / max(len(masks), 1)
        for t in masks:
            value = table.c_squared_clamped(t)
            _emit(
                stream,
                "invariants",
                "invariants",
                mask_bitstring(t, n),
                value,
                0.0,
                value,
                value >= -tol,
                tol,
                share,
                extra={"c": table.c(t), "clamped": table.was_clamped(t)},
            )
    finally:
        if close:
            stream.close()
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    tol = _tolerance(args.tol)
    _, rho = _read_state(args.state)
    act_on = rho.dims.validate_mask(parse_party_list(args.act_on))
    t = rho.dims.validate_mask(parse_party_list(args.t)) if args.t else 0
    alpha = _parse_weights(args.alpha)
    beta = _parse_weights(args.beta)
    params = DetectionParams(t=t, act_on=act_on, alpha=alpha, beta=beta)
    stream, close = _open_out(args.out)
    try:
        t0 = time.perf_counter()
        out = apply_detection_map(rho.matrix, rho.dims, params)
        low = min_eigenvalue(out)
        elapsed = (time.perf_counter() - t0) * 1e3
        verdict = "detected" if low < -tol else "inconclusive"
        _emit(
            stream,
            "detect",
            "detection",
            f"act_on={args.act_on};t={args.t or ''}",
            low,
            0.0,
            low,
            None,
            tol,
            elapsed,
            extra={"verdict": verdict},
        )
    finally:
        if close:
            stream.close()
    return 0


def _parse_weights(text: str | None) -> dict[int, float] | float:
    """Weights as a scalar ("1.0") or per-party pairs ("2:1.0,3:0.5")."""
    if text is None:
        return 1.0
    if ":" not in text:
        return float(text)
    table = {}
    for tok in text.split(","):
        party, _, weight = tok.partition(":")
        table[int(party)] = float(weight)
    return table


def cmd_verify(args: argparse.Namespace) -> int:
    cap = _dim_cap()
    dims = _parse_dims(args.dims, cap)
    size = args.size
    if size < 1:
        raise ValueError(f"--size must be at least 1, got {size}")
    seed = args.seed
    suites = _select(args.suites, VERIFY_SUITES, "suite")
    stream, close = _open_out(args.out)
    all_pass = True
    worst_margin = math.inf
    try:
        for suite in suites:
            t0 = time.perf_counter()
            lines = _run_suite(suite, dims, size, seed)
            elapsed = (time.perf_counter() - t0) * 1e3
            for label, value, threshold, tol in lines:
                margin = value - threshold
                passed = margin >= -tol
                all_pass = all_pass and passed
                worst_margin = min(worst_margin, margin)
                _emit(stream, "verify", suite, label, value, threshold, margin,
                      passed, tol, elapsed / len(lines))
        _emit(stream, "verify", "summary", "worst margin", worst_margin, 0.0,
              worst_margin, all_pass, 0.0, 0.0)
    finally:
        if close:
            stream.close()
    return 0 if all_pass else 1


def _run_suite(
    suite: str, dims: SubsystemDims, size: int, seed: int
) -> list[tuple[str, float, float, float]]:
    """Run one verification battery; returns (label, value, threshold,
    tolerance) rows where pass means value - threshold >= -tolerance.
    Deviation-style rows are encoded as value = -deviation against
    threshold = -limit with zero slack."""
    n = dims.n
    masks = list(dims.subset_masks())
    if suite == "cross_form":
        dev = 0.0
        for k in range(size):
            rho = ginibre_mixed(dims, seed, member=k)
            for t in masks:
                ref = invert_sum(rho.matrix, dims, t)
                dev = max(dev, float(np.max(np.abs(ref - invert_product(rho.matrix, dims, t)))))
                dev = max(dev, float(np.max(np.abs(ref - invert_kraus(rho.matrix, dims, t)))))
        return [("max deviation between forms", -dev, -1e-10, 0.0)]
    if suite == "positivity":
        low = math.inf
        for k in range(size):
            rho = ginibre_mixed(dims, seed, member=k)
            for t in masks:
                low = min(low, min_eigenvalue(invert_product(rho.matrix, dims, t)))
        return [("worst min eigenvalue of inverted states", low, 0.0, 1e-9)]
    if suite == "parity":
        dev = 0.0
        eye = np.eye(dims.total)
        scale = 2.0 ** (1 - n)
        for k in range(size):
            rho = ginibre_mixed(dims, seed, member=k)
            odd = sum(invert_product(rho.matrix, dims, t) for t in masks if t.bit_count() % 2)
            even = sum(invert_product(rho.matrix, dims, t) for t in masks if not t.bit_count() % 2)
            dev = max(dev, float(np.max(np.abs(scale * odd - (eye - rho.matrix)))))
            dev = max(dev, float(np.max(np.abs(scale * even - (eye + rho.matrix)))))
        return [("max parity-sum residual", -dev, -1e-11, 0.0)]
    if suite == "factorization":
        if n < 2:
            return [("skipped: needs at least 2 parties", 0.0, 0.0, 0.0)]
        dev = 0.0
        rng = stream_rng(seed, 10_001)
        for k in range(size):
            s = int(rng.integers(1, dims.full_mask))
            sc = dims.full_mask ^ s
            rho_s = ginibre_mixed(SubsystemDims(dims.dims_of(s)), seed, member=2 * k)
            rho_c = ginibre_mixed(SubsystemDims(dims.dims_of(sc)), seed, member=2 * k + 1)
            prod = assemble_product(dims, {s: rho_s.matrix, sc: rho_c.matrix})
            for t in masks:
                lhs = invert_product(prod.matrix, dims, t)
                rhs_s = invert_product(rho_s.matrix, rho_s.dims, relative_mask(t, s))
                rhs_c = invert_product(rho_c.matrix, rho_c.dims, relative_mask(t, sc))
                rhs = block_product({s: rhs_s, sc: rhs_c}, dims)
                dev = max(dev, float(np.max(np.abs(lhs - rhs))))
        return [("max product-state factorization residual", -dev, -1e-11, 0.0)]
    if suite == "independence":
        n_eff = min(n, 4)
        rank = independence_rank(n_eff)
        rows = [(f"pin-or-mix family rank at n={n_eff}", float(rank - (1 << n_eff)), 0.0, 0.0)]
        if n_eff >= 2:
            rank_pure = independence_rank_pure(n_eff)
            rows.append(
                (f"pinned-GHZ family rank at n={n_eff}",
                 float(rank_pure - (1 << (n_eff - 1))), 0.0, 0.0)
            )
        return rows
    if suite == "closed_form":
        n_eff = min(n, 4)
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
        return [(f"max closed-form residual at n={n_eff}", -dev, -1e-10, 0.0)]
    raise ValueError(f"unknown suite {suite!r}")


def cmd_make_state(args: argparse.Namespace) -> int:
    cap = _dim_cap()
    dims = _parse_dims(args.dims, cap)
    s = dims.validate_mask(parse_party_list(args.s)) if args.s else None
    recipe = StateRecipe(
        kind=args.kind, dims=dims, s=s, seed=args.seed, rank=args.rank
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
