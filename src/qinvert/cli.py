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
import functools
import itertools
import json
import math
import os
import sys
import time
from typing import IO, TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

from .constraints import (
    FAMILIES,
    PASS_TOL,
    ConstraintReport,
    ReportEntry,
    _entry,
    correlation_report,
    entropy_inequalities,
    marginal_report,
    monogamy_report,
    numerical_rank,
    shadow_report,
)
from .dims import (
    DEFAULT_DIM_CAP, SubsystemDims, mask_bitstring, parse_party_list, parties_from_mask,
    plain_number, relative_mask,
)
from .invariants import invariant_table
from .inversion import (
    DetectionParams, KrausTransfers, apply_detection_map, chunk_members, invert_kraus, invert_sum,
    inversion_stacks, kraus_transfers,
)
from .io import StateFileError, read_state_file, write_state, write_state_file
from .states import DensityMatrix, FactorState
from .tensor import block_product, certified_min_eigenvalue, min_eigenvalue
from .zoo import (
    StateRecipe,
    build,
    ginibre_stack,
    pinned_ghz_invariant,
    pinned_ghz_tables,
    pinned_mix_invariant,
    pinned_mix_table,
    product_stack,
    stream_rng,
)

CAP_ENV_VAR = "QINVERT_DIM_CAP"

if TYPE_CHECKING:
    Rows = list[tuple[str, float, float]]


def _number(kind: type) -> Callable[[str], int | float]:
    """``kind`` (int or float) as an argparse type that also refuses what
    :func:`~qinvert.dims.plain_number` refuses; argparse names the option."""
    def parse(text: str) -> int | float:
        try:
            plain_number(text, "the value")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return kind(text)

    parse.__name__ = kind.__name__  # argparse's "invalid int value" names it
    return parse


def _party_list(text: str, what: str) -> int:
    """:func:`~qinvert.dims.parse_party_list` of ``text``, each party a
    :func:`~qinvert.dims.plain_number` number."""
    for tok in text.split(","):
        plain_number(tok, what)
    return parse_party_list(text)


def _dim_cap() -> int:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_DIM_CAP
    plain_number(raw, CAP_ENV_VAR)
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
    """Build every report, then write their note and entry lines to ``out``
    (stdout for None or "-"), so an error while building leaves no line and
    no file; each entry's ``elapsed_ms`` is its share of the time taken to
    produce its report.  Returns the exit code: 1 when some theorem-backed
    entry fails, else 0."""
    timed = []
    t0 = time.perf_counter()
    for report in reports:
        timed.append((report, (time.perf_counter() - t0) * 1e3 / max(len(report.entries), 1)))
        t0 = time.perf_counter()
    stream = sys.stdout if out in (None, "-") else open(out, "w", encoding="utf-8")
    try:
        for report, share in timed:
            for note in report.notes:
                _emit(stream, command, report, ReportEntry(note, 0.0, 0.0, 0.0, True, False), 0.0)
            for e in report.entries:
                _emit(stream, command, report, e, share)
    finally:
        if stream is not sys.stdout:
            stream.close()
    return 0 if all(report.all_pass for report, _ in timed) else 1


def _tolerance(tol: float) -> float:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"--tol must be a finite number >= 0, got {tol}")
    return tol


def _select(text: str | None, valid: tuple[str, ...], what: str, option: str) -> list[str]:
    """The entries of ``valid`` named in the comma list ``text`` (all of
    them when it is None), in the order of ``valid``; an empty entry is
    an error naming its position."""
    names = valid if text is None else [x.strip() for x in text.split(",")]
    if "" in names:
        raise ValueError(f"{option} entry {names.index('') + 1} is empty; "
                         f"name a {what} from: {', '.join(valid)}")
    for name in names:
        if name not in valid:
            raise ValueError(f"unknown {what} {name!r}; valid: {', '.join(valid)}")
    return [x for x in valid if x in names]


def _seed(seed: int | None) -> int | None:
    if seed is not None and seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {seed}")
    return seed


def _read_state(path: str) -> DensityMatrix | FactorState:
    return read_state_file(path, cap=_dim_cap())


def _parse_dims(text: str) -> SubsystemDims:
    tokens = [plain_number(tok, "--dims") for tok in text.split(",")]
    try:
        dims = tuple(int(tok) for tok in tokens)
    except ValueError as exc:
        raise ValueError(f"cannot parse dims {text!r}") from exc
    return SubsystemDims(dims, cap=_dim_cap())


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args: argparse.Namespace) -> int:
    tol = _tolerance(args.tol)
    families = _select(args.families, FAMILIES, "family", "--families")
    state = _read_state(args.state)
    factor = isinstance(state, FactorState)
    rho = state.density() if factor and "marginal" in families else state

    def reports() -> Iterator[ConstraintReport]:
        for fam in families:
            if fam == "correlation":
                yield correlation_report(state, tol=tol)
            elif fam == "monogamy" and factor and state.rank == 1:
                yield monogamy_report(state, tol=tol)
            elif fam == "monogamy":
                yield ConstraintReport("monogamy", [], tol, [
                    "warning: mixed state; monogamy downgraded to correlation"])
                yield correlation_report(state, tol=tol)
            elif fam == "shadow":
                yield shadow_report(state, state, state.dims, tol=tol)
            elif fam == "entropy":
                yield entropy_inequalities(state, tol=tol)
            else:
                yield marginal_report(rho, tol=tol)

    return _write_reports(args.out, "check", reports())


def _within(mask: int, dims: SubsystemDims, option: str) -> int:
    """``mask`` if its parties are among the N of ``dims``, else an error
    naming ``option`` and its first party beyond N."""
    beyond = [p for p in parties_from_mask(mask) if p > dims.n]
    if beyond:
        raise ValueError(f"{option} names party {beyond[0]}, beyond the {dims.n} available")
    return mask


def cmd_invariants(args: argparse.Namespace) -> int:
    tol = _tolerance(args.tol)
    masks = None
    if args.masks != "all":
        tokens = [tok.strip() for tok in args.masks.split(";")]
        if "" in tokens:
            raise ValueError(f'--masks token {tokens.index("") + 1} is empty; '
                             '"0" names the empty mask')
        masks = [0 if tok == "0" else _party_list(tok, f"--masks token {i}")
                 for i, tok in enumerate(tokens, 1)]
    state = _read_state(args.state)
    masks = (list(state.dims.subset_masks()) if masks is None
             else [_within(t, state.dims, f"--masks token {i}") for i, t in enumerate(masks, 1)])

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
    act_on = _party_list(args.act_on, "--act-on")
    if act_on == 0:
        raise ValueError("--act-on must name at least one party")
    t = _party_list(args.t, "--t") if args.t else 0
    alpha = _parse_weights(args.alpha, "--alpha")
    beta = _parse_weights(args.beta, "--beta")
    params = DetectionParams(t=t, act_on=act_on, alpha=alpha, beta=beta)
    state = _read_state(args.state)
    _within(act_on, state.dims, "--act-on")
    rho = state if isinstance(state, DensityMatrix) else state.density()

    def reports() -> Iterator[ConstraintReport]:
        low = min_eigenvalue(apply_detection_map(rho.operand, rho.dims, params))
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
        plain_number(text, option)
        try:
            return float(text)
        except ValueError:
            raise ValueError(f"{option} {text!r} is not a weight or party:weight list") from None
    table = {}
    for tok in text.split(","):
        party, _, weight = tok.partition(":")
        plain_number(party, option)
        plain_number(weight, option)
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
    # a product needs two parties: a campaign of nothing else would pass vacuously
    skip_products = dims.n < 2
    if skip_products and suites == ["factorization"]:
        raise ValueError("suite factorization needs at least 2 parties; --dims names 1")

    def reports() -> Iterator[ConstraintReport]:
        rows: list[ReportEntry] = []
        shared = _ensemble_suites(dims, args.size, seed, suites)
        for suite in suites:
            if suite == "factorization" and skip_products:
                yield ConstraintReport(suite, [], _SUITES[suite],
                                       ["note: factorization skipped: needs at least 2 parties"])
                continue
            if suite in PINNED_SUITES and suite not in shared:
                shared.update(_pinned_suites(dims))
            battery = shared[suite] if suite in shared else _factorization(dims, args.size, seed)
            report = _suite_report(suite, battery)
            rows += report.entries
            yield report
        worst = min(e.margin for e in rows)
        summary = ReportEntry("worst margin", worst, 0.0, worst, all(e.passed for e in rows))
        yield ConstraintReport("summary", [summary], 0.0)

    return _write_reports(args.out, "verify", reports())


ENSEMBLE_SUITES = ("cross_form", "positivity", "parity")


def _deviation(a: np.ndarray, b: np.ndarray, suite: str) -> float:
    dev = float(np.max(np.abs(a - b)))
    if not math.isfinite(dev):  # max(0.0, nan) is 0.0: NaN would pass a row
        raise ValueError(f"suite {suite}: non-finite deviation {dev}")
    return dev


def _ensemble_suites(
    dims: SubsystemDims, size: int, seed: int, suites: list[str]
) -> dict[str, Rows]:
    """Rows of the ensemble suites among ``suites``, from one pass over the
    members k < size (Philox stream (k,)), each built once and in order.
    Consecutive members are stacked on a member axis in chunks sized by
    :func:`~qinvert.inversion.chunk_members`, and each inversion stack of
    a chunk feeds every selected suite with one kernel call per form, so
    memory is one chunk and its stacks at a time: within ``STACK_HOLD_BYTES``
    whatever ``size`` is, unless one member alone exceeds it and runs as
    a chunk of one.  Rows do not depend on the chunking: deviations are
    maxima, and parity adds each member's masks in ascending order.  The
    Kraus transfer matrices of ``cross_form`` depend only on ``dims`` and
    are built once."""
    cross, positivity, parity = (s in suites for s in ENSEMBLE_SUITES)
    if not (cross or positivity or parity):
        return {}
    form_dev = parity_dev = 0.0
    low = math.inf
    d = dims.total
    eye = np.eye(d)
    scale = 2.0 ** (1 - dims.n)
    transfers = kraus_transfers(dims) if cross else None
    chunk = chunk_members(dims)
    for start in range(0, size, chunk):
        mats = ginibre_stack(dims, seed, range(start, min(start + chunk, size)))
        sums = [0, 0]  # even and odd masks, each added in ascending order
        first = 0
        for stack in inversion_stacks(mats, dims):
            if positivity:
                low = certified_min_eigenvalue(stack.reshape(-1, d, d), len(mats), low)
            if cross:
                block = range(first, first + len(stack))
                form_dev = max(form_dev, _form_deviation(mats, dims, stack, block, transfers))
            if parity:
                for t, inv in enumerate(stack, first):
                    sums[t.bit_count() % 2] = sums[t.bit_count() % 2] + inv
            first += len(stack)
        if parity:
            even, odd = sums
            parity_dev = max(parity_dev, _deviation(scale * odd, eye - mats, "parity"),
                             _deviation(scale * even, eye + mats, "parity"))
    rows = {
        "cross_form": [("max deviation between forms", -form_dev, -1e-10)],
        "positivity": [("worst min eigenvalue of inverted states", low, 0.0)],
        "parity": [("max parity-sum residual", -parity_dev, -1e-11)],
    }
    return {s: rows[s] for s in ENSEMBLE_SUITES if s in suites}


def _form_deviation(mats: np.ndarray, dims: SubsystemDims, stack: np.ndarray, block: range,
                    transfers: KrausTransfers) -> float:
    """Max |sum - stack| and |sum - Kraus| over the masks of ``block``, which
    ``stack`` holds, the Kraus form from the campaign's ``transfers``; no
    reference form outlives the call, and the Kraus temporaries peak
    before the sum stack exists."""
    by_kraus = invert_kraus(mats, dims, block, transfers)
    by_sum = invert_sum(mats, dims, block)
    return max(_deviation(by_sum, stack, "cross_form"), _deviation(by_sum, by_kraus, "cross_form"))


def _factorization(dims: SubsystemDims, size: int, seed: int) -> Rows:
    dev = 0.0
    # inline, not a helper per group: a group's arrays live until the next
    # group's replace them, so the allocator does not hand the memory back
    # and fault it in again for every group (at 5 qubits, 2085 against 549
    # minor page faults per call)
    for parts, prods in _product_groups(dims, size, seed):
        inv = {}  # each part's inversions for all its masks, members second
        for part, mats in parts.items():
            stacks = inversion_stacks(mats, SubsystemDims(dims.dims_of(part)))
            inv[part] = np.concatenate(list(stacks))
        all_masks = dims.subset_masks()
        for lhs in inversion_stacks(prods, dims):
            masks = list(itertools.islice(all_masks, len(lhs)))
            rhs = block_product({part: stack[[relative_mask(t, part) for t in masks]]
                                 for part, stack in inv.items()}, dims)
            dev = max(dev, _deviation(lhs, rhs, "factorization"))
    return [("max product-state factorization residual", -dev, -1e-11)]


def _product_groups(
    dims: SubsystemDims, size: int, seed: int
) -> Iterator[tuple[dict[int, np.ndarray], np.ndarray]]:
    """Yield ``({s: rho_s, c: rho_c}, rho_s (x) rho_c)`` as (M, ., .) member
    stacks: members k < size with a random split s drawn in member order
    and Ginibre members 2k and 2k+1 on s and its complement c, grouped by
    split, a group as soon as it holds
    :func:`~qinvert.inversion.chunk_members` members, the rest at the end.
    A group's factors are two :func:`~qinvert.zoo.ginibre_stack` calls, in
    member order, and its products one :func:`~qinvert.zoo.product_stack`.
    What waits is fewer than a chunk of member numbers per split, no
    states, so memory does not grow with ``size``."""
    rng = stream_rng(seed, 10_001)
    chunk = chunk_members(dims)
    waiting: dict[int, list[int]] = {}

    def group(s: int, members: list[int]) -> tuple[dict[int, np.ndarray], np.ndarray]:
        parts = {part: ginibre_stack(SubsystemDims(dims.dims_of(part)), seed,
                                     [2 * k + j for k in members])
                 for j, part in enumerate((s, dims.full_mask ^ s))}
        return parts, product_stack(parts, dims)

    for k in range(size):
        s = int(rng.integers(1, dims.full_mask))
        members = waiting.setdefault(s, [])
        members.append(k)
        if len(members) == chunk:
            yield group(s, waiting.pop(s))
    for s, members in waiting.items():
        yield group(s, members)


PINNED_SUITES = ("independence", "closed_form")


def _pinned_suites(dims: SubsystemDims) -> dict[str, Rows]:
    """Rows of both pinned-family suites, which depend only on n = min(N, 4):
    both read the tables of the two witness families, each family built and
    swept as stacks; residuals are maxima over all members."""
    n = min(dims.n, 4)
    mix = pinned_mix_table(n)
    closed = [[pinned_mix_invariant(n, pins, t) for t in range(1 << n)] for pins in range(1 << n)]
    dev = _deviation(mix, closed, "closed_form")
    rows = {"independence": [(f"pin-or-mix family rank at n={n}",
                              float(numerical_rank(mix) - (1 << n)), 0.0)]}
    if n >= 2:
        ghz, reduced = pinned_ghz_tables(n)
        closed = [[pinned_ghz_invariant(n, i << 1, t) for t in range(1 << n)]
                  for i in range(1 << (n - 1))]
        dev = max(dev, _deviation(ghz, closed, "closed_form"))
        rows["independence"].append((f"pinned-GHZ family rank at n={n}",
                                     float(numerical_rank(reduced) - (1 << (n - 1))), 0.0))
    rows["closed_form"] = [(f"max closed-form residual at n={n}", -dev, -1e-10)]
    return rows


# every suite, in report order, with the tolerance its rows are judged at
_SUITES = {
    "cross_form": 0.0,
    "positivity": 1e-9,
    "parity": 0.0,
    "factorization": 0.0,
    "independence": 0.0,
    "closed_form": 0.0,
}
VERIFY_SUITES = tuple(_SUITES)


def _suite_report(suite: str, battery: Rows) -> ConstraintReport:
    """One verification battery's (label, value, threshold) rows as a
    report, judged at the suite's tolerance; deviation rows are value =
    -deviation against threshold = -limit."""
    tol = _SUITES[suite]
    rows = [_entry(label, value, tol, threshold=threshold) for label, value, threshold in battery]
    return ConstraintReport(suite, rows, tol)


def cmd_make_state(args: argparse.Namespace) -> int:
    dims = _parse_dims(args.dims)
    s = _within(_party_list(args.s, "--s"), dims, "--s") if args.s else None
    recipe = StateRecipe(
        kind=args.kind, dims=dims, s=s, seed=_seed(args.seed), rank=args.rank
    )
    state = build(recipe)
    if args.out is None or args.out == "-":
        write_state(sys.stdout, state, label=args.label)
    else:
        write_state_file(args.out, state, label=args.label)
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing does not change it.
    Each subcommand names its ``cmd_*`` function, which :func:`main` looks
    up when it runs."""
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
    p.add_argument("--tol", type=_number(float), default=PASS_TOL)
    p.add_argument("--out", default=None, help="report file (default: stdout)")
    p.set_defaults(fn="cmd_check")

    p = sub.add_parser("invariants", help="squared invariants for subset masks")
    p.add_argument("--state", required=True)
    p.add_argument("--masks", default="all",
                   help='"all" or semicolon-separated party lists, e.g. "1;2;1,2" '
                        '("0" is the empty mask)')
    p.add_argument("--tol", type=_number(float), default=PASS_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(fn="cmd_invariants")

    p = sub.add_parser("detect", help="apply the tunable detection map")
    p.add_argument("--state", required=True)
    p.add_argument("--act-on", dest="act_on", required=True,
                   help="party list the map acts on, e.g. \"2\"")
    p.add_argument("--t", default=None, help="parties with the minus sign")
    p.add_argument("--alpha", default=None,
                   help='scalar or per-party pairs "2:1.0,3:0.5" (default 1.0)')
    p.add_argument("--beta", default=None, help="same format as --alpha")
    p.add_argument("--tol", type=_number(float), default=PASS_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(fn="cmd_detect")

    p = sub.add_parser("verify", help="seeded self-verification campaigns")
    p.add_argument("--dims", required=True, help='local dimensions, e.g. "2,2,2"')
    p.add_argument("--size", type=_number(int), default=100, help="ensemble size per suite")
    p.add_argument("--seed", type=_number(int), default=0)
    p.add_argument("--suites", default=None,
                   help=f"comma list from: {', '.join(VERIFY_SUITES)} (default: all)")
    p.add_argument("--out", default=None)
    p.set_defaults(fn="cmd_verify")

    p = sub.add_parser("make-state", help="emit a state file for a recipe")
    p.add_argument("--kind", required=True)
    p.add_argument("--dims", required=True)
    p.add_argument("--s", default=None, help="party list for recipes that need one")
    p.add_argument("--seed", type=_number(int), default=None)
    p.add_argument("--rank", type=_number(int), default=None)
    p.add_argument("--label", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn="cmd_make_state")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # by name, so the cached parser calls what the module holds now
        return globals()[args.fn](args)
    except (StateFileError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
