"""The benchmark's workloads: seeded input files and the CLI ops of one
pass, each with the check its output must pass.

Inputs are generated by the benchmark itself (:mod:`perfbench.reference`
recipes written in the README's state-file format); ``qinvert`` sees
only the files and the command-line arguments.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import gate
from . import reference as ref


@dataclass
class OpResult:
    exit_code: int | None
    stdout: str
    stderr: str
    seconds: float
    error: str | None = None
    evidence: object = None


@dataclass
class Op:
    """One CLI invocation.  ``expected`` builds the reference report
    lines (called once, after timing); ``capture`` collects evidence of
    output that is not on stdout right after the op returns, and
    ``verify_file`` checks that evidence for all of the op's runs."""

    argv: list[str]
    expected: Callable[[], list[gate.Row]] | None = None
    capture: Callable[[], object] | None = None
    verify_file: Callable[[list[OpResult]], None] | None = None
    _rows: list[gate.Row] | None = field(default=None, repr=False)

    @property
    def command(self) -> str:
        return self.argv[0]

    def check(self, result: OpResult) -> None:
        """Raise gate.GateError if ``result`` is wrong."""
        if result.error is not None:
            raise gate.GateError(f"raised {result.error}")
        if result.exit_code != 0:
            raise gate.GateError(f"exit code {result.exit_code}: {result.stderr.strip()}")
        if self.expected is None:
            if result.stdout:
                raise gate.GateError("unexpected output on stdout")
            return
        if self._rows is None:
            self._rows = self.expected()
        rows = gate.check_report(result.stdout, self._rows)
        if self.command == "verify":
            worst = min(r["margin"] for r in rows[:-1])
            if rows[-1]["value"] != worst:
                raise gate.GateError("verify summary is not the worst margin")


def _write(path: Path, dims: tuple[int, ...], state: np.ndarray) -> None:
    path.write_text(ref.state_file_text(dims, state), encoding="utf-8")


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def check_all_7q(seed: int, work: Path) -> list[Op]:
    ops = []
    for member, dims in enumerate(((2,) * 7, (2, 3, 4), (3, 3, 3, 3))):
        rho = ref.ginibre(dims, seed, member)
        path = work / f"ginibre-{'x'.join(map(str, dims))}.json"
        _write(path, dims, rho)
        ops.append(Op(
            ["check", "--state", str(path)],
            expected=lambda rho=rho, dims=dims: gate.check_rows(
                rho, ref.squared_invariants(rho, dims), dims, gate.CHECK_FAMILIES, pure=False),
        ))
    return ops


def large_state_9q(seed: int, work: Path) -> list[Op]:
    dims = (2,) * 9
    psi = ref.haar_vector(dims, seed)
    pure_path = work / "haar-9q.json"
    _write(pure_path, dims, psi)
    mixed_path = work / "ginibre-9q.json"

    @functools.cache
    def mixed() -> np.ndarray:
        return ref.ginibre(dims, seed)

    @functools.cache
    def pure() -> np.ndarray:
        return np.outer(psi, psi.conj())

    @functools.cache
    def c2(state) -> np.ndarray:
        return ref.squared_invariants(state(), dims)

    def digest() -> str | None:
        try:
            return hashlib.sha256(mixed_path.read_bytes()).hexdigest()
        except OSError:
            return None

    def same_file(results: list[OpResult]) -> None:
        # every make-state op must have written the same bytes, and the
        # last copy must hold the seeded recipe
        last = digest()
        if last is None:
            raise gate.GateError(f"make-state wrote no {mixed_path.name}")
        if any(r.evidence != last for r in results):
            raise gate.GateError("make-state wrote different files for one seed")
        gate.check_state_file(mixed_path.read_text(encoding="utf-8"), dims, mixed())

    return [
        Op(["make-state", "--kind", "ginibre_mixed", "--dims", _csv(dims),
            "--seed", str(seed), "--out", str(mixed_path)],
           capture=digest, verify_file=same_file),
        Op(["invariants", "--state", str(mixed_path)],
           expected=lambda: gate.invariants_rows(c2(mixed), dims)),
        Op(["detect", "--state", str(mixed_path), "--act-on", "1,2", "--t", "1"],
           expected=lambda: gate.detect_rows(mixed(), dims, (1, 2), (1,))),
        Op(["invariants", "--state", str(pure_path)],
           expected=lambda: gate.invariants_rows(c2(pure), dims)),
        Op(["check", "--state", str(pure_path), "--families", "monogamy,entropy"],
           expected=lambda: gate.check_rows(pure(), c2(pure), dims, ("monogamy", "entropy"),
                                            pure=True)),
    ]


def verify_ensemble(seed: int, work: Path) -> list[Op]:
    return [
        Op(["verify", "--dims", _csv(dims), "--size", str(size), "--seed", str(seed)],
           expected=lambda dims=dims, size=size: gate.verify_rows(dims, size, seed))
        for dims, size in (((2, 2, 2, 2), 20), ((2, 3, 4), 10), ((3, 3), 50))
    ]


WORKLOADS = {
    "check-all-7q": check_all_7q,
    "large-state-9q": large_state_9q,
    "verify-ensemble": verify_ensemble,
}
