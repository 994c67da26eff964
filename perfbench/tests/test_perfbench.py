"""Tests of the benchmark harness on small inputs.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import qinvert
import qinvert.cli  # noqa: F401  (run_op drives qinvert.cli.main)
from perfbench import gate, run, spans
from perfbench import reference as ref
from perfbench.workloads import Op, OpResult
from qinvert.dims import SubsystemDims

DIMS = (2, 2, 2)


@pytest.fixture
def ops(tmp_path):
    """A small pass touching every subcommand and every traced layer."""
    rho = ref.ginibre(DIMS, 5, 0)
    psi = ref.haar_vector(DIMS, 5, 1)
    mixed, pure = tmp_path / "mixed.json", tmp_path / "pure.json"
    mixed.write_text(ref.state_file_text(DIMS, rho))
    pure.write_text(ref.state_file_text(DIMS, psi))
    pure_rho = np.outer(psi, psi.conj())
    return [
        Op(["check", "--state", str(mixed)], expected=lambda: gate.check_rows(
            rho, ref.squared_invariants(rho, DIMS), DIMS, gate.CHECK_FAMILIES, pure=False)),
        Op(["check", "--state", str(pure), "--families", "monogamy,entropy"],
           expected=lambda: gate.check_rows(
               pure_rho, ref.squared_invariants(pure_rho, DIMS), DIMS,
               ("monogamy", "entropy"), pure=True)),
        Op(["invariants", "--state", str(pure)],
           expected=lambda: gate.invariants_rows(ref.squared_invariants(pure_rho, DIMS), DIMS)),
        Op(["detect", "--state", str(mixed), "--act-on", "1,2", "--t", "1"],
           expected=lambda: gate.detect_rows(rho, DIMS, (1, 2), (1,))),
        Op(["make-state", "--kind", "ginibre_mixed", "--dims", "2,2,2", "--seed", "5",
            "--out", str(tmp_path / "made.json")]),
        Op(["verify", "--dims", "2,3", "--size", "2", "--seed", "5"],
           expected=lambda: gate.verify_rows((2, 3), 2, 5)),
    ]


def _strip_elapsed(text: str) -> str:
    return re.sub(r'"elapsed_ms": [^,}]+', '"elapsed_ms": 0', text)


def test_reference_inversion_matches_invert_sum():
    for dims in ((2, 3), (2, 2, 2), (3, 2)):
        rho = ref.ginibre(dims, 9, 0)
        sub = SubsystemDims(dims)
        for t, inv in ref.inversions(rho, dims):
            assert np.allclose(inv, qinvert.invert_sum(rho, sub, t), atol=1e-12)
    for dims in ((2, 3, 4), (2,) * 5):
        rho = ref.ginibre(dims, 9, 1)
        state = qinvert.DensityMatrix(rho, SubsystemDims(dims))
        want = [qinvert.c_t_squared(state, t) for t in range(1 << len(dims))]
        assert np.allclose(ref.squared_invariants(rho, dims), want, rtol=0, atol=1e-12)


def test_reference_recipes_match_zoo():
    sub = SubsystemDims((2, 3))
    assert np.allclose(ref.ginibre((2, 3), 4, 2), qinvert.ginibre_mixed(sub, 4, member=2).matrix,
                       rtol=0, atol=1e-14)
    assert np.allclose(ref.haar_vector((2, 3), 4, 1), qinvert.haar_pure(sub, 4, member=1).vector,
                       rtol=0, atol=1e-14)


def test_every_op_passes_the_gate(ops):
    bench = run.Run(ops)
    bench.run_pass(traced=False)
    attempted, failed, messages = bench.gate()
    assert (attempted, failed) == (len(ops), 0), messages


@pytest.mark.parametrize("corrupt", [
    lambda lines: lines[:-1],
    lambda lines: lines[:1] + [lines[1].replace('"label": "', '"label": "x')] + lines[2:],
    lambda lines: [lines[0].replace('"margin": ', '"margin": NaN, "x": ')] + lines[1:],
    lambda lines: [re.sub(r'"value": [^,]+', '"value": Infinity', lines[0])] + lines[1:],
    lambda lines: [re.sub(r'"value": ([^,]+)', lambda m: f'"value": {float(m[1]) + 1e-6}',
                          lines[0])] + lines[1:],
])
def test_gate_rejects_corrupted_reports(ops, corrupt):
    op = ops[0]
    result = run.run_op(op)
    op.check(result)
    lines = result.stdout.splitlines()
    bad = OpResult(0, "\n".join(corrupt(lines)) + "\n", "", 0.0)
    with pytest.raises(gate.GateError):
        op.check(bad)


def test_traced_and_untraced_reports_match(ops):
    bench = run.Run(ops)
    bench.run_pass(traced=False)
    bench.run_pass(traced=True)
    for i in range(len(ops)):
        plain, traced = bench.results[i]
        assert _strip_elapsed(traced.stdout) == _strip_elapsed(plain.stdout)
        assert traced.exit_code == plain.exit_code == 0


def test_traced_counts_repeat_and_cover_every_layer(ops):
    bench = run.Run(ops)
    bench.run_pass(traced=True)
    bench.run_pass(traced=True)
    first, second = bench.layers
    counts = [name for name in first if run.unit_of(name) in ("count", "B", "ratio")]
    assert {name: first[name] for name in counts} == {name: second[name] for name in counts}
    seen = {s.name for s in bench.tracers[0].spans}
    assert seen >= set(spans.TRACED_FUNCTIONS.values()) | set(spans.TRACED_METHODS.values())


def test_spans_nest_and_self_times_sum_to_the_op(ops):
    bench = run.Run(ops)
    bench.run_pass(traced=True)
    tracer = bench.tracers[0]
    by_id = {s.id: s for s in tracer.spans}
    selfs = spans.self_times(tracer.spans)
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["op"] * len(ops)
    for s in tracer.spans:
        if s.parent is not None:
            p = by_id[s.parent]
            assert p.op == s.op and p.start_ns <= s.start_ns <= s.end_ns <= p.end_ns
        assert selfs[s.id] >= 0
    for root in roots:
        total = sum(selfs[s.id] for s in tracer.spans if s.op == root.op)
        assert total == root.end_ns - root.start_ns


def test_tracer_uninstall_restores_every_binding():
    before = {k: dict(vars(m)) for k, m in sys.modules.items() if k.startswith("qinvert")}
    original = qinvert.tensor.partial_trace
    eigvalsh = np.linalg.eigvalsh
    tracer = spans.Tracer()
    tracer.install()
    assert qinvert.constraints.partial_trace is not original
    assert qinvert.constraints.partial_trace is qinvert.tensor.partial_trace
    assert np.linalg.eigvalsh is not eigvalsh
    tracer.uninstall()
    after = {k: dict(vars(sys.modules[k])) for k in before}
    assert all(before[k][a] is after[k][a] for k in before for a in before[k])
    assert np.linalg.eigvalsh is eigvalsh


def test_held_out_seeds_are_fixed_and_distinct():
    assert run.input_seed(5, held_out=False) == 5
    held = run.input_seed(5, held_out=True)
    assert held == run.input_seed(5, held_out=True)
    assert held not in (5, run.input_seed(6, held_out=True))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-all-7q", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
