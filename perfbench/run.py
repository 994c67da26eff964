#!/usr/bin/env python3
"""Benchmark of the qinvert CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload check-all-7q --seed 1 --seconds 30 --trace 0

One client runs the ops of a workload back to back, in process, through
``qinvert.cli.main(argv)`` (a closed loop with no extra threads).  The
inputs are generated from ``--seed``; every op's output is checked
against :mod:`perfbench.reference`.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of traced passes run
alongside untraced ones.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it print every metric with its unit and sample count,
and the full record (environment, samples, layer table) is written to
``.perfbench/``.  ``--workload all`` runs every workload in turn.
The exit code is 0 when every op was correct, 1 when one was not and 2
when the benchmark could not run (for instance without ``src/qinvert``).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if __name__ == "__main__":  # run as a script: make the perfbench package importable
    sys.path.insert(0, str(ROOT))

from perfbench import gate, spans, workloads  # noqa: E402

OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
# Held-out inputs come from this spawn key of SeedSequence(--seed), a
# stream that runs without --held-out (which use --seed itself) never see.
HELD_OUT_KEY = 0x4E1D
COMMANDS = ("check", "invariants", "detect", "make-state", "verify")
# Time of calibrate() on the reference machine (2-core x86-64 VM) in its
# fast state; scaled times are seconds at that speed.
CALIB_REF_S = 0.013


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("redundancy") or name.endswith("ratio"):
        return "ratio"
    if name.endswith("_mib"):
        return "MiB"
    return "count"


def input_seed(seed: int, held_out: bool) -> int:
    if not held_out:
        return seed
    return int(np.random.SeedSequence(seed, spawn_key=(HELD_OUT_KEY,)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# environment record


def _blas_threads() -> int | None:
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def _l3_size() -> str | None:
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            if Path(index, "level").read_text().strip() == "3":
                return Path(index, "size").read_text().strip()
        except OSError:
            return None
    return None


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, used_seed: int, held_out: bool) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    source = hashlib.sha256()
    for path in sorted((SRC / "qinvert").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "l3": _l3_size(),
        "seed": seed,
        "input_seed": used_seed,
        "held_out": held_out,
        "git_commit": _git_commit(),
        "src_sha256": source.hexdigest(),
    }


# ---------------------------------------------------------------------------
# machine-speed calibration
#
# The cores of a shared machine switch between speeds (1.75x apart on
# the reference machine, within seconds), which moves every timing of
# a run together.  Each timed step is bracketed by a fixed calibration
# loop and reported both as measured and scaled by CALIB_REF_S over the
# mean of the two calibrations around it.


def calibrate() -> float:
    """Median time of three runs of a fixed loop of interpreter work and
    small-array numpy calls, the mix the workloads spend their time in."""
    a = (np.arange(1024).reshape(32, 32) * (1 + 1j)) / 1024
    eye = np.eye(4)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(400):
            np.trace(a.reshape(2, 16, 2, 16), axis1=0, axis2=2)
            np.kron(a[:8, :8], eye)
            sum({k: k * i for k in range(20)}.values())
        a @ a
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(seconds: float, before: float, after: float) -> float:
    return seconds * CALIB_REF_S * 2.0 / (before + after)


# ---------------------------------------------------------------------------
# set-up and passes


def setup(workload: str, seed: int, work: Path):
    """Import qinvert afresh and write the workload's input files;
    returns (seconds, ops)."""
    t0 = time.perf_counter()
    for name in [m for m in sys.modules if m == "qinvert" or m.startswith("qinvert.")]:
        del sys.modules[name]
    cli = importlib.import_module("qinvert.cli")
    ops = workloads.WORKLOADS[workload](seed, work)
    seconds = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"qinvert was imported from {cli.__file__}, not from {SRC}")
    return seconds, ops


def run_op(op, tracer=None, op_id: int = 0):
    """Run one CLI invocation in process and capture its output."""
    main = sys.modules["qinvert.cli"].main
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tracer.run_op(op_id, main, op.argv) if tracer else main(op.argv)
    except SystemExit as exc:  # argparse refused the arguments
        code = exc.code
    except Exception:  # the op failed; the gate reports it and the run goes on
        error = traceback.format_exc()
    seconds = time.perf_counter() - t0
    evidence = op.capture() if op.capture else None
    return workloads.OpResult(code, out.getvalue(), err.getvalue(), seconds, error, evidence)


class Run:
    """Every op result of one benchmark run, by op index, plus the
    per-pass samples."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.results = defaultdict(list)
        self.walls = {False: [], True: []}
        self.raw_walls: list[float] = []
        self.cmd = defaultdict(list)
        self.layers: list[dict] = []
        self.tracers = []
        self._next_op = 0

    def run_pass(self, traced: bool, keep: bool = True) -> None:
        tracer = spans.Tracer() if traced else None
        if tracer:
            tracer.install()
        results, times = [], []
        before = calibrate()
        try:
            for op in self.ops:
                results.append(run_op(op, tracer, self._next_op))
                self._next_op += 1
                after = calibrate()
                times.append(scaled(results[-1].seconds, before, after))
                before = after
        finally:
            if tracer:
                tracer.uninstall()
        for i, r in enumerate(results):
            self.results[i].append(r)
        if not keep:
            return
        self.walls[traced].append(sum(times))
        if not traced:
            self.raw_walls.append(sum(r.seconds for r in results))
        if tracer:
            lines = sum(r.stdout.count("\n") for r in results)
            self.layers.append(spans.layer_metrics(tracer, lines))
            self.tracers.append(tracer)
        else:
            for c in COMMANDS:
                if any(op.command == c for op in self.ops):
                    self.cmd[c].append(sum(t for op, t in zip(self.ops, times)
                                           if op.command == c))

    def gate(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, messages) over every op run."""
        attempted = failed = 0
        messages = []
        for i, op in enumerate(self.ops):
            bad = set()
            for k, r in enumerate(self.results[i]):
                try:
                    op.check(r)
                except gate.GateError as exc:
                    bad.add(k)
                    messages.append(f"{op.command} #{k}: {exc}")
            if op.verify_file:
                try:
                    op.verify_file(self.results[i])
                except gate.GateError as exc:
                    bad.update(range(len(self.results[i])))
                    messages.append(f"{op.command}: {exc}")
            attempted += len(self.results[i])
            failed += len(bad)
        return attempted, failed, messages


def tail(samples: list[float]):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None with ten samples or fewer."""
    n = len(samples)
    if n <= 10:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(samples)[k - 1]


# ---------------------------------------------------------------------------
# entry point


def measure(workload: str, seed: int, seconds: float, trace: bool, held_out: bool) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    used_seed = input_seed(seed, held_out)
    work = OUT / "work" / workload
    work.mkdir(parents=True, exist_ok=True)

    setups, setups_raw = [], []
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        s, ops = setup(workload, used_seed, work)
        after = calibrate()
        setups_raw.append(s)
        setups.append(scaled(s, before, after))
        before = after
    run = Run(ops)
    run.run_pass(traced=False, keep=False)  # warm-up: lazy imports and caches
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        run.run_pass(traced=trace and k % 2 == 0)
        k += 1
        done = run.walls[False] and (run.walls[True] or not trace)
        if done and time.perf_counter() >= deadline:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, messages = run.gate()

    samples: dict[str, list[float]] = {
        "wall_s": run.walls[False], "setup_s": setups,
        "wall_raw_s": run.raw_walls, "setup_raw_s": setups_raw,
    }
    for c, values in run.cmd.items():
        samples[f"cmd.{c}_s"] = values
    metrics = {name: statistics.median(v) for name, v in samples.items()}
    metrics["peak_rss_mib"] = peak_rss_mib
    metrics["fail_ratio"] = failed / attempted
    if trace:
        for name in run.layers[0]:
            samples[name] = [layer[name] for layer in run.layers]
            metrics[name] = statistics.median(samples[name])
        samples["traced_wall_s"] = run.walls[True]
        metrics["trace.overhead_s"] = (statistics.median(run.walls[True])
                                       - statistics.median(run.walls[False]))

    env = environment(seed, used_seed, held_out)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{seed}{'-heldout' if held_out else ''}-trace{int(trace)}"
    record = {
        "workload": workload, "trace": trace, "environment": env,
        "attempted": attempted, "failed": failed, "failures": messages[:50],
        "metrics": {n: {"value": v, "unit": unit_of(n), "samples": len(samples.get(n, [v]))}
                    for n, v in metrics.items()},
        "samples": samples,
    }
    tl = tail(run.walls[False])
    record["metrics"]["wall_s"]["tail"] = tl and {"percentile": tl[0], "value": tl[1]}
    if trace:
        record["layers"] = spans.layer_table(run.tracers[0].spans)
        run.tracers[0].write(stem.with_suffix(".spans.jsonl"))
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# workload {workload}  seed {seed}  trace {int(trace)}  record {stem}.json")
    print(f"# environment {json.dumps(env)}")
    for msg in messages[:10]:
        print(f"# FAIL {msg.splitlines()[0] if msg else msg}")
    print(f"# {'metric':34} {'value':>14} {'unit':6} samples")
    for name, m in record["metrics"].items():
        print(f"  {name:34} {m['value']:14.6g} {m['unit']:6} {m['samples']}")
    print(f"  {'wall_s.tail':34} " + (f"{tl[1]:14.6g} s      p{tl[0]:.0f}" if tl else
          f"{'n/a':>14} s      needs more than 10 samples, has {len(run.walls[False])}"))
    section = "per_layer" if trace else "end_to_end"
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec[section]},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="draw the inputs from a seed stream kept out of development runs")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "qinvert" / "__init__.py").is_file():
        sys.stderr.write(f"error: no qinvert sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    WORKLOADS = workloads.WORKLOADS
    if args.workload == "all":
        code = 0
        for name in WORKLOADS:
            child = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = max(code, subprocess.run(child + ["--held-out"] * args.held_out).returncode)
        return code
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; valid: all, {', '.join(WORKLOADS)}")
    return measure(args.workload, args.seed, args.seconds, bool(args.trace), args.held_out)


if __name__ == "__main__":
    sys.exit(main())
