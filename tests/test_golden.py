"""Golden report lines: a fixed set of CLI invocations against committed
output.

Exit codes, line counts, key order and every non-float field must match
exactly; floats must agree within FLOAT_TOL; ``elapsed_ms`` is ignored.
State files are written by ``make-state`` into a temporary directory, so
``{dir}`` in an argument stands for that directory.

Regenerate the golden file (only when a change of output is intended and
recorded) with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from qinvert.cli import main

GOLDEN = Path(__file__).with_name("golden_report_lines.json")
FLOAT_TOL = 1e-12

MAKE_STATES = [
    ["--kind", "ginibre_mixed", "--dims", "2,2,2", "--seed", "1", "--out", "{dir}/ginibre3.json"],
    ["--kind", "ginibre_mixed", "--dims", "2,3", "--seed", "2", "--out", "{dir}/ginibre23.json"],
    ["--kind", "ghz", "--dims", "2,2,2", "--out", "{dir}/ghz3.json"],
    ["--kind", "haar_pure", "--dims", "2,3,2", "--seed", "3", "--out", "{dir}/haar232.json"],
]
INVOCATIONS = [
    ["check", "--state", "{dir}/ginibre3.json"],
    ["check", "--state", "{dir}/ginibre23.json"],
    ["check", "--state", "{dir}/ghz3.json"],
    ["check", "--state", "{dir}/haar232.json"],
    ["invariants", "--state", "{dir}/ginibre3.json"],
    ["invariants", "--state", "{dir}/haar232.json"],
    ["detect", "--state", "{dir}/ginibre3.json", "--act-on", "1,2", "--t", "1"],
    ["verify", "--dims", "2,2", "--size", "3", "--seed", "1"],
    ["verify", "--dims", "3", "--size", "3", "--seed", "1"],
]


def run_all(directory: str) -> list[dict]:
    """Write the state files, then run every invocation and collect its
    exit code and report lines."""
    for argv in MAKE_STATES:
        assert main(["make-state"] + [a.format(dir=directory) for a in argv]) == 0
    results = []
    for argv in INVOCATIONS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([a.format(dir=directory) for a in argv])
        lines = [json.loads(line) for line in out.getvalue().splitlines()]
        results.append({"argv": argv, "exit": code, "lines": lines})
    return results


def assert_line_matches(got: dict, want: dict, where: str) -> None:
    assert list(got) == list(want), f"{where}: key order {list(got)} != {list(want)}"
    for key, value in want.items():
        if key == "elapsed_ms":
            continue
        if isinstance(value, float):
            assert isinstance(got[key], float), f"{where}: {key} = {got[key]!r} is not a float"
            assert abs(got[key] - value) <= FLOAT_TOL, f"{where}: {key} {got[key]!r} != {value!r}"
        else:
            assert got[key] == value, f"{where}: {key} {got[key]!r} != {value!r}"


def test_report_lines_match_the_golden_file(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    results = run_all(str(tmp_path))
    assert [r["argv"] for r in results] == [g["argv"] for g in golden]
    for got, want in zip(results, golden):
        name = " ".join(want["argv"])
        assert got["exit"] == want["exit"], f"{name}: exit {got['exit']} != {want['exit']}"
        assert len(got["lines"]) == len(want["lines"]), f"{name}: line count"
        for i, (line, ref) in enumerate(zip(got["lines"], want["lines"])):
            assert_line_matches(line, ref, f"{name}, line {i + 1}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        results = run_all(tmp)
    for line in (line for r in results for line in r["lines"]):
        line["elapsed_ms"] = 0.0
    GOLDEN.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {sum(len(r['lines']) for r in results)} lines to {GOLDEN}\n")
