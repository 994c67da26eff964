"""In-memory span recorder installed around qinvert's public functions.

:meth:`Tracer.install` replaces each traced function at every module
of the package that binds it (``qinvert.tensor.partial_trace`` and also
``qinvert.constraints.partial_trace`` and so on), patches the
``DensityMatrix``/``PureState`` validation and ``PureState.density`` on
their classes, and wraps ``numpy.linalg.eigvalsh``; :meth:`uninstall`
puts every original back.  Spans are kept in a list and written out once
the run ends.  Times are ``perf_counter_ns`` integers, so self times add
up to the op span exactly.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

# (module, attribute) -> span name.  Every module of the package that
# binds the same function object is patched as well.
TRACED_FUNCTIONS = {
    ("qinvert.io", "read_state_file"): "io.read",
    ("qinvert.io", "write_state_file"): "io.write",
    ("qinvert.tensor", "partial_trace"): "tensor.partial_trace",
    ("qinvert.tensor", "embed"): "tensor.embed",
    ("qinvert.tensor", "min_eigenvalue"): "tensor.min_eigenvalue",
    ("qinvert.tensor", "subset_purities"): "tensor.subset_purities",
    ("qinvert.invariants", "invariant_table"): "invariants.table",
    ("qinvert.constraints", "correlation_report"): "constraints.correlation",
    ("qinvert.constraints", "monogamy_report"): "constraints.monogamy",
    ("qinvert.constraints", "shadow_report"): "constraints.shadow",
    ("qinvert.constraints", "entropy_inequalities"): "constraints.entropy",
    ("qinvert.constraints", "marginal_report"): "constraints.marginal",
    ("qinvert.inversion", "invert_sum"): "inversion.invert_sum",
    ("qinvert.inversion", "invert_product"): "inversion.invert_product",
    ("qinvert.inversion", "invert_kraus"): "inversion.invert_kraus",
    ("qinvert.inversion", "apply_detection_map"): "inversion.detection_map",
    ("qinvert.gellmann", "build_basis"): "gellmann.build_basis",
    ("qinvert.zoo", "ginibre_mixed"): "zoo.ensemble",
    ("qinvert.zoo", "haar_pure"): "zoo.ensemble",
    ("qinvert.cli", "cmd_check"): "cli.check",
    ("qinvert.cli", "cmd_invariants"): "cli.invariants",
    ("qinvert.cli", "cmd_detect"): "cli.detect",
    ("qinvert.cli", "cmd_verify"): "cli.verify",
    ("qinvert.cli", "cmd_make_state"): "cli.make-state",
}
# (module, class, attribute) -> span name
TRACED_METHODS = {
    ("qinvert.states", "DensityMatrix", "__post_init__"): "states.validate",
    ("qinvert.states", "PureState", "__post_init__"): "states.validate",
    ("qinvert.states", "PureState", "density"): "states.density",
}


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start_ns: int
    end_ns: int


def _nbytes(state) -> int:
    return getattr(state, "matrix", getattr(state, "vector", None)).nbytes


class Tracer:
    """Records spans and counters for the ops run while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.max_dim = 0
        self._stack: list[int] = []
        self._op = -1
        self._next_id = 0
        self._trace_pairs: set[tuple[int, int]] = set()
        self._trace_operands: list = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _call(self, name: str, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(Span(sid, parent, self._op, name, start, end))

    def run_op(self, op_id: int, fn, *args):
        """Run ``fn(*args)`` as the root span of op ``op_id``."""
        self._op = op_id
        self._trace_pairs.clear()
        self._trace_operands.clear()
        try:
            return self._call("op", fn, args, {})
        finally:
            self._op = -1
            self._trace_operands.clear()

    def _observe(self, name: str, args, result) -> None:
        if name == "tensor.partial_trace":
            mat, _, keep = args[:3]
            # operands stay referenced until the op ends, so an id is
            # never reused for another array within one op
            self._trace_operands.append(mat)
            pair = (id(mat), keep)
            if pair not in self._trace_pairs:
                self._trace_pairs.add(pair)
                self.counters["tensor.partial_trace.distinct"] += 1
        elif name == "tensor.embed":
            self.counters["tensor.embed.bytes"] += result.nbytes
        elif name == "io.read":
            self.counters["io.bytes"] += _nbytes(result)
        elif name == "io.write":
            self.counters["io.bytes"] += _nbytes(args[1])

    def _wrap(self, name: str, fn):
        observed = name in ("tensor.partial_trace", "tensor.embed", "io.read", "io.write")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._call(name, fn, args, kwargs)
            if observed:
                self._observe(name, args, result)
            return result

        return wrapper

    def _eigvalsh(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            self.max_dim = max(self.max_dim, int(np.shape(a)[-1]))
            return self._call("linalg.eigvalsh", fn, (a,) + args, kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "qinvert" or k.startswith("qinvert.")]
        for (mod_name, attr), name in TRACED_FUNCTIONS.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                if vars(module).get(attr) is original:
                    self._patch(module, attr, wrapper)
        for (mod_name, cls, attr), name in TRACED_METHODS.items():
            owner = getattr(sys.modules[mod_name], cls)
            self._patch(owner, attr, self._wrap(name, vars(owner)[attr]))
        self._patch(np.linalg, "eigvalsh", self._eigvalsh(np.linalg.eigvalsh))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns]) + "\n")


# ---------------------------------------------------------------------------
# per-layer summaries


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span duration minus the durations of its direct children; spans
    run on one thread, so children never overlap."""
    out = {s.id: s.end_ns - s.start_ns for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end_ns - s.start_ns
    return out


def layer_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds (outermost spans of that name
    only, so recursion is not counted twice) and self seconds."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for s in spans:
        row = table[s.name]
        row["calls"] += 1
        row["self_s"] += selfs[s.id] * 1e-9
        p = s.parent
        while p is not None and by_id[p].name != s.name:
            p = by_id[p].parent
        if p is None:
            row["s"] += (s.end_ns - s.start_ns) * 1e-9
    return dict(table)


def layer_metrics(tracer: Tracer, lines: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    table = layer_table(tracer.spans)

    def get(name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0)

    c = tracer.counters
    out = {
        "io.read.s": get("io.read", "self_s"),
        "io.write.s": get("io.write", "s"),
        "io.bytes": c["io.bytes"],
        "linalg.eigvalsh.max_dim": tracer.max_dim,
        "tensor.embed.bytes": c["tensor.embed.bytes"],
        "tensor.partial_trace.redundancy": (
            get("tensor.partial_trace", "calls") / c["tensor.partial_trace.distinct"]
            if c["tensor.partial_trace.distinct"] else 0.0
        ),
        "cli.self.s": sum(row["self_s"] for name, row in table.items() if name.startswith("cli.")),
        "cli.lines": lines,
    }
    for name in ("states.validate", "states.density", "linalg.eigvalsh",
                 "tensor.partial_trace", "tensor.embed", "tensor.min_eigenvalue",
                 "tensor.subset_purities", "invariants.table", "inversion.invert_sum",
                 "inversion.invert_product", "inversion.invert_kraus",
                 "inversion.detection_map", "zoo.ensemble"):
        out[f"{name}.s"] = get(name, "s")
        out[f"{name}.calls"] = get(name, "calls")
    for name in ("shadow", "marginal", "correlation", "monogamy", "entropy"):
        out[f"constraints.{name}.s"] = get(f"constraints.{name}", "s")
    out["gellmann.build_basis.calls"] = get("gellmann.build_basis", "calls")
    return out
