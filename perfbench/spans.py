"""Spans around the public functions of the sphero layers, and per-layer metrics.

A span is (name, start, end, parent index).  Spans are recorded by wrappers
that the benchmark installs over module attributes and class attributes of
the already imported package; nothing under ``src/`` is edited.  A layer's
self time is its span's duration minus the durations of its child spans
(everything runs in one thread, so children nest and never overlap).
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass


def _is_torsion(result) -> bool:
    factors, _rank = result
    return any(f > 1 for f in factors)


def _count_build_complex(c, args, result):
    c["complexes.vertices"] += len(result.vertices)
    c["complexes.edges"] += len(result.edges)


def _count_poset(c, args, result):
    c["complexes.objects"] += len(result.objects)
    c["complexes.arrows"] += len(result.arrows)


def _count_has_arrow(c, args, result):
    c["complexes.has_arrow_calls"] += 1
    c["complexes.has_arrow_hits"] += bool(result)


def _count_cells(c, args, result):
    c["homology.cells"] += sum(result.n_cells(d) for d in range(result.dim + 1))


def _count_snf(c, args, result):
    c["homology.snf_calls"] += 1
    c["homology.snf_nnz"] += sum(len(col) for col in args[0])
    c["homology.snf_torsion_calls"] += _is_torsion(result)


def _count_pi1(c, args, result):
    c["homology.pi1_calls"] += 1
    c["homology.pi1_proved"] += result["status"] in ("trivial", "nontrivial")


def _counter(key):
    def count(c, args, result):
        c[key] += 1
    return count


# (module, attribute, span name, observer).  A dotted attribute names a method
# and is wrapped on its class.  Span names are the per-layer metric stems.
HOOKS = [
    ("groups", "compose", "groups.compose", _counter("groups.compose_calls")),
    ("groups", "inverse", "groups.inverse", _counter("groups.inverse_calls")),
    ("groups", "canonical_form", "groups.canonical_form", _counter("groups.canonical_form_calls")),
    ("groups", "stabilizer_test", "groups.stabilizer_test", _counter("groups.stabilizer_test_calls")),
    ("groups", "subnormal_depth", "groups.subnormal_depth", _counter("groups.subnormal_depth_calls")),
    ("groups", "element_to_json", "groups.json", None),
    ("groups", "element_from_json", "groups.json", None),
    ("groups", "TreePair.__post_init__", "groups.treepair_init", _counter("groups.treepair_init_calls")),
    ("posets", "GenPoset.validate", "posets.validate", None),
    ("posets", "underlying_poset", "posets.underlying_poset", None),
    ("posets", "order_complex", "posets.order_complex", None),
    ("posets", "GenPoset.full_subcategory", "posets.full_subcategory", None),
    ("complexes", "build_complex", "complexes.build_complex", _count_build_complex),
    ("complexes", "split_records", "complexes.split_records", None),
    ("complexes", "canonical_block", "complexes.canonical_block", _counter("complexes.canonical_block_calls")),
    ("complexes", "has_arrow", "complexes.has_arrow", _count_has_arrow),
    ("complexes", "split_class_poset", "complexes.split_class_poset", _count_poset),
    ("complexes", "elementary_split_poset", "complexes.elementary_split_poset", None),
    ("homology", "flag_complex", "homology.flag_complex", _count_cells),
    ("homology", "ChainComplex.check_boundary_squared", "homology.boundary_check", None),
    ("homology", "reduced_homology", "homology.reduced_homology", None),
    ("homology", "sparse_invariant_factors", "homology.snf", _count_snf),
    ("homology", "pi1_report", "homology.pi1", _count_pi1),
    ("trading", "sparsify", "trading.sparsify", None),
    ("trading", "run_staircase", "trading.run_staircase", None),
    ("cli", "main", "cli", None),
]

# Span names whose self time is reported; the SNF span is split by its result.
SPAN_NAMES = sorted({name for _, _, name, _ in HOOKS} - {"homology.snf"}
                    | {"homology.snf_free", "homology.snf_torsion"})
COUNTERS = [
    "complexes.vertices", "complexes.edges", "complexes.canonical_block_calls",
    "complexes.has_arrow_calls", "complexes.has_arrow_hits", "complexes.objects",
    "complexes.arrows", "homology.cells", "homology.snf_calls", "homology.snf_nnz",
    "homology.snf_torsion_calls", "homology.pi1_calls", "homology.pi1_proved",
    "groups.compose_calls", "groups.inverse_calls", "groups.canonical_form_calls",
    "groups.stabilizer_test_calls", "groups.subnormal_depth_calls",
    "groups.treepair_init_calls",
]


class Tracer:
    """Records spans and counters while installed; restores the package on removal.

    Span times are read from ``clock``; a benchmark run passes the speed probe's
    work clock, so that the probe's own time falls in no span.
    """

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, observe):
        spans, stack, counters, clock = self.spans, self.stack, self.counters, self.clock
        snf = name == "homology.snf"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if snf:
                span[0] = "homology.snf_torsion" if _is_torsion(result) else "homology.snf_free"
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every hook, in each sphero module that holds the same object."""
        modules = [m for n, m in sys.modules.items() if n == "sphero" or n.startswith("sphero.")]
        for mod_name, attr, name, observe in HOOKS:
            home = sys.modules[f"sphero.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, observe))
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(original, name, observe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def reset(self) -> None:
        """Start a new pass: keep nothing of the previous pass in the live state."""
        self.spans.clear()
        self.stack.clear()
        for key in self.counters:
            self.counters[key] = 0

    def snapshot(self, start: float, end: float, intervals) -> "PassTrace":
        """Self time per span name, counts and spans of the pass [start, end] that just ran.

        ``intervals`` are the operations' (start, end).  The time outside every
        span is worked out from them: the gaps between operations, plus each
        operation's time not covered by the top-level spans inside it.  Also
        records whether every span lies inside its parent and every top-level
        span inside one operation, after the one before it.
        """
        child = [0.0] * len(self.spans)
        tops = []
        contained = True
        for _name, s, e, parent in self.spans:
            if parent >= 0:
                child[parent] += e - s
                p_start, p_end = self.spans[parent][1:3]
                contained = contained and p_start <= s <= e <= p_end
            else:
                tops.append((s, e))
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, s, e, _parent) in enumerate(self.spans):
            self_s[name] += e - s - child[i]
        uncovered = (end - start) - sum(b - a for a, b in intervals)
        j, last_end = 0, start
        for a, b in intervals:
            covered = 0.0
            while j < len(tops) and tops[j][1] <= b:
                s, e = tops[j]
                contained = contained and a <= s and last_end <= s
                covered += e - s
                last_end = e
                j += 1
            uncovered += b - a - covered
        contained = contained and j == len(tops)
        return PassTrace(end - start, self_s, uncovered, contained, dict(self.counters),
                         list(self.spans))


@dataclass
class PassTrace:
    wall: float
    self_s: dict[str, float]
    uncovered: float  # pass time outside every span, from the operations' intervals
    contained: bool  # spans in their parents, top-level spans in one operation each
    counts: dict[str, int]
    spans: list[list]

    def scaled(self, factor: float) -> "PassTrace":
        """The same pass with its times multiplied by ``factor`` (spans stay as recorded)."""
        return PassTrace(self.wall * factor, {n: v * factor for n, v in self.self_s.items()},
                         self.uncovered * factor, self.contained, self.counts, self.spans)


def layer_metrics(traces: list[PassTrace], untraced_wall: float,
                  bytes_written: int) -> dict[str, float]:
    """Per-layer metrics: self times and counts averaged over the traced passes."""
    k = len(traces)
    self_s = {n: sum(t.self_s[n] for t in traces) / k for n in SPAN_NAMES}
    counts = {n: sum(t.counts[n] for t in traces) / k for n in COUNTERS}
    traced_wall = sum(t.wall for t in traces) / k
    m = {f"{name}_s": v for name, v in self_s.items() if name != "cli"}
    m["cli.self_s"] = self_s["cli"]
    m["homology.snf_s"] = self_s["homology.snf_free"] + self_s["homology.snf_torsion"]
    for key in COUNTERS:
        if not key.endswith(("_hits", "_proved")):
            m[key] = counts[key]
    calls = counts["complexes.has_arrow_calls"]
    m["complexes.arrow_hit_ratio"] = counts["complexes.has_arrow_hits"] / calls if calls else 0.0
    calls = counts["homology.pi1_calls"]
    m["homology.pi1_proved_ratio"] = counts["homology.pi1_proved"] / calls if calls else 0.0
    m["cli.bytes_written"] = bytes_written
    m["trace.unaccounted_s"] = sum(t.uncovered for t in traces) / k
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return m


def accounts_for_wall(traces: list[PassTrace], unaccounted: float) -> bool:
    """Spans are contained, and the self times plus the unaccounted time add up to the wall time.

    The unaccounted time comes from the operations' intervals, the self times
    from the spans alone.  Once every span is contained the two sums agree by
    arithmetic, so what this can catch is a span outside its parent, a
    top-level span outside an operation or overlapping the one before it,
    and a negative unaccounted time.
    """
    k = len(traces)
    self_total = sum(sum(t.self_s.values()) for t in traces) / k
    wall = sum(t.wall for t in traces) / k
    return (all(t.contained for t in traces) and unaccounted >= 0
            and abs(self_total + unaccounted - wall) < 1e-6)


def write_spans(path, passes: list[list[list]]) -> None:
    """Write the spans of every traced pass as JSON: [[name, start, end, parent], ...] per pass."""
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "passes": passes}, fh)
