"""Per-layer tracing from outside the program.

The traced run replaces module attributes that name each layer's public
entry points (``repro.covering.cover.legalize_clique_masks``,
``repro.asmgen.program.peephole_optimize``, ``BlockCache.get`` …) with
wrappers that record one span per call — name, CPU and wall start/end,
parent span, operation id — plus the call's counts.  Spans stay in
memory and are written out once, at the end of the run.

Wrappers are installed only for the traced passes.  A patch target that
no longer exists (a later change may delete or rename a kernel) is
reported as an unmeasured layer with a warning; it never fails the run.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


def _count_legalize(counts: Counter, args: tuple, result: Any) -> None:
    counts["legalize.raw"] += len(args[1])
    counts["legalize.legal"] += len(result)


def _count_enumerated(counts: Counter, args: tuple, result: Any) -> None:
    # generate_maximal_clique_masks returns the clique list;
    # _enumerate_clique_masks returns (found, tripped, stats).
    found = result[0] if isinstance(result, tuple) else result
    counts["cliques.enumerated"] += len(found)


def _counter(name: str, size: Callable[[Any], int] = len):
    def count(counts: Counter, args: tuple, result: Any) -> None:
        counts[name] += size(result)
    return count


#: (module, attribute path, span name, count hook).  Attribute paths
#: name where the *caller* looks the function up, since most layers are
#: imported by name into the module that calls them.
PATCH_TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.serve.service", "execute_job", "serve.service", None),
    ("repro.isdl.parser", "parse_machine", "isdl.parse", None),
    ("repro.frontend", "compile_source", "frontend", None),
    ("repro.opt.pipeline", "optimize_function", "opt", None),
    ("repro.covering.engine", "generate_block_solution", "covering.engine", None),
    ("repro.covering.engine", "build_split_node_dag", "sndag.build",
     _counter("sndag.nodes", lambda sn: len(sn.nodes))),
    ("repro.covering.engine", "explore_assignments", "covering.assignment",
     _counter("assignment.assignments")),
    ("repro.covering.engine", "TaskGraph", "covering.taskgraph.build",
     _counter("taskgraph.tasks", lambda graph: len(graph.tasks))),
    ("repro.covering.engine", "cover_assignment", "covering.cover",
     _counter("cover.completed", lambda result: result is not None)),
    ("repro.covering.cover", "parallelism_masks", "covering.parallelism", None),
    ("repro.covering.cover", "generate_maximal_clique_masks",
     "covering.cliques.enumerate", _count_enumerated),
    ("repro.covering.cover", "_enumerate_clique_masks",
     "covering.cliques.enumerate", _count_enumerated),
    ("repro.covering.cover", "legalize_clique_masks",
     "covering.cliques.legalize", _count_legalize),
    ("repro.serve.cache", "BlockCache.get", "serve.cache.get",
     _counter("cache.hits", lambda solution: solution is not None)),
    ("repro.serve.cache", "BlockCache.put", "serve.cache.put", None),
    ("repro.asmgen.program", "peephole_optimize", "peephole",
     _counter("peephole.removed",
              lambda report: report.spills_removed + report.reloads_removed)),
    ("repro.asmgen.program", "allocate_registers", "regalloc", None),
    ("repro.peephole.optimizer", "compute_live_ranges", "regalloc.liveness", None),
    ("repro.peephole.optimizer", "pressure_profile", "regalloc.liveness", None),
    ("repro.regalloc.interference", "compute_live_ranges", "regalloc.liveness", None),
    ("repro.asmgen.program", "emit_block", "asmgen.emit", None),
    ("repro.simulator.executor", "run_program", "simulator.run", None),
)

#: A span: (name, cpu_start, cpu_end, wall_start, wall_end, parent, op),
#: where ``parent`` indexes the span list (-1 for an operation's root)
#: and ``op`` is "<pass>.<position>:<job>".
Span = Tuple[str, float, float, float, float, int, str]


class Recorder:
    """Spans and counts of one traced run, held in memory."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.calls: Counter = Counter()
        self.failures: Counter = Counter()
        self.counts: Counter = Counter()
        self.unmeasured: List[str] = []
        self._stack: List[int] = []
        self.op = ""

    def wrap(self, func: Callable, name: str, hook: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not stack:  # outside an operation: output checks, not timed
                return func(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self.failures[name] += 1
                raise
            finally:
                cpu1, wall1 = time.process_time(), time.perf_counter()
                stack.pop()
                spans[index] = (name, cpu0, cpu1, wall0, wall1, parent, self.op)
                self.calls[name] += 1
            if hook is not None:
                hook(self.counts, args, result)
            return result

        traced.__wrapped__ = func
        return traced

    @contextmanager
    def operation(self, op_id: str) -> Iterator[None]:
        """Make the enclosed call the root span ``op`` of operation
        ``op_id``; its self time is CPU no layer span covers."""
        self.op = op_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            cpu1, wall1 = time.process_time(), time.perf_counter()
            self._stack.pop()
            self.spans[index] = ("op", cpu0, cpu1, wall0, wall1, -1, op_id)

    @contextmanager
    def installed(self) -> Iterator["Recorder"]:
        """Install every resolvable wrapper; restore the originals on exit."""
        restore: List[Tuple[Any, str, Any]] = []
        for module_name, path, span, hook in PATCH_TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                target = f"{module_name}.{path}"
                if target not in self.unmeasured:
                    self.unmeasured.append(target)
                    print(f"warning: trace target {target} not found; "
                          f"layer {span!r} is unmeasured", file=sys.stderr)
                continue
            restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, span, hook))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Write the spans (CPU and wall, seconds) as JSON lines."""
        keys = ("name", "cpu_start", "cpu_end", "wall_start", "wall_end", "parent", "op")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_times(spans: List[Optional[Span]]) -> Dict[str, Dict[str, float]]:
    """Inclusive CPU, self CPU and wait (wall - CPU) seconds per span name.

    Self time is a span's CPU minus its children's: the program is
    single-threaded, so child spans never overlap each other.
    """
    child_cpu = defaultdict(float)
    for span in spans:
        if span is not None and span[5] >= 0:
            child_cpu[span[5]] += span[2] - span[1]
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"cpu": 0.0, "self": 0.0, "wait": 0.0}
    )
    for index, span in enumerate(spans):
        if span is None:
            continue
        name, cpu0, cpu1, wall0, wall1 = span[:5]
        entry = out[name]
        entry["cpu"] += cpu1 - cpu0
        entry["self"] += cpu1 - cpu0 - child_cpu[index]
        entry["wait"] += max(0.0, (wall1 - wall0) - (cpu1 - cpu0))
    return out


def _ratio(num: float, den: float) -> float:
    # A ratio over zero attempts reads 0: the layer did no work.
    return num / den if den else 0.0


#: Per-layer metric -> (unit, the span it needs).
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "covering.cliques.legalize_ms": ("ms", "covering.cliques.legalize"),
    "covering.cliques.legalize_calls": ("count", "covering.cliques.legalize"),
    "covering.cliques.legal_ratio": ("ratio", "covering.cliques.legalize"),
    "covering.cliques.enumerate_ms": ("ms", "covering.cliques.enumerate"),
    "covering.cliques.enumerated": ("count", "covering.cliques.enumerate"),
    "covering.cover.self_ms": ("ms", "covering.cover"),
    "covering.cover.calls": ("count", "covering.cover"),
    "covering.cover.completed_ratio": ("ratio", "covering.cover"),
    "covering.cover.failures": ("count", "covering.cover"),
    "covering.taskgraph.build_ms": ("ms", "covering.taskgraph.build"),
    "covering.taskgraph.tasks": ("count", "covering.taskgraph.build"),
    "covering.parallelism.self_ms": ("ms", "covering.parallelism"),
    "covering.assignment.self_ms": ("ms", "covering.assignment"),
    "covering.assignment.assignments": ("count", "covering.assignment"),
    "sndag.build_ms": ("ms", "sndag.build"),
    "sndag.nodes": ("count", "sndag.build"),
    "covering.engine.self_ms": ("ms", "covering.engine"),
    "covering.engine.blocks": ("count", "covering.engine"),
    "peephole.self_ms": ("ms", "peephole"),
    "peephole.removed": ("count", "peephole"),
    "regalloc.self_ms": ("ms", "regalloc"),
    "regalloc.liveness_ms": ("ms", "regalloc.liveness"),
    "asmgen.emit_ms": ("ms", "asmgen.emit"),
    "serve.cache.get_ms": ("ms", "serve.cache.get"),
    "serve.cache.get_wait_ms": ("ms", "serve.cache.get"),
    "serve.cache.put_ms": ("ms", "serve.cache.put"),
    "serve.cache.put_wait_ms": ("ms", "serve.cache.put"),
    "serve.cache.hit_ratio": ("ratio", "serve.cache.get"),
    "serve.service.self_ms": ("ms", "serve.service"),
    "isdl.parse_ms": ("ms", "isdl.parse"),
    "frontend.self_ms": ("ms", "frontend"),
    "opt.self_ms": ("ms", "opt"),
    "simulator.run_ms": ("ms", "simulator.run"),
    "other.self_ms": ("ms", "op"),
    "trace.overhead_pct": ("%", "op"),
}


def layer_metrics(recorder: Recorder, ops: int,
                  pairs: List[Tuple[float, float]]) -> Dict[str, Dict[str, Any]]:
    """Per-operation layer metrics of a traced run.

    ``pairs`` holds each pass's operation CPU seconds untraced and then
    traced, the two run back to back; the tracing overhead is the median
    of their ratios, so a change of VM speed between pairs cancels out.
    """
    times = layer_times(recorder.spans)
    calls, counts = recorder.calls, recorder.counts
    per_op = 1.0 / ops

    def ms(span: str, kind: str) -> float:
        return times[span][kind] * 1000.0 * per_op if span in times else 0.0

    values = {
        "covering.cliques.legalize_ms": ms("covering.cliques.legalize", "cpu"),
        "covering.cliques.legalize_calls": calls["covering.cliques.legalize"] * per_op,
        "covering.cliques.legal_ratio": _ratio(counts["legalize.legal"], counts["legalize.raw"]),
        "covering.cliques.enumerate_ms": ms("covering.cliques.enumerate", "cpu"),
        "covering.cliques.enumerated": counts["cliques.enumerated"] * per_op,
        "covering.cover.self_ms": ms("covering.cover", "self"),
        "covering.cover.calls": calls["covering.cover"] * per_op,
        "covering.cover.completed_ratio": _ratio(counts["cover.completed"], calls["covering.cover"]),
        "covering.cover.failures": recorder.failures["covering.cover"] * per_op,
        "covering.taskgraph.build_ms": ms("covering.taskgraph.build", "cpu"),
        "covering.taskgraph.tasks": counts["taskgraph.tasks"] * per_op,
        "covering.parallelism.self_ms": ms("covering.parallelism", "self"),
        "covering.assignment.self_ms": ms("covering.assignment", "self"),
        "covering.assignment.assignments": counts["assignment.assignments"] * per_op,
        "sndag.build_ms": ms("sndag.build", "cpu"),
        "sndag.nodes": counts["sndag.nodes"] * per_op,
        "covering.engine.self_ms": ms("covering.engine", "self"),
        "covering.engine.blocks": calls["covering.engine"] * per_op,
        "peephole.self_ms": ms("peephole", "self"),
        "peephole.removed": counts["peephole.removed"] * per_op,
        "regalloc.self_ms": ms("regalloc", "self"),
        "regalloc.liveness_ms": ms("regalloc.liveness", "cpu"),
        "asmgen.emit_ms": ms("asmgen.emit", "cpu"),
        "serve.cache.get_ms": ms("serve.cache.get", "cpu"),
        "serve.cache.get_wait_ms": ms("serve.cache.get", "wait"),
        "serve.cache.put_ms": ms("serve.cache.put", "cpu"),
        "serve.cache.put_wait_ms": ms("serve.cache.put", "wait"),
        "serve.cache.hit_ratio": _ratio(counts["cache.hits"], calls["serve.cache.get"]),
        "serve.service.self_ms": ms("serve.service", "self"),
        "isdl.parse_ms": ms("isdl.parse", "cpu"),
        "frontend.self_ms": ms("frontend", "self"),
        "opt.self_ms": ms("opt", "self"),
        "simulator.run_ms": ms("simulator.run", "cpu"),
        "other.self_ms": ms("op", "self"),
        "trace.overhead_pct": 100.0 * (statistics.median(t / u for u, t in pairs) - 1.0),
    }
    missing = {
        span
        for module_name, path, span, _ in PATCH_TARGETS
        if f"{module_name}.{path}" in recorder.unmeasured
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, (unit, span) in LAYER_METRICS.items()
        if span not in missing
    }
