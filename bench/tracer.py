"""Outside-in tracing: spans around the package's public functions.

The tracer rebinds module attributes of the imported package inside the
benchmark process only; no file of the package changes.  Every module
attribute that refers to a traced function (including names imported with
``from .graphs import build_graph``) is replaced by a wrapper that records a
span ``[name, parent, start, end, info]``, where ``info`` is a count taken
from the arguments or the return value.  Private helpers are not wrapped, so
their time is self time of the nearest traced caller.  Spans stay in memory
until ``write_spans`` writes them out.

Spans recorded in forked pool workers are lost with the workers, so traced
passes must run the hunter with ``--jobs 1``.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Any, Callable, Optional

Info = Optional[Callable[[tuple, Any], Any]]

# (span name, module, function, info taken from (args, result)).  The span
# names are the layers reported by the benchmark.
TARGETS: tuple[tuple[str, str, str, Info], ...] = (
    ("cli", "cli", "run", None),
    (
        "hunting.generate",
        "hunting",
        "hunt",
        lambda args, out: (out.candidates_examined, out.orbits_examined, len(out.results)),
    ),
    ("hunting.canonical", "hunting", "canonical_colouring", lambda args, out: args[0]),
    ("graphs.build", "graphs", "build_graph", None),
    ("graphs.from_json", "graphs", "graph_from_json", None),
    ("graphs.to_json", "graphs", "graph_to_json", None),
    ("hypergraphs.convert", "hypergraphs", "from_coloured_graph", None),
    (
        "hypergraphs.degree_stats",
        "hypergraphs",
        "degree_stats",
        lambda args, out: out.delta_v1 > out.delta_max_rest,
    ),
    ("solver.find", "solver", "find_full_rainbow_matching", lambda args, out: out.nodes_explored),
    ("solver.max", "solver", "max_rainbow_matching", None),
    ("solver.brute", "solver", "brute_force_full_rainbow", lambda args, out: out[0].nodes_explored),
)
SPAN_NAMES = tuple(name for name, _, _, _ in TARGETS)


class Tracer:
    """Records nested spans; use as a context manager around traced calls."""

    def __init__(self, modules: dict[str, ModuleType], package: str):
        self.spans: list[list] = []
        self._modules = modules
        self._package = package
        self._stack = [-1]
        self._restore: list[tuple[ModuleType, str, Any]] = []

    def _wrap(self, name: str, func: Callable, info: Info) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, stack[-1], 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for name, module_name, attr, info in TARGETS:
            func = getattr(self._modules[f"{self._package}.{module_name}"], attr)
            wrapper = self._wrap(name, func, info)
            for module in self._modules.values():
                for key, value in list(vars(module).items()):
                    if value is func:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for module, key, value in reversed(self._restore):
            setattr(module, key, value)
        self._restore.clear()



def write_spans(spans: list[list], path: Path) -> None:
    """Write spans as JSON lines: id, name, parent id, start, end and info."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for index, (name, parent, start, end, info) in enumerate(spans):
            record = {"id": index, "name": name, "parent": parent, "start": start, "end": end}
            if info is not None:
                record["info"] = info
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children's durations are exactly the
    part of the parent's interval they cover.
    """
    own = [end - start for _, _, start, end, _ in spans]
    for (_, parent, start, end, _) in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer self times, call counts and the counts taken from return values.

    The self times of all spans add up to ``trace.wall_s``, the total
    duration of the root spans.
    """
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    canonical_by_shape: dict[Any, float] = defaultdict(float)
    hunt_s = 0.0
    wall_s = 0.0
    candidates = orbits = results = nodes = combinations = gap_passes = 0
    for (name, parent, start, end, info), own_s in zip(spans, own):
        self_s[name] += own_s
        calls[name] += 1
        if parent < 0:
            wall_s += end - start
        if info is None:  # the call raised, or its span has no count
            continue
        if name == "hunting.generate":
            hunt_s += end - start
            candidates += info[0]
            orbits += info[1]
            results += info[2]
        elif name == "hunting.canonical":
            canonical_by_shape[info] += end - start
        elif name == "hypergraphs.degree_stats":
            gap_passes += bool(info)
        elif name == "solver.find":
            nodes += info
        elif name == "solver.brute":
            combinations += info

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics = {f"{name}.self_s": self_s[name] for name in SPAN_NAMES}
    metrics.update(
        {
            "trace.wall_s": wall_s,
            "hunting.candidates": candidates,
            "hunting.orbits": orbits,
            "hunting.results": results,
            "hunting.orbit_yield": ratio(orbits, candidates),
            "hunting.canonical.calls": calls["hunting.canonical"],
            "hunting.canonical.us_per_call": 1e6
            * ratio(self_s["hunting.canonical"], calls["hunting.canonical"]),
            "hunting.max_unit_share": ratio(max(canonical_by_shape.values(), default=0.0), hunt_s),
            "solver.find.calls": calls["solver.find"],
            "solver.find.nodes": nodes,
            "solver.find.us_per_node": 1e6 * ratio(self_s["solver.find"], nodes),
            "solver.max.calls": calls["solver.max"],
            "solver.brute.calls": calls["solver.brute"],
            "solver.brute.combinations": combinations,
            "hypergraphs.gap_pass_ratio": ratio(gap_passes, calls["hypergraphs.degree_stats"]),
        }
    )
    return metrics
