"""The benchmark's workloads: seeded inputs, the timed call and the output check.

Each workload drives the package through a public entry point: ``cli.run``
for the ``hunt`` and ``solve`` subcommands, ``solver.max_rainbow_matching``
for the library-only max mode.  ``prepare`` is the set-up (fresh import of
the package, instance construction, reading the reference), ``call`` is the
part a pass times, and ``verify`` checks the answer afterwards and returns a
one-line reason when it is wrong.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Any, Optional

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
REFERENCE = BENCH_DIR / "reference.json"
PACKAGE = "rainbowmatch"


class SetupError(RuntimeError):
    """The checkout lacks something the benchmark needs; no pass can run."""


def import_package() -> dict[str, ModuleType]:
    """Import the package from ``src/`` afresh and return its modules by name.

    Earlier imports are dropped first, so every set-up pays the import again.
    """
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        package = importlib.import_module(PACKAGE)
        importlib.import_module(PACKAGE + ".cli")
    except ImportError as exc:
        raise SetupError(f"cannot import {PACKAGE} from {SRC}: {exc}") from exc
    if SRC not in Path(package.__file__).resolve().parents:
        raise SetupError(f"{PACKAGE} was imported from {package.__file__}, not from {SRC}")
    return {
        name: module
        for name, module in sys.modules.items()
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    }


def latin_square_edges(order: int, seed: int) -> list[tuple[int, int, int]]:
    """Edges of the cyclic Latin square of the given order as a coloured K_{n,n}.

    Row i is vertex i, column j is vertex order + j, and cell (i, j) is an
    edge of colour (i + j) mod order, in row-major order.  Seed 0 gives that
    square unchanged; any other seed applies a random isotopy (rows, columns
    and symbols permuted) and then shuffles the edge order.  An isotopy keeps
    the answers: for even order there is no transversal, and the largest
    rainbow matching has order - 1 edges.
    """
    edges = [(i, order + j, (i + j) % order) for i in range(order) for j in range(order)]
    if seed == 0:
        return edges
    rng = random.Random(seed)
    rows, columns, symbols = (rng.sample(range(order), order) for _ in range(3))
    edges = [(rows[i], order + columns[j - order], symbols[c]) for i, j, c in edges]
    rng.shuffle(edges)
    return edges


def digest(data: bytes) -> dict[str, Any]:
    """What a hunt's output is checked against: its hash, size and summary record."""
    lines = data.splitlines()
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "lines": len(lines),
        "summary": json.loads(lines[-1]) if lines else None,
    }


@dataclass
class Context:
    """What one set-up leaves for the passes."""

    modules: dict[str, ModuleType]
    workdir: Path
    expected: Any = None
    instance: Any = None
    instance_path: Optional[Path] = None
    output_path: Optional[Path] = None
    nodes: Optional[int] = None

    @property
    def cli(self) -> ModuleType:
        return self.modules[PACKAGE + ".cli"]

    @property
    def solver(self) -> ModuleType:
        return self.modules[PACKAGE + ".solver"]

    @property
    def graphs(self) -> ModuleType:
        return self.modules[PACKAGE + ".graphs"]

    def output_bytes(self) -> int:
        if self.output_path is None or not self.output_path.exists():
            return 0
        return self.output_path.stat().st_size


@dataclass(frozen=True)
class Hunt:
    """``rainbowmatch hunt`` over one exhaustive space.

    A hunt is exhaustive, so it has no seed-dependent input.  It runs with
    ``--jobs 1``: with two pool workers on two shared cores, the pass time
    followed the load on the other core and drifted by 30% between runs.
    Its output must match the digest recorded for the same arguments in
    ``reference.json`` (bytes, SHA-256 and summary record), which
    ``make_reference.py`` takes from a ``--jobs 1`` run and checks against a
    ``--jobs 2`` run.
    """

    args: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(("hunt",) + self.args)

    def argv(self, jobs: int, output: Path) -> list[str]:
        return ["hunt", *self.args, "--jobs", str(jobs), "-o", str(output)]

    def prepare(self, modules: dict[str, ModuleType], workdir: Path, seed: int) -> Context:
        try:
            expected = json.loads(REFERENCE.read_text(encoding="utf-8"))[self.key]
        except (OSError, ValueError, KeyError) as exc:
            raise SetupError(f"no reference digest for '{self.key}' in {REFERENCE}: {exc}") from exc
        return Context(modules, workdir, expected=expected, output_path=workdir / "hunt.jsonl")

    def call(self, ctx: Context) -> int:
        return ctx.cli.run(self.argv(1, ctx.output_path))

    def verify(self, ctx: Context, code: int) -> Optional[str]:
        if code != 0:
            return f"hunt exited with {code}, expected 0"
        got = digest(ctx.output_path.read_bytes())
        if got == ctx.expected:
            return None
        if got["summary"] != ctx.expected["summary"]:
            return f"summary record differs: {got['summary']}"
        return f"output differs from the reference ({got['bytes']} bytes, sha256 {got['sha256'][:12]})"


@dataclass(frozen=True)
class LatinSolve:
    """``rainbowmatch solve`` on a cyclic Latin square of even order: a certified negative."""

    order: int

    def prepare(self, modules: dict[str, ModuleType], workdir: Path, seed: int) -> Context:
        graphs = modules[PACKAGE + ".graphs"]
        graph = graphs.build_graph(2 * self.order, self.order, latin_square_edges(self.order, seed))
        path = workdir / "latin.json"
        path.write_text(json.dumps(graphs.graph_to_json(graph)) + "\n", encoding="utf-8")
        return Context(modules, workdir, instance_path=path, output_path=workdir / "solve.json")

    def call(self, ctx: Context) -> int:
        return ctx.cli.run(["solve", str(ctx.instance_path), "-o", str(ctx.output_path)])

    def verify(self, ctx: Context, code: int) -> Optional[str]:
        if code != 3:
            return f"solve exited with {code}, expected 3 (certified negative)"
        payload = json.loads(ctx.output_path.read_text(encoding="utf-8"))
        if payload.get("exists") is not False or payload.get("witness") is not None:
            return f"solve claims a full rainbow matching on a Latin square of even order: {payload}"
        if payload.get("exhaustive") is not True:
            return "solve did not report an exhaustive search"
        nodes = payload.get("nodes_explored")
        if ctx.nodes is None:
            ctx.nodes = nodes
        elif nodes != ctx.nodes:
            return f"search tree size changed between passes: {ctx.nodes} then {nodes}"
        return None


@dataclass(frozen=True)
class LatinMax:
    """``solver.max_rainbow_matching`` on a cyclic Latin square of even order (size order - 1)."""

    order: int

    def prepare(self, modules: dict[str, ModuleType], workdir: Path, seed: int) -> Context:
        graphs = modules[PACKAGE + ".graphs"]
        graph = graphs.build_graph(2 * self.order, self.order, latin_square_edges(self.order, seed))
        return Context(modules, workdir, instance=graph)

    def call(self, ctx: Context) -> tuple[int, frozenset[int]]:
        return ctx.solver.max_rainbow_matching(ctx.instance)

    def verify(self, ctx: Context, answer: tuple[int, frozenset[int]]) -> Optional[str]:
        size, witness = answer
        if size != self.order - 1:
            return f"max rainbow matching has size {size}, expected {self.order - 1}"
        if len(witness) != size:
            return f"witness has {len(witness)} edges for size {size}"
        if not ctx.graphs.verify_matching(ctx.instance, witness):
            return "witness edges are not vertex-disjoint"
        colours = {ctx.instance.edges[i].colour for i in witness}
        if len(colours) != size:
            return "witness repeats a colour"
        return None


# The stated size of each workload, and a tiny size of the same shape that
# the benchmark's own tests run in seconds.  Passes are short (a 10-edge hunt
# takes about 0.9 s, an order-10 Latin square about 0.25 s; 12 edges and
# order 12 take about 28 s and 7 s): a run then holds dozens of passes, each
# paired with the calibration loop timed just before it, and the median of
# their ratios follows the program rather than the speed of the host.
WORKLOADS = {
    "full": {
        "hunt-blockers": Hunt(("--class-size", "2", "--max-edges", "10")),
        "solve-latin": LatinSolve(10),
        "max-latin": LatinMax(10),
    },
    "tiny": {
        "hunt-blockers": Hunt(("--class-size", "2", "--max-edges", "8")),
        "solve-latin": LatinSolve(6),
        "max-latin": LatinMax(6),
    },
}
