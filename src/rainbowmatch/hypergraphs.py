"""Correspondence between edge-coloured graphs and 3-uniform hypergraphs.

A coloured graph G maps to a hypergraph H whose vertices are the vertices of
G together with one new vertex per colour (the class V1).  Each coloured edge
{u, v} with colour c becomes the hyperedge {c, u, v}, so a full rainbow
matching of G is exactly a matching of H covering all of V1.  V2 and V3
are the two sides of G's bipartition, so when G is bipartite H is
tripartite.  Otherwise the same construction puts every vertex on one side:
V2 is one merged pool of G's vertices and V3 is empty.

The hypergraph is an input and output format.  :func:`from_coloured_graph`
is the one way in and :func:`as_coloured_graph` the one way back, and
:func:`degree_stats` and :func:`has_v1_matching` read that graph view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from . import solver
from .graphs import (
    ColouredMultigraph,
    InvalidInstanceError,
    _sides,
    build_graph,
    colour_stats,
    max_degree,
)

__all__ = [
    "TripartiteHypergraph",
    "DegreeStats",
    "from_coloured_graph",
    "as_coloured_graph",
    "degree_stats",
    "has_v1_matching",
    "hypergraph_to_json",
    "hypergraph_from_json",
]


@dataclass(frozen=True)
class TripartiteHypergraph:
    """3-uniform hypergraph with a distinguished colour class V1.

    When ``tripartite`` is True, every triple (a, b, c) meets V1, V2 and V3
    exactly once.  When it is False (the underlying graph was not bipartite),
    b and c both index a single merged vertex pool of size ``v2_count`` and
    ``v3_count`` is 0.
    """

    v1_count: int
    v2_count: int
    v3_count: int
    triples: tuple[tuple[int, int, int], ...]
    tripartite: bool

    def __post_init__(self) -> None:
        if min(self.v1_count, self.v2_count, self.v3_count) < 0:
            raise InvalidInstanceError("class sizes must be non-negative")
        if not self.tripartite and self.v3_count != 0:
            raise InvalidInstanceError("merged-pool hypergraphs must have v3_count == 0")
        # a merged pool is V2 at both ends of a triple
        third, kind = (self.v3_count, "V2/V3") if self.tripartite else (self.v2_count, "pool")
        covered: set[int] = set()
        for i, (a, b, c) in enumerate(self.triples):
            if not (0 <= a < self.v1_count):
                raise InvalidInstanceError(f"triple {i}: V1 index {a} out of range")
            if not (0 <= b < self.v2_count) or not (0 <= c < third):
                raise InvalidInstanceError(f"triple {i}: {kind} index out of range")
            if b == c and not self.tripartite:
                raise InvalidInstanceError(f"triple {i}: repeated pool vertex {b}")
            covered.add(a)
        if len(covered) < self.v1_count:
            # stops within len(covered) + 1 steps, so a huge count allocates nothing
            missing = next(a for a in range(self.v1_count) if a not in covered)
            raise InvalidInstanceError(f"V1 vertex {missing} occurs in no triple")

    @property
    def triple_count(self) -> int:
        return len(self.triples)


class DegreeStats(NamedTuple):
    """Minimum degree over V1 and maximum degree over everything else."""

    delta_v1: int
    delta_max_rest: int


def from_coloured_graph(graph: ColouredMultigraph) -> TripartiteHypergraph:
    """The hypergraph of a coloured graph, triple i for edge i.

    Edge {u, v} of colour c becomes the triple (c, x, y): x is its end on
    side 0 of the graph's bipartition, u when both ends are, and y the
    other end.  Each component's smallest vertex is on side 0, and V2 and
    V3 are the two sides.  A graph with an odd cycle gets the same
    construction with every vertex on side 0: V2 is then one merged pool,
    V3 is empty and ``tripartite`` is False.  Only the vertices that carry
    an edge are kept, each class numbered in ascending original identifier,
    so isolated vertices are dropped and the cost does not grow with
    ``vertex_count``.
    """
    side = _sides(graph)
    tripartite = side is not None
    if not tripartite:
        side = dict.fromkeys((v for e in graph.edges for v in (e.u, e.v)), 0)
    classes: tuple[list[int], list[int]] = ([], [])
    for v in sorted(side):
        classes[side[v]].append(v)
    index = {v: i for members in classes for i, v in enumerate(members)}
    return TripartiteHypergraph(
        v1_count=graph.colour_count,
        v2_count=len(classes[0]),
        v3_count=len(classes[1]),
        triples=tuple(
            (e.colour, index[e.u], index[e.v]) if side[e.u] == 0
            else (e.colour, index[e.v], index[e.u])
            for e in graph.edges
        ),
        tripartite=tripartite,
    )


def as_coloured_graph(
    instance: Union[ColouredMultigraph, TripartiteHypergraph],
) -> ColouredMultigraph:
    """View any instance as a coloured multigraph, triple i as edge i.

    A graph is returned as it is.  A hypergraph's triple (a, b, c) becomes
    the edge {b, c} with colour a: V2 vertices keep their numbers and V3
    vertices follow them, and a merged pool is the graph's vertex set.
    ``from_coloured_graph(as_coloured_graph(h)) == h`` for every ``h`` that
    :func:`from_coloured_graph` returns.  Solvers, statistics, reports and
    the brute-force oracle therefore apply to every instance unchanged.
    """
    if not isinstance(instance, TripartiteHypergraph):
        return instance
    offset = instance.v2_count if instance.tripartite else 0
    return build_graph(
        instance.v2_count + instance.v3_count,
        instance.v1_count,
        [(b, offset + c, a) for (a, b, c) in instance.triples],
    )


def degree_stats(instance: Union[ColouredMultigraph, TripartiteHypergraph]) -> DegreeStats:
    """Minimum triple-degree over V1, maximum over the remaining vertices.

    Any instance, graph or hypergraph, is read off its graph view: V1 vertex
    a is colour a, whose degree is its class size, and the other vertices
    are the graph's, so a graph and its hypergraph report the same.
    Degenerate empty classes report 0, and the cost does not grow with
    ``v2_count`` or ``v3_count``.
    """
    graph = as_coloured_graph(instance)
    return DegreeStats(colour_stats(graph).minimum, max_degree(graph))


def has_v1_matching(hypergraph: TripartiteHypergraph) -> Optional[frozenset[int]]:
    """A matching covering every V1 vertex exactly once, or None.

    The result is a set of triple indices, which are the edge indices of the
    graph view, deterministic for a given input (ties broken towards lower
    indices).
    """
    return solver.find_full_rainbow_matching(as_coloured_graph(hypergraph)).matching


# --- serialization -----------------------------------------------------------

def hypergraph_to_json(hypergraph: TripartiteHypergraph) -> dict:
    return {
        "v1": hypergraph.v1_count,
        "v2": hypergraph.v2_count,
        "v3": hypergraph.v3_count,
        "tripartite": hypergraph.tripartite,
        "triples": [[a, b, c] for (a, b, c) in hypergraph.triples],
    }


def hypergraph_from_json(data: object) -> TripartiteHypergraph:
    if not isinstance(data, dict):
        raise InvalidInstanceError("hypergraph JSON must be an object")
    try:
        v1, v2, v3 = data["v1"], data["v2"], data["v3"]
        tripartite = data["tripartite"]
        triples = [(a, b, c) for (a, b, c) in data["triples"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInstanceError(f"malformed hypergraph JSON: {exc}") from exc
    # type() rather than isinstance(): JSON true/false arrive as bool, a
    # subclass of int, and must not pass as 1/0
    if not all(type(n) is int for n in (v1, v2, v3)) or not isinstance(tripartite, bool):
        raise InvalidInstanceError("hypergraph JSON fields have wrong types")
    for t in triples:
        if not all(type(n) is int for n in t):
            raise InvalidInstanceError("hypergraph JSON triples must be integers")
    return TripartiteHypergraph(
        v1_count=v1, v2_count=v2, v3_count=v3, triples=tuple(triples), tripartite=tripartite
    )
