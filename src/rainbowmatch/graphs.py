"""Edge-coloured multigraphs: representation, statistics and matching predicates."""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import starmap
from typing import Iterable, NamedTuple, Optional, Sequence

__all__ = [
    "InvalidInstanceError",
    "Edge",
    "ColouredMultigraph",
    "ColourStats",
    "build_graph",
    "max_degree",
    "colour_stats",
    "bipartition",
    "is_bipartite",
    "verify_matching",
    "is_full_rainbow",
    "graph_to_json",
    "graph_from_json",
    "graph_to_dot",
    "DOT_PALETTE",
]


class InvalidInstanceError(ValueError):
    """A graph or hypergraph violates one of its structural invariants."""


class Edge(NamedTuple):
    """One coloured edge; endpoints are unordered but stored as given.

    A named triple: it unpacks as ``u, v, colour`` and equals the plain
    triple of the same values.
    """

    u: int
    v: int
    colour: int


@dataclass(frozen=True)
class ColouredMultigraph:
    """An edge-coloured multigraph on dense integer identifiers.

    Vertices are ``0..vertex_count-1`` and colours ``0..colour_count-1``.
    Edge identity is the position in ``edges``: parallel edges are distinct
    and matchings reference edges by index.  Instances are immutable and
    fully validated on construction, so they are safe to share between
    concurrent workers.

    Invariants enforced here: endpoints and colours in range, no self-loops,
    and every colour in range appears on at least one edge.
    """

    vertex_count: int
    colour_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.vertex_count < 0 or self.colour_count < 0:
            raise InvalidInstanceError("vertex and colour counts must be non-negative")
        seen: set[int] = set()
        for i, e in enumerate(self.edges):
            if not (0 <= e.u < self.vertex_count) or not (0 <= e.v < self.vertex_count):
                raise InvalidInstanceError(
                    f"edge {i} endpoint out of range: ({e.u},{e.v}) with {self.vertex_count} vertices"
                )
            if e.u == e.v:
                raise InvalidInstanceError(f"edge {i} is a self-loop at vertex {e.u}")
            if not (0 <= e.colour < self.colour_count):
                raise InvalidInstanceError(
                    f"edge {i} colour out of range: {e.colour} with {self.colour_count} colours"
                )
            seen.add(e.colour)
        if len(seen) < self.colour_count:
            # stops within len(seen) + 1 steps, so a huge count allocates nothing
            missing = next(c for c in range(self.colour_count) if c not in seen)
            raise InvalidInstanceError(f"colour {missing} appears on no edge")

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def build_graph(
    vertex_count: int,
    colour_count: int,
    edges: Iterable[tuple[int, int, int]],
) -> ColouredMultigraph:
    """Build a validated graph from ``(u, v, colour)`` triples, preserving order."""
    return ColouredMultigraph(
        vertex_count=vertex_count,
        colour_count=colour_count,
        edges=tuple(starmap(Edge, edges)),
    )


def max_degree(graph: ColouredMultigraph) -> int:
    """Maximum number of incident edges over all vertices.

    Parallel edges count with multiplicity; an edgeless graph has degree 0.
    Only edge endpoints are counted, so the cost does not grow with
    ``vertex_count``.
    """
    degree = Counter(v for e in graph.edges for v in (e.u, e.v))
    return max(degree.values(), default=0)


class ColourStats(NamedTuple):
    multiplicities: dict[int, int]
    minimum: int


def colour_stats(graph: ColouredMultigraph) -> ColourStats:
    """Per-colour edge multiplicities and the minimum over all colours.

    The minimum is 0 only for a graph with no colours at all; otherwise every
    colour has multiplicity at least 1 by construction.
    """
    multiplicities = {c: 0 for c in range(graph.colour_count)}
    for e in graph.edges:
        multiplicities[e.colour] += 1
    minimum = min(multiplicities.values()) if multiplicities else 0
    return ColourStats(multiplicities, minimum)


def _sides(graph: ColouredMultigraph) -> Optional[dict[int, int]]:
    """Side 0 or 1 of every vertex that carries an edge, or None if some
    component has an odd cycle.

    Components are searched from their smallest vertex, which goes on side
    0.  Isolated vertices are left out, so the cost does not grow with
    ``vertex_count``.
    """
    adjacency: dict[int, list[int]] = {}
    for e in graph.edges:
        adjacency.setdefault(e.u, []).append(e.v)
        adjacency.setdefault(e.v, []).append(e.u)
    side: dict[int, int] = {}
    for start in sorted(adjacency):
        if start in side:
            continue
        side[start] = 0
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in adjacency[x]:
                if y not in side:
                    side[y] = 1 - side[x]
                    queue.append(y)
                elif side[y] == side[x]:
                    return None
    return side


def is_bipartite(graph: ColouredMultigraph) -> bool:
    """Whether no component has an odd cycle; isolated vertices cost nothing."""
    return _sides(graph) is not None


def bipartition(graph: ColouredMultigraph) -> Optional[tuple[set[int], set[int]]]:
    """Two-colour the graph, or return None if some component has an odd cycle.

    Within each component the smallest vertex identifier goes on the left
    side, which makes the partition deterministic.  Isolated vertices are
    their own components and land on the left.
    """
    side = _sides(graph)
    if side is None:
        return None
    left = {v for v in range(graph.vertex_count) if side.get(v, 0) == 0}
    right = {v for v, s in side.items() if s == 1}
    return left, right


def _is_rainbow_matching(ends: Sequence, colours: Sequence[int], indices: Iterable[int]) -> bool:
    """True iff every index is in range, so none is negative, and the indexed
    edges are pairwise vertex-disjoint with pairwise distinct colours.  An
    item of ``ends`` starts with its edge's endpoints; ``colours`` is parallel."""
    occupied: set[int] = set()
    used: set[int] = set()
    for i in indices:
        if not (0 <= i < len(ends)):
            return False
        u, v = ends[i][:2]
        if u in occupied or v in occupied or colours[i] in used:
            return False
        occupied.update((u, v))
        used.add(colours[i])
    return True


def verify_matching(graph: ColouredMultigraph, edge_indices: Iterable[int]) -> bool:
    """True iff the referenced edges are pairwise vertex-disjoint.

    Every index is checked before any edge is read: one out of range raises
    IndexError.
    """
    indices = list(edge_indices)
    for i in indices:
        if not (0 <= i < len(graph.edges)):
            raise IndexError(f"edge index {i} out of range for {len(graph.edges)} edges")
    # each edge its own colour, so only the vertices can clash
    return _is_rainbow_matching(graph.edges, range(len(graph.edges)), indices)


def is_full_rainbow(graph: ColouredMultigraph, edge_indices: Iterable[int]) -> bool:
    """True iff the edges form a matching with exactly one edge of every colour."""
    indices = list(edge_indices)  # checked by verify_matching
    full = verify_matching(graph, indices) and len(indices) == graph.colour_count
    # as many distinct colours as there are colours: each colour once
    return full and _is_rainbow_matching(graph.edges, [e.colour for e in graph.edges], indices)


# --- serialization -----------------------------------------------------------

def graph_to_json(graph: ColouredMultigraph) -> dict:
    """JSON-compatible dict; edge order is significant and preserved."""
    return {
        "vertices": graph.vertex_count,
        "colours": graph.colour_count,
        "edges": [{"u": e.u, "v": e.v, "colour": e.colour} for e in graph.edges],
    }


def graph_from_json(data: object) -> ColouredMultigraph:
    """Parse and validate the instance format produced by :func:`graph_to_json`."""
    if not isinstance(data, dict):
        raise InvalidInstanceError("graph JSON must be an object")
    try:
        vertices = data["vertices"]
        colours = data["colours"]
        raw_edges = data["edges"]
        edges = [(e["u"], e["v"], e["colour"]) for e in raw_edges]
    except (KeyError, TypeError) as exc:
        raise InvalidInstanceError(f"malformed graph JSON: {exc}") from exc
    # type() rather than isinstance(): JSON true/false arrive as bool, a
    # subclass of int, and must not pass as 1/0
    if type(vertices) is not int or type(colours) is not int:
        raise InvalidInstanceError("graph JSON counts must be integers")
    for u, v, c in edges:
        if not (type(u) is int and type(v) is int and type(c) is int):
            raise InvalidInstanceError("graph JSON edge fields must be integers")
    return build_graph(vertices, colours, edges)


# Fixed palette for DOT output; colour identifiers cycle through it by index.
DOT_PALETTE = (
    "blue",
    "red",
    "green",
    "orange",
    "purple",
    "brown",
    "cyan",
    "magenta",
    "gold",
    "darkgreen",
    "navy",
    "salmon",
    "turquoise",
    "violet",
    "olive",
    "black",
)


def graph_to_dot(graph: ColouredMultigraph) -> str:
    """Render the graph in DOT, one edge per line with color and label attributes.

    Node lines name the vertices that carry an edge, in increasing order; a
    comment line counts the isolated others, if any, so a huge vertex count
    costs nothing per vertex.
    """
    used = sorted({v for e in graph.edges for v in (e.u, e.v)})
    lines = ["graph G {"]
    if graph.vertex_count > len(used):
        lines.append(f"  // {graph.vertex_count - len(used)} isolated vertices")
    lines.extend(f"  {v};" for v in used)
    for e in graph.edges:
        name = DOT_PALETTE[e.colour % len(DOT_PALETTE)]
        lines.append(f'  {e.u} -- {e.v} [color={name}, label="{e.colour}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
