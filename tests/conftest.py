"""Shared fixtures, independent oracles and random instance generators.

The oracles here re-derive expected values by plain enumeration and share no
code with the package's solvers, so solver tests check against a genuinely
independent computation.
"""

from __future__ import annotations

import itertools
import random

import pytest

from rainbowmatch import ColouredMultigraph, TripartiteHypergraph, build_graph


@pytest.fixture
def single_edge() -> ColouredMultigraph:
    return build_graph(2, 1, [(0, 1, 0)])


@pytest.fixture
def four_cycle() -> ColouredMultigraph:
    # colours alternate a,b,a,b around the cycle
    return build_graph(4, 2, [(0, 1, 0), (1, 2, 1), (2, 3, 0), (3, 0, 1)])


@pytest.fixture
def triangle() -> ColouredMultigraph:
    return build_graph(3, 3, [(0, 1, 0), (1, 2, 1), (0, 2, 2)])


def count_full_rainbow(graph: ColouredMultigraph) -> tuple[int, frozenset | None]:
    """Oracle: enumerate every one-edge-per-colour choice, count matchings."""
    classes: list[list[int]] = [[] for _ in range(graph.colour_count)]
    for i, e in enumerate(graph.edges):
        classes[e.colour].append(i)
    count = 0
    first = None
    for combo in itertools.product(*classes):
        seen: set[int] = set()
        for i in combo:
            e = graph.edges[i]
            if e.u in seen or e.v in seen:
                break
            seen.add(e.u)
            seen.add(e.v)
        else:
            count += 1
            if first is None:
                first = frozenset(combo)
    return count, first


def max_rainbow_by_enumeration(graph: ColouredMultigraph) -> int:
    """Oracle: largest rainbow matching, found by trying colour subsets."""
    classes: list[list[int]] = [[] for _ in range(graph.colour_count)]
    for i, e in enumerate(graph.edges):
        classes[e.colour].append(i)
    for size in range(graph.colour_count, 0, -1):
        for subset in itertools.combinations(range(graph.colour_count), size):
            for combo in itertools.product(*(classes[c] for c in subset)):
                seen: set[int] = set()
                for i in combo:
                    e = graph.edges[i]
                    if e.u in seen or e.v in seen:
                        break
                    seen.add(e.u)
                    seen.add(e.v)
                else:
                    return size
    return 0


def random_graph(
    rng: random.Random,
    max_vertices: int = 8,
    max_colours: int = 5,
    max_edges: int = 12,
) -> ColouredMultigraph:
    n = rng.randint(2, max_vertices)
    k = rng.randint(1, max_colours)
    m = rng.randint(k, max_edges)
    edges = []
    for c in range(k):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, c))
    for _ in range(m - k):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.randrange(k)))
    return build_graph(n, k, edges)


def random_bipartite_graph(
    rng: random.Random,
    max_side: int = 5,
    max_colours: int = 4,
    max_edges: int = 12,
) -> ColouredMultigraph:
    left_size = rng.randint(1, max_side)
    right_size = rng.randint(1, max_side)
    n = left_size + right_size
    # scatter the two sides over the identifier range so index maps matter
    vertices = list(range(n))
    rng.shuffle(vertices)
    left = vertices[:left_size]
    right = vertices[left_size:]
    k = rng.randint(1, max_colours)
    m = rng.randint(k, max_edges)
    edges = []
    for c in range(k):
        edges.append((rng.choice(left), rng.choice(right), c))
    for _ in range(m - k):
        edges.append((rng.choice(left), rng.choice(right), rng.randrange(k)))
    return build_graph(n, k, edges)


def random_tripartite_hypergraph(
    rng: random.Random,
    max_v1: int = 4,
    max_side: int = 5,
) -> TripartiteHypergraph:
    v1 = rng.randint(1, max_v1)
    v2 = rng.randint(1, max_side)
    v3 = rng.randint(1, max_side)
    triples = []
    for a in range(v1):
        for _ in range(rng.randint(1, 3)):
            triples.append((a, rng.randrange(v2), rng.randrange(v3)))
    return TripartiteHypergraph(
        v1_count=v1, v2_count=v2, v3_count=v3, triples=tuple(triples), tripartite=True
    )


def random_threshold_hypergraph(rng: random.Random) -> TripartiteHypergraph:
    """Random tripartite instance satisfying the 2*Delta degree threshold.

    Every colour receives exactly 2*target triples while vertex degrees on
    the other sides are capped at target, so delta(V1) = 2*target is at least
    twice the realised maximum degree and a V1-matching must exist.
    """
    target = rng.randint(1, 2)
    v1 = rng.randint(1, 6)
    v2 = 2 * v1 + rng.randint(0, 2)
    v3 = 2 * v1 + rng.randint(0, 2)
    degree_b = [0] * v2
    degree_c = [0] * v3
    triples = []
    for a in range(v1):
        for _ in range(2 * target):
            b = rng.choice([x for x in range(v2) if degree_b[x] < target])
            c = rng.choice([x for x in range(v3) if degree_c[x] < target])
            degree_b[b] += 1
            degree_c[c] += 1
            triples.append((a, b, c))
    return TripartiteHypergraph(
        v1_count=v1, v2_count=v2, v3_count=v3, triples=tuple(triples), tripartite=True
    )


def latin_square_edges(order: int, seed: int) -> list[tuple[int, int, int]]:
    """Edges of the cyclic Latin square of the given order as a coloured K_{n,n}.

    Row i is vertex i, column j is vertex order + j, and cell (i, j) is an
    edge of colour (i + j) mod order, in row-major order.  Seed 0 gives that
    square unchanged; any other seed applies a random isotopy (rows, columns
    and symbols permuted) and then shuffles the edge order.  A transversal is
    a full rainbow matching: odd orders have one, even orders have none and
    their largest rainbow matching has order - 1 edges.
    """
    edges = [(i, order + j, (i + j) % order) for i in range(order) for j in range(order)]
    if seed == 0:
        return edges
    rng = random.Random(seed)
    rows, columns, symbols = (rng.sample(range(order), order) for _ in range(3))
    edges = [(rows[i], order + columns[j - order], symbols[c]) for i, j, c in edges]
    rng.shuffle(edges)
    return edges


def latin_square(order: int, seed: int) -> ColouredMultigraph:
    return build_graph(2 * order, order, latin_square_edges(order, seed))
