"""Witness stability: the solvers' answers are pinned to recorded values.

The values were recorded from the recursive solvers that the iterative
engine replaced.  Each entry is (find witness or None, max size, max
witness), with witnesses as sorted edge indices; for even Latin squares,
which have no transversal, only the max answer is recorded.  A change to the
search order, the pruning or the table of refuted states that moves any
witness shows up here, even where the new answer would still be correct.

Node counts are pinned too, as (find nodes, max nodes) pairs, for Latin
squares of orders 4-10 (seeds 0-2), double stars m = 2-8 and the same 100
random graphs.  They were recorded from the engine with the table of refuted
states, before each depth took its candidates from the free-edge mask; that
change must keep the tree and cut only the cost per node, and these pins
check that it does.  A change that means to reshape the tree (a new bound, a
dynamic colour order) updates them deliberately.
"""

import random

import pytest

from rainbowmatch import double_star_family, find_full_rainbow_matching, max_rainbow_matching
from rainbowmatch import solver
from conftest import latin_square, max_rainbow_by_enumeration, random_graph

LATIN_GOLDEN = {
    (5, 0): ([0, 7, 14, 16, 23], 5, [0, 7, 14, 16, 23]),
    (5, 1): ([1, 2, 7, 11, 18], 5, [1, 2, 7, 11, 18]),
    (5, 2): ([0, 1, 3, 13, 16], 5, [0, 1, 3, 13, 16]),
    (7, 0): ([0, 10, 20, 23, 33, 36, 46], 7, [0, 10, 20, 23, 33, 36, 46]),
    (7, 1): ([0, 1, 4, 7, 9, 19, 37], 7, [0, 1, 4, 7, 9, 19, 37]),
    (7, 2): ([1, 5, 11, 13, 15, 20, 25], 7, [1, 5, 11, 13, 15, 20, 25]),
    (9, 0): ([0, 10, 26, 30, 40, 47, 60, 70, 77], 9, [0, 10, 26, 30, 40, 47, 60, 70, 77]),
    (9, 1): ([3, 4, 8, 19, 21, 26, 30, 58, 76], 9, [3, 4, 8, 19, 21, 26, 30, 58, 76]),
    (9, 2): ([2, 5, 18, 20, 26, 33, 52, 64, 67], 9, [2, 5, 18, 20, 26, 33, 52, 64, 67]),
}
DOUBLE_STAR_GOLDEN = {
    4: (None, 4, [0, 6, 11, 16]),
    6: (None, 6, [0, 8, 15, 22, 29, 36]),
}
RANDOM_GOLDEN = [
    (None, 2, [0, 1]),
    (None, 1, [1]),
    (None, 2, [0, 3]),
    (None, 1, [1]),
    (None, 3, [1, 6, 10]),
    ([1, 2], 2, [1, 2]),
    (None, 2, [0, 4]),
    (None, 2, [1, 2]),
    ([0], 1, [0]),
    (None, 1, [2]),
    ([0], 1, [0]),
    (None, 2, [1, 4]),
    (None, 3, [0, 4, 10]),
    (None, 3, [2, 3, 5]),
    ([0, 3], 2, [0, 3]),
    ([0], 1, [0]),
    ([0], 1, [0]),
    (None, 2, [0, 3]),
    ([0, 1], 2, [0, 1]),
    (None, 1, [4]),
    (None, 1, [1]),
    (None, 2, [0, 2]),
    ([0], 1, [0]),
    ([0], 1, [0]),
    (None, 1, [2]),
    (None, 2, [1, 2]),
    (None, 1, [0]),
    (None, 2, [1, 8]),
    (None, 2, [1, 3]),
    (None, 2, [0, 2]),
    ([1, 4], 2, [1, 4]),
    (None, 2, [1, 4]),
    (None, 3, [0, 2, 3]),
    (None, 3, [0, 3, 4]),
    (None, 2, [2, 3]),
    ([0, 4], 2, [0, 4]),
    ([0], 1, [0]),
    (None, 1, [3]),
    (None, 3, [1, 3, 5]),
    ([0], 1, [0]),
    (None, 2, [0, 4]),
    (None, 1, [0]),
    ([1, 4], 2, [1, 4]),
    ([0], 1, [0]),
    (None, 2, [0, 4]),
    (None, 1, [0]),
    (None, 2, [2, 3]),
    (None, 2, [2, 3]),
    (None, 1, [0]),
    (None, 2, [0, 3]),
]
EVEN_LATIN_MAX_GOLDEN = {
    (4, 0): (3, [0, 5, 11]),
    (4, 1): (3, [0, 2, 11]),
    (4, 2): (3, [1, 3, 4]),
    (6, 0): (5, [0, 7, 17, 20, 34]),
    (6, 1): (5, [1, 2, 5, 7, 25]),
    (6, 2): (5, [3, 4, 11, 14, 21]),
    (8, 0): (7, [0, 9, 23, 26, 35, 46, 61]),
    (8, 1): (7, [0, 2, 3, 8, 24, 29, 53]),
    (8, 2): (7, [0, 2, 10, 19, 45, 57, 61]),
}
LARGER_RANDOM_GOLDEN = [
    ([0, 1], 2, [0, 1]),
    ([1, 3], 2, [1, 3]),
    ([0, 1], 2, [0, 1]),
    (None, 4, [0, 1, 3, 7]),
    (None, 4, [1, 3, 8, 9]),
    ([0], 1, [0]),
    ([1, 7, 20], 3, [1, 7, 20]),
    ([0], 1, [0]),
    ([0, 1], 2, [0, 1]),
    (None, 4, [0, 9, 12, 21]),
    (None, 4, [3, 4, 6, 9]),
    ([0, 2, 5, 7], 4, [0, 2, 5, 7]),
    (None, 1, [1]),
    (None, 1, [3]),
    (None, 3, [1, 2, 4]),
    ([1, 2, 7], 3, [1, 2, 7]),
    ([0], 1, [0]),
    ([0, 1], 2, [0, 1]),
    (None, 4, [4, 5, 10, 19]),
    ([0, 1], 2, [0, 1]),
    ([0, 1, 3], 3, [0, 1, 3]),
    (None, 2, [0, 1]),
    (None, 2, [2, 4]),
    (None, 3, [1, 2, 10]),
    (None, 1, [2]),
    (None, 3, [0, 2, 6]),
    (None, 4, [0, 2, 3, 5]),
    ([0, 1], 2, [0, 1]),
    (None, 2, [0, 1]),
    (None, 5, [0, 1, 4, 5, 6]),
    (None, 2, [0, 1]),
    ([0, 2], 2, [0, 2]),
    (None, 4, [0, 5, 8, 10]),
    (None, 3, [2, 5, 10]),
    ([1, 3, 4, 10], 4, [1, 3, 4, 10]),
    ([1, 2], 2, [1, 2]),
    ([0], 1, [0]),
    ([1, 2, 5], 3, [1, 2, 5]),
    ([1, 3, 8], 3, [1, 3, 8]),
    ([1, 3, 7], 3, [1, 3, 7]),
    ([0, 1], 2, [0, 1]),
    (None, 2, [0, 1]),
    (None, 2, [1, 6]),
    (None, 4, [1, 2, 5, 8]),
    ([0], 1, [0]),
    ([0, 1], 2, [0, 1]),
    (None, 2, [1, 16]),
    ([0, 10], 2, [0, 10]),
    (None, 3, [2, 6, 10]),
    (None, 3, [0, 2, 3]),
]
LATIN_NODES = {
    (4, 0): (13, 34),
    (4, 1): (5, 21),
    (4, 2): (5, 22),
    (5, 0): (6, 7),
    (5, 1): (6, 6),
    (5, 2): (6, 6),
    (6, 0): (91, 258),
    (6, 1): (91, 254),
    (6, 2): (91, 255),
    (7, 0): (9, 25),
    (7, 1): (8, 8),
    (7, 2): (8, 8),
    (8, 0): (873, 2540),
    (8, 1): (985, 2739),
    (8, 2): (965, 2630),
    (9, 0): (13, 44),
    (9, 1): (10, 13),
    (9, 2): (10, 10),
    (10, 0): (11271, 29711),
    (10, 1): (11821, 30931),
    (10, 2): (11346, 30162),
}
DOUBLE_STAR_NODES = {2: (1, 8), 4: (1, 22), 6: (1, 44), 8: (1, 74)}
RANDOM_NODES = [
    (1, 9), (1, 4), (1, 12), (1, 7), (2, 13), (3, 3), (2, 21), (1, 10), (2, 2), (1, 9),
    (2, 2), (2, 5), (1, 21), (2, 15), (3, 3), (2, 2), (2, 2), (5, 16), (3, 3), (1, 13),
    (1, 6), (3, 10), (2, 2), (2, 2), (1, 12), (1, 11), (1, 3), (2, 6), (1, 6), (2, 12),
    (3, 3), (1, 7), (2, 12), (1, 15), (3, 8), (3, 3), (2, 2), (1, 9), (1, 15), (2, 2),
    (1, 12), (1, 6), (3, 3), (2, 2), (1, 13), (1, 9), (1, 14), (1, 17), (1, 7), (1, 15),
]
LARGER_RANDOM_NODES = [
    (3, 3), (3, 3), (3, 3), (1, 29), (2, 31), (2, 2), (4, 5), (2, 2), (3, 3), (7, 27),
    (1, 18), (5, 10), (1, 6), (1, 22), (1, 21), (4, 4), (2, 2), (3, 3), (1, 54), (3, 3),
    (4, 4), (1, 9), (1, 8), (2, 25), (1, 20), (8, 27), (1, 18), (3, 3), (1, 13), (8, 20),
    (1, 25), (3, 3), (1, 15), (1, 21), (5, 5), (3, 3), (2, 2), (4, 4), (5, 7), (4, 4),
    (3, 3), (2, 5), (2, 5), (1, 23), (2, 2), (3, 3), (1, 30), (3, 3), (1, 25), (2, 9),
]


def _answer(graph):
    found = find_full_rainbow_matching(graph).matching
    size, witness = max_rainbow_matching(graph)
    return (None if found is None else sorted(found), size, sorted(witness))


@pytest.mark.parametrize("order, seed", sorted(LATIN_GOLDEN))
def test_odd_latin_square_witnesses(order, seed):
    assert _answer(latin_square(order, seed)) == LATIN_GOLDEN[order, seed]


@pytest.mark.parametrize("order, seed", sorted(EVEN_LATIN_MAX_GOLDEN))
def test_even_latin_square_max_witnesses(order, seed):
    size, witness = max_rainbow_matching(latin_square(order, seed))
    assert (size, sorted(witness)) == EVEN_LATIN_MAX_GOLDEN[order, seed]


@pytest.mark.parametrize("m", sorted(DOUBLE_STAR_GOLDEN))
def test_double_star_witnesses(m):
    assert _answer(double_star_family(m)) == DOUBLE_STAR_GOLDEN[m]


def test_random_graph_witnesses():
    rng = random.Random(926)
    assert [_answer(random_graph(rng)) for _ in RANDOM_GOLDEN] == RANDOM_GOLDEN


def test_larger_random_graph_witnesses():
    rng = random.Random(927)
    answers = [
        _answer(random_graph(rng, max_vertices=12, max_colours=7, max_edges=24))
        for _ in LARGER_RANDOM_GOLDEN
    ]
    assert answers == LARGER_RANDOM_GOLDEN


def _nodes(graph):
    max_nodes = solver._walk(solver._tables(graph), False)[1]
    return find_full_rainbow_matching(graph).nodes_explored, max_nodes


@pytest.mark.parametrize("order, seed", sorted(LATIN_NODES))
def test_latin_square_node_counts(order, seed):
    assert _nodes(latin_square(order, seed)) == LATIN_NODES[order, seed]


def test_double_star_node_counts():
    assert {m: _nodes(double_star_family(m)) for m in DOUBLE_STAR_NODES} == DOUBLE_STAR_NODES


def test_random_graph_node_counts():
    rng = random.Random(926)
    assert [_nodes(random_graph(rng)) for _ in RANDOM_NODES] == RANDOM_NODES
    rng = random.Random(927)
    larger = [
        _nodes(random_graph(rng, max_vertices=12, max_colours=7, max_edges=24))
        for _ in LARGER_RANDOM_NODES
    ]
    assert larger == LARGER_RANDOM_NODES


def test_refuted_states_are_keyed_by_depth():
    # Skipped colours let max mode occupy the same vertices at two depths;
    # a table keyed by the vertices alone answers 4 here.
    g = random_graph(random.Random(2046), max_vertices=16, max_colours=9, max_edges=36)
    size, witness = max_rainbow_matching(g)
    assert size == max_rainbow_by_enumeration(g) == 5
    assert sorted(witness) == [1, 6, 7, 22, 25]
