"""Witness stability: the solvers' answers are pinned to recorded values.

The values were recorded from the recursive solvers that the iterative
engine replaced.  Each entry is (find witness or None, max size, max
witness), with witnesses as sorted edge indices; for even Latin squares,
which have no transversal, only the max answer is recorded.  A change to the
search order, the pruning or the table of refuted states that moves any
witness shows up here, even where the new answer would still be correct.
Node counts are deliberately not pinned.
"""

import random

import pytest

from rainbowmatch import double_star_family, find_full_rainbow_matching, max_rainbow_matching
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


def test_refuted_states_are_keyed_by_depth():
    # Skipped colours let max mode occupy the same vertices at two depths;
    # a table keyed by the vertices alone answers 4 here.
    g = random_graph(random.Random(2046), max_vertices=16, max_colours=9, max_edges=36)
    size, witness = max_rainbow_matching(g)
    assert size == max_rainbow_by_enumeration(g) == 5
    assert sorted(witness) == [1, 6, 7, 22, 25]
