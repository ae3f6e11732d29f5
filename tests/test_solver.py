import random
import tracemalloc

import pytest

from rainbowmatch import (
    BruteForceLimitError,
    brute_force_full_rainbow,
    build_graph,
    double_star_family,
    find_full_rainbow_matching,
    is_full_rainbow,
    max_rainbow_matching,
    verify_matching,
)
from conftest import (
    count_full_rainbow,
    latin_square,
    max_rainbow_by_enumeration,
    random_graph,
)


def test_empty_graph_has_empty_full_rainbow():
    outcome = find_full_rainbow_matching(build_graph(0, 0, []))
    assert outcome.matching == frozenset()


def test_four_cycle_blocked(four_cycle):
    outcome = find_full_rainbow_matching(four_cycle)
    assert outcome.matching is None
    assert outcome.exhaustive


def test_single_edge_witness(single_edge):
    outcome = find_full_rainbow_matching(single_edge)
    assert outcome.matching == frozenset({0})
    assert not outcome.exhaustive


def test_double_star_blocked():
    for m in (4, 6):
        outcome = find_full_rainbow_matching(double_star_family(m))
        assert outcome.matching is None
        assert outcome.exhaustive


def test_witnesses_are_full_rainbow():
    rng = random.Random(921)
    for _ in range(200):
        g = random_graph(rng)
        outcome = find_full_rainbow_matching(g)
        if outcome.matching is not None:
            assert is_full_rainbow(g, outcome.matching)


def test_max_rainbow_four_cycle(four_cycle):
    # oracle: both disjoint edge pairs are monochromatic, so one edge is the best
    assert max_rainbow_by_enumeration(four_cycle) == 1
    size, witness = max_rainbow_matching(four_cycle)
    assert size == 1
    assert len(witness) == 1


def test_max_rainbow_double_star_g4():
    g = double_star_family(4)
    assert max_rainbow_by_enumeration(g) == 4
    size, _ = max_rainbow_matching(g)
    assert size == 4


def test_max_rainbow_single_edge_and_empty(single_edge):
    assert max_rainbow_matching(single_edge) == (1, frozenset({0}))
    assert max_rainbow_matching(build_graph(0, 0, [])) == (0, frozenset())


def test_max_rainbow_witness_is_valid_rainbow():
    rng = random.Random(922)
    for _ in range(150):
        g = random_graph(rng)
        size, witness = max_rainbow_matching(g)
        assert len(witness) == size
        assert verify_matching(g, witness)
        colours = [g.edges[i].colour for i in witness]
        assert len(set(colours)) == size
        assert size == max_rainbow_by_enumeration(g)


def test_max_equals_colour_count_iff_full_exists():
    rng = random.Random(923)
    for _ in range(150):
        g = random_graph(rng)
        size, _ = max_rainbow_matching(g)
        exists = find_full_rainbow_matching(g).matching is not None
        assert (size == g.colour_count) == exists


def test_brute_force_four_cycle(four_cycle):
    outcome, count = brute_force_full_rainbow(four_cycle)
    assert count == 0
    assert outcome.matching is None
    assert outcome.exhaustive
    assert outcome.nodes_explored == 4  # 2x2 combinations


def test_brute_force_single_edge(single_edge):
    outcome, count = brute_force_full_rainbow(single_edge)
    assert count == 1
    assert outcome.matching == frozenset({0})


def test_brute_force_double_star_g4():
    outcome, count = brute_force_full_rainbow(double_star_family(4))
    assert count == 0
    assert outcome.nodes_explored == 4**5


def test_brute_force_first_witness_is_lexicographic():
    # aabb four-cycle: combinations in product order are (0,2),(0,3),(1,2),(1,3)
    g = build_graph(4, 2, [(0, 1, 0), (1, 2, 0), (2, 3, 1), (3, 0, 1)])
    outcome, count = brute_force_full_rainbow(g)
    assert count == 2
    assert outcome.matching == frozenset({0, 2})


def test_brute_force_guard():
    g = double_star_family(4)  # product 4^5 = 1024
    with pytest.raises(BruteForceLimitError) as info:
        brute_force_full_rainbow(g, limit=1000)
    assert info.value.product == 1024
    assert info.value.limit == 1000
    # raising the limit deliberately makes the same call succeed
    outcome, _ = brute_force_full_rainbow(g, limit=1024)
    assert outcome.exhaustive


def test_brute_force_empty_graph():
    outcome, count = brute_force_full_rainbow(build_graph(0, 0, []))
    assert count == 1
    assert outcome.matching == frozenset()


def test_backtracking_agrees_with_oracle():
    rng = random.Random(924)
    for _ in range(250):
        g = random_graph(rng)
        count, first = count_full_rainbow(g)
        outcome = find_full_rainbow_matching(g)
        assert (outcome.matching is not None) == (count > 0)
        brute_outcome, brute_count = brute_force_full_rainbow(g)
        assert brute_count == count
        assert brute_outcome.matching == first


def test_determinism():
    rng = random.Random(925)
    graphs = [random_graph(rng) for _ in range(50)]
    first = [
        (find_full_rainbow_matching(g), max_rainbow_matching(g), brute_force_full_rainbow(g))
        for g in graphs
    ]
    second = [
        (find_full_rainbow_matching(g), max_rainbow_matching(g), brute_force_full_rainbow(g))
        for g in graphs
    ]
    assert first == second


@pytest.mark.parametrize("order", range(2, 7))
def test_latin_squares_agree_with_oracles(order):
    # a transversal exists exactly for odd order; otherwise the maximum is n - 1
    for seed in (0, 1, 2):
        g = latin_square(order, seed)
        outcome = find_full_rainbow_matching(g)
        _, brute_count = brute_force_full_rainbow(g)
        assert (brute_count > 0) == (order % 2 == 1)
        assert (outcome.matching is not None) == (brute_count > 0)
        assert outcome.exhaustive == (outcome.matching is None)
        if outcome.matching is not None:
            assert is_full_rainbow(g, outcome.matching)
        size, witness = max_rainbow_matching(g)
        assert size == max_rainbow_by_enumeration(g) == (order if order % 2 else order - 1)
        assert len(witness) == size
        assert verify_matching(g, witness)
        assert len({g.edges[i].colour for i in witness}) == size


def test_refuted_states_are_not_searched_twice():
    # the order-8 cyclic square reaches many occupied-vertex sets along
    # several partial transversals; without the table of refuted states
    # the search enters 1,273 nodes
    outcome = find_full_rainbow_matching(latin_square(8, 0))
    assert outcome.matching is None
    assert outcome.nodes_explored == 873


def test_thousands_of_colours_do_not_exhaust_the_stack():
    # one search level per colour: a recursive search died here near 1,000
    n = 1200
    g = build_graph(2 * n, n, [(2 * i, 2 * i + 1, i) for i in range(n)])
    outcome = find_full_rainbow_matching(g)
    assert outcome.matching == frozenset(range(n))
    assert outcome.nodes_explored == n + 1
    assert max_rainbow_matching(g) == (n, frozenset(range(n)))


def test_isolated_vertices_cost_no_memory():
    # the engine relabels only the vertices that carry an edge
    g = build_graph(10**7, 1, [(0, 1, 0)])
    tracemalloc.start()
    try:
        outcome = find_full_rainbow_matching(g)
        size, witness = max_rainbow_matching(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(outcome.matching) == [0]
    assert (size, sorted(witness)) == (1, [0])
    assert peak < 1_000_000


def test_brute_force_masks_ignore_vertex_ids():
    # the oracle's masks are as wide as the number of vertices with an edge
    g = build_graph(10**8, 1, [(0, 10**8 - 1, 0)])
    tracemalloc.start()
    try:
        outcome, count = brute_force_full_rainbow(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 1
    assert outcome.matching == frozenset({0})
    assert peak < 1_000_000
