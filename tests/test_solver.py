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
    solver,
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


# wrong witnesses on the four-cycle, whose edges 0-3 alternate colours 0 and 1
WRONG_WITNESSES = {
    "shared vertex": [0, 1],
    "repeated colour": [0, 2],
    "missing colour": [1],
    # one index per colour, but edge 4 does not exist and edge -1 would read edge 3
    "index past the last edge": [0, 4],
    "negative index": [-1, 2],
}


@pytest.mark.parametrize("witness", WRONG_WITNESSES.values(), ids=WRONG_WITNESSES)
def test_a_wrong_engine_witness_is_caught(monkeypatch, four_cycle, witness):
    # the engine answers in find mode: each set must be full rainbow
    monkeypatch.setattr(solver, "_walk", lambda *args, **kwargs: (list(witness), 1))
    with pytest.raises(RuntimeError, match="invalid witness"):
        find_full_rainbow_matching(four_cycle)
    with pytest.raises(RuntimeError, match="invalid witness"):
        max_rainbow_matching(four_cycle)
    # find mode finds nothing and the branch and bound answers: a set of
    # fewer edges than colours passes when it is a rainbow matching
    monkeypatch.setattr(
        solver, "_walk", lambda tables, must_pick, cap=None: (None if must_pick else list(witness), 1)
    )
    if len(witness) < four_cycle.colour_count:
        assert max_rainbow_matching(four_cycle) == (1, frozenset(witness))
    else:
        with pytest.raises(RuntimeError, match="invalid witness"):
            max_rainbow_matching(four_cycle)


@pytest.mark.parametrize("witness", [[0, 7], [0, -1], [7]])
def test_an_engine_index_out_of_range_is_caught(monkeypatch, witness):
    # two disjoint edges of two colours: edge -1 would read edge 1, and
    # [0, -1] would pass as full rainbow if the index were not range-checked
    g = build_graph(4, 2, [(0, 1, 0), (2, 3, 1)])
    monkeypatch.setattr(solver, "_walk", lambda *args, **kwargs: (list(witness), 1))
    for solve in (find_full_rainbow_matching, max_rainbow_matching):
        with pytest.raises(RuntimeError, match="invalid witness"):
            solve(g)
    # the branch and bound answers
    monkeypatch.setattr(
        solver, "_walk", lambda tables, must_pick, cap=None: (None if must_pick else list(witness), 1)
    )
    with pytest.raises(RuntimeError, match="invalid witness"):
        max_rainbow_matching(g)


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


def _uncapped(graph):
    best = solver._walk(solver._tables(graph), False)[0]
    return len(best), frozenset(best)


def test_max_mode_agrees_with_the_uncapped_engine():
    # find mode first, then a branch and bound capped at n - 1, must give the
    # size and the witness of one uncapped branch and bound
    rng = random.Random(2047)
    gaps = set()
    for _ in range(3000):
        g = random_graph(
            rng,
            max_vertices=rng.choice((8, 12)),
            max_colours=rng.choice((5, 10)),
            max_edges=rng.choice((12, 24)),
        )
        expected = _uncapped(g)
        assert max_rainbow_matching(g) == expected
        if g.colour_count <= 5 and len(g.edges) <= 12:
            assert expected[0] == max_rainbow_by_enumeration(g)
        gaps.add(min(g.colour_count - expected[0], 4))
    assert gaps == {0, 1, 2, 3, 4}
    for order in range(1, 11):
        for seed in (0, 1, 2):
            g = latin_square(order, seed)
            expected = _uncapped(g)
            assert max_rainbow_matching(g) == expected
            if order <= 5:
                assert expected[0] == max_rainbow_by_enumeration(g)


def test_max_mode_agrees_with_the_uncapped_engine_on_drawn_graphs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def graphs(draw):
        n = draw(st.integers(2, 8))
        k = draw(st.integers(1, 6))

        def edge(colour):
            u = draw(st.integers(0, n - 1))
            v = draw(st.integers(0, n - 2))
            return u, v + (v >= u), colour

        edges = [edge(c) for c in range(k)]
        edges += [edge(draw(st.integers(0, k - 1))) for _ in range(draw(st.integers(0, 8)))]
        return build_graph(n, k, edges)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(graphs())
    def check(g):
        expected = _uncapped(g)
        assert max_rainbow_matching(g) == expected
        assert expected[0] == max_rainbow_by_enumeration(g)

    check()


# nodes of every engine call max mode makes: the find pass, then the capped
# branch and bound; one uncapped branch and bound enters 29,711 at order 10,
# seed 0
MAX_MODE_NODES = {
    (8, 0): [873, 9],
    (10, 0): [11_271, 20],
    (10, 1): [11_821, 11],
    (10, 2): [11_346, 10],
    (12, 0): [146_805, 57],
}


@pytest.fixture
def engine_nodes(monkeypatch):
    """The node count of every walk of the engine made while the test runs."""
    nodes = []
    walk = solver._walk

    def counted(*args, **kwargs):
        result = walk(*args, **kwargs)
        nodes.append(result[1])
        return result

    monkeypatch.setattr(solver, "_walk", counted)
    return nodes


@pytest.mark.parametrize("order, seed", sorted(MAX_MODE_NODES))
def test_max_mode_node_budget(engine_nodes, order, seed):
    size, _ = max_rainbow_matching(latin_square(order, seed))
    assert size == order - 1
    assert engine_nodes == MAX_MODE_NODES[order, seed]


def test_cap_stops_max_mode_at_its_first_set_of_that_size():
    # five disjoint one-edge colours: uncapped, the search takes all five
    tables = solver._tables(build_graph(10, 5, [(2 * i, 2 * i + 1, i) for i in range(5)]))
    assert solver._walk(tables, False) == ([0, 1, 2, 3, 4], 6)
    assert solver._walk(tables, False, cap=2) == ([0, 1], 3)
    # the order-10 square: its first set of 9 edges is the uncapped witness
    g = latin_square(10, 0)
    best, nodes = solver._walk(solver._tables(g), False, cap=9)
    assert (len(best), frozenset(best)) == _uncapped(g)
    assert nodes == 20


def test_max_mode_builds_its_tables_once(monkeypatch, engine_nodes):
    calls = []
    tables = solver._tables

    def counted(*args, **kwargs):
        calls.append(args[0].colour_count)
        return tables(*args, **kwargs)

    monkeypatch.setattr(solver, "_tables", counted)
    assert max_rainbow_matching(latin_square(6, 1))[0] == 5
    assert max_rainbow_matching(latin_square(5, 1))[0] == 5
    # one set-up per call, walked twice without a full set and once with one
    assert calls == [6, 5]
    assert len(engine_nodes) == 3


@pytest.mark.parametrize("colour_count", [1, 3, 8, 13])
def test_one_plan_reads_every_colouring_of_its_edges(colour_count):
    # one reader over many colourings of one edge list, with sparse vertex
    # ids among many isolated vertices and class-size profiles that change
    # from read to read: each read is a fresh set-up's, so nothing of one
    # read (shifts, layout cache) leaks into the next
    rng = random.Random(colour_count)
    ids = rng.sample(range(10**6), 12)
    pairs = [tuple(rng.sample(ids, 2)) for _ in range(colour_count + rng.randint(3, 12))]
    read = solver._plan(colour_count, pairs)
    profiles = set()
    for _ in range(150):
        # every colour on some edge, the rest drawn at random
        colours = list(range(colour_count))
        colours += [rng.randrange(colour_count) for _ in range(len(pairs) - colour_count)]
        rng.shuffle(colours)
        g = build_graph(10**6, colour_count, [(u, v, c) for (u, v), c in zip(pairs, colours)])
        assert read(colours) == solver._tables(g)
        profiles.add(tuple(sorted(map(colours.count, range(colour_count)))))
    assert colour_count == 1 or len(profiles) > 1


def test_a_max_walk_leaves_its_tables_as_they_were():
    # max mode adds its skips to copies of the layers: the tables still
    # equal a fresh set-up's, and a find walk on them gives the witness and
    # node count it gives on fresh tables
    rng = random.Random(4099)
    graphs = [random_graph(rng, max_vertices=10, max_colours=7, max_edges=18) for _ in range(300)]
    graphs += [latin_square(order, 0) for order in range(1, 9)]
    for g in graphs:
        tables = solver._tables(g)
        solver._walk(tables, False)
        assert tables == solver._tables(g)
        assert solver._walk(tables, True) == solver._walk(solver._tables(g), True)


def test_any_tables_can_be_walked_in_either_mode():
    # one reader per edge list, as the hunter reads its colour strings, and
    # one set-up per graph: either walk runs on either's tables and answers
    # for the graph
    rng = random.Random(8191)
    for _ in range(200):
        g = random_graph(rng, max_vertices=8, max_colours=5, max_edges=12)
        colours = [e.colour for e in g.edges]
        read = solver._plan(g.colour_count, [(e.u, e.v) for e in g.edges])
        for tables in (read(colours), solver._tables(g)):
            best, _ = solver._walk(tables, False)
            assert len(best) == max_rainbow_by_enumeration(g)
            assert verify_matching(g, best)
            assert len({g.edges[i].colour for i in best}) == len(best)
            full, _ = solver._walk(tables, True)
            assert (full is not None) == (count_full_rainbow(g)[0] > 0)
            assert full is None or is_full_rainbow(g, full)


@pytest.mark.parametrize("colours", [1, 2, 4, 8, 16])
def test_colour_counts_that_fill_the_depth_field(colours):
    # a state's key keeps its depth in colour_count.bit_length() bits, which
    # a power of two fills at the last depth; most colours get one edge of a
    # hidden perfect matching, which keeps the largest rainbow matchings near
    # full and the oracles fast
    rng = random.Random(colours)
    for _ in range(40):
        n = 2 * colours + rng.randint(0, 2)
        hidden = rng.sample(range(n), n)
        edges = [
            (hidden[2 * c], hidden[2 * c + 1], c) if rng.random() < 0.9
            else (*rng.sample(range(n), 2), c)
            for c in range(colours)
        ]
        edges += [(*rng.sample(range(n), 2), c) for c in range(colours) if rng.random() < 0.5]
        g = build_graph(n, colours, edges)
        # every depth from 0 to colours fits below the vertex bits
        for layer in solver._tables(g)[0]:
            assert all(vertices % 2 ** colours.bit_length() == 1 for _, vertices, _ in layer)
        count, first = count_full_rainbow(g)
        outcome = find_full_rainbow_matching(g)
        assert (outcome.matching is not None) == (count > 0)
        if outcome.matching is not None:
            assert is_full_rainbow(g, outcome.matching)
        assert brute_force_full_rainbow(g)[0].matching == first
        size, witness = max_rainbow_matching(g)
        assert size == max_rainbow_by_enumeration(g)
        assert len(witness) == size and verify_matching(g, witness)


def test_wide_instances_keep_a_small_peak():
    # 2,000 disjoint one-edge colours: the tables hold a wide keep mask per
    # edge and the stack a wide free-edge mask per depth, and nothing else
    # wide is kept per depth
    n = 2000
    g = build_graph(2 * n, n, [(2 * i, 2 * i + 1, i) for i in range(n)])
    for solve in (find_full_rainbow_matching, max_rainbow_matching):
        tracemalloc.start()
        try:
            solve(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5.6e6


def test_max_rainbow_of_no_colours_is_empty(engine_nodes):
    for vertices in (0, 4):
        assert max_rainbow_matching(build_graph(vertices, 0, [])) == (0, frozenset())
    # the find pass answers: the empty matching is full
    assert engine_nodes == [1, 1]
