from collections import Counter
import random
import tracemalloc

import pytest

from rainbowmatch import (
    DegreeStats,
    InvalidInstanceError,
    TripartiteHypergraph,
    as_coloured_graph,
    bipartition,
    build_graph,
    colour_stats,
    degree_stats,
    double_star_family,
    find_full_rainbow_matching,
    from_coloured_graph,
    has_v1_matching,
    hypergraph_family,
    hypergraph_from_json,
    hypergraph_to_json,
    max_degree,
)
from conftest import random_bipartite_graph, random_graph, random_threshold_hypergraph


def test_single_edge_conversion(single_edge):
    hypergraph = from_coloured_graph(single_edge)
    assert hypergraph.tripartite
    assert (hypergraph.v1_count, hypergraph.v2_count, hypergraph.v3_count) == (1, 1, 1)
    assert hypergraph.triples == ((0, 0, 0),)


def test_double_star_conversion_counts():
    hypergraph = from_coloured_graph(double_star_family(6))
    assert hypergraph.tripartite
    assert hypergraph.v1_count == 7
    assert hypergraph.triple_count == 42


def test_non_bipartite_conversion(triangle):
    hypergraph = from_coloured_graph(triangle)
    assert not hypergraph.tripartite
    assert hypergraph.v2_count == 3
    assert hypergraph.v3_count == 0


def test_isolated_vertices_dropped():
    g = build_graph(4, 1, [(1, 3, 0)])
    hypergraph = from_coloured_graph(g)
    assert hypergraph == TripartiteHypergraph(1, 1, 1, ((0, 0, 0),), True)
    assert as_coloured_graph(hypergraph) == build_graph(2, 1, [(0, 1, 0)])


def test_as_coloured_graph_single_edge_round_trip(single_edge):
    hypergraph = from_coloured_graph(single_edge)
    assert as_coloured_graph(hypergraph) == single_edge


def test_round_trip_preserves_edge_multiset_g4():
    g = double_star_family(4)
    hypergraph = from_coloured_graph(g)
    back = as_coloured_graph(hypergraph)
    # the expected labels, derived here: each side in ascending order, the
    # side of each component's smallest vertex first
    left, right = bipartition(g)
    carrying = {v for e in g.edges for v in (e.u, e.v)}
    ordered = sorted(left & carrying) + sorted(right & carrying)
    label = {v: i for i, v in enumerate(ordered)}
    original = Counter()
    for e in g.edges:
        u, v = (e.u, e.v) if e.u in left else (e.v, e.u)
        original[(label[u], label[v], e.colour)] += 1
    reconstructed = Counter((e.u, e.v, e.colour) for e in back.edges)
    assert original == reconstructed


def test_round_trip_preserves_colour_multiplicities_random():
    rng = random.Random(911)
    for _ in range(100):
        g = random_bipartite_graph(rng)
        hypergraph = from_coloured_graph(g)
        back = as_coloured_graph(hypergraph)
        assert colour_stats(back).multiplicities == colour_stats(g).multiplicities
        assert back.edge_count == g.edge_count


def test_round_trip_is_identity_after_first_pass():
    rng = random.Random(916)
    graphs = [random_bipartite_graph(rng) for _ in range(100)]
    non_bipartite = []
    while len(non_bipartite) < 100:
        g = random_graph(rng)
        if bipartition(g) is None:
            non_bipartite.append(g)
    for g in graphs + non_bipartite:
        hypergraph = from_coloured_graph(g)
        assert hypergraph.tripartite == (bipartition(g) is not None)
        assert from_coloured_graph(as_coloured_graph(hypergraph)) == hypergraph


def test_degree_stats_family_values():
    for m, expected_rest in ((6, 4), (4, 3)):
        stats = degree_stats(hypergraph_family(m))
        assert stats.delta_v1 == m
        assert stats.delta_max_rest == expected_rest


def test_family_vertex_degrees_are_one_or_centre_degree():
    # outside V1, every vertex is a leaf (degree 1) or a centre (degree m/2+1)
    m = 6
    hypergraph = hypergraph_family(m)
    degrees = Counter()
    for _, b, c in hypergraph.triples:
        degrees[("b", b)] += 1
        degrees[("c", c)] += 1
    assert set(degrees.values()) == {1, m // 2 + 1}
    v1_degrees = Counter(a for a, _, _ in hypergraph.triples)
    assert set(v1_degrees.values()) == {m}


def test_degree_stats_single_edge(single_edge):
    stats = degree_stats(from_coloured_graph(single_edge))
    assert stats.delta_v1 == 1
    assert stats.delta_max_rest == 1


def test_degree_stats_match_graph_statistics():
    # degree_stats reads the graph view; this pins it against the degrees
    # counted over the triples themselves, and against the graph statistics
    # that check, stats and the hunter read
    rng = random.Random(912)
    graphs = [random_bipartite_graph(rng) for _ in range(100)]
    graphs += [random_graph(rng) for _ in range(100)]
    graphs += [build_graph(n, 0, []) for n in (0, 1, 5)]
    for g in graphs:
        hypergraph = from_coloured_graph(g)
        v1_degree = Counter(a for a, _, _ in hypergraph.triples)
        offset = hypergraph.v2_count if hypergraph.tripartite else 0
        rest_degree = Counter(v for _, b, c in hypergraph.triples for v in (b, offset + c))
        stats = degree_stats(hypergraph)
        assert stats.delta_v1 == min(v1_degree.values(), default=0) == colour_stats(g).minimum
        assert stats.delta_max_rest == max(rest_degree.values(), default=0) == max_degree(g)


@pytest.mark.parametrize("tripartite", [True, False])
def test_degree_stats_allocate_nothing_per_vertex(tripartite):
    huge = 10**12
    hypergraph = TripartiteHypergraph(
        v1_count=2,
        v2_count=huge,
        v3_count=huge if tripartite else 0,
        triples=((0, 0, huge - 1), (1, huge - 1, 0), (1, 5, huge - 2)),
        tripartite=tripartite,
    )
    tracemalloc.start()
    try:
        stats = degree_stats(hypergraph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    # merged pool: vertices 0 and huge - 1 are on two triples each
    assert stats == DegreeStats(delta_v1=1, delta_max_rest=1 if tripartite else 2)


def test_family_near_tightness_of_degree_threshold():
    # minimum V1 degree is 2*Delta - 2 for the double-star family
    for m in (4, 6, 8, 10):
        stats = degree_stats(hypergraph_family(m))
        assert stats.delta_v1 == 2 * stats.delta_max_rest - 2


def test_has_v1_matching_family_blocked():
    assert has_v1_matching(hypergraph_family(6)) is None


def test_has_v1_matching_single_edge(single_edge):
    hypergraph = from_coloured_graph(single_edge)
    assert has_v1_matching(hypergraph) == frozenset({0})


def test_has_v1_matching_tie_breaks_to_lower_index():
    hypergraph = TripartiteHypergraph(
        v1_count=1,
        v2_count=2,
        v3_count=2,
        triples=((0, 0, 0), (0, 1, 1)),
        tripartite=True,
    )
    assert has_v1_matching(hypergraph) == frozenset({0})


def test_has_v1_matching_merged_pool():
    # one colour on a triangle: any single edge covers V1
    g = build_graph(3, 1, [(0, 1, 0), (1, 2, 0), (0, 2, 0)])
    hypergraph = from_coloured_graph(g)
    assert not hypergraph.tripartite
    assert has_v1_matching(hypergraph) == frozenset({0})
    # three distinct colours on a triangle: impossible
    blocked = from_coloured_graph(
        build_graph(3, 3, [(0, 1, 0), (1, 2, 1), (0, 2, 2)])
    )
    assert has_v1_matching(blocked) is None


def test_as_coloured_graph_views_every_instance(single_edge, triangle):
    assert as_coloured_graph(single_edge) is single_edge
    tripartite = from_coloured_graph(single_edge)
    assert as_coloured_graph(tripartite) == single_edge
    merged = from_coloured_graph(triangle)
    # triple i is edge i: the pool vertices are the graph's vertices
    assert as_coloured_graph(merged) == triangle


def test_merged_pool_solve_matches_pool_graph():
    rng = random.Random(915)
    for _ in range(150):
        g = random_graph(rng)
        hypergraph = from_coloured_graph(g)
        if hypergraph.tripartite:
            continue
        outcome = find_full_rainbow_matching(as_coloured_graph(hypergraph))
        assert outcome == find_full_rainbow_matching(g)


def test_hypergraph_solver_agrees_with_graph_solver():
    rng = random.Random(913)
    for _ in range(150):
        g = random_graph(rng)
        hypergraph = from_coloured_graph(g)
        graph_answer = find_full_rainbow_matching(g).matching is not None
        assert (has_v1_matching(hypergraph) is not None) == graph_answer


def test_degree_threshold_guarantees_matching():
    # instances with delta(V1) >= 2*Delta(V2 u V3) always admit a V1-matching
    rng = random.Random(914)
    for _ in range(60):
        hypergraph = random_threshold_hypergraph(rng)
        stats = degree_stats(hypergraph)
        assert stats.delta_v1 >= 2 * stats.delta_max_rest
        assert has_v1_matching(hypergraph) is not None


def test_degenerate_empty_hypergraph():
    empty = TripartiteHypergraph(0, 0, 0, (), True)
    assert degree_stats(empty) == DegreeStats(0, 0)
    assert has_v1_matching(empty) == frozenset()


def test_validation_errors():
    with pytest.raises(InvalidInstanceError, match="V1 index"):
        TripartiteHypergraph(1, 1, 1, ((1, 0, 0),), True)
    with pytest.raises(InvalidInstanceError, match="out of range"):
        TripartiteHypergraph(1, 1, 1, ((0, 0, 1),), True)
    with pytest.raises(InvalidInstanceError, match="occurs in no triple"):
        TripartiteHypergraph(2, 1, 1, ((0, 0, 0),), True)
    with pytest.raises(InvalidInstanceError, match="repeated pool vertex"):
        TripartiteHypergraph(1, 2, 0, ((0, 1, 1),), False)
    with pytest.raises(InvalidInstanceError, match="v3_count == 0"):
        TripartiteHypergraph(1, 2, 2, ((0, 0, 1),), False)


def test_json_round_trip():
    rng = random.Random(915)
    for _ in range(30):
        hypergraph = from_coloured_graph(random_graph(rng))
        assert hypergraph_from_json(hypergraph_to_json(hypergraph)) == hypergraph


def test_json_rejects_malformed():
    for not_an_object in ([], 3):
        with pytest.raises(InvalidInstanceError, match="must be an object"):
            hypergraph_from_json(not_an_object)
    with pytest.raises(InvalidInstanceError):
        hypergraph_from_json({"v1": 1, "v2": 1, "v3": 1, "tripartite": True})
    with pytest.raises(InvalidInstanceError):
        hypergraph_from_json(
            {"v1": 1, "v2": 1, "v3": 1, "tripartite": "yes", "triples": [[0, 0, 0]]}
        )
    with pytest.raises(InvalidInstanceError):
        hypergraph_from_json(
            {"v1": 1, "v2": 1, "v3": 1, "tripartite": True, "triples": [[0, 0]]}
        )
