from collections import Counter
import json
import pickle
import random

import pytest

from rainbowmatch import (
    Edge,
    InvalidInstanceError,
    bipartition,
    build_graph,
    colour_stats,
    double_star_family,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    is_full_rainbow,
    max_degree,
    verify_matching,
)
from conftest import random_graph


def test_build_smallest_valid_instance():
    g = build_graph(2, 1, [(0, 1, 0)])
    assert g.vertex_count == 2
    assert g.colour_count == 1
    assert g.edge_count == 1


def test_build_rejects_self_loop():
    with pytest.raises(InvalidInstanceError, match="self-loop"):
        build_graph(2, 1, [(0, 0, 0)])


def test_build_four_cycle_fixture(four_cycle):
    assert four_cycle.edge_count == 4
    assert [e.colour for e in four_cycle.edges] == [0, 1, 0, 1]


def test_build_preserves_edge_order():
    g = build_graph(3, 2, [(2, 1, 1), (0, 1, 0), (1, 2, 0)])
    assert [(e.u, e.v, e.colour) for e in g.edges] == [(2, 1, 1), (0, 1, 0), (1, 2, 0)]


def test_build_rejects_out_of_range():
    with pytest.raises(InvalidInstanceError, match="endpoint"):
        build_graph(2, 1, [(0, 2, 0)])
    with pytest.raises(InvalidInstanceError, match="colour"):
        build_graph(2, 1, [(0, 1, 1)])
    with pytest.raises(InvalidInstanceError, match="non-negative"):
        build_graph(-1, 0, [])


def test_build_rejects_edgeless_colour():
    with pytest.raises(InvalidInstanceError, match="colour 1"):
        build_graph(2, 2, [(0, 1, 0)])


def test_parallel_edges_are_distinct():
    g = build_graph(2, 1, [(0, 1, 0), (0, 1, 0), (1, 0, 0)])
    assert g.edge_count == 3
    assert max_degree(g) == 3


def test_max_degree_cycle_and_edgeless(four_cycle):
    assert max_degree(four_cycle) == 2
    assert max_degree(build_graph(3, 0, [])) == 0
    assert max_degree(build_graph(0, 0, [])) == 0


def test_max_degree_double_star_m6():
    # centres carry one central edge plus m/2 leaf edges
    assert max_degree(double_star_family(6)) == 4


def test_colour_stats(four_cycle, single_edge):
    stats = colour_stats(four_cycle)
    assert stats.multiplicities == {0: 2, 1: 2}
    assert stats.minimum == 2
    assert colour_stats(single_edge).multiplicities == {0: 1}
    assert colour_stats(single_edge).minimum == 1
    g6 = double_star_family(6)
    assert set(colour_stats(g6).multiplicities.values()) == {6}
    assert colour_stats(g6).minimum == 6


def test_colour_stats_empty():
    assert colour_stats(build_graph(2, 0, [])).minimum == 0


def test_bipartition_four_cycle(four_cycle):
    assert bipartition(four_cycle) == ({0, 2}, {1, 3})


def test_bipartition_triangle_absent(triangle):
    assert bipartition(triangle) is None


def test_bipartition_smallest_vertex_left():
    g = build_graph(3, 1, [(1, 2, 0)])
    left, right = bipartition(g)
    # isolated vertex 0 is its own component and goes left
    assert left == {0, 1}
    assert right == {2}


def test_bipartition_double_star_components():
    # each component: one centre on one side together with the other centre's leaves
    m = 4
    g = double_star_family(m)
    left, right = bipartition(g)
    for i in range(m):
        c1 = i * (m + 2)
        assert c1 in left
        assert c1 + 1 in right
        assert {c1 + 2, c1 + 3} <= right  # leaves of c1
        assert {c1 + 4, c1 + 5} <= left  # leaves of c2


def test_verify_matching(triangle, four_cycle):
    assert verify_matching(triangle, {0})
    assert not verify_matching(triangle, {0, 1})  # share vertex 1
    assert verify_matching(four_cycle, {0, 2})
    assert verify_matching(four_cycle, set())


def test_verify_matching_index_out_of_range(triangle):
    with pytest.raises(IndexError):
        verify_matching(triangle, {3})


def test_is_full_rainbow(single_edge, four_cycle):
    assert is_full_rainbow(single_edge, {0})
    assert not is_full_rainbow(four_cycle, {0, 2})  # colours a,a
    assert not is_full_rainbow(four_cycle, {0, 1})  # not a matching
    assert not is_full_rainbow(four_cycle, {0})  # misses colour b
    with pytest.raises(IndexError):
        is_full_rainbow(four_cycle, {9})


def test_indices_are_checked_before_any_edge_is_read(four_cycle, single_edge):
    # edges 0 and 1 share a vertex, yet the index after them is out of range
    for predicate in (verify_matching, is_full_rainbow):
        with pytest.raises(IndexError) as caught:
            predicate(four_cycle, [0, 1, 9])
        assert str(caught.value) == "edge index 9 out of range for 4 edges"
    # an iterator is read once
    assert is_full_rainbow(single_edge, iter([0]))
    assert verify_matching(four_cycle, iter([0, 2]))


def test_is_full_rainbow_empty_graph():
    assert is_full_rainbow(build_graph(0, 0, []), set())


def test_random_graph_statistics_consistency():
    rng = random.Random(901)
    for _ in range(200):
        g = random_graph(rng)
        stats = colour_stats(g)
        assert sum(stats.multiplicities.values()) == g.edge_count
        # independent degree recount
        recount = Counter()
        for e in g.edges:
            recount[e.u] += 1
            recount[e.v] += 1
        assert max_degree(g) == max(recount.values())
        sides = bipartition(g)
        if sides is not None:
            left, right = sides
            assert left | right == set(range(g.vertex_count))
            assert not (left & right)
            for e in g.edges:
                assert (e.u in left) != (e.v in left)


def test_json_round_trip(four_cycle):
    data = graph_to_json(four_cycle)
    assert data == {
        "vertices": 4,
        "colours": 2,
        "edges": [
            {"u": 0, "v": 1, "colour": 0},
            {"u": 1, "v": 2, "colour": 1},
            {"u": 2, "v": 3, "colour": 0},
            {"u": 3, "v": 0, "colour": 1},
        ],
    }
    assert graph_from_json(data) == four_cycle


def test_json_round_trip_random():
    rng = random.Random(902)
    for _ in range(50):
        g = random_graph(rng)
        assert graph_from_json(graph_to_json(g)) == g


def test_edge_is_an_immutable_named_triple():
    edge = Edge(0, 1, 2)
    assert Edge._fields == ("u", "v", "colour")
    assert (edge.u, edge.v, edge.colour) == (0, 1, 2)
    u, v, colour = edge
    assert (u, v, colour) == (0, 1, 2)
    with pytest.raises(AttributeError):
        edge.u = 5
    assert build_graph(2, 1, [(0, 1, 0)]).edges == (Edge(0, 1, 0),)


def test_graph_survives_pickling():
    # the hunt's worker pool ships graphs between processes
    rng = random.Random(903)
    for _ in range(20):
        g = random_graph(rng)
        back = pickle.loads(pickle.dumps(g))
        assert back == g
        assert all(type(e) is Edge for e in back.edges)


def test_json_round_trip_keeps_bytes():
    rng = random.Random(904)
    for _ in range(50):
        text = json.dumps(graph_to_json(random_graph(rng)))
        assert json.dumps(graph_to_json(graph_from_json(json.loads(text)))) == text


def test_json_rejects_malformed():
    with pytest.raises(InvalidInstanceError):
        graph_from_json(["not", "an", "object"])
    with pytest.raises(InvalidInstanceError):
        graph_from_json({"vertices": 2, "colours": 1})
    with pytest.raises(InvalidInstanceError):
        graph_from_json({"vertices": 2, "colours": 1, "edges": [{"u": 0, "v": 1}]})
    with pytest.raises(InvalidInstanceError):
        graph_from_json({"vertices": "2", "colours": 1, "edges": []})


def test_dot_output(single_edge):
    dot = graph_to_dot(single_edge)
    assert dot.startswith("graph G {")
    assert '0 -- 1 [color=blue, label="0"]' in dot
    assert dot.endswith("}\n")


def test_dot_palette_cycles():
    # colour 16 wraps around to the first palette entry
    edges = [(0, 1, c) for c in range(17)]
    g = build_graph(2, 17, edges)
    dot = graph_to_dot(g)
    assert '[color=blue, label="0"]' in dot
    assert '[color=blue, label="16"]' in dot
    assert '[color=black, label="15"]' in dot


def test_dot_names_only_vertices_with_an_edge():
    # with no isolated vertex every vertex has its node line, as before
    assert graph_to_dot(build_graph(3, 1, [(2, 0, 0), (1, 2, 0)])) == (
        'graph G {\n  0;\n  1;\n  2;\n  2 -- 0 [color=blue, label="0"];\n'
        '  1 -- 2 [color=blue, label="0"];\n}\n'
    )
    assert graph_to_dot(build_graph(5, 1, [(3, 1, 0)])) == (
        'graph G {\n  // 3 isolated vertices\n  1;\n  3;\n'
        '  3 -- 1 [color=blue, label="0"];\n}\n'
    )
