import random

import pytest

from rainbowmatch import (
    STATEMENTS,
    SolveOutcome,
    bipartition,
    brute_force_full_rainbow,
    build_graph,
    colour_stats,
    conjecture_report,
    constant_defeater,
    cyclic_latin_square,
    degree_stats,
    double_star_family,
    families,
    find_full_rainbow_matching,
    hypergraph_family,
    is_full_rainbow,
    max_degree,
    max_rainbow_matching,
    report_to_json,
)
from conftest import latin_square, random_bipartite_graph


def test_family_m6_shape():
    g = double_star_family(6)
    assert g.vertex_count == 48
    assert g.edge_count == 42
    assert g.colour_count == 7
    assert max_degree(g) == 4
    assert set(colour_stats(g).multiplicities.values()) == {6}


def test_family_m4_component_layout():
    g = double_star_family(4)
    assert g.vertex_count == 24
    assert g.edge_count == 20
    assert g.colour_count == 5
    # first component: central edge then the leaf edges of each centre
    head = [(e.u, e.v, e.colour) for e in g.edges[:5]]
    assert head == [(0, 1, 0), (0, 2, 1), (0, 3, 1), (1, 4, 1), (1, 5, 1)]
    # second component starts at vertex block 6
    assert (g.edges[5].u, g.edges[5].v, g.edges[5].colour) == (6, 7, 0)


def test_family_m2_boundary():
    g = double_star_family(2)
    assert g.vertex_count == 8
    assert g.edge_count == 6
    assert g.colour_count == 3
    assert max_degree(g) == 2
    assert colour_stats(g).minimum == 2
    # multiplicity 2 < Delta+1 = 3: the bipartite conjecture does not apply
    report = conjecture_report(g)
    assert not report.statements["Conj1-bipartite"].hypothesis_holds
    assert report.counterexamples() == ()


def test_family_arithmetic_all_m():
    for m in (2, 4, 6, 8, 10):
        g = double_star_family(m)
        assert g.vertex_count == m * (m + 2)
        assert g.edge_count == m * (m + 1)
        assert g.colour_count == m + 1
        assert max_degree(g) == m // 2 + 1
        assert set(colour_stats(g).multiplicities.values()) == {m}
        assert bipartition(g) is not None


def test_family_rejects_bad_m():
    with pytest.raises(ValueError):
        double_star_family(5)
    with pytest.raises(ValueError):
        double_star_family(0)


def test_hypergraph_family_stats():
    for m in (4, 6, 8):
        stats = degree_stats(hypergraph_family(m))
        assert stats.delta_v1 == m
        assert stats.delta_max_rest == m // 2 + 1
    assert hypergraph_family(4).tripartite


def test_family_blocked_and_one_short():
    for m in (4, 6, 8):
        assert find_full_rainbow_matching(double_star_family(m)).matching is None
        size, _ = max_rainbow_matching(double_star_family(m))
        assert size == m


def test_report_g6_refutes_four_statements():
    report = conjecture_report(double_star_family(6))
    assert report.counterexamples() == (
        "AB-2.5/Conj2",
        "Conj1-bipartite",
        "ABCHS-6.1",
        "ABCHS-5.4/6.2",
    )
    assert not report.statements["AB-Thm-2.6"].hypothesis_holds  # 6 < 8
    assert (report.delta_v1, report.delta_max_rest) == (6, 4)


def test_report_g4_spares_the_plus_two_statements():
    report = conjecture_report(double_star_family(4))
    assert report.counterexamples() == ("AB-2.5/Conj2", "Conj1-bipartite")
    assert not report.statements["ABCHS-6.1"].hypothesis_holds  # 4 < 2+3
    assert not report.statements["ABCHS-5.4/6.2"].hypothesis_holds  # 4 < 3+2


def test_report_single_edge_no_counterexamples(single_edge):
    report = conjecture_report(single_edge)
    assert report.full_rainbow_exists
    assert report.counterexamples() == ()


def test_report_non_bipartite_statements(triangle):
    report = conjecture_report(triangle)
    assert not report.bipartite
    for key in ("AB-2.5/Conj2", "Conj1-bipartite", "ABCHS-6.1", "AB-Thm-2.6"):
        assert not report.statements[key].hypothesis_holds
    assert not report.statements["ABCHS-5.4/6.2"].hypothesis_holds  # 1 < 2+2
    assert report.counterexamples() == ()


def test_report_mentions_unencoded_generalisation():
    report = conjecture_report(double_star_family(2))
    assert "AB-2.9" in report.notes


def test_report_json_shape():
    data = report_to_json(conjecture_report(double_star_family(4)))
    assert list(data["statements"].keys()) == list(STATEMENTS)
    assert data["stats"]["bipartite"] is True
    entry = data["statements"]["Conj1-bipartite"]
    assert entry == {
        "hypothesis_holds": True,
        "conclusion_holds": False,
        "is_counterexample": True,
    }


def test_report_never_flags_the_theorem():
    rng = random.Random(931)
    for _ in range(120):
        report = conjecture_report(random_bipartite_graph(rng))
        assert not report.statements["AB-Thm-2.6"].is_counterexample


def test_report_catches_a_solver_that_contradicts_the_theorem(monkeypatch):
    # four disjoint edges of colour 0: multiplicity 4 >= 2 x maximum degree
    # 1, and bipartite, so AB-Thm-2.6 promises a matching; a solver that
    # finds none is broken
    graph = build_graph(8, 1, [(2 * i, 2 * i + 1, 0) for i in range(4)])
    assert find_full_rainbow_matching(graph).matching is not None
    monkeypatch.setattr(
        families, "find_full_rainbow_matching", lambda graph: SolveOutcome(None, 1, True)
    )
    with pytest.raises(RuntimeError, match="solver defect"):
        conjecture_report(graph)


def test_constant_defeater_margins():
    for c in (1, 2, 3, 4):
        g = constant_defeater(c)
        margin = colour_stats(g).minimum - max_degree(g)
        assert margin == c
        assert g == double_star_family(2 * c + 2)


def test_constant_defeater_c2_is_g6():
    g = constant_defeater(2)
    assert colour_stats(g).minimum == 6
    assert max_degree(g) == 4
    assert find_full_rainbow_matching(g).matching is None


def test_constant_defeater_c1_blocked_with_certificate():
    g = constant_defeater(1)
    _, count = brute_force_full_rainbow(g)
    assert count == 0


def test_constant_defeater_rejects_nonpositive():
    with pytest.raises(ValueError):
        constant_defeater(0)


def test_cyclic_latin_square_is_the_seed_zero_square():
    for n in range(1, 8):
        assert cyclic_latin_square(n) == latin_square(n, 0)
    g = cyclic_latin_square(3)
    assert [(e.u, e.v, e.colour) for e in g.edges[:4]] == [(0, 3, 0), (0, 4, 1), (0, 5, 2), (1, 3, 1)]


def test_cyclic_latin_square_transversals():
    for n in range(1, 9):
        g = cyclic_latin_square(n)
        matching = find_full_rainbow_matching(g).matching
        if n % 2:
            assert is_full_rainbow(g, matching)
        else:
            assert matching is None


def test_cyclic_latin_square_rejects_small_orders():
    for n in (0, -3):
        with pytest.raises(ValueError, match="positive integer"):
            cyclic_latin_square(n)
