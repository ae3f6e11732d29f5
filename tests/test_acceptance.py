"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
pass lines alongside the test names.
"""

import dataclasses
import json
import random
import time

from rainbowmatch import (
    BruteForceLimitError,
    SearchSpec,
    brute_force_full_rainbow,
    cli,
    colour_stats,
    conjecture_report,
    constant_defeater,
    degree_stats,
    double_star_family,
    find_full_rainbow_matching,
    graph_from_cycle_colouring,
    has_v1_matching,
    hypergraph_family,
    hunt,
    max_degree,
)
from rainbowmatch.hunting import _orderly_strings, read_certified_forms, result_line, summary_record
from conftest import count_full_rainbow, random_graph, random_threshold_hypergraph

import pytest


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: {text}: PASS")


def test_criterion_1_family_nonexistence():
    started = time.monotonic()
    for m in (4, 6, 8):
        outcome = find_full_rainbow_matching(double_star_family(m))
        assert outcome.matching is None
        assert outcome.exhaustive
    brief = time.monotonic()
    _, count4 = brute_force_full_rainbow(double_star_family(4))
    assert count4 == 0
    assert time.monotonic() - brief < 1.0  # stated bound for the 4^5 product
    _, count6 = brute_force_full_rainbow(double_star_family(6))
    assert count6 == 0
    # at m=8 the product 8^9 exceeds the default guard and the oracle is skipped
    with pytest.raises(BruteForceLimitError) as info:
        brute_force_full_rainbow(double_star_family(8))
    assert info.value.product == 8**9
    assert time.monotonic() - started < 120.0
    report(1, "no full rainbow matching in the double-star family (m=4,6,8)")


def test_criterion_2_degree_arithmetic():
    for m in (2, 4, 6, 8, 10):
        graph = double_star_family(m)
        assert graph.vertex_count == m * (m + 2)
        assert graph.edge_count == m * (m + 1)
        assert max_degree(graph) == m // 2 + 1
        assert set(colour_stats(graph).multiplicities.values()) == {m}
        stats = degree_stats(hypergraph_family(m))
        assert stats.delta_v1 == m
        assert stats.delta_max_rest == m // 2 + 1
    report(2, "degree and multiplicity arithmetic for m=2..10")


def test_criterion_3_conjecture_classification():
    r4 = conjecture_report(double_star_family(4))
    assert r4.statements["Conj1-bipartite"].is_counterexample
    assert r4.statements["AB-2.5/Conj2"].is_counterexample
    assert not r4.statements["ABCHS-6.1"].hypothesis_holds
    assert not r4.statements["ABCHS-6.1"].is_counterexample
    r6 = conjecture_report(double_star_family(6))
    assert r6.counterexamples() == (
        "AB-2.5/Conj2",
        "Conj1-bipartite",
        "ABCHS-6.1",
        "ABCHS-5.4/6.2",
    )
    assert not r6.statements["AB-Thm-2.6"].hypothesis_holds  # 6 < 8
    report(3, "conjecture classification of the m=4 and m=6 instances")


def test_criterion_4_unbounded_constant():
    for c in (1, 2, 3, 4):
        graph = constant_defeater(c)
        assert colour_stats(graph).minimum - max_degree(graph) == c
        assert find_full_rainbow_matching(graph).matching is None
    report(4, "multiplicity margin beats any constant (c=1..4)")


def test_criterion_5_degree_threshold_property_suite():
    started = time.monotonic()
    rng = random.Random(20260809)
    for _ in range(200):
        hypergraph = random_threshold_hypergraph(rng)
        stats = degree_stats(hypergraph)
        assert stats.delta_v1 >= 2 * stats.delta_max_rest
        assert has_v1_matching(hypergraph) is not None
    assert time.monotonic() - started < 30.0
    report(5, "200/200 threshold instances admit a V1-matching")


def test_criterion_6_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(987654321)
    for _ in range(1000):
        graph = random_graph(rng)
        backtracking = find_full_rainbow_matching(graph).matching is not None
        _, count = brute_force_full_rainbow(graph)
        assert backtracking == (count > 0)
    assert time.monotonic() - started < 60.0
    report(6, "1000/1000 random instances: backtracking agrees with brute force")


def test_criterion_7_two_regular_gap_witness(tmp_path):
    started = time.monotonic()
    spec = SearchSpec(
        max_edges=12,
        colour_class_size=3,
        require_bipartite=True,
        require_delta_gap=True,
    )
    outcome = hunt(spec)
    assert outcome.exhausted
    if not outcome.results:
        # next feasible total for exact class size 3 on even cycles
        outcome = hunt(dataclasses.replace(spec, max_edges=18))
        assert outcome.exhausted
    archive = tmp_path / "delta_gap_hunt.jsonl"
    with archive.open("w", encoding="utf-8") as handle:
        for result in outcome.results:
            handle.write(result_line(result))
        handle.write(json.dumps(summary_record(outcome, spec)) + "\n")
    assert outcome.results, "a 12-edge witness exists; the sweep must find it"
    for result in outcome.results:
        assert result.stats.delta_v1 == 3
        assert result.stats.delta_max_rest == 2
        assert result.certificate.matchings == 0
        _, recount = brute_force_full_rainbow(result.instance)
        assert recount == 0
        # every find sits strictly below the proved 2*Delta threshold
        assert result.stats.delta_v1 < 2 * result.stats.delta_max_rest
    with archive.open(encoding="utf-8") as handle:
        assert read_certified_forms(handle) == {r.canonical_form for r in outcome.results}
    assert time.monotonic() - started < 600.0
    report(7, "2-regular bipartite witness with delta(V1)=3 > 2 found and certified")


def test_criterion_8_minimal_blocked_instance():
    orbits = [
        graph_from_cycle_colouring((4,), flat, 2) for flat in _orderly_strings((4,), 2, 2, False)
    ]
    sequences = [tuple(e.colour for e in g.edges) for g in orbits]
    assert sequences == [(0, 0, 1, 1), (0, 1, 0, 1)]
    counts = [count_full_rainbow(g)[0] for g in orbits]
    assert counts[0] == 2  # aabb has a full rainbow matching (two of them)
    assert counts[1] == 0  # abab has none
    outcome = hunt(SearchSpec(max_edges=4, colour_class_size=2, require_bipartite=True))
    assert [r.canonical_form for r in outcome.results] == ["4:0,1,0,1"]
    assert outcome.results[0].certificate.combinations == 4
    report(8, "hunt at 4 edges returns exactly the abab cycle; aabb is clear")


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = cli.run(list(argv))
    return code, capsys.readouterr().out


def test_criterion_9_determinism(capsys, tmp_path):
    g6 = tmp_path / "g6.json"
    assert cli.run(["gen", "--family", "double-star", "--m", "6", "-o", str(g6)]) == 0
    capsys.readouterr()
    commands = [
        ("gen", ["gen", "--family", "double-star", "--m", "6"]),
        ("gen-dot", ["gen", "--family", "double-star", "--m", "4", "--format", "dot"]),
        ("convert", ["convert", str(g6)]),
        ("solve", ["solve", str(g6)]),
        ("check", ["check", str(g6)]),
        ("stats", ["stats", str(g6)]),
    ]
    for name, argv in commands:
        code1, out1 = run_cli(capsys, *argv)
        code2, out2 = run_cli(capsys, *argv)
        assert code1 == code2, name
        assert out1 == out2, name
        assert out1, name
    hunt_argv = [
        "hunt", "--bipartite", "--class-size", "3", "--max-edges", "12", "--require-gap",
    ]
    code1, serial = run_cli(capsys, *hunt_argv, "--jobs", "1")
    code2, parallel = run_cli(capsys, *hunt_argv, "--jobs", "3")
    assert code1 == code2 == 0
    assert serial == parallel
    assert '"type":"result"' in serial
    report(9, "byte-identical reruns, including hunt with 1 vs 3 workers")
