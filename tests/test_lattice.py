"""Lattice certificates: exact where they exist, sound where they are found.

Paige's rule for abelian groups and the brute-force oracle share no code with
the reduction, and the one-pass checker shares none with either.
"""

import itertools
import math
from collections import Counter

import pytest

from rainbowmatch import (
    brute_force_full_rainbow,
    build_graph,
    cyclic_latin_square,
    find_full_rainbow_matching,
    lattice,
    max_rainbow_matching,
    solver,
)
from rainbowmatch.lattice import check_certificate, lattice_certificate
from conftest import latin_square


def cayley_table(orders):
    """The Cayley table of Z_n1 x ... x Z_nr as a coloured K_{n,n}: row g is
    vertex g, column h is vertex n + h, and cell (g, h) has colour g + h,
    each element numbered by its position in the product order."""
    elements = list(itertools.product(*map(range, orders)))
    number = {g: i for i, g in enumerate(elements)}
    n = len(elements)
    edges = [
        (i, n + j, number[tuple((a + b) % m for a, b, m in zip(g, h, orders))])
        for i, g in enumerate(elements)
        for j, h in enumerate(elements)
    ]
    return build_graph(2 * n, n, edges)


def abelian_groups(order):
    """Every abelian group of the order once, as its prime-power cyclic factors."""

    def partitions(a, largest):
        if a == 0:
            yield ()
        for part in range(min(a, largest), 0, -1):
            for rest in partitions(a - part, part):
                yield (part, *rest)

    per_prime = []
    for p in (p for p in range(2, order + 1) if all(p % q for q in range(2, p))):
        a = 0
        while order % p ** (a + 1) == 0:
            a += 1
        if a:
            per_prime.append([tuple(p**e for e in exponents) for exponents in partitions(a, a)])
    return [sum(choice, ()) for choice in itertools.product(*per_prime)]


def paige_says_no_transversal(orders):
    """Paige: the table has no transversal exactly when its Sylow 2-subgroup
    is nontrivial and cyclic, that is when exactly one factor is even."""
    return sum(m % 2 == 0 for m in orders) == 1


def test_abelian_groups_up_to_16_follow_paiges_rule():
    groups = [g for order in range(2, 17) for g in abelian_groups(order)]
    assert len(groups) == 24
    assert sum(map(paige_says_no_transversal, groups)) == 8
    for orders in groups:
        graph = cayley_table(orders)
        certificate = lattice_certificate(graph)
        assert (certificate is not None) == paige_says_no_transversal(orders), orders
        assert certificate is None or check_certificate(graph, *certificate)


def test_even_cyclic_squares_are_certified_and_odd_ones_are_not():
    for n in range(2, 21):
        graph = cyclic_latin_square(n)
        certificate = lattice_certificate(graph)
        assert (certificate is not None) == (n % 2 == 0), n
        assert certificate is None or check_certificate(graph, *certificate)


def test_every_isotope_of_the_order_10_square_is_certified():
    for seed in range(10):
        graph = latin_square(10, seed)
        certificate = lattice_certificate(graph)
        assert certificate is not None and check_certificate(graph, *certificate)


def test_edge_cases():
    # the empty graph and one edge have full rainbow matchings, and so no
    # certificate; isolated vertices neither count nor get a weight
    assert lattice_certificate(build_graph(0, 0, [])) is None
    assert lattice_certificate(build_graph(5, 0, [])) is None
    assert lattice_certificate(build_graph(2, 1, [(0, 1, 0)])) is None
    assert lattice_certificate(build_graph(900, 1, [(700, 3, 0)])) is None
    # the four-cycle with colours a, b, a, b, on sparse ids
    graph = build_graph(1000, 2, [(10, 20, 0), (20, 30, 1), (30, 40, 0), (40, 10, 1)])
    weights, modulus = lattice_certificate(graph)
    assert sorted(weights) == [10, 20, 30, 40, 1000, 1001]
    assert all(0 <= w < modulus for w in weights.values())
    assert check_certificate(graph, weights, modulus)
    # a triangle is not perfect: three vertices for two colours
    assert lattice_certificate(build_graph(3, 2, [(0, 1, 0), (1, 2, 1), (0, 2, 1)])) is None


def test_a_colour_lattice_of_lower_rank():
    # (0,1) and (2,3) in colour 0, (0,2) in colour 1: no full rainbow
    # matching, proved by weights that vanish on every edge exactly
    graph = build_graph(4, 2, [(0, 1, 0), (2, 3, 0), (0, 2, 1)])
    weights, modulus = lattice_certificate(graph)
    assert check_certificate(graph, weights, modulus)
    assert find_full_rainbow_matching(graph).matching is None


def _changed(weights, key, by):
    return {**weights, key: weights[key] + by}


def test_the_checker_rejects_what_proves_nothing():
    graph = cyclic_latin_square(6)
    weights, modulus = lattice_certificate(graph)
    assert check_certificate(graph, weights, modulus)
    for key in weights:
        for by in range(1, modulus):
            assert not check_certificate(graph, _changed(weights, key, by), modulus)
        # a change by the modulus changes nothing mod it
        assert check_certificate(graph, _changed(weights, key, modulus), modulus)
    assert not check_certificate(graph, weights, 1)
    assert not check_certificate(graph, weights, 0)
    assert not check_certificate(graph, weights, float(modulus))
    assert not check_certificate(graph, {**weights, 0: weights[0] + 0.0}, modulus)
    assert not check_certificate(graph, {k: w for k, w in weights.items() if k != 0}, modulus)
    assert not check_certificate(graph, {**weights, 99: 0}, modulus)
    # the same weights on a copy with one more edge, on two new vertices
    # whose weights cancel its colour's: the edge checks pass, but the
    # instance is not perfect, so the total proves nothing
    bigger = build_graph(14, 6, [*graph.edges, (12, 13, 0)])
    # colour c's key moves from 12 + c to 14 + c
    moved = {k if k < 12 else k + 2: w for k, w in weights.items()}
    moved.update({12: 0, 13: -moved[14]})
    assert all((moved[u] + moved[v] + moved[14 + c]) % modulus == 0 for u, v, c in bigger.edges)
    assert not check_certificate(bigger, moved, modulus)
    assert lattice_certificate(bigger) is None


def test_a_rejected_certificate_stops_max_mode(monkeypatch):
    graph = cyclic_latin_square(4)
    weights, modulus = lattice_certificate(graph)
    monkeypatch.setattr(lattice, "lattice_certificate", lambda g: (_changed(weights, 0, 1), modulus))
    with pytest.raises(RuntimeError, match="invalid certificate"):
        max_rainbow_matching(graph)


def _find_then_cap(graph):
    """Max mode as it ran before certificates: find walk, then cap n - 1."""
    n = graph.colour_count
    tables = solver._tables(graph)
    full, _ = solver._walk(tables, True)
    if full is not None:
        return n, frozenset(full)
    best, _ = solver._walk(tables, False, cap=n - 1)
    return len(best), frozenset(best)


def _agrees_with_the_engines(graph):
    certificate = lattice_certificate(graph)
    if certificate is not None:
        assert check_certificate(graph, *certificate)
        assert find_full_rainbow_matching(graph).matching is None
        if math.prod(Counter(edge.colour for edge in graph.edges).values()) <= 10**5:
            assert brute_force_full_rainbow(graph)[1] == 0
    assert max_rainbow_matching(graph) == _find_then_cap(graph)
    return certificate


def test_drawn_perfect_instances():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def perfect(draw):
        # 2k vertices among sparse ids and k colours, each on some edge
        k = draw(st.integers(1, 5))
        ids = draw(st.lists(st.integers(0, 40), min_size=2 * k, max_size=2 * k, unique=True))

        def other(v):
            w = draw(st.sampled_from(ids[:v] + ids[v + 1 :]))
            return ids[v], w

        edges = [(*other(v), draw(st.integers(0, k - 1))) for v in range(2 * k)]
        edges += [(*other(draw(st.integers(0, 2 * k - 1))), c) for c in range(k)]
        extra = draw(st.integers(0, k))
        edges += [(*other(draw(st.integers(0, 2 * k - 1))), draw(st.integers(0, k - 1))) for _ in range(extra)]
        return build_graph(41, k, draw(st.permutations(edges)))

    seen = set()

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(perfect())
    def check(graph):
        seen.add(_agrees_with_the_engines(graph) is not None)

    check()
    assert seen == {False, True}


def test_drawn_latin_square_isotopes():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(1, 8), st.integers(0, 10**6))
    def check(order, seed):
        certified = _agrees_with_the_engines(latin_square(order, seed)) is not None
        assert certified == (order % 2 == 0)

    check()

