"""Counterexample generators and the conjecture evaluation engine.

The double-star family is the workhorse: for even m it is a bipartite graph
with m components, each two adjacent centres carrying m/2 leaves apiece.
Central edges share one colour (blue, colour 0) while the leaf edges of
component i all have colour i+1, giving m+1 colours of multiplicity m against
maximum degree m/2+1.  No full rainbow matching exists: any candidate must
take some central edge, which blocks every leaf edge of that component and
with them the only edges of that component's colour.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import ColouredMultigraph, build_graph, colour_stats, is_bipartite, max_degree
from .hypergraphs import TripartiteHypergraph, from_coloured_graph
from .solver import find_full_rainbow_matching

__all__ = [
    "STATEMENTS",
    "StatementOutcome",
    "ConjectureReport",
    "double_star_family",
    "hypergraph_family",
    "constant_defeater",
    "cyclic_latin_square",
    "conjecture_report",
    "report_to_json",
]

# Statement keys, in report order:
#   AB-2.5/Conj2    Aharoni-Berger Conj. 2.5 (= ABCHS Conj. 5.3): a tripartite
#                   hypergraph with delta(V1) > Delta(V2 u V3) has a |V1|-matching.
#   Conj1-bipartite weakening of the above for bipartite graphs: every colour on
#                   at least Delta(G)+1 edges forces a full rainbow matching.
#   ABCHS-6.1       delta(V1) >= 2 + Delta(V2 u V3) forces a |V1|-matching.
#   ABCHS-5.4/6.2   every colour on at least Delta(G)+2 edges forces a full
#                   rainbow matching (G not necessarily bipartite).
#   AB-Thm-2.6      proved theorem: delta(V1) >= 2*Delta(V2 u V3) forces a
#                   |V1|-matching; it can never be refuted by any instance.
STATEMENTS = (
    "AB-2.5/Conj2",
    "Conj1-bipartite",
    "ABCHS-6.1",
    "ABCHS-5.4/6.2",
    "AB-Thm-2.6",
)

NOTES = {
    "AB-2.9": "not evaluated: generalisation of AB-2.5 whose statement is not encoded here",
}


class StatementOutcome(NamedTuple):
    hypothesis_holds: bool
    conclusion_holds: bool

    @property
    def is_counterexample(self) -> bool:
        return self.hypothesis_holds and not self.conclusion_holds


class ConjectureReport(NamedTuple):
    """Per-statement evaluation of one instance, with the raw statistics used."""

    max_degree: int
    min_colour_multiplicity: int
    delta_v1: int
    delta_max_rest: int
    bipartite: bool
    full_rainbow_exists: bool
    statements: dict[str, StatementOutcome]
    notes: dict[str, str]

    def counterexamples(self) -> tuple[str, ...]:
        return tuple(k for k in STATEMENTS if self.statements[k].is_counterexample)


def double_star_family(m: int) -> ColouredMultigraph:
    """The m-component double-star graph, for even m >= 2.

    Component i occupies the vertex block starting at i*(m+2): centres c1, c2
    first, then the m/2 leaves of c1, then the m/2 leaves of c2.  Edge order
    per component: the central edge (colour 0), then c1's leaf edges, then
    c2's, all leaf edges carrying colour i+1.  Totals: m(m+2) vertices,
    m(m+1) edges, m+1 colours each of multiplicity m.
    """
    if m < 2 or m % 2 != 0:
        raise ValueError(f"m must be an even integer >= 2, got {m}")
    half = m // 2
    edges: list[tuple[int, int, int]] = []
    for i in range(m):
        c1 = i * (m + 2)
        c2 = c1 + 1
        edges.append((c1, c2, 0))
        for leaf in range(c1 + 2, c1 + 2 + half):
            edges.append((c1, leaf, i + 1))
        for leaf in range(c1 + 2 + half, c1 + 2 + m):
            edges.append((c2, leaf, i + 1))
    return build_graph(m * (m + 2), m + 1, edges)


def hypergraph_family(m: int) -> TripartiteHypergraph:
    """The tripartite hypergraph corresponding to the double-star graph."""
    return from_coloured_graph(double_star_family(m))


def constant_defeater(c: int) -> ColouredMultigraph:
    """An instance whose minimum colour multiplicity exceeds its maximum degree
    by exactly c, yet which has no full rainbow matching.

    This is the double-star graph at m = 2c+2, where the multiplicity is m and
    the maximum degree m/2+1, so the margin m - (m/2+1) = c.  Its existence for
    every c shows that no constant additive surplus of colour multiplicity over
    maximum degree can force a full rainbow matching.
    """
    if c < 1:
        raise ValueError(f"c must be a positive integer, got {c}")
    return double_star_family(2 * c + 2)


def cyclic_latin_square(n: int) -> ColouredMultigraph:
    """The cyclic Latin square of order n as a coloured K_{n,n}, for n >= 1.

    Row i is vertex i and column j is vertex n + j; cell (i, j) is the edge
    (i, n + j) with colour (i + j) mod n, in row-major order.  A full rainbow
    matching is a transversal.  For odd n the diagonal is one; for even n
    there is none (Euler), so the solver's answer is a certified negative
    whose search tree grows steeply with n.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    edges = [(i, n + j, (i + j) % n) for i in range(n) for j in range(n)]
    return build_graph(2 * n, n, edges)


def conjecture_report(graph: ColouredMultigraph) -> ConjectureReport:
    """Evaluate the instance against each tracked statement.

    Hypotheses come from degree and multiplicity statistics; the shared
    conclusion (a full rainbow matching / V1-matching exists) comes from the
    exact backtracking solver.  Statements phrased over tripartite hypergraphs
    apply only when the graph is bipartite.
    """
    degree = max_degree(graph)
    min_multiplicity = colour_stats(graph).minimum
    bipartite = is_bipartite(graph)
    exists = find_full_rainbow_matching(graph).matching is not None

    # In the graph's hypergraph, delta(V1) is the smallest colour multiplicity
    # and Delta(V2 u V3) the maximum degree.
    delta_v1, delta_rest = min_multiplicity, degree
    hypotheses = {
        "AB-2.5/Conj2": bipartite and delta_v1 > delta_rest,
        "Conj1-bipartite": bipartite and min_multiplicity >= degree + 1,
        "ABCHS-6.1": bipartite and delta_v1 >= 2 + delta_rest,
        "ABCHS-5.4/6.2": min_multiplicity >= degree + 2,
        "AB-Thm-2.6": bipartite and delta_v1 >= 2 * delta_rest,
    }
    statements = {
        key: StatementOutcome(hypothesis_holds=hypotheses[key], conclusion_holds=exists)
        for key in STATEMENTS
    }
    if statements["AB-Thm-2.6"].is_counterexample:
        # A proved theorem cannot have a counterexample; reaching this line
        # means the solver itself is broken.
        raise RuntimeError(
            "instance satisfies delta(V1) >= 2*Delta(V2 u V3) but the solver "
            "found no V1-matching; this indicates a solver defect"
        )
    return ConjectureReport(
        max_degree=degree,
        min_colour_multiplicity=min_multiplicity,
        delta_v1=delta_v1,
        delta_max_rest=delta_rest,
        bipartite=bipartite,
        full_rainbow_exists=exists,
        statements=statements,
        notes=dict(NOTES),
    )


def report_to_json(report: ConjectureReport) -> dict:
    return {
        "stats": {
            "max_degree": report.max_degree,
            "min_colour_multiplicity": report.min_colour_multiplicity,
            "delta_v1": report.delta_v1,
            "delta_max_rest": report.delta_max_rest,
            "bipartite": report.bipartite,
        },
        "full_rainbow_exists": report.full_rainbow_exists,
        "statements": {
            key: {
                "hypothesis_holds": outcome.hypothesis_holds,
                "conclusion_holds": outcome.conclusion_holds,
                "is_counterexample": outcome.is_counterexample,
            }
            for key, outcome in ((k, report.statements[k]) for k in STATEMENTS)
        },
        "notes": report.notes,
    }
