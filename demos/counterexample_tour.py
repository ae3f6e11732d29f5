"""Tour of the double-star family and what it refutes.

Builds the m=6 instance, checks its statistics against the advertised
arithmetic, certifies that no full rainbow matching exists (by backtracking
and by brute force), converts it to its tripartite hypergraph, and prints the
per-conjecture verdicts.  Finishes with the margin family showing that no
constant multiplicity surplus over the maximum degree can help.

Run:  python3 demos/counterexample_tour.py
"""

from rainbowmatch import (
    brute_force_full_rainbow,
    colour_stats,
    conjecture_report,
    constant_defeater,
    degree_stats,
    double_star_family,
    find_full_rainbow_matching,
    from_coloured_graph,
    max_degree,
    max_rainbow_matching,
)

m = 6
graph = double_star_family(m)
print(f"double-star family at m={m}")
print(f"  vertices {graph.vertex_count}, edges {graph.edge_count}, colours {graph.colour_count}")
print(f"  max degree {max_degree(graph)} (= m/2+1), every colour on "
      f"{colour_stats(graph).minimum} edges (= m)")

outcome = find_full_rainbow_matching(graph)
print(f"  backtracking: matching {'found' if outcome.matching else 'impossible'} "
      f"(exhaustive={outcome.exhaustive})")
_, count = brute_force_full_rainbow(graph)
print(f"  brute force over {graph.colour_count} colour classes: {count} full rainbow matchings")
size, _ = max_rainbow_matching(graph)
print(f"  largest rainbow matching: {size} of {graph.colour_count} colours "
      "(one colour always left out)")

hypergraph = from_coloured_graph(graph)
stats = degree_stats(hypergraph)
print(f"  hypergraph view: delta(V1)={stats.delta_v1}, Delta(V2 u V3)={stats.delta_max_rest}"
      f"  -> delta(V1) = 2*Delta - 2, just under the proved 2*Delta threshold")

print("\nconjecture verdicts:")
report = conjecture_report(graph)
for key, statement in report.statements.items():
    verdict = "COUNTEREXAMPLE" if statement.is_counterexample else (
        "hypothesis not met" if not statement.hypothesis_holds else "consistent")
    print(f"  {key:<16} {verdict}")

print("\nmultiplicity margin over max degree, and still no matching:")
for c in (1, 2, 3, 4):
    g = constant_defeater(c)
    margin = colour_stats(g).minimum - max_degree(g)
    blocked = find_full_rainbow_matching(g).matching is None
    print(f"  c={c}: min multiplicity {colour_stats(g).minimum} = "
          f"max degree {max_degree(g)} + {margin}, blocked={blocked}")
