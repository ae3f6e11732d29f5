"""Property test of the hunter's perfect units.

With twice as many edges as colours, a full rainbow matching of a union of
cycles covers every vertex, so it is one alternating half of each cycle:
the hunter decides such a unit's strings from the halves alone, and that
verdict must be the engine's on the string's graph.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rainbowmatch import find_full_rainbow_matching, graph_from_cycle_colouring, hunting  # noqa: E402

# every shape of a class-size-2 unit up to 14 edges, odd cycles included
SHAPES = [
    shape
    for total in range(4, 15, 2)
    for shape in hunting._shapes_of_total(total, bipartite=False)
]

strings = st.sampled_from(SHAPES).flatmap(
    lambda shape: st.permutations([c for c in range(sum(shape) // 2) for _ in range(2)]).map(
        lambda flat: (shape, tuple(flat))
    )
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(strings)
def test_the_alternating_halves_give_the_engine_verdict(case):
    shape, flat = case
    colours = len(flat) // 2
    halves = hunting._alternating_halves(shape)
    verdict = any(len({flat[p] for p in half}) == colours for half in halves)
    graph = graph_from_cycle_colouring(shape, flat, colours)
    assert verdict == (find_full_rainbow_matching(graph).matching is not None)

