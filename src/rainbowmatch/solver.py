"""Exact search for full rainbow matchings, plus an independent brute-force oracle.

The decision problem is NP-hard in general, so the search carries no
polynomial-time guarantee; the node counter and the guard on the brute-force
enumeration keep the cost observable.  Max mode takes a lattice certificate
(:mod:`rainbowmatch.lattice`) for find mode's "none" where one exists.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .graphs import ColouredMultigraph, _is_rainbow_matching

__all__ = [
    "SolveOutcome",
    "BruteForceLimitError",
    "DEFAULT_BRUTE_LIMIT",
    "find_full_rainbow_matching",
    "max_rainbow_matching",
    "brute_force_full_rainbow",
]

DEFAULT_BRUTE_LIMIT = 10**8


class BruteForceLimitError(RuntimeError):
    """The brute-force product exceeds the guard; raise the limit deliberately."""

    def __init__(self, product: int, limit: int):
        super().__init__(
            f"brute-force enumeration refused: product of colour-class sizes is "
            f"{product}, which exceeds the limit {limit}"
        )
        self.product = product
        self.limit = limit


class SolveOutcome(NamedTuple):
    """Result of one solve: a witness matching, or a certified absence.

    ``exhaustive`` is True when the whole search space was covered, which is
    always the case when ``matching`` is None; a backtracking run that stops
    at its first witness reports False.
    """

    matching: Optional[frozenset[int]]
    nodes_explored: int
    exhaustive: bool


def _plan(colour_count: int, edges: Iterable[Sequence[int]]) -> Callable[[Sequence[int]], tuple]:
    """The engine's set-up for one edge list: a reader of its colourings.

    An edge's first two entries are its endpoints and its index is its
    position, so a graph's edges qualify, and so do bare ``(u, v)`` pairs.
    The endpoints fix what the edge geometry alone decides: the vertices
    that carry an edge, relabelled densely in order of first appearance (so
    isolated vertices cost nothing), and each edge's packed vertex value.
    The returned ``read(colours)`` takes one colour per edge and builds the
    tables :func:`_walk` reads for that colouring, in either mode.  Edges and
    colours are trusted to be valid as :class:`ColouredMultigraph` checks it
    (no self-loops, every colour below ``colour_count`` on some edge), and
    are not validated here.

    Depth d assigns the d-th colour in the static fail-first order (class
    size, colour id); a colour's edges are in sequence order.  ``read``
    returns ``(layers, starts, widths, guards, every)``, the last four the
    bit layout of the free-edge mask, cached with the order per multiset of
    colours.  Each colour owns a run of bits, one per edge, followed by a
    guard bit that no edge uses.  ``starts`` and ``widths`` give, per depth,
    the first bit of its colour's run and the run's width as a mask of that
    many ones; ``guards`` gives, per depth d, the guard bits of the colours
    at depths d and later, with one more entry, 0, for the depth past the
    last; and ``every`` is the mask of every bit, runs and guards alike.
    ``layers`` holds per depth one item per edge of its colour, ``(index,
    vertices, keep)``.

    A state, the set of occupied vertices with its depth, is packed into one
    integer: the depth in the low ``k = colour_count.bit_length()`` bits and
    the vertex bits above them.  An item's ``vertices`` is its two vertex
    bits shifted up by ``k``, plus 1, so a child's key is its parent's plus
    that value: the edge is free, so neither vertex is occupied and the
    addition sets two new bits with no carry, and the depth never exceeds
    ``colour_count``, which is below ``2**k``.  Keys therefore stand
    one-to-one for states, under any one-to-one relabelling of the vertices;
    the search reads keys only to test them for equality, and orders its
    candidates by their bits in the layout, so the relabelling changes
    neither the tree nor its result.  ``keep`` is ``every`` without the bits
    of the edges this one blocks (itself and those sharing a vertex with
    it), so a child's free edges are its parent's ANDed with it.
    """
    k = colour_count.bit_length()
    dense: dict[int, int] = {}
    # per edge: its index, its relabelled endpoints and its packed vertex value
    plan: list[tuple[int, int, int, int]] = []
    for index, edge in enumerate(edges):
        u = dense.setdefault(edge[0], len(dense))
        v = dense.setdefault(edge[1], len(dense))
        plan.append((index, u, v, (((1 << u) | (1 << v)) << k) + 1))
    vertex_count = len(dense)
    # per multiset of colours: the layout, and per colour its depth and first bit
    orders: dict[tuple[int, ...], tuple] = {}

    def read(colours: Sequence[int]) -> tuple:
        multiset = tuple(sorted(colours))
        known = orders.get(multiset)
        if known is None:
            counts = [0] * colour_count
            for colour in multiset:
                counts[colour] += 1
            order = sorted(range(colour_count), key=counts.__getitem__)  # stable: ties by colour id
            depth_of = [0] * colour_count
            first_bit = [0] * colour_count
            starts: list[int] = []
            shift = 0
            every_guard = 0
            for depth, colour in enumerate(order):
                depth_of[colour] = depth
                first_bit[colour] = shift
                starts.append(shift)
                shift += counts[colour]
                every_guard |= 1 << shift
                shift += 1
            # the guard bits from each run's start up
            guards = [every_guard >> start << start for start in starts]
            guards.append(0)
            widths = [(1 << counts[colour]) - 1 for colour in order]
            layout = starts, widths, guards, (1 << shift) - 1
            known = orders[multiset] = layout, depth_of, first_bit
        layout, depth_of, first_bit = known
        every = layout[3]
        shifts = first_bit.copy()
        incident = [0] * vertex_count  # vertex -> the bits of its edges
        for (_, u, v, _), colour in zip(plan, colours):
            bit = 1 << shifts[colour]
            shifts[colour] += 1
            incident[u] |= bit
            incident[v] |= bit
        layers: list[list[tuple[int, int, int]]] = [[] for _ in depth_of]
        for (index, u, v, value), colour in zip(plan, colours):
            layers[depth_of[colour]].append((index, value, every ^ (incident[u] | incident[v])))
        return (layers, *layout)

    return read


def _tables(graph: ColouredMultigraph) -> tuple:
    """The engine's set-up for one graph: its :func:`_plan`, read once."""
    return _plan(graph.colour_count, graph.edges)([e.colour for e in graph.edges])


def _walk(tables: tuple, must_pick: bool, cap: Optional[int] = None) -> tuple[Optional[list[int]], int]:
    """The engine's search, for both solvers and the hunter: depth-first, on
    an explicit stack, over the tables a :func:`_plan` reader builds.

    With ``must_pick`` (find mode) every colour takes one free edge, and a
    child is entered only when every later colour still has a free edge; the
    result is the first full rainbow matching in search order, or None.
    Without it (max mode) a colour may also be skipped, which is tried after
    its edges, and a child is entered only when its chosen count plus the
    number of later colours that still have a free edge exceeds the best
    size so far; the result is the first maximum-size set in search order.
    Max mode stops at the first set of ``cap`` edges (default: one per
    colour), so ``cap`` must be an upper bound on the maximum for that set
    to be the uncapped result: the search is the same up to that set, and
    the uncapped one would keep it, replacing the best set only by a larger
    one.

    Both rules read one integer per state, the set of free edges.  Adding
    the set of all edges to it turns each colour's run into all ones plus
    its free edges, which carries into the guard bit exactly when the colour
    has a free edge and never beyond it, so one addition answers the rule
    for every colour at once.  A child's free edges are its parent's ANDed
    with the edge's keep mask; the parent's lie inside ``every``, so that is
    the parent's set without the edges the new one blocks.

    The same integer gives each depth its candidates.  An edge's bit is free
    exactly when neither of its vertices is occupied, so shifting the set of
    free edges down to the start of the colour's run and masking it to the
    run's width leaves exactly the edges that can be taken; bit i stands for
    the colour's i-th edge.  Each depth keeps its untried children as such
    a mask and takes the lowest set bit next, so occupied edges are never
    visited.

    Max mode's skip is one more item at the end of each layer, ``(-1, 1,
    every)``, which occupies and blocks nothing.  The walk appends it to
    copies of the layers, so the tables are left as they were and serve
    either mode.  Its bit is the one above the colour's run, which is
    otherwise the guard and never free, so it is always pending and, as the
    highest bit, tried last; find mode leaves it out.

    Every state whose subtree is exhausted goes into a set of refuted states,
    keyed by its packed integer, and no state in it is entered again.  In
    find mode its subtree holds no witness.  In max mode every edge covers
    two vertices (self-loops are rejected), so the occupied set fixes the
    chosen count, and the subtree cannot beat the best size, which has only
    grown since; the best set is replaced only by a strictly larger one.
    Either way the result is the one the search without the set returns.

    Returns the chosen edge indices and the number of nodes entered.
    """
    layers, starts, widths, guards, every = tables
    colour_count = len(layers)
    all_edges = every ^ guards[0]
    skips = [0] * colour_count
    if not must_pick:
        skips = [width + 1 for width in widths]
        layers = [[*layer, (-1, 1, every)] for layer in layers]
    if cap is None:
        cap = colour_count
    refuted: set[int] = set()
    occupied = [0] * (colour_count + 1)
    free_edges = [all_edges] * (colour_count + 1)
    sizes = [0] * (colour_count + 1)
    picked = [0] * colour_count
    # children not yet tried at depth d: bit i is layers[d][i]
    pending = [0] * (colour_count + 1)
    best: list[int] = []
    nodes = 1
    depth = 0
    if colour_count == 0:
        return best, nodes
    pending[0] = ((all_edges >> starts[0]) & widths[0]) | skips[0]
    while depth >= 0:
        occ = occupied[depth]
        free = free_edges[depth]
        child_depth = depth + 1
        later = guards[child_depth]
        layer = layers[depth]
        rest = pending[depth]
        while rest:
            low = rest & -rest
            rest ^= low
            index, vertices, keep = layer[low.bit_length() - 1]
            child = occ + vertices
            if child in refuted:
                continue
            child_free = free & keep
            # guard bits of the later colours that still have a free edge
            open_later = (child_free + all_edges) & later
            if must_pick:
                if open_later != later:
                    continue
                nodes += 1
                if child_depth == colour_count:
                    picked[depth] = index
                    return picked, nodes
                break
            nodes += 1
            size = sizes[depth] + (index >= 0)
            if size > len(best):
                best = [p for p in picked[:depth] if p >= 0]
                if index >= 0:
                    best.append(index)
                if size == cap:
                    return best, nodes
            if size + open_later.bit_count() > len(best):
                sizes[child_depth] = size
                break
        else:
            refuted.add(occ)
            depth -= 1
            continue
        pending[depth] = rest
        picked[depth] = index
        occupied[child_depth] = child
        free_edges[child_depth] = child_free
        pending[child_depth] = (
            (child_free >> starts[child_depth]) & widths[child_depth]
        ) | skips[child_depth]
        depth = child_depth
    return (None if must_pick else best), nodes


def _checked(graph: ColouredMultigraph, witness: list[int], size: int) -> frozenset[int]:
    """The engine's witness as a set, once it has ``size`` edges and
    :func:`graphs._is_rainbow_matching`, which shares no code with the
    engine, accepts it.  Any other witness, one with an index out of range
    or negative included, raises RuntimeError, as a disagreement between
    the engine and the brute-force oracle does.
    """
    colours = [e.colour for e in graph.edges]
    if len(witness) != size or not _is_rainbow_matching(graph.edges, colours, witness):
        raise RuntimeError(f"the engine returned an invalid witness {sorted(witness)}")
    return frozenset(witness)


def find_full_rainbow_matching(graph: ColouredMultigraph) -> SolveOutcome:
    """Decide by complete backtracking whether a full rainbow matching exists.

    Returns a witness (as edge indices) when one exists; otherwise absence is
    certified by exhausting the pruned search tree.  A witness is checked by
    :func:`_checked`, with one edge per colour, before it is returned.  The
    empty graph has the empty matching: no colours, no requirement.
    ``nodes_explored`` counts the search nodes entered; states skipped as
    already refuted are not nodes.
    """
    matching, nodes = _walk(_tables(graph), must_pick=True)
    return SolveOutcome(
        matching=None if matching is None else _checked(graph, matching, graph.colour_count),
        nodes_explored=nodes,
        exhaustive=matching is None,
    )


def max_rainbow_matching(graph: ColouredMultigraph) -> tuple[int, frozenset[int]]:
    """Largest set of pairwise-disjoint edges with pairwise-distinct colours.

    A lattice certificate that :func:`lattice.check_certificate` accepts
    proves there is no full rainbow matching (a rejected one raises
    RuntimeError); without one, find mode runs: a full rainbow matching is
    a maximum one.  Otherwise n - 1 edges, for n colours, is a proved upper
    bound, and a branch and bound over the same static colour order follows,
    stopping at its first set of n - 1 edges.  Each colour is either
    represented by one of its free edges (tried in sequence order) or
    skipped; the bound at a node is the selected count plus the number of
    later colours that still have a free edge, which can never be exceeded
    below that node.

    The witness is deterministic: the first maximum-size set in the branch
    and bound's search order, as if it ran uncapped.  The bound cuts no
    subtree that holds a set larger than the best so far, and a full set
    skips no colour, so the first full set in that order is the first one
    in find mode's order, which differs only in trying no skips.  With no
    full set, the uncapped search would keep its first set of n - 1 edges,
    since it replaces the best set only by a strictly larger one.

    Either set is checked by :func:`_checked` before it is returned, with n
    edges when find mode answers.
    """
    # imported here: nothing else reads it, so importing the package for a
    # solve or a hunt neither compiles nor holds it
    from . import lattice

    n = graph.colour_count
    certificate = lattice.lattice_certificate(graph)
    tables = _tables(graph)
    if certificate is None:
        full, _ = _walk(tables, must_pick=True)
        if full is not None:
            return n, _checked(graph, full, n)
    elif not lattice.check_certificate(graph, *certificate):
        raise RuntimeError(f"the lattice reduction gave an invalid certificate (modulus {certificate[1]})")
    best, _ = _walk(tables, must_pick=False, cap=n - 1)
    return len(best), _checked(graph, best, len(best))


def brute_force_full_rainbow(
    graph: ColouredMultigraph,
    limit: int = DEFAULT_BRUTE_LIMIT,
) -> tuple[SolveOutcome, int]:
    """Enumerate every one-edge-per-colour combination and count the matchings.

    This is the verification oracle: no pruning, no shared code with the
    backtracking search.  The Cartesian product of colour-class sizes must
    not exceed ``limit``, otherwise a :class:`BruteForceLimitError` carrying
    the computed product is raised so the caller can raise the limit
    deliberately.

    Returns the outcome (with the lexicographically first matching as
    witness) and the total number of full rainbow matchings.
    """
    classes: list[list[int]] = [[] for _ in range(graph.colour_count)]
    for index, e in enumerate(graph.edges):
        classes[e.colour].append(index)
    product = math.prod(len(c) for c in classes)
    if product > limit:
        raise BruteForceLimitError(product, limit)

    # dense bits for the vertices that carry an edge, not their identifiers
    bit: dict[int, int] = {}
    masks = [
        (1 << bit.setdefault(e.u, len(bit))) | (1 << bit.setdefault(e.v, len(bit)))
        for e in graph.edges
    ]
    count = 0
    witness: Optional[frozenset[int]] = None
    for combo in itertools.product(*classes):
        used = 0
        for index in combo:
            mask = masks[index]
            if used & mask:
                break
            used |= mask
        else:
            count += 1
            if witness is None:
                witness = frozenset(combo)
    outcome = SolveOutcome(matching=witness, nodes_explored=product, exhaustive=True)
    return outcome, count
