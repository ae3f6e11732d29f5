"""Bounded exhaustive hunter for small blocked instances on 2-regular graphs.

A 2-regular graph is a disjoint union of cycles, so an instance is a multiset
of cycle lengths plus a colour sequence along each cycle.  The hunter sweeps
every such instance up to a size bound, keeps the ones with no full rainbow
matching, and certifies each find with the independent brute-force oracle.

Two instances are considered the same if one maps to the other by rotating or
reflecting individual cycles, permuting cycles of equal length, or renaming
colours.  The representative of an orbit is its lexicographically minimal
member.  The hunter generates restricted-growth colour strings (which
quotients out colour renaming) by orderly generation: canonicity is tested on
prefixes while generating, and a prefix that can no longer begin a canonical
string is cut with all its completions (Read, "Every one a winner", 1978;
McKay, "Isomorph-free exhaustive generation", 1998).  The prefix tests are
incremental.  Each completed cycle but the last keeps the colour maps under
which some arrangement of the cycles so far reads exactly as the prefix (the
last cycle is only tested).  Against the rotations and reflections of the
cycle being filled, under each of those maps, each position keeps the ones
that still tie with the prefix, so a new slot costs about one comparison per
tied pair, and a completed cycle reads each of them on only through the
positions it has not compared.  A cycle of a length seen before is also
read into the earlier slots of that length, from the arrangements kept for
the slot before.  A string that survives its last cycle is kept, with no
separate test.
``candidates_examined`` counts every string in the space, whether it was
tested whole or cut with its prefix; the count comes from a formula
(:func:`_space_size`), not from a walk.

Each canonical string is examined from the string itself.  The find engine
walks tables that the engine's own set-up reads off the string, from the
unit's cycle endpoints, and the degree statistics are read off the string
too.  Only a blocked string gets edge triples and a validated graph, on
which the brute-force oracle and an independent structure check confirm the
find.

The sweep is lazy: work units are generated in sweep order as the hunt
reaches them, so a hunt stopped by ``stop_after`` costs nothing for the
shapes it never reaches.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import json
import math
import signal
import sys
from dataclasses import dataclass
from typing import Iterator, Optional

from .graphs import ColouredMultigraph, build_graph, is_bipartite
from .hypergraphs import DegreeStats
from .solver import DEFAULT_BRUTE_LIMIT, _plan, _walk, brute_force_full_rainbow

__all__ = [
    "SearchSpec",
    "SearchResult",
    "AbsenceCertificate",
    "HuntOutcome",
    "enumerate_colourings",
    "canonical_colouring",
    "is_canonical",
    "canonical_label",
    "graph_from_cycle_colouring",
    "hunt",
    "result_line",
    "summary_record",
    "read_certified_forms",
    "MalformedRecordError",
]


@dataclass(frozen=True)
class SearchSpec:
    """Parameters of one hunt.

    ``colour_class_size`` is exact by default (every colour on exactly that
    many edges); with ``class_size_is_minimum`` it becomes a lower bound and
    every feasible colour count is swept.  ``stop_after`` bounds the number of
    emitted instances (checked at work-unit granularity); None means run the
    space to exhaustion.
    """

    max_edges: int
    colour_class_size: int
    require_bipartite: bool = False
    require_delta_gap: bool = False
    class_size_is_minimum: bool = False
    stop_after: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_edges < 1:
            raise ValueError("max_edges must be at least 1")
        # the string generator recurses once per edge
        limit = sys.getrecursionlimit() - 100
        if self.max_edges > limit:
            raise ValueError(f"max_edges must be at most {limit}")
        if self.colour_class_size < 1:
            raise ValueError("colour_class_size must be at least 1")
        if self.stop_after is not None and self.stop_after < 1:
            raise ValueError("stop_after must be at least 1 when given")


@dataclass(frozen=True)
class AbsenceCertificate:
    """Record of a completed brute-force enumeration finding zero matchings."""

    combinations: int
    matchings: int


@dataclass(frozen=True)
class SearchResult:
    instance: ColouredMultigraph
    shape: tuple[int, ...]
    stats: DegreeStats
    certificate: AbsenceCertificate
    canonical_form: str


@dataclass(frozen=True)
class HuntOutcome:
    """Findings of one hunt plus the bookkeeping that makes it a certificate.

    ``exhausted`` is True when every work unit in the space was examined; an
    empty result list with ``exhausted`` True is a valid finding (nothing of
    the requested kind exists up to the bound).
    """

    results: tuple[SearchResult, ...]
    candidates_examined: int
    orbits_examined: int
    skipped_known: int
    exhausted: bool


def _shapes_of_total(total: int, bipartite: bool) -> Iterator[tuple[int, ...]]:
    """The multisets of cycle lengths with exactly ``total`` edges, as
    ascending tuples: parts at least 3, or even and at least 4 when
    ``bipartite``; by number of parts, then lexicographically."""
    step, least = (2, 4) if bipartite else (1, 3)
    if total % step:
        return

    def parts(remaining: int, count: int, smallest: int) -> Iterator[tuple[int, ...]]:
        # ascending tuples of count parts from smallest up that sum to
        # remaining; a part never exceeds an equal share of what is left,
        # so every branch ends in a shape
        if count == 1:
            yield (remaining,)
            return
        for part in range(smallest, remaining // count + 1, step):
            for rest in parts(remaining - part, count - 1, part):
                yield (part, *rest)

    for count in range(1, total // least + 1):
        yield from parts(total, count, least)


def _dihedral_transforms(block: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All rotations of the block and of its reversal (2L sequences)."""
    length = len(block)
    reverse = block[::-1]
    out = []
    for r in range(length):
        out.append(block[r:] + block[:r])
        out.append(reverse[r:] + reverse[:r])
    return out


def _beam_minimum(
    shape: tuple[int, ...],
    blocks: tuple[tuple[int, ...], ...],
    target: Optional[tuple[tuple[int, ...], ...]] = None,
) -> Optional[tuple[int, ...]]:
    """Flattened lexicographic minimum of a cycle colouring over its orbit.

    For a fixed geometric arrangement the best colour renaming is the
    first-occurrence relabelling (colour 0 for the first symbol seen, and so
    on), so the walk fills cycle slots left to right and keeps every
    arrangement that still achieves the best prefix: a slot tries each unused
    cycle of the right length under all its rotations and reflections,
    relabels greedily, and only the extensions tied with the slot's best
    segment survive.  Equal-length slots are interchangeable, which is exactly
    the cycle-permutation part of the group.

    Each candidate is compared with the slot's best segment element by
    element and dropped at its first larger symbol.  Without ``target`` the
    best segment of a slot starts out infinite, so the first candidate
    replaces it.  With ``target`` it starts as the target's own segment, and
    the walk returns None as soon as some arrangement goes below it: the
    target is then not the minimum.
    """
    if len(blocks) != len(shape) or any(len(b) != n for b, n in zip(blocks, shape)):
        raise ValueError("colouring does not match shape")
    # All beam entries share the best prefix, so only the new segment needs
    # comparing.  mapping is old colour -> new.
    beam: list[tuple[frozenset[int], dict[int, int]]] = [(frozenset(), {})]
    transforms = [_dihedral_transforms(block) for block in blocks]
    out: list[int] = []
    for slot, slot_length in enumerate(shape):
        best = (math.inf,) * slot_length if target is None else target[slot]
        survivors: dict[tuple, tuple[frozenset[int], dict[int, int]]] = {}
        for used, mapping in beam:
            for i, block in enumerate(blocks):
                if i in used or len(block) != slot_length:
                    continue
                for transformed in transforms[i]:
                    if mapping.get(transformed[0], len(mapping)) > best[0]:
                        continue  # above at its first symbol
                    new_map = mapping.copy()
                    order = 0  # sign of segment - best on the prefix compared so far
                    for symbol, reference in zip(transformed, best):
                        value = new_map.get(symbol)
                        if value is None:
                            value = new_map[symbol] = len(new_map)
                        if order:
                            continue
                        if value > reference:
                            order = 1
                            break
                        if value < reference:
                            if target is not None:
                                return None
                            order = -1
                    if order > 0:
                        continue
                    if order < 0:
                        best = tuple(new_map[symbol] for symbol in transformed)
                        survivors = {}
                    now_used = used | {i}
                    survivors[(now_used, tuple(sorted(new_map.items())))] = (now_used, new_map)
        if not survivors:
            # every arrangement lies above the target (only possible for
            # symbols below 0), so the target is not the minimum either
            return None
        out.extend(best)
        beam = list(survivors.values())
    return tuple(out)


def canonical_colouring(
    shape: tuple[int, ...], blocks: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """Lexicographically minimal representative of a cycle colouring.

    Minimises the flattened colour sequence over the full symmetry group:
    per-cycle rotations and reflections, permutations of equal-length cycles,
    and colour renaming.
    """
    return _reshape(shape, _beam_minimum(shape, blocks))


def is_canonical(shape: tuple[int, ...], blocks: tuple[tuple[int, ...], ...]) -> bool:
    """Whether ``blocks`` is its own canonical colouring.

    Same answer as ``canonical_colouring(shape, blocks) == blocks``, but the
    search stops at the first arrangement whose segment beats the input's, so
    a non-canonical input (the common case in a hunt) usually costs a few
    symbol comparisons per slot instead of a full minimisation.
    """
    return _beam_minimum(shape, blocks, blocks) is not None


def canonical_label(shape: tuple[int, ...], blocks: tuple[tuple[int, ...], ...]) -> str:
    lengths = ",".join(str(n) for n in shape)
    cycles = "|".join(",".join(str(c) for c in block) for block in blocks)
    return f"{lengths}:{cycles}"


def _orderly_strings(
    shape: tuple[int, ...],
    colours: int,
    class_size: int,
    minimum: bool,
) -> Iterator[tuple[int, ...]]:
    """Canonical colour strings of one (shape, colour count) unit, lexicographically.

    The space is the restricted-growth strings (each colour first appears
    after all smaller colours have, which quotients out colour renaming)
    with every class of exactly ``class_size`` edges, or at least that many
    with ``minimum``.  This is orderly generation: a prefix is extended only
    while it can still begin a canonical string.  Each completed cycle but
    the last keeps its colour maps: the renamings under which some
    arrangement of the cycles so far reads exactly as the prefix, identity
    first.  A prefix is rejected when

    (a) it has just completed a cycle that an earlier cycle's slot can take,
        and some arrangement that moves it there, with the cycles so far in
        the other slots, reads below the prefix; or when
    (b) under some map kept before the cycle its last slot lies in, some
        rotation or reflection of that cycle, starting inside its known part
        and read as far as that part goes (round the whole cycle once it is
        complete), with the earlier cycles' colours renamed by the map and
        the others by first occurrence, is below the known part on their
        overlap.

    Either case exhibits a smaller member of the orbit of every completion,
    so no canonical string is cut.  A complete string that survives both is
    canonical: its cycles are filled in order, and every arrangement either
    leaves each cycle in the slot where case (b) tested it or moves some
    cycle to an earlier slot when it completes, where case (a) tested it.

    Both tests are incremental, so a prefix costs about one comparison per
    reading that still ties with it, as in the necklace and bracelet tests
    of Ruskey, Savage and Wang ("Generating necklaces", 1992) and Sawada
    ("Generating bracelets in constant amortized time", 2001).  For case (b)
    each position keeps the (map, rotation) pairs whose reading still
    equals the known part, and the maps under which the reflection starting
    there equals it.  A new slot compares one symbol for each pair (one
    found above stays above), then reads the rotation and the reflection
    starting at the slot; a completed cycle reads each tied reading on
    through the positions it has not compared, and those that read equal
    give its maps.  Every reading names a symbol from arrays: by the map
    when an earlier cycle has it, by the known symbol where the reading met
    it before, and otherwise by the next new name.  For case (a) each
    completed cycle but the last keeps the survivors of each slot (the
    cycles placed up to it and the map under which they read as the
    prefix), as in the beam of :func:`_beam_minimum`; a completed cycle is
    read only into the earlier slots its length allows, from the survivors
    of the slot before, and then on with the cycles left (McKay, 1998).

    With an exact class size of 1 the space is the one string that names
    every position afresh, and it is canonical, so it is returned with no
    test: the maps of a prefix of equal cycles grow with its symmetry group
    (31,104 of them for four triangles), which that string has in full.
    """
    total = sum(shape)
    if class_size == 1 and not minimum:
        if colours == total:
            yield tuple(range(total))
        return
    counts = [0] * colours
    current = [0] * total
    # per position: the index of its cycle and where that cycle starts; per
    # cycle: the cycles of its length, and whether a later cycle can move to
    # an earlier slot (then its completion keeps each slot's survivors)
    cycle_of: list[int] = []
    start_of: list[int] = []
    for k, length in enumerate(shape):
        start_of.extend([len(cycle_of)] * length)
        cycle_of.extend([k] * length)
    same = [[c for c, n in enumerate(shape) if n == length] for length in shape]
    keeps = [any(same[c][0] < c for c in range(k + 1, len(shape))) for k in range(len(shape))]
    # colours used before each cycle, recorded when its first slot is filled
    base = [0] * len(shape)
    # per colour: its first and latest position; per filled position: the
    # highest colour so far (at least base - 1), the (colour map, rotation
    # offset from the cycle's start) pairs whose reading still equals the
    # known part, and the maps under which the reflection starting there
    # equals it
    first = [0] * colours
    last = [-1] * colours
    top = [0] * total
    tied: list[list[tuple[tuple[int, ...], int]]] = [[]] * total
    mirror: list[list[tuple[int, ...]]] = [[]] * total
    # before each cycle: the colour maps of the cycles so far, identity
    # first; a map gives each of their colours its new name.  Per completed
    # cycle: its rotations and reflections, and per slot the (cycles used,
    # map) pairs that read as the prefix up to it (-1: a colour not named)
    maps: list[list[tuple[int, ...]]] = [[()]] * (len(shape) + 1)
    images: list[list[tuple[int, ...]]] = [[]] * len(shape)
    kept: list[list[list[tuple[int, tuple[int, ...]]]]] = [[]] * len(shape)
    unnamed = (-1,) * colours

    def rejected(position: int, earlier: int) -> bool:
        # the prefix up to position, whose slot was just filled; earlier is
        # the previous position of its colour (-1 if none)
        cycle, start, symbol = cycle_of[position], start_of[position], current[position]
        fresh = base[cycle]
        # case (b): the rotation and the reflection starting at the new slot
        # both read it first, renamed as the first of its window; the maps
        # under which that ties with the cycle's first symbol
        opening = current[start]
        leading = []
        for renamed in maps[cycle]:
            value = renamed[symbol] if symbol < fresh else fresh
            if value < opening:
                return True
            if value == opening:
                leading.append(renamed)
        # the new symbol as each tied pair reads it, against the known symbol
        # its rotation places before it
        still = []
        for renamed, i in tied[position - 1] if position > start else ():
            if symbol < fresh:
                value = renamed[symbol]
            elif earlier - i >= start:
                # the colour is already renamed inside the rotation
                value = current[earlier - i]
            else:
                value = top[position - i - 1] + 1
            reference = current[position - i]
            if value < reference:
                return True
            if value == reference:
                still.append((renamed, i))
        # at the cycle's start the identity reads the cycle as it is
        still += [(renamed, position - start) for renamed in leading[position == start :]]
        # the reflections starting at the new slot, read down to the start
        reflected = []
        span = start + position
        for renamed in leading:
            for q in range(position - 1, start - 1, -1):
                symbol = current[q]
                if symbol < fresh:
                    value = renamed[symbol]
                elif last[symbol] > q:
                    value = current[span - last[symbol]]
                else:
                    value = top[span - q - 1] + 1
                reference = current[span - q]
                if value != reference:
                    if value < reference:
                        return True
                    break
            else:
                reflected.append(renamed)
        mirror[position] = reflected
        if position - start + 1 < shape[cycle]:
            tied[position] = still
            return False
        return completed(position, cycle, start, fresh, still)

    def completed(position: int, cycle: int, start: int, fresh: int, still: list) -> bool:
        # case (b) round the cycle: each tied reading reads on through the
        # positions it has not compared; each that ties names the cycle's new
        # colours by the known symbols where it reads their latest positions,
        # which extends its map to a colour map of the cycles so far (but
        # nothing reads the last cycle's maps or survivors: it only compares)
        final = cycle == len(shape) - 1
        length = shape[cycle]
        new = range(fresh, top[position] + 1)
        found = {maps[cycle][0] + tuple(new): None}
        for renamed, i in still:
            wrap = start + i
            for q in range(start, wrap):
                symbol = current[q]
                if symbol < fresh:
                    value = renamed[symbol]
                elif last[symbol] >= wrap:
                    value = current[last[symbol] - i]
                elif first[symbol] < q:
                    value = current[first[symbol] + length - i]
                else:
                    value = top[q + length - i - 1] + 1
                reference = current[q + length - i]
                if value != reference:
                    if value < reference:
                        return True
                    break
            else:
                if not final:
                    found[renamed + tuple(current[start + (last[c] - wrap) % length] for c in new)] = None
        for p in range(start, position + 1):
            span = p + position + 1
            for renamed in mirror[p]:
                for q in range(position, p, -1):
                    symbol = current[q]
                    if symbol < fresh:
                        value = renamed[symbol]
                    elif last[symbol] > q:
                        value = current[span - last[symbol]]
                    elif first[symbol] <= p:
                        value = current[start + p - first[symbol]]
                    else:
                        value = top[span - q - 1] + 1
                    reference = current[span - q]
                    if value != reference:
                        if value < reference:
                            return True
                        break
                else:
                    if not final:
                        found[renamed + tuple(current[start + (p - last[c]) % length] for c in new)] = None
        if not (keeps[cycle] or same[cycle][0] < cycle):
            maps[cycle + 1] = list(found)
            return False
        # case (a): the arrangements that move the cycle to an earlier slot
        # of its length, from the survivors of the slot before; the frontier
        # holds those placed so far, read on slot by slot with the cycles
        # left (leaving the cycle in place is case (b))
        images[cycle] = _dihedral_transforms(tuple(current[start : position + 1]))
        slots = kept[cycle - 1][:] if cycle else []
        frontier: dict[tuple[int, tuple[int, ...]], None] = {}
        for slot in range(same[cycle][0], cycle + 1):
            reads = [
                (used | 1 << c, renamed, images[c])
                for used, renamed in frontier
                for c in same[slot]
                if c < cycle and not used >> c & 1
            ]
            if slot < cycle and shape[slot] == length:
                sources = kept[cycle - 1][slot - 1] if slot else [(0, unnamed)]
                reads += [(used | 1 << cycle, renamed, images[cycle]) for used, renamed in sources]
            known = images[slot][0]
            frontier = {}
            for used, renamed, transforms in reads:
                for transform in transforms:
                    value = renamed[transform[0]]
                    if (value if value >= 0 else base[slot]) > known[0]:
                        continue  # above at its first symbol
                    names = list(renamed)
                    name = base[slot]
                    for symbol, reference in zip(transform, known):
                        value = names[symbol]
                        if value < 0:
                            value = names[symbol] = name
                            name += 1
                        if value != reference:
                            if value < reference:
                                return True
                            break
                    else:
                        frontier[used, tuple(names)] = None
            if slot < cycle and not final:
                slots[slot] = slots[slot] + list(frontier)
        if final:
            return False
        found.update(dict.fromkeys(renamed[: top[position] + 1] for _, renamed in frontier))
        maps[cycle + 1] = list(found)
        kept[cycle] = slots + [[((2 << cycle) - 1, (*m, *unnamed[len(m) :])) for m in found]]
        return False

    def extend(position: int, used: int, short: int) -> Iterator[tuple[int, ...]]:
        if position == total:
            # the prune below leaves short == 0 here: every class is full
            yield tuple(current)
            return
        if start_of[position] == position:
            base[cycle_of[position]] = used + 1
        # each colour that may go at position; short counts the edges still
        # missing from classes short of class_size, and a colour is pruned
        # unless the remaining positions can still cover them
        room = total - position - 1
        for colour in range(used + 2 if used + 2 < colours else colours):
            count = counts[colour]
            if count >= class_size and not minimum:
                continue
            filling = count < class_size
            if short - filling > room:
                continue
            counts[colour] = count + 1
            current[position] = colour
            earlier = last[colour]
            if earlier < 0:
                first[colour] = position
            last[colour] = position
            top[position] = colour if colour > used else used
            if not rejected(position, earlier):
                yield from extend(position + 1, top[position], short - filling)
            last[colour] = earlier
            counts[colour] = count

    yield from extend(0, -1, colours * class_size)


@functools.cache
def _space_size(total: int, colours: int, class_size: int, minimum: bool) -> int:
    """Number of strings in the space of :func:`_orderly_strings`, whatever
    the shape.

    A restricted-growth string is a set partition of its positions, so this
    counts the partitions of ``total`` positions into ``colours`` blocks of
    exactly ``class_size`` (at least that many with ``minimum``), by the
    block of the last position.  Either that block has exactly
    ``class_size`` members, the others chosen among the earlier positions and
    the rest split into ``colours - 1`` blocks; or, with ``minimum``, it is
    larger, and without the last position the partition is one of
    ``total - 1`` positions into ``colours`` blocks, any of which the last
    position may join.
    """
    if colours == 0 or total < colours * class_size:
        return int(total == colours == 0)
    size = math.comb(total - 1, class_size - 1) * _space_size(
        total - class_size, colours - 1, class_size, minimum
    )
    if minimum:
        size += colours * _space_size(total - 1, colours, class_size, minimum)
    return size


def _reshape(shape: tuple[int, ...], flat: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    blocks = []
    position = 0
    for n in shape:
        blocks.append(flat[position : position + n])
        position += n
    return tuple(blocks)


@functools.cache
def _cycle_endpoints(shape: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The endpoints of the union of cycles' edges, position by position.

    Cycle i occupies a consecutive vertex block; edge j of a length-L cycle
    joins local vertices j and j+1 mod L.  Each vertex first appears in
    sequence order, so the engine's dense relabelling keeps every vertex id.
    """
    pairs = []
    base = 0
    for length in shape:
        pairs.extend((base + j, base + (j + 1) % length) for j in range(length))
        base += length
    return tuple(pairs)


def graph_from_cycle_colouring(
    shape: tuple[int, ...], flat: tuple[int, ...], colours: int
) -> ColouredMultigraph:
    """Build the union-of-cycles graph for a flat colour sequence.

    The edges are those of :func:`_cycle_endpoints`, so edge order follows
    the colour sequence position by position.
    """
    pairs = _cycle_endpoints(shape)
    return build_graph(sum(shape), colours, [(u, v, c) for (u, v), c in zip(pairs, flat)])


def enumerate_colourings(
    shape: tuple[int, ...], colours: int, class_size: int
) -> Iterator[ColouredMultigraph]:
    """All colourings of the shape with exact class multiplicities, one graph
    per symmetry orbit (canonical representatives, in lexicographic order)."""
    total = sum(shape)
    if any(n < 3 for n in shape):
        raise ValueError("cycle lengths must be at least 3")
    if colours < 1 or class_size < 1 or colours * class_size != total:
        raise ValueError(
            f"infeasible colouring arithmetic: {colours} colours x {class_size} != {total} edges"
        )
    for flat in _orderly_strings(shape, colours, class_size, minimum=False):
        yield graph_from_cycle_colouring(shape, flat, colours)


# --- the hunt itself ---------------------------------------------------------

def _work_units(spec: SearchSpec) -> Iterator[tuple[tuple[int, ...], int]]:
    """The (shape, colour count) units of the sweep, in sweep order, generated
    as the sweep reaches them.  Only totals with a feasible colour count are
    visited: the multiples of the class size, or with a minimum class size
    every total from it up."""
    size, minimum = spec.colour_class_size, spec.class_size_is_minimum
    for total in range(size, spec.max_edges + 1, 1 if minimum else size):
        for shape in _shapes_of_total(total, spec.require_bipartite):
            for k in range(1, total // size + 1) if minimum else [total // size]:
                yield shape, k


def _recheck_structure(spec: SearchSpec, graph: ColouredMultigraph, stats: DegreeStats) -> None:
    # Independent re-validation of every emitted instance, and of the degree
    # statistics the hunter read off its colour string, in one pass over the edges.
    degree = [0] * graph.vertex_count
    sizes = [0] * graph.colour_count
    for u, v, colour in graph.edges:
        degree[u] += 1
        degree[v] += 1
        sizes[colour] += 1
    if degree.count(2) != len(degree):
        raise RuntimeError("emitted instance is not 2-regular")
    if spec.require_bipartite and not is_bipartite(graph):
        raise RuntimeError("emitted instance is not bipartite")
    size, minimum = spec.colour_class_size, spec.class_size_is_minimum
    if min(sizes, default=size) < size or not minimum and max(sizes, default=size) > size:
        raise RuntimeError("emitted instance violates the colour class size constraint")
    if stats != DegreeStats(min(sizes, default=0), max(degree, default=0)):
        raise RuntimeError("emitted instance's degree statistics differ from its graph's")


def _examine_unit(
    args: tuple[SearchSpec, tuple[int, ...], int, frozenset[str], int],
) -> tuple[list[SearchResult], int, int, int]:
    """Examine every orbit of one (shape, colour count) unit.

    Returns the unit's certified blocked instances, its candidate count, its
    orbit count and the orbits skipped as already certified.  The unit's
    cycle endpoints are fixed, so the engine's :func:`solver._plan` of them
    is built once, and each orbit's tables are read off its colour string,
    which is valid by construction: the cycles have at least 3 edges, and
    every colour of a restricted-growth string with full classes is on some
    edge.  The degree statistics come from the string too, before any table
    is read: delta(V1) of the graph's hypergraph is its smallest colour
    class, which is the class size when that is exact and is otherwise
    counted off the string.  Delta(V2 u V3) is its largest vertex degree, 2.
    Only a blocked orbit gets edge triples and a graph: a validated
    :class:`ColouredMultigraph`, on which the brute-force oracle and
    :func:`_recheck_structure` confirm the block independently.
    """
    spec, shape, colours, skip_forms, brute_limit = args
    class_size, minimum = spec.colour_class_size, spec.class_size_is_minimum
    read = _plan(colours, _cycle_endpoints(shape))
    exact = DegreeStats(class_size, 2)
    results: list[SearchResult] = []
    orbits = skipped = 0
    for flat in _orderly_strings(shape, colours, class_size, minimum):
        orbits += 1
        if skip_forms and canonical_label(shape, _reshape(shape, flat)) in skip_forms:
            skipped += 1
            continue
        stats = exact
        if minimum:
            stats = DegreeStats(min(map(flat.count, range(colours))), 2)
        if spec.require_delta_gap and stats.delta_v1 <= stats.delta_max_rest:
            continue
        if _walk(read(flat, True), must_pick=True)[0] is not None:
            continue
        label = canonical_label(shape, _reshape(shape, flat))
        graph = graph_from_cycle_colouring(shape, flat, colours)
        outcome, matching_count = brute_force_full_rainbow(graph, brute_limit)
        if matching_count != 0 or outcome.matching is not None:
            raise RuntimeError(f"backtracking and brute force disagree on {label}")
        if stats.delta_v1 >= 2 * stats.delta_max_rest:
            # Contradicts the proved 2*Delta degree threshold; a find here
            # means the solver is broken, not that the theorem fell.
            raise RuntimeError(f"blocked instance with delta(V1) >= 2*Delta found: {label}")
        _recheck_structure(spec, graph, stats)
        results.append(
            SearchResult(
                instance=graph,
                shape=shape,
                stats=stats,
                certificate=AbsenceCertificate(
                    combinations=outcome.nodes_explored, matchings=0
                ),
                canonical_form=label,
            )
        )
    size = _space_size(sum(shape), colours, class_size, minimum)
    return results, size, orbits, skipped


def _examine_in_worker(payload: tuple) -> tuple[list[SearchResult], int, int, int]:
    # Ctrl-C signals the workers too: a worker ignores SIGINT between units,
    # where it would die with a traceback, and is interrupted in one
    waiting = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        return _examine_unit(payload)
    finally:
        signal.signal(signal.SIGINT, waiting)


def _in_sweep_order(payloads: Iterator[tuple], workers: int) -> Iterator[tuple]:
    """:func:`_examine_unit` of each payload in a pool of ``workers``
    processes, yielded in the payloads' order.

    A unit is submitted only when a worker has finished one, so only the
    calling thread draws on ``payloads``.  Closing the generator cancels the
    units not started and waits for the running ones to end: no worker is
    killed.  A worker that dies raises ``BrokenProcessPool``.
    """
    # imported here: nothing else needs it, and it costs every process
    # about 1 MB of memory
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    executor = ProcessPoolExecutor(
        workers, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN)
    )
    try:
        queued: collections.deque = collections.deque()
        running: set = set()
        for payload in payloads:
            queued.append(executor.submit(_examine_in_worker, payload))
            running.add(queued[-1])
            if len(running) == workers:
                running = wait(running, return_when=FIRST_COMPLETED).not_done
            while queued and queued[0].done():
                yield queued.popleft().result()
        for future in queued:
            yield future.result()
    finally:
        executor.shutdown(cancel_futures=True)


def hunt(
    spec: SearchSpec,
    jobs: int = 1,
    skip_forms: Optional[set[str]] = None,
    brute_limit: int = DEFAULT_BRUTE_LIMIT,
) -> HuntOutcome:
    """Sweep the shape x colouring space and return verified blocked instances.

    Results arrive in canonical order (total edges, then cycle count, then
    shape, then colour sequence) and the order never depends on ``jobs``:
    the space is split into (shape, colour count) work units processed or
    merged in that fixed order, and ``stop_after`` cuts at unit boundaries.
    With ``jobs`` above 1 the units run in worker processes: a ``stop_after``
    stop lets up to ``jobs - 1`` running units end and kills no worker, and a
    worker that dies raises ``BrokenProcessPool``.
    Forms in ``skip_forms`` (from a previous run's records) are not re-solved.
    Raises ValueError when ``jobs`` is below 1.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    frozen_skip = frozenset(skip_forms or ())
    units = _work_units(spec)
    # a worker beyond one per unit would have nothing to do
    first = list(itertools.islice(units, jobs))
    payloads = ((spec, *unit, frozen_skip, brute_limit) for unit in itertools.chain(first, units))

    results: list[SearchResult] = []
    candidates = orbits = skipped = consumed = 0
    if len(first) > 1:
        merged = contextlib.closing(_in_sweep_order(payloads, len(first)))
    else:
        merged = contextlib.nullcontext(map(_examine_unit, payloads))
    with merged as outputs:
        for found, unit_candidates, unit_orbits, unit_skipped in outputs:
            results.extend(found)
            candidates += unit_candidates
            orbits += unit_orbits
            skipped += unit_skipped
            consumed += 1
            if spec.stop_after is not None and len(results) >= spec.stop_after:
                break

    # a fresh walk: the pool draws units ahead of the merge
    exhausted = next(itertools.islice(_work_units(spec), consumed, None), None) is None
    if spec.stop_after is not None:
        results = results[: spec.stop_after]
    return HuntOutcome(
        results=tuple(results),
        candidates_examined=candidates,
        orbits_examined=orbits,
        skipped_known=skipped,
        exhausted=exhausted,
    )


# --- JSON-lines persistence ---------------------------------------------------

def result_line(result: SearchResult) -> str:
    """The result's JSON record as one line, byte for byte ``json.dumps`` with
    compact separators but built without a dict: every value is a non-negative
    int and the canonical form holds only digits and ``,|:``, so nothing is escaped."""
    graph, stats, certificate = result.instance, result.stats, result.certificate
    return (
        '{"type":"result","canonical":"%s","shape":[%s],"edges_total":%d,'
        '"delta_v1":%d,"delta_max_rest":%d,"certificate":{"combinations":%d,"matchings":%d},'
        '"instance":{"vertices":%d,"colours":%d,"edges":[%s]}}\n'
    ) % (
        result.canonical_form, ",".join(map(str, result.shape)), sum(result.shape),
        stats.delta_v1, stats.delta_max_rest, certificate.combinations, certificate.matchings,
        graph.vertex_count, graph.colour_count,
        ",".join(['{"u":%d,"v":%d,"colour":%d}' % edge for edge in graph.edges]),
    )


def summary_record(outcome: HuntOutcome, spec: SearchSpec) -> dict:
    return {
        "type": "summary",
        "max_edges": spec.max_edges,
        "colour_class_size": spec.colour_class_size,
        "class_size_is_minimum": spec.class_size_is_minimum,
        "require_bipartite": spec.require_bipartite,
        "require_delta_gap": spec.require_delta_gap,
        "results": len(outcome.results),
        "candidates_examined": outcome.candidates_examined,
        "orbits_examined": outcome.orbits_examined,
        "skipped_known": outcome.skipped_known,
        "exhausted": outcome.exhausted,
    }


class MalformedRecordError(ValueError):
    """A hunt record stream has a line that is not a record of the hunt's form."""


def read_certified_forms(lines: Iterator[str]) -> set[str]:
    """Canonical forms of already-certified results in a JSON-lines stream.

    Raises :class:`MalformedRecordError`, naming the line, for a line that is
    not a JSON object and for a result record whose ``canonical`` is missing
    or not a string, and, naming no line, for a stream of bytes that is not
    UTF-8 (it is decoded in chunks, so the line is not known).
    """
    forms = set()
    try:
        for number, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecordError(f"line {number} is not JSON: {exc.msg}") from exc
            except RecursionError as exc:
                raise MalformedRecordError(f"line {number} is not JSON: nested too deeply") from exc
            except ValueError as exc:
                # an integer with more digits than int() converts
                raise MalformedRecordError(f"line {number} is not JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise MalformedRecordError(f"line {number} is not a JSON object")
            if record.get("type") == "result":
                form = record.get("canonical")
                if not isinstance(form, str):
                    raise MalformedRecordError(
                        f"line {number} is a result record without a string \"canonical\""
                    )
                forms.add(form)
    except UnicodeDecodeError as exc:
        raise MalformedRecordError(f"not UTF-8: {exc.reason}") from exc
    return forms
