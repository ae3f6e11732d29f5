import dataclasses
import io
import itertools
import json
import random
import sys
import tracemalloc

import pytest

from rainbowmatch import (
    SearchSpec,
    brute_force_full_rainbow,
    canonical_colouring,
    canonical_label,
    colour_stats,
    enumerate_colourings,
    find_full_rainbow_matching,
    graph_from_cycle_colouring,
    hunt,
    is_canonical,
    max_degree,
)
from rainbowmatch import hunting, solver
from rainbowmatch.hunting import read_certified_forms, result_record, summary_record
from rainbowmatch.hypergraphs import DegreeStats
from rainbowmatch.solver import DEFAULT_BRUTE_LIMIT


def shapes_up_to(max_edges, bipartite):
    return [s for total in range(1, max_edges + 1) for s in hunting._shapes_of_total(total, bipartite)]


def test_shapes_bipartite_to_eight():
    assert shapes_up_to(8, True) == [(4,), (6,), (8,), (4, 4)]


def test_shapes_bipartite_to_five():
    assert shapes_up_to(5, True) == [(4,)]


def test_shapes_general_to_six():
    assert shapes_up_to(6, False) == [(3,), (4,), (5,), (6,), (3, 3)]


def test_shapes_order_and_feasible_totals():
    shapes = shapes_up_to(12, True)
    totals = [sum(s) for s in shapes]
    assert totals == sorted(totals)
    assert (4, 4, 4) in shapes
    assert all(all(part % 2 == 0 and part >= 4 for part in s) for s in shapes)


@pytest.mark.parametrize("bipartite", [False, True])
def test_shapes_match_brute_force_reference(bipartite):
    for n in range(3, 21):
        lengths = [m for m in range(3, n + 1) if not bipartite or (m >= 4 and m % 2 == 0)]
        reference = {
            s
            for cycles in range(1, n // 3 + 1)
            for s in itertools.combinations_with_replacement(lengths, cycles)
            if sum(s) <= n
        }
        expected = sorted(reference, key=lambda s: (sum(s), len(s), s))
        assert shapes_up_to(n, bipartite) == expected, n


def colour_sequences(graphs):
    return [tuple(e.colour for e in g.edges) for g in graphs]


def test_colourings_two_colours_on_four_cycle():
    # hand enumeration: the only orbits are aabb and abab
    assert colour_sequences(enumerate_colourings((4,), 2, 2)) == [
        (0, 0, 1, 1),
        (0, 1, 0, 1),
    ]


def test_colourings_single_colour():
    assert colour_sequences(enumerate_colourings((4,), 1, 4)) == [(0, 0, 0, 0)]


def test_colourings_all_distinct_collapse():
    # with colour renaming in the symmetry group, every permutation of four
    # distinct colours around a 4-cycle is the same instance
    assert colour_sequences(enumerate_colourings((4,), 4, 1)) == [(0, 1, 2, 3)]


def test_colourings_yield_exact_class_sizes():
    for g in enumerate_colourings((4, 4), 4, 2):
        assert set(colour_stats(g).multiplicities.values()) == {2}
        assert g.colour_count == 4
        assert max_degree(g) == 2


def test_colourings_infeasible_arithmetic():
    with pytest.raises(ValueError, match="infeasible"):
        list(enumerate_colourings((4,), 3, 2))
    with pytest.raises(ValueError, match="at least 3"):
        list(enumerate_colourings((2,), 1, 2))


def random_blocks(rng, shape, colours):
    while True:
        flat = [rng.randrange(colours) for _ in range(sum(shape))]
        if len(set(flat)) == colours:  # all colours used
            blocks = []
            position = 0
            for n in shape:
                blocks.append(tuple(flat[position : position + n]))
                position += n
            return tuple(blocks)


def random_orbit_mate(rng, shape, blocks, colours):
    """Apply a random symmetry group element to a colouring."""
    moved = []
    for block in blocks:
        b = list(block)
        if rng.random() < 0.5:
            b.reverse()
        r = rng.randrange(len(b))
        moved.append(tuple(b[r:] + b[:r]))
    slots_by_length: dict[int, list[int]] = {}
    for i, length in enumerate(shape):
        slots_by_length.setdefault(length, []).append(i)
    permutation = list(range(len(shape)))
    for slots in slots_by_length.values():
        shuffled = slots[:]
        rng.shuffle(shuffled)
        for a, b in zip(slots, shuffled):
            permutation[a] = b
    relabel = list(range(colours))
    rng.shuffle(relabel)
    return tuple(
        tuple(relabel[c] for c in moved[permutation[i]]) for i in range(len(shape))
    )


def test_canonical_form_is_orbit_invariant():
    rng = random.Random(941)
    shapes = [(4,), (6,), (3, 3), (4, 4), (4, 6), (4, 4, 4)]
    for _ in range(150):
        shape = rng.choice(shapes)
        colours = rng.randint(1, 4)
        blocks = random_blocks(rng, shape, colours)
        canonical = canonical_colouring(shape, blocks)
        mate = random_orbit_mate(rng, shape, blocks, colours)
        assert canonical_colouring(shape, mate) == canonical
        # idempotent and never lexicographically above the input
        assert canonical_colouring(shape, canonical) == canonical
        assert sum(canonical, ()) <= sum(blocks, ())


def test_canonical_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        canonical_colouring((4,), ((0, 0, 0),))


def split(shape, flat):
    blocks = []
    position = 0
    for n in shape:
        blocks.append(tuple(flat[position : position + n]))
        position += n
    return tuple(blocks)


def restricted_growth_strings(length):
    """Every string whose symbols first appear in the order 0, 1, 2, ..."""
    def extend(prefix, used):
        if len(prefix) == length:
            yield tuple(prefix)
            return
        for symbol in range(used + 1):
            yield from extend(prefix + [symbol], max(used, symbol + 1))

    yield from extend([], 0)


def test_is_canonical_matches_full_minimisation():
    # every restricted-growth string of every shape up to 8 edges, over every
    # colour count, against the full minimum computed by canonical_colouring
    checked = accepted = 0
    for shape in shapes_up_to(8, False):
        for flat in restricted_growth_strings(sum(shape)):
            blocks = split(shape, flat)
            expected = canonical_colouring(shape, blocks) == blocks
            assert is_canonical(shape, blocks) == expected, (shape, blocks)
            checked += 1
            accepted += expected
    assert checked == 14652
    assert 0 < accepted < checked
    with pytest.raises(ValueError):
        is_canonical((4,), ((0, 0, 0),))


def orbits_by_union_find(shape, colours, class_size):
    """Orbit count of all colour strings with exact class sizes.

    Shares no code with the canonicaliser: every string (restricted growth or
    not) is a node, and each generator of the symmetry group joins a string
    with its image.  Generators: rotate one cycle by one step, reflect one
    cycle, swap two cycles of equal length, swap colours c and c+1.
    """
    total = sum(shape)
    strings = [
        s
        for s in itertools.product(range(colours), repeat=total)
        if all(s.count(c) == class_size for c in range(colours))
    ]
    parent = {s: s for s in strings}

    def find(s):
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    starts = [sum(shape[:i]) for i in range(len(shape))]
    for s in strings:
        blocks = [list(s[a : a + n]) for a, n in zip(starts, shape)]
        images = []
        for i, block in enumerate(blocks):
            for moved in (block[1:] + block[:1], block[::-1]):
                images.append(blocks[:i] + [moved] + blocks[i + 1 :])
            for j in range(i + 1, len(blocks)):
                if shape[j] == shape[i]:
                    swapped = blocks[:]
                    swapped[i], swapped[j] = blocks[j], blocks[i]
                    images.append(swapped)
        image_strings = [tuple(itertools.chain(*b)) for b in images]
        for c in range(colours - 1):
            swap = {c: c + 1, c + 1: c}
            image_strings.append(tuple(swap.get(x, x) for x in s))
        for image in image_strings:
            parent[find(image)] = find(s)
    return len({find(s) for s in strings}), strings


@pytest.mark.parametrize(
    "shape, class_size",
    [
        ((4, 4), 2),
        ((4, 4), 4),
        ((3, 5), 2),
        ((8,), 2),
        ((8,), 4),
        ((3, 3, 3), 3),
        # at 12 edges, out of the orderly reference's reach: a three-cycle
        # run of equal lengths, and a run followed by a longer cycle
        ((4, 4, 4), 4),
        ((3, 3, 6), 4),
        # equal lengths apart, which no hunt shape has
        ((3, 4, 3), 5),
    ],
)
def test_is_canonical_accepts_one_string_per_orbit(shape, class_size):
    colours = sum(shape) // class_size
    orbits, strings = orbits_by_union_find(shape, colours, class_size)
    # over all strings, not only restricted-growth ones
    assert sum(is_canonical(shape, split(shape, s)) for s in strings) == orbits
    assert len(list(enumerate_colourings(shape, colours, class_size))) == orbits


# (class_size_is_minimum, class sizes, max edges).  Every unit up to 10 edges
# in exact mode; in minimum mode the small class sizes stop earlier, because
# their spaces grow towards every restricted-growth string (115,975 at 10
# edges, times each shape) and the reference tests each one.
ORDERLY_SPACES = [
    (False, range(1, 11), 10),
    (True, [1], 8),
    (True, [2], 9),
    (True, range(3, 11), 10),
]


def test_orderly_generation_cuts_no_canonical_string(monkeypatch):
    # the reference shares no code with the generator: the strings of each
    # length and colour count, with their class sizes
    references = {}
    for length in range(3, 11):
        for s in restricted_growth_strings(length):
            sizes = [s.count(c) for c in range(max(s) + 1)]
            references.setdefault((length, len(sizes)), []).append((s, sizes))
    units = {
        (shape, colours, class_size, minimum)
        for minimum, class_sizes, max_edges in ORDERLY_SPACES
        for class_size in class_sizes
        for bipartite in (False, True)
        for shape, colours in hunting._work_units(
            SearchSpec(
                max_edges=max_edges,
                colour_class_size=class_size,
                require_bipartite=bipartite,
                class_size_is_minimum=minimum,
            )
        )
    }
    assert len(units) == 322
    beam = hunting._beam_minimum
    beamed = []

    def counting_beam(*args):
        beamed.append(args[0])
        return beam(*args)

    for shape, colours, class_size, minimum in sorted(units):
        space = [
            s
            for s, sizes in references[sum(shape), colours]
            if min(sizes) >= class_size and (minimum or max(sizes) == class_size)
        ]
        expected = [s for s in space if is_canonical(shape, split(shape, s))]
        with monkeypatch.context() as patch:
            patch.setattr(hunting, "_beam_minimum", counting_beam)
            generated = list(hunting._orderly_strings(shape, colours, class_size, minimum))
        assert generated == expected, (shape, colours, class_size, minimum)
        size = hunting._space_size(sum(shape), colours, class_size, minimum)
        assert size == len(space), (shape, colours, class_size, minimum)
    # and the rejection does its work: of the 56,037 strings in these spaces,
    # the generator runs the beam of _beam_minimum at most this many times,
    # only for a completed cycle in a run of equal lengths, so over at least
    # two cycles (a weaker rejection lets more prefixes reach it)
    assert all(len(head) >= 2 for head in beamed)
    assert len(beamed) <= 812


def pairings(positions):
    """Every split of the positions into unordered pairs, each pair listed
    at its smaller position, in increasing order."""
    if not positions:
        yield []
        return
    first, rest = positions[0], positions[1:]
    for k, partner in enumerate(rest):
        for others in pairings(rest[:k] + rest[k + 1 :]):
            yield [(first, partner), *others]


@pytest.mark.parametrize("shape", [(3, 9), (3, 4, 5), (3, 3, 6)])
def test_orderly_generation_at_twelve_edges(shape):
    # class size 2 at 12 edges, where a cycle after a prefix with colour maps
    # other than the identity is cut while it fills: the whole space is the
    # 10,395 pairings of the positions, each read as a string by numbering
    # its pairs in order of their first position
    strings = []
    for pairing in pairings(list(range(12))):
        string = [0] * 12
        for colour, (a, b) in enumerate(pairing):
            string[a] = string[b] = colour
        strings.append(tuple(string))
    assert len(set(strings)) == 10395 == hunting._space_size(12, 6, 2, False)
    expected = sorted(s for s in strings if is_canonical(shape, split(shape, s)))
    assert list(hunting._orderly_strings(shape, 6, 2, False)) == expected


def test_canonical_label_format():
    assert canonical_label((4, 4), ((0, 1, 0, 1), (2, 3, 2, 3))) == "4,4:0,1,0,1|2,3,2,3"


def test_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(max_edges=0, colour_class_size=2)
    with pytest.raises(ValueError):
        SearchSpec(max_edges=4, colour_class_size=0)
    with pytest.raises(ValueError):
        SearchSpec(max_edges=4, colour_class_size=2, stop_after=0)
    with pytest.raises(ValueError, match="max_edges must be at most"):
        SearchSpec(max_edges=sys.getrecursionlimit() - 99, colour_class_size=2)


def test_hunt_minimal_blocked_instance():
    spec = SearchSpec(max_edges=4, colour_class_size=2, require_bipartite=True)
    outcome = hunt(spec)
    assert [r.canonical_form for r in outcome.results] == ["4:0,1,0,1"]
    assert outcome.exhausted
    assert outcome.candidates_examined == 3
    assert outcome.orbits_examined == 2
    result = outcome.results[0]
    assert result.certificate.combinations == 4
    assert result.certificate.matchings == 0
    assert result.stats.delta_v1 == 2
    assert result.stats.delta_max_rest == 2


def test_hunt_gap_filter_empties_small_space():
    # delta(V1) = 2 = Delta, so the gap requirement excludes the abab cycle
    spec = SearchSpec(
        max_edges=4, colour_class_size=2, require_bipartite=True, require_delta_gap=True
    )
    outcome = hunt(spec)
    assert outcome.results == ()
    assert outcome.exhausted


def test_hunt_gap_filter_with_a_minimum_class_size():
    # every blocked orbit up to 9 edges has a colour class of 2, so
    # delta(V1) = 2 = Delta and the gap filter must drop all 96 of them
    spec = SearchSpec(
        max_edges=9, colour_class_size=2, class_size_is_minimum=True, require_delta_gap=True
    )
    outcome = hunt(spec)
    assert outcome.results == ()
    assert outcome.exhausted
    assert outcome.orbits_examined == 783
    plain = hunt(dataclasses.replace(spec, require_delta_gap=False))
    assert plain.orbits_examined == 783
    assert len(plain.results) == 96
    assert all(colour_stats(r.instance).minimum == 2 for r in plain.results)


def test_gap_filter_reads_each_orbits_smallest_class():
    # the 12-edge (4,4,4) unit with 4 colours and classes of at least 2 has
    # 25 blocked orbits; the gap filter keeps exactly those whose own graph
    # has delta(V1) > Delta, the 4,4,4 blocker with classes of 3, and the
    # statistics it reports are the graph's
    spec = SearchSpec(
        max_edges=12,
        colour_class_size=2,
        require_bipartite=True,
        class_size_is_minimum=True,
        require_delta_gap=True,
    )
    unit = ((4, 4, 4), 4, frozenset(), DEFAULT_BRUTE_LIMIT)
    results, _, orbits, _ = hunting._examine_unit((spec, *unit))
    assert orbits == 502
    assert [r.canonical_form for r in results] == ["4,4,4:0,1,0,1|0,2,1,3|2,3,2,3"]
    for result in results:
        graph = result.instance
        assert result.stats == DegreeStats(colour_stats(graph).minimum, max_degree(graph))
    plain, _, _, _ = hunting._examine_unit(
        (dataclasses.replace(spec, require_delta_gap=False), *unit)
    )
    assert len(plain) == 25
    kept = [
        r.canonical_form
        for r in plain
        if colour_stats(r.instance).minimum > max_degree(r.instance)
    ]
    assert kept == [r.canonical_form for r in results]


def test_hunt_eight_edges_full_sweep():
    spec = SearchSpec(max_edges=8, colour_class_size=2, require_bipartite=True)
    outcome = hunt(spec)
    forms = [r.canonical_form for r in outcome.results]
    assert len(forms) == 20
    assert len(set(forms)) == len(forms)  # canonical dedup
    keys = [
        (sum(r.shape), len(r.shape), r.shape, tuple(e.colour for e in r.instance.edges))
        for r in outcome.results
    ]
    assert keys == sorted(keys)  # canonical emission order
    # spot-frozen content: the three smallest blocked instances
    assert forms[:3] == ["4:0,1,0,1", "6:0,0,1,2,1,2", "6:0,1,0,2,1,2"]
    assert "4,4:0,1,0,1|2,3,2,3" in forms
    assert outcome.candidates_examined == 228
    assert outcome.orbits_examined == 32
    for result in outcome.results:
        # certificates re-verify against a fresh brute-force run
        _, count = brute_force_full_rainbow(result.instance)
        assert count == 0
        assert find_full_rainbow_matching(result.instance).matching is None
        # contrapositive of the proved degree threshold
        assert result.stats.delta_v1 < 2 * result.stats.delta_max_rest


def test_hunt_non_bipartite_includes_triangles():
    spec = SearchSpec(max_edges=6, colour_class_size=2, require_bipartite=False)
    outcome = hunt(spec)
    assert [r.canonical_form for r in outcome.results] == [
        "4:0,1,0,1",
        "6:0,0,1,2,1,2",
        "6:0,1,0,2,1,2",
        "3,3:0,0,1|1,2,2",
        "3,3:0,1,2|0,1,2",
    ]


def test_hunt_minimum_class_size_mode():
    spec = SearchSpec(
        max_edges=4,
        colour_class_size=2,
        require_bipartite=True,
        class_size_is_minimum=True,
    )
    outcome = hunt(spec)
    # sweeps one-colour and two-colour assignments; only abab is blocked
    assert [r.canonical_form for r in outcome.results] == ["4:0,1,0,1"]
    assert outcome.candidates_examined == 4


def test_hunt_threshold_spaces_are_empty():
    # class size 4 on 2-regular graphs means delta(V1) >= 2*Delta, where the
    # proved threshold guarantees a matching: the hunt must come back empty
    spec = SearchSpec(max_edges=8, colour_class_size=4, require_bipartite=True)
    outcome = hunt(spec)
    assert outcome.results == ()
    assert outcome.exhausted
    assert outcome.orbits_examined > 0


def test_hunt_stop_after_unit_boundary():
    spec = SearchSpec(
        max_edges=8, colour_class_size=2, require_bipartite=True, stop_after=1
    )
    outcome = hunt(spec)
    assert [r.canonical_form for r in outcome.results] == ["4:0,1,0,1"]
    assert not outcome.exhausted  # later units were never examined
    assert outcome.candidates_examined == 3


def test_hunt_stopped_early_costs_nothing_for_later_shapes():
    # 70 edges hold about a million shapes; a sweep that stops in the first
    # few units must not generate them
    tracemalloc.start()
    try:
        wide = hunt(SearchSpec(max_edges=70, colour_class_size=2, stop_after=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    narrow = hunt(SearchSpec(max_edges=10, colour_class_size=2, stop_after=3))
    assert wide == narrow
    assert len(wide.results) == 3 and not wide.exhausted
    assert peak < 5 * 2**20


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "max_edges, forms",
    [(4, ["4:0,1,0,1"]), (6, ["4:0,1,0,1", "6:0,0,1,2,1,2", "6:0,1,0,2,1,2"])],
)
def test_hunt_stop_after_on_last_unit_is_exhausted(jobs, max_edges, forms):
    # the stop lands on the last unit (at 6 edges, with two workers for two
    # units), so every unit was examined
    spec = SearchSpec(
        max_edges=max_edges, colour_class_size=2, require_bipartite=True, stop_after=len(forms)
    )
    outcome = hunt(spec, jobs=jobs)
    assert [r.canonical_form for r in outcome.results] == forms
    assert outcome.exhausted is True


def test_hunt_worker_count_independence():
    spec = SearchSpec(max_edges=8, colour_class_size=2, require_bipartite=True)
    assert hunt(spec, jobs=1) == hunt(spec, jobs=2) == hunt(spec, jobs=4)


def test_hunt_starts_no_more_workers_than_units(monkeypatch):
    # A stand-in executor records the worker count and runs each unit in this
    # process as it is submitted, so no worker is ever started.
    import concurrent.futures

    requested = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    spec = SearchSpec(max_edges=10, colour_class_size=2)
    assert len(list(hunting._work_units(spec))) == 11
    serial = hunt(spec, jobs=1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    assert hunt(spec, jobs=100_000) == serial
    assert hunt(spec, jobs=3) == serial
    assert requested == [11, 3]


def test_stopped_pool_leaves_no_worker():
    # a stop cancels the units not started and waits for the running ones
    import multiprocessing

    outcome = hunt(SearchSpec(10, 2, stop_after=3), jobs=2)
    assert len(outcome.results) == 3 and not outcome.exhausted
    assert multiprocessing.active_children() == []


def test_hunt_resume_skips_certified_forms():
    spec = SearchSpec(max_edges=4, colour_class_size=2, require_bipartite=True)
    first = hunt(spec)
    stream = io.StringIO(
        "".join(json.dumps(result_record(r)) + "\n" for r in first.results)
    )
    forms = read_certified_forms(stream)
    assert forms == {"4:0,1,0,1"}
    second = hunt(spec, skip_forms=forms)
    assert second.results == ()
    assert second.skipped_known == 1


def test_records_round_trip():
    spec = SearchSpec(max_edges=4, colour_class_size=2, require_bipartite=True)
    outcome = hunt(spec)
    record = result_record(outcome.results[0])
    assert record["type"] == "result"
    assert record["canonical"] == "4:0,1,0,1"
    assert record["shape"] == [4]
    assert record["certificate"] == {"combinations": 4, "matchings": 0}
    assert record["instance"]["colours"] == 2
    summary = summary_record(outcome, spec)
    assert summary["type"] == "summary"
    assert summary["results"] == 1
    assert summary["exhausted"] is True


def test_graph_from_cycle_colouring_layout():
    g = graph_from_cycle_colouring((4, 4), (0, 1, 0, 1, 2, 3, 2, 3), 4)
    assert g.vertex_count == 8
    assert [(e.u, e.v) for e in g.edges[:4]] == [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert [(e.u, e.v) for e in g.edges[4:]] == [(4, 5), (5, 6), (6, 7), (7, 4)]
    assert [e.colour for e in g.edges] == [0, 1, 0, 1, 2, 3, 2, 3]


def test_class_size_one_unit_keeps_no_colour_maps():
    # four triangles have 6^4 * 4! = 31,104 symmetries, all fixing the one
    # string; the unit needs none of them
    spec = SearchSpec(max_edges=12, colour_class_size=1)
    tracemalloc.start()
    try:
        found, _, orbits, _ = hunting._examine_unit(
            (spec, (3, 3, 3, 3), 12, frozenset(), DEFAULT_BRUTE_LIMIT)
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert orbits == len(found) == 1
    assert peak < 5 * 2**20


def test_class_size_one_string_is_canonical():
    rng = random.Random(1101)
    for shape in shapes_up_to(9, False):
        total = sum(shape)
        scrambled = rng.sample(range(total), total)
        expected = canonical_colouring(shape, hunting._reshape(shape, tuple(scrambled)))
        strings = list(hunting._orderly_strings(shape, total, 1, False))
        assert [hunting._reshape(shape, flat) for flat in strings] == [expected]
        assert list(hunting._orderly_strings(shape, total - 1, 1, False)) == []


def test_hunt_class_size_one_blocks_every_shape():
    # adjacent edges of a cycle share a vertex, so one edge per colour is
    # never a matching
    outcome = hunt(SearchSpec(max_edges=15, colour_class_size=1))
    shapes = shapes_up_to(15, False)
    assert [r.shape for r in outcome.results] == shapes
    assert outcome.orbits_examined == len(shapes)
    assert outcome.exhausted
    for result in outcome.results:
        assert result.certificate.combinations == 1
        assert result.certificate.matchings == 0
        assert result.stats == DegreeStats(1, 2)


def test_engine_and_brute_force_disagreement_is_caught(monkeypatch):
    # an engine that calls every orbit blocked is wrong on 4:0,0,1,1, whose
    # opposite edges are a full rainbow matching
    monkeypatch.setattr(hunting, "_walk", lambda *args, **kwargs: (None, 1))
    spec = SearchSpec(max_edges=4, colour_class_size=2, require_bipartite=True)
    with pytest.raises(RuntimeError, match="backtracking and brute force disagree on 4:0,0,1,1"):
        hunting._examine_unit((spec, (4,), 2, frozenset(), DEFAULT_BRUTE_LIMIT))


def test_recheck_structure_compares_degree_statistics():
    spec = SearchSpec(max_edges=4, colour_class_size=2, require_bipartite=True)
    graph = graph_from_cycle_colouring((4,), (0, 1, 0, 1), 2)
    hunting._recheck_structure(spec, graph, DegreeStats(2, 2))
    for stats in (DegreeStats(1, 2), DegreeStats(2, 3), DegreeStats(3, 2)):
        with pytest.raises(RuntimeError, match="degree statistics"):
            hunting._recheck_structure(spec, graph, stats)


@pytest.mark.parametrize(
    "spec",
    [
        SearchSpec(max_edges=12, colour_class_size=2),
        SearchSpec(max_edges=12, colour_class_size=3),
        SearchSpec(max_edges=12, colour_class_size=3, require_bipartite=True),
        SearchSpec(max_edges=9, colour_class_size=2, class_size_is_minimum=True),
    ],
    ids=["exact-2", "exact-3", "bipartite-3", "minimum-2"],
)
def test_orbit_tables_and_statistics_match_the_graph(spec):
    # the tables the hunter reads off each colour string through the unit's
    # plan are exactly the engine's own for the string's graph, whose
    # smallest class is the class size when that is exact, and whose vertex
    # degree is 2
    class_size, minimum = spec.colour_class_size, spec.class_size_is_minimum
    orbits = 0
    for shape, colours in hunting._work_units(spec):
        read = solver._plan(colours, hunting._cycle_endpoints(shape))
        for flat in hunting._orderly_strings(shape, colours, class_size, minimum):
            tables = read(flat, True)
            graph = graph_from_cycle_colouring(shape, flat, colours)
            assert tables == solver._tables(colours, graph.edges, True)
            assert minimum or colour_stats(graph).minimum == class_size
            assert max_degree(graph) == 2
            orbits += 1
    assert orbits == hunt(spec).orbits_examined


def test_only_blocked_orbits_get_a_graph(monkeypatch):
    built = []
    build = hunting.build_graph

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(hunting, "build_graph", counted)
    outcome = hunt(SearchSpec(max_edges=10, colour_class_size=2))
    assert outcome.orbits_examined == 204
    assert len(built) == len(outcome.results) == 166


@pytest.mark.parametrize("jobs", [0, -3])
def test_hunt_rejects_fewer_than_one_job(jobs):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        hunt(SearchSpec(max_edges=4, colour_class_size=2), jobs=jobs)
