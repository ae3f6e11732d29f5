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
    canonical_label,
    colour_stats,
    find_full_rainbow_matching,
    graph_from_cycle_colouring,
    hunt,
    max_degree,
)
from rainbowmatch import hunting, solver
from rainbowmatch.graphs import build_graph, graph_to_json, is_bipartite
from rainbowmatch.hunting import canonical_colouring, read_certified_forms, result_line, summary_record
from rainbowmatch.hypergraphs import DegreeStats, degree_stats


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


def orbit_graphs(shape, colours, class_size):
    """One graph per orbit of the colourings with exact class sizes: the
    generator's strings, in order."""
    return [
        graph_from_cycle_colouring(shape, flat, colours)
        for flat in hunting._orderly_strings(shape, colours, class_size, False)
    ]


def colour_sequences(graphs):
    return [tuple(e.colour for e in g.edges) for g in graphs]


def test_colourings_two_colours_on_four_cycle():
    # hand enumeration: the only orbits are aabb and abab
    assert colour_sequences(orbit_graphs((4,), 2, 2)) == [
        (0, 0, 1, 1),
        (0, 1, 0, 1),
    ]


def test_colourings_single_colour():
    assert colour_sequences(orbit_graphs((4,), 1, 4)) == [(0, 0, 0, 0)]


def test_colourings_all_distinct_collapse():
    # with colour renaming in the symmetry group, every permutation of four
    # distinct colours around a 4-cycle is the same instance
    assert colour_sequences(orbit_graphs((4,), 4, 1)) == [(0, 1, 2, 3)]


def test_colourings_yield_exact_class_sizes():
    for g in orbit_graphs((4, 4), 4, 2):
        assert set(colour_stats(g).multiplicities.values()) == {2}
        assert g.colour_count == 4
        assert max_degree(g) == 2


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


def is_canonical_string(shape, flat):
    blocks = split(shape, flat)
    return canonical_colouring(shape, blocks) == blocks


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
    # the two canonical forms cross-checked: for every shape up to 8 edges
    # and every colour count, the flattened canonical_colouring forms of
    # every restricted-growth string are exactly the generator's strings
    checked = accepted = 0
    for shape in shapes_up_to(8, False):
        forms = {}
        for flat in restricted_growth_strings(sum(shape)):
            form = sum(canonical_colouring(shape, split(shape, flat)), ())
            forms.setdefault(max(flat) + 1, set()).add(form)
            checked += 1
        for colours, found in forms.items():
            assert found == set(hunting._orderly_strings(shape, colours, 1, True)), (shape, colours)
            accepted += len(found)
    assert checked == 14652
    assert 0 < accepted < checked
    # symbols below 0 are renamed like any other
    assert canonical_colouring((3,), ((-1, -1, -1),)) == ((0, 0, 0),)


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
    orbits, _ = orbits_by_union_find(shape, colours, class_size)
    assert len(list(hunting._orderly_strings(shape, colours, class_size, False))) == orbits


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
    beam = hunting.canonical_colouring
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
        expected = [s for s in space if is_canonical_string(shape, s)]
        with monkeypatch.context() as patch:
            patch.setattr(hunting, "canonical_colouring", counting_beam)
            generated = list(hunting._orderly_strings(shape, colours, class_size, minimum))
        assert generated == expected, (shape, colours, class_size, minimum)
        size = hunting._space_size(sum(shape), colours, class_size, minimum)
        assert size == len(space), (shape, colours, class_size, minimum)
    # and the generator decides canonicity without ever running the beam of
    # canonical_colouring
    assert beamed == []


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
    expected = sorted(s for s in strings if is_canonical_string(shape, s))
    assert list(hunting._orderly_strings(shape, 6, 2, False)) == expected


def orbit_minima(shape, colours, class_size, minimum):
    """The strings of a unit that are the least member of their orbit.

    Shares no code with the generator or with canonical_colouring: the group is
    enumerated element by element, as a list of positions to read.  Slot i
    of an element takes a cycle of its length (a permutation of the
    equal-length cycles) under one of its rotations and reflections, and
    each image is renamed by first occurrence before it is compared.
    """
    starts = [sum(shape[:i]) for i in range(len(shape))]
    orders = [
        order
        for order in itertools.permutations(range(len(shape)))
        if all(shape[slot] == shape[k] for slot, k in enumerate(order))
    ]
    # each cycle's rotations and reflections, as the positions they read
    turns = [
        [[start + (r + d * t) % n for t in range(n)] for r in range(n) for d in (1, -1)]
        for start, n in zip(starts, shape)
    ]
    group = [
        sum(choice, [])
        for order in orders
        for choice in itertools.product(*(turns[k] for k in order))
    ]

    def renamed(image):
        names = {}
        return tuple(names.setdefault(c, len(names)) for c in image)

    minima = []
    for s in restricted_growth_strings(sum(shape)):
        sizes = [s.count(c) for c in range(max(s) + 1)]
        if len(sizes) != colours or min(sizes) < class_size:
            continue
        if not minimum and max(sizes) != class_size:
            continue
        if not any(renamed([s[p] for p in element]) < s for element in group):
            minima.append(s)
    return minima


@pytest.mark.parametrize(
    "shape, colours, class_size, minimum",
    [
        ((4, 4), 4, 2, False),
        ((3, 3, 3), 3, 3, False),
        ((3, 3, 4), 5, 2, False),
        # equal lengths apart, which no hunt shape has
        ((3, 4, 3), 5, 2, False),
        ((4, 4), 3, 2, True),
    ],
)
def test_orderly_generation_yields_the_orbit_minima(shape, colours, class_size, minimum):
    expected = orbit_minima(shape, colours, class_size, minimum)
    assert expected
    assert list(hunting._orderly_strings(shape, colours, class_size, minimum)) == sorted(expected)


def test_case_a_reads_a_bounded_number_of_arrangements(monkeypatch):
    # Case (a) reads a completed cycle into an earlier slot by iterating the
    # rotations and reflections that _dihedral_transforms lists; a list that
    # counts the members it yields counts those readings.  Over the units of
    # test_orderly_generation_cuts_no_canonical_string the count is pinned at
    # its measured value: a weaker test (more prefixes reaching a completed
    # cycle, or survivors read from more than the slot before) reads more.
    readings = 0

    class Counted(list):
        def __iter__(self):
            nonlocal readings
            for transform in super().__iter__():
                readings += 1
                yield transform

    transforms = hunting._dihedral_transforms
    monkeypatch.setattr(hunting, "_dihedral_transforms", lambda block: Counted(transforms(block)))
    units = {
        (shape, colours, class_size, minimum)
        for minimum, class_sizes, max_edges in ORDERLY_SPACES
        for class_size in class_sizes
        for bipartite in (False, True)
        for shape, colours in hunting._work_units(
            SearchSpec(max_edges, class_size, bipartite, class_size_is_minimum=minimum)
        )
    }
    assert len(units) == 322
    for unit in sorted(units):
        for _ in hunting._orderly_strings(*unit):
            pass
    assert 0 < readings <= 10672, readings


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
    # statistics it reports are the graph's.  The general (3,3,4) unit with
    # 4 colours has odd cycles and 28 blocked orbits, each with a class of
    # 2, so the filter keeps none of them
    bipartite = SearchSpec(
        max_edges=12,
        colour_class_size=2,
        require_bipartite=True,
        class_size_is_minimum=True,
        require_delta_gap=True,
    )
    general = dataclasses.replace(bipartite, max_edges=10, require_bipartite=False)
    cases = [
        (bipartite, ((4, 4, 4), 4, frozenset()), 502, 25, ["4,4,4:0,1,0,1|0,2,1,3|2,3,2,3"]),
        (general, ((3, 3, 4), 4, frozenset()), 93, 28, []),
    ]
    for spec, unit, orbit_count, blocked, gapped in cases:
        results, _, orbits, _ = hunting._examine_unit((spec, *unit))
        assert orbits == orbit_count
        assert [r.canonical_form for r in results] == gapped
        for result in results:
            graph = result.instance
            assert result.stats == DegreeStats(colour_stats(graph).minimum, max_degree(graph))
        plain, _, _, _ = hunting._examine_unit(
            (dataclasses.replace(spec, require_delta_gap=False), *unit)
        )
        assert len(plain) == blocked
        kept = [
            r.canonical_form
            for r in plain
            if colour_stats(r.instance).minimum > max_degree(r.instance)
        ]
        assert kept == gapped


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


def test_hunt_twelve_edge_bipartite_sweep_with_classes_of_at_least_3():
    # Conjecture 1's bipartite case as stated (every class at least 3) at 12
    # edges: 4,727 orbits, as Burnside's lemma counts them, and one blocker,
    # the 12-edge witness with four classes of 3
    spec = SearchSpec(12, 3, require_bipartite=True, class_size_is_minimum=True)
    outcome = hunt(spec)
    assert outcome.candidates_examined == 245730
    assert outcome.orbits_examined == 4727
    assert outcome.exhausted
    assert [r.canonical_form for r in outcome.results] == ["4,4,4:0,1,0,1|0,2,1,3|2,3,2,3"]


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
        def __init__(self, max_workers, **options):
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
    stream = io.StringIO("".join(result_line(r) for r in first.results))
    forms = read_certified_forms(stream)
    assert forms == {"4:0,1,0,1"}
    second = hunt(spec, skip_forms=forms)
    assert second.results == ()
    assert second.skipped_known == 1


def test_records_round_trip():
    spec = SearchSpec(max_edges=4, colour_class_size=2, require_bipartite=True)
    outcome = hunt(spec)
    record = json.loads(result_line(outcome.results[0]))
    assert record["type"] == "result"
    assert record["canonical"] == "4:0,1,0,1"
    assert record["shape"] == [4]
    assert record["certificate"] == {"combinations": 4, "matchings": 0}
    assert record["instance"]["colours"] == 2
    summary = summary_record(outcome, spec)
    assert summary["type"] == "summary"
    assert summary["results"] == 1
    assert summary["exhausted"] is True


@pytest.mark.parametrize(
    "spec",
    [
        SearchSpec(12, 2),
        SearchSpec(12, 3, require_bipartite=True, require_delta_gap=True),
    ],
    ids=["general-2", "bipartite-3-gap"],
)
def test_result_line_is_the_compact_json_of_the_record(spec):
    # the record built as a dict, independently of result_line's format
    outcome = hunt(spec)
    assert outcome.results
    for result in outcome.results:
        expected = {
            "type": "result",
            "canonical": result.canonical_form,
            "shape": list(result.shape),
            "edges_total": sum(result.shape),
            "delta_v1": result.stats.delta_v1,
            "delta_max_rest": result.stats.delta_max_rest,
            "certificate": {
                "combinations": result.certificate.combinations,
                "matchings": result.certificate.matchings,
            },
            "instance": graph_to_json(result.instance),
        }
        assert result_line(result) == json.dumps(expected, separators=(",", ":")) + "\n"
    lines = io.StringIO("".join(map(result_line, outcome.results)))
    assert read_certified_forms(lines) == {r.canonical_form for r in outcome.results}


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
        found, _, orbits, _ = hunting._examine_unit((spec, (3, 3, 3, 3), 12, frozenset()))
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
    # an engine that calls every orbit blocked is wrong on 6:0,0,0,1,1,1,
    # whose edges 0 and 3 are a full rainbow matching
    monkeypatch.setattr(hunting, "_walk", lambda *args, **kwargs: (None, 1))
    spec = SearchSpec(max_edges=6, colour_class_size=3, require_bipartite=True)
    with pytest.raises(RuntimeError, match="backtracking and brute force disagree on 6:0,0,0,1,1,1"):
        hunting._examine_unit((spec, (6,), 2, frozenset()))


@pytest.mark.parametrize("bipartite", [True, False], ids=["bipartite", "general"])
def test_alternating_halves_are_the_perfect_matchings(bipartite):
    # every set of half the positions whose edges share no vertex, found by
    # brute force; a shape with an odd cycle has none
    for shape in shapes_up_to(12 if bipartite else 10, bipartite):
        pairs = hunting._cycle_endpoints(shape)
        perfect = [
            subset
            for subset in itertools.combinations(range(len(pairs)), len(pairs) // 2)
            if len({v for p in subset for v in pairs[p]}) == len(pairs)
        ]
        assert sorted(hunting._alternating_halves(shape)) == perfect, shape
        assert len(perfect) == (2 ** len(shape) if all(n % 2 == 0 for n in shape) else 0)


def test_a_perfect_unit_never_runs_the_engine(monkeypatch):
    # five colours on ten edges: a full rainbow matching is perfect, one
    # alternating half of each cycle, and only the oracle is asked
    def walk(*args, **kwargs):
        raise AssertionError("the engine ran on a perfect unit")

    monkeypatch.setattr(hunting, "_walk", walk)
    payload = (SearchSpec(10, 2), (4, 6), 5, frozenset())
    found, _, orbits, _ = hunting._examine_unit(payload)
    assert 0 < len(found) < orbits
    monkeypatch.setattr(
        hunting,
        "brute_force_full_rainbow",
        lambda graph: (solver.SolveOutcome(frozenset(range(5)), 1, True), 1),
    )
    with pytest.raises(RuntimeError, match="the alternating halves and brute force disagree on 4,6:"):
        hunting._examine_unit(payload)


def test_a_class_size_2_hunt_never_runs_the_engine(monkeypatch):
    def walk(*args, **kwargs):
        raise AssertionError("the engine ran on a class-size-2 unit")

    monkeypatch.setattr(hunting, "_walk", walk)
    outcome = hunt(SearchSpec(max_edges=12, colour_class_size=2))
    assert (outcome.orbits_examined, len(outcome.results)) == (1443, 1294)


def test_resume_builds_labels_only_in_units_with_skipped_forms(monkeypatch):
    # the one skipped form is in the (4, 4) unit; no other unit labels a
    # positive orbit
    labelled = []
    label = hunting.canonical_label

    def counted(shape, blocks):
        labelled.append(shape)
        return label(shape, blocks)

    spec = SearchSpec(max_edges=8, colour_class_size=2, require_bipartite=True)
    forms = {r.canonical_form for r in hunt(spec).results if r.shape == (4, 4)}
    skipped = min(forms)
    monkeypatch.setattr(hunting, "canonical_label", counted)
    outcome = hunt(spec, skip_forms={skipped})
    assert outcome.skipped_known == 1
    assert skipped not in {r.canonical_form for r in outcome.results}
    orbits_of_4_4 = sum(1 for _ in hunting._orderly_strings((4, 4), 4, 2, False))
    # a label per unit for its prefix, one per orbit of (4, 4), one per result
    units = sum(1 for _ in hunting._work_units(spec))
    assert len(labelled) == units + orbits_of_4_4 + len(outcome.results)


@pytest.mark.parametrize(
    "witness",
    [
        [0, 2],  # disjoint edges of colour 0 only
        [2, 3],  # both colours, sharing vertex 3
        [0, 3, 4],  # a third edge, sharing vertex 4 with the second
        [0],  # colour 1 missing
        [0, 3, 3],  # one edge twice
        [-1, 2],  # position -1 would read the last edge, (5, 0), of colour 1
        [0, 6],  # past the last position
    ],
)
def test_a_wrong_engine_witness_is_caught_by_the_hunter(monkeypatch, witness):
    # the unit's first string is 0,0,0,1,1,1 on a 6-cycle, where [0, 3] is
    # a full rainbow matching; each of these is not
    monkeypatch.setattr(hunting, "_walk", lambda *args, **kwargs: (witness, 1))
    spec = SearchSpec(max_edges=6, colour_class_size=3, require_bipartite=True)
    with pytest.raises(RuntimeError, match=r"invalid witness .* on 6:0,0,0,1,1,1"):
        hunt(spec)
    monkeypatch.setattr(hunting, "_walk", lambda *args, **kwargs: ([0, 3], 1))
    with pytest.raises(RuntimeError, match=r"invalid witness \[0, 3\] on 6:0,0,1,0,1,1"):
        hunt(spec)


def test_a_unit_past_the_matching_bound_never_runs_the_engine(monkeypatch):
    # four colours need four disjoint edges, but a triangle holds one and a
    # 5-cycle two: every orbit is blocked, and only the oracle is asked
    def walk(*args, **kwargs):
        raise AssertionError("the engine ran on a unit past the matching bound")

    monkeypatch.setattr(hunting, "_walk", walk)
    payload = (SearchSpec(8, 2), (3, 5), 4, frozenset())
    found, _, orbits, _ = hunting._examine_unit(payload)
    assert orbits == len(found) > 0
    monkeypatch.setattr(
        hunting,
        "brute_force_full_rainbow",
        lambda graph: (solver.SolveOutcome(frozenset(range(4)), 1, True), 1),
    )
    with pytest.raises(RuntimeError, match="the matching bound and brute force disagree on 3,5:"):
        hunting._examine_unit(payload)


def test_the_engine_runs_only_where_no_earlier_witness_answers(monkeypatch):
    # 1,751 orbits, one blocked: the engine answers 226 of them, and the
    # unit's earlier witnesses the rest
    calls = []
    walk = hunting._walk

    def counted(*args, **kwargs):
        calls.append(None)
        return walk(*args, **kwargs)

    monkeypatch.setattr(hunting, "_walk", counted)
    outcome = hunt(SearchSpec(max_edges=12, colour_class_size=3))
    assert (outcome.orbits_examined, len(outcome.results)) == (1751, 1)
    assert len(calls) == 226


def test_a_unit_is_examined_in_bounded_batches(monkeypatch):
    # (3, 9) with 6 colours is past the matching bound, so each of its 150
    # orbits (not a multiple of the batch) goes to the oracle; the generator
    # runs ahead of the certificates, but never by more than one batch
    spec, shape = SearchSpec(12, 2), (3, 9)
    strings, drawn, leads = hunting._orderly_strings, [], []
    oracle = hunting.brute_force_full_rainbow

    def counted(*args):
        for flat in strings(*args):
            drawn.append(flat)
            yield flat

    def certify(graph):
        leads.append(len(drawn) - len(leads))
        return oracle(graph)

    monkeypatch.setattr(hunting, "_orderly_strings", counted)
    monkeypatch.setattr(hunting, "brute_force_full_rainbow", certify)
    results = hunting._examine_unit((spec, shape, 6, frozenset()))[0]
    assert len(results) == len(leads) == len(drawn) == 150
    assert max(leads) > 1
    assert max(leads) <= hunting._BATCH
    labels = [canonical_label(shape, hunting._reshape(shape, flat)) for flat in drawn]
    assert [result.canonical_form for result in results] == labels


def test_a_find_against_the_2_delta_threshold_is_caught(monkeypatch):
    # one colour on all four edges of a 4-cycle: delta(V1) = 4 >= 2 * Delta,
    # so the proved threshold forbids a block; an engine and an oracle that
    # both call it blocked are wrong together, and the guard catches them
    monkeypatch.setattr(hunting, "_walk", lambda *args, **kwargs: (None, 1))
    monkeypatch.setattr(
        hunting,
        "brute_force_full_rainbow",
        lambda graph: (solver.SolveOutcome(None, 1, True), 0),
    )
    with pytest.raises(RuntimeError, match="2\\*Delta found: 4:0,0,0,0"):
        hunting._examine_unit((SearchSpec(4, 4), (4,), 1, frozenset()))


def test_the_2_delta_guard_holds_bipartite_finds_only(monkeypatch):
    # classes of 4 on 2-regular graphs: delta(V1) = 2 * Delta.  The proved
    # threshold covers bipartite graphs, so a find on the 8-cycle is wrong;
    # on a triangle and a 5-cycle it would be an ABCHS-5.4/6.2
    # counterexample, which the hunter must emit
    monkeypatch.setattr(hunting, "_walk", lambda *args, **kwargs: (None, 1))
    monkeypatch.setattr(
        hunting,
        "brute_force_full_rainbow",
        lambda graph: (solver.SolveOutcome(None, 1, True), 0),
    )
    with pytest.raises(RuntimeError, match="blocked bipartite instance .* 2\\*Delta found: 8:"):
        hunting._examine_unit((SearchSpec(8, 4), (8,), 2, frozenset()))
    found, _, orbits, _ = hunting._examine_unit((SearchSpec(8, 4), (3, 5), 2, frozenset()))
    assert orbits > 0 and len(found) == orbits
    assert all(result.stats == DegreeStats(4, 2) for result in found)
    assert not any(is_bipartite(result.instance) for result in found)


def test_recheck_structure_returns_the_graphs_statistics():
    # the recheck's one pass counts delta(V1) and Delta(V2 u V3) as
    # degree_stats reads them off the graph, with equal and unequal classes
    cases = [
        (SearchSpec(4, 2, require_bipartite=True), (4,), (0, 1, 0, 1), 2, DegreeStats(2, 2)),
        (SearchSpec(6, 2), (3, 3), (0, 1, 2, 0, 1, 2), 3, DegreeStats(2, 2)),
        # classes of 3, 4 and 3 edges
        (
            SearchSpec(10, 2, class_size_is_minimum=True),
            (3, 3, 4),
            (0, 0, 1, 0, 1, 2, 1, 2, 1, 2),
            3,
            DegreeStats(3, 2),
        ),
    ]
    for spec, shape, flat, colours, expected in cases:
        graph = graph_from_cycle_colouring(shape, flat, colours)
        assert hunting._recheck_structure(spec, graph) == degree_stats(graph) == expected


def test_recheck_structure_rejects_a_graph_that_is_not_2_regular():
    spec = SearchSpec(max_edges=4, colour_class_size=2)
    # a path 0-1-2: its ends have degree 1
    graph = build_graph(3, 1, [(0, 1, 0), (1, 2, 0)])
    with pytest.raises(RuntimeError, match="not 2-regular"):
        hunting._recheck_structure(spec, graph)


def test_recheck_structure_rejects_an_odd_cycle_when_bipartite():
    graph = graph_from_cycle_colouring((3, 3), (0, 1, 2, 0, 1, 2), 3)
    hunting._recheck_structure(SearchSpec(6, 2), graph)
    with pytest.raises(RuntimeError, match="not bipartite"):
        hunting._recheck_structure(SearchSpec(6, 2, require_bipartite=True), graph)


@pytest.mark.parametrize("minimum", [False, True], ids=["exact", "minimum"])
def test_recheck_structure_rejects_a_class_below_the_class_size(minimum):
    graph = graph_from_cycle_colouring((4,), (0, 1, 0, 1), 2)
    spec = SearchSpec(max_edges=4, colour_class_size=3, class_size_is_minimum=minimum)
    with pytest.raises(RuntimeError, match="colour class size constraint"):
        hunting._recheck_structure(spec, graph)


def test_recheck_structure_bounds_an_exact_class_size_from_above():
    graph = graph_from_cycle_colouring((4,), (0, 1, 0, 1), 2)
    hunting._recheck_structure(SearchSpec(4, 1, class_size_is_minimum=True), graph)
    with pytest.raises(RuntimeError, match="colour class size constraint"):
        hunting._recheck_structure(SearchSpec(4, 1), graph)


@pytest.mark.parametrize(
    "spec",
    [
        SearchSpec(max_edges=12, colour_class_size=2),
        SearchSpec(max_edges=12, colour_class_size=3),
        SearchSpec(max_edges=12, colour_class_size=3, require_bipartite=True),
        SearchSpec(max_edges=9, colour_class_size=2, class_size_is_minimum=True),
        SearchSpec(max_edges=12, colour_class_size=3, require_bipartite=True, class_size_is_minimum=True),
    ],
    ids=["exact-2", "exact-3", "bipartite-3", "minimum-2", "bipartite-minimum-3"],
)
def test_orbit_tables_and_statistics_match_the_graph(spec):
    # the tables the hunter reads off each colour string through the unit's
    # plan are exactly the engine's own for the string's graph, whose
    # smallest class is the class size when that is exact, and whose vertex
    # degree is 2; and the hunter, which answers most orbits by the matching
    # bound or an earlier witness, reports exactly the orbits the engine
    # finds no witness on
    class_size, minimum = spec.colour_class_size, spec.class_size_is_minimum
    orbits = 0
    blocked = []
    for shape, colours in hunting._work_units(spec):
        read = solver._plan(colours, hunting._cycle_endpoints(shape))
        for flat in hunting._orderly_strings(shape, colours, class_size, minimum):
            tables = read(flat)
            graph = graph_from_cycle_colouring(shape, flat, colours)
            assert tables == solver._tables(graph)
            assert minimum or colour_stats(graph).minimum == class_size
            assert max_degree(graph) == 2
            if solver._walk(tables, must_pick=True)[0] is None:
                blocked.append(canonical_label(shape, hunting._reshape(shape, flat)))
            orbits += 1
    outcome = hunt(spec)
    assert orbits == outcome.orbits_examined
    assert [r.canonical_form for r in outcome.results] == blocked


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
