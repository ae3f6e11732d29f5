"""Canonical forms of cycle colourings, and their text labels.

A colouring of a disjoint union of cycles is a colour string per cycle of a
shape (its multiset of cycle lengths).  Its orbit under rotating or
reflecting single cycles, permuting cycles of equal length and renaming
colours is represented by its lexicographically minimal member.  The
hunter's orderly generator decides that minimality on prefixes without
:func:`canonical_colouring`, which computes the whole minimum and is the
reference the tests compare the generator against.
"""

from __future__ import annotations

from typing import Optional


def _dihedral_transforms(block: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All rotations of the block and of its reversal (2L sequences)."""
    length = len(block)
    reverse = block[::-1]
    out = []
    for r in range(length):
        out.append(block[r:] + block[:r])
        out.append(reverse[r:] + reverse[:r])
    return out


def canonical_colouring(
    shape: tuple[int, ...], blocks: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """Lexicographically minimal representative of a cycle colouring.

    Minimises the flattened colour sequence over the full symmetry group:
    per-cycle rotations and reflections, permutations of equal-length cycles,
    and colour renaming.  For a fixed geometric arrangement the best colour
    renaming is the first-occurrence relabelling (colour 0 for the first
    symbol seen, and so on), so the walk fills cycle slots left to right and
    keeps every arrangement that still achieves the best prefix: a slot tries
    each unused cycle of the right length under all its rotations and
    reflections, relabels greedily, and only the extensions tied with the
    slot's best segment survive.  Equal-length slots are interchangeable,
    which is exactly the cycle-permutation part of the group.
    """
    if len(blocks) != len(shape) or any(len(b) != n for b, n in zip(blocks, shape)):
        raise ValueError("colouring does not match shape")
    # All beam entries share the best prefix, so only the new segment needs
    # comparing.  mapping is old colour -> new.
    beam: list[tuple[frozenset[int], dict[int, int]]] = [(frozenset(), {})]
    transforms = [_dihedral_transforms(block) for block in blocks]
    out: list[int] = []
    for slot_length in shape:
        best: Optional[tuple[int, ...]] = None
        survivors: dict[tuple, tuple[frozenset[int], dict[int, int]]] = {}
        for used, mapping in beam:
            for i, block in enumerate(blocks):
                if i in used or len(block) != slot_length:
                    continue
                for transformed in transforms[i]:
                    if best is not None and mapping.get(transformed[0], len(mapping)) > best[0]:
                        continue  # above at its first symbol
                    new_map = mapping.copy()
                    segment = tuple(new_map.setdefault(symbol, len(new_map)) for symbol in transformed)
                    if best is None or segment < best:
                        best, survivors = segment, {}
                    elif segment > best:
                        continue
                    now_used = used | {i}
                    survivors[(now_used, tuple(sorted(new_map.items())))] = (now_used, new_map)
        out.extend(best)
        beam = list(survivors.values())
    return _reshape(shape, tuple(out))


def canonical_label(shape: tuple[int, ...], blocks: tuple[tuple[int, ...], ...]) -> str:
    lengths = ",".join(str(n) for n in shape)
    cycles = "|".join(",".join(str(c) for c in block) for block in blocks)
    return f"{lengths}:{cycles}"


def _reshape(shape: tuple[int, ...], flat: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    blocks = []
    position = 0
    for n in shape:
        blocks.append(flat[position : position + n])
        position += n
    return tuple(blocks)
