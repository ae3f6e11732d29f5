"""Lattice certificates: one-pass proofs that a perfect instance has no full
rainbow matching.

Call an instance perfect when the vertices that carry an edge number exactly
twice its colours: a full rainbow matching then holds each of those vertices
and each colour exactly once.  Give each of them an integer weight.  If every
edge's three weights (its endpoints' and its colour's) sum to 0 mod m, and
all the weights together do not, no full rainbow matching exists: its edges
would add up to that total.  For the cyclic Latin square of even order n the
weights row index, column index and minus the symbol, mod n, are Euler's
argument; for abelian groups this is the negative half of Hall and Paige
("Complete mappings of finite groups", 1955).

Such weights exist exactly when the all-ones vector lies outside the integer
lattice that the edges' incidence vectors span.  :func:`lattice_certificate`
decides that exactly and :func:`check_certificate` checks its answer in one
pass over the edges, with no code in common.
"""

from __future__ import annotations

from typing import Optional

from .graphs import ColouredMultigraph

__all__ = ["lattice_certificate", "check_certificate"]


def lattice_certificate(graph: ColouredMultigraph) -> Optional[tuple[dict[int, int], int]]:
    """Weights and a modulus that prove the perfect ``graph`` has no full
    rainbow matching, or None, which proves nothing.

    The weights map each vertex that carries an edge to its weight, and
    colour c to the weight at key ``graph.vertex_count + c``; they lie in
    ``range(modulus)``.  None means the instance is not perfect, or the
    all-ones vector lies in the lattice, where no weights exist.

    The reduction works in the group Z^N / L, generated by the N vertices
    and colours, with one relation per edge: its three generators sum to 0.
    Each edge in turn is rewritten in the generators not yet solved.  A
    relation with a coefficient of 1 or -1 solves one such generator, a
    unimodular column operation, and the solved expressions that mention it
    are rewritten without it; any other nonzero relation is kept.  The total
    (the all-ones vector) is rewritten the same way, and the kept relations
    are brought to diagonal form by :func:`_diagonal_certificate`: the
    transform's column gives the weights of the free generators, and
    through their expressions those of the solved ones.
    """
    dense: dict[int, int] = {}
    for u, v, _ in graph.edges:
        dense.setdefault(u, len(dense))
        dense.setdefault(v, len(dense))
    offset = len(dense)
    if offset != 2 * graph.colour_count:
        return None
    # generator -> its expression in the free generators, and free generator
    # -> the solved generators whose expressions mention it
    solved: dict[int, dict[int, int]] = {}
    users: dict[int, set[int]] = {}
    kept: set[frozenset[tuple[int, int]]] = set()
    for u, v, colour in graph.edges:
        relation = _rewrite({dense[u]: 1, dense[v]: 1, offset + colour: 1}, solved)
        units = [g for g, a in relation.items() if a in (1, -1)]
        if not units:
            if relation:
                kept.add(frozenset(relation.items()))
            continue
        # the last generator: a colour while one is free, which kept the
        # expressions shortest on the cyclic squares
        pivot = max(units)
        # [pivot] = -sign * (the rest), and so for every mention of it
        sign = relation.pop(pivot)
        for user in users.pop(pivot, ()):
            expression = solved[user]
            b = expression.pop(pivot) * sign
            for g, a in relation.items():
                a = expression.get(g, 0) - b * a
                if a:
                    expression[g] = a
                    users.setdefault(g, set()).add(user)
                else:
                    del expression[g]
                    users[g].discard(user)
        solved[pivot] = {g: -sign * a for g, a in relation.items()}
        for g in relation:
            users.setdefault(g, set()).add(pivot)
    total = _rewrite(dict.fromkeys(range(offset + graph.colour_count), 1), solved)
    rows = sorted({tuple(sorted(_rewrite(dict(r), solved).items())) for r in kept})
    # the free generators that the total or a kept relation mentions: any
    # other's unit vector is a column of the transform with coordinate 0
    columns = sorted({*total, *(g for row in rows for g, _ in row)})
    place = {g: j for j, g in enumerate(columns)}
    matrix = [[0] * len(columns) for _ in rows]
    for row, items in zip(matrix, rows):
        for g, a in items:
            row[place[g]] = a
    found = _diagonal_certificate(matrix, [total.get(g, 0) for g in columns])
    if found is None:
        return None
    y, modulus = found
    weights = dict(zip(columns, y))
    for g, expression in solved.items():
        weights[g] = sum(a * weights.get(h, 0) for h, a in expression.items())
    keys = [*dense, *range(graph.vertex_count, graph.vertex_count + graph.colour_count)]
    return {key: weights.get(g, 0) % modulus for g, key in enumerate(keys)}, modulus


def _rewrite(relation: dict[int, int], solved: dict[int, dict[int, int]]) -> dict[int, int]:
    """The relation with each solved generator replaced by its expression."""
    out: dict[int, int] = {}
    for g, a in relation.items():
        expression = solved.get(g)
        if expression is None:
            out[g] = out.get(g, 0) + a
        else:
            for h, b in expression.items():
                out[h] = out.get(h, 0) + a * b
    return {g: a for g, a in out.items() if a}


def _diagonal_certificate(matrix: list[list[int]], total: list[int]) -> Optional[tuple[list[int], int]]:
    """Diagonalise ``matrix`` (rows are relations over the columns) by
    integer row and column operations, as Smith's normal form does but
    without its divisibility chain, which no certificate needs.  Return the
    transform's column at the first diagonal entry d that does not divide
    the total's coordinate there, with the modulus d, or, where d is 0 (or
    the column lies past the last row), the least modulus that does not
    divide that coordinate; None when the total lies in the rows' lattice.

    Row operations leave the lattice as it is and are not kept.  Column
    operations carry the total along and are recorded, and the transform's
    column is their product applied to a unit vector, last one first.
    """
    width = len(total)
    # (j, k, q): column j -= q * column k; q None: columns j and k swap
    operations: list[tuple[int, int, Optional[int]]] = []

    def operate(j: int, k: int, q: Optional[int]) -> None:
        operations.append((j, k, q))
        for row in (*matrix, total):
            if q is None:
                row[j], row[k] = row[k], row[j]
            else:
                row[j] -= q * row[k]

    for k in range(min(len(matrix), width)):
        while True:
            entries = [
                (abs(row[j]), i, j)
                for i, row in enumerate(matrix[k:], k)
                for j in range(k, width)
                if row[j]
            ]
            if not entries:
                break
            _, i, j = min(entries)
            matrix[k], matrix[i] = matrix[i], matrix[k]
            if j != k:
                operate(j, k, None)
            pivot = matrix[k]
            for row in matrix[k + 1 :]:
                q = row[k] // pivot[k]
                if q:
                    row[:] = [a - q * b for a, b in zip(row, pivot)]
            for j in range(k + 1, width):
                q = pivot[j] // pivot[k]
                if q:
                    operate(j, k, q)
            if not any(row[k] for row in matrix[k + 1 :]) and not any(pivot[k + 1 :]):
                break
    for k, coordinate in enumerate(total):
        d = abs(matrix[k][k]) if k < len(matrix) else 0
        if coordinate % d if d else coordinate:
            y = [0] * width
            y[k] = 1
            for j, i, q in reversed(operations):
                if q is None:
                    y[j], y[i] = y[i], y[j]
                else:
                    y[i] -= q * y[j]
            return y, d or next(m for m in range(2, abs(coordinate) + 2) if coordinate % m)
    return None


def check_certificate(graph: ColouredMultigraph, weights: dict[int, int], modulus: int) -> bool:
    """True iff ``weights`` and ``modulus`` prove that ``graph`` has no full
    rainbow matching: the instance is perfect, the weights are integers on
    exactly its edge-carrying vertices and its colours (colour c at key
    ``graph.vertex_count + c``), every edge's three weights sum to 0 mod
    ``modulus``, an integer of at least 2, and all the weights do not.

    One pass over the edges; it shares no code with the reduction.
    """
    if type(modulus) is not int or modulus < 2 or any(type(w) is not int for w in weights.values()):
        return False
    carrying: set[int] = set()
    for u, v, colour in graph.edges:
        ends = weights.get(u), weights.get(v), weights.get(graph.vertex_count + colour)
        if None in ends or sum(ends) % modulus:
            return False
        carrying.update((u, v))
    return (
        len(carrying) == 2 * graph.colour_count
        and len(weights) == len(carrying) + graph.colour_count
        and sum(weights.values()) % modulus != 0
    )
