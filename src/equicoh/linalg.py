"""Exact Gaussian elimination over the rationals.

:func:`nullspace` takes its rows sparse, as ``{column: value}`` dicts of
ints and Fractions, and returns the kernel basis sparse in the same form,
holding only nonzeros.  It presolves first: each row with exactly two
nonzeros, ``a x_i + b x_j = 0``, merges two columns in a weighted
union-find, so that every column is a rational multiple of the lowest
column of its class.  On the GKM edge conditions of graphs and x-rays
(Goresky-Kottwitz-MacPherson) nearly every row is of that kind, and this
costs close to linear in the number of columns.  Only the other rows,
rewritten on the lowest columns, reach the general elimination.  Apart
from one pass over the columns, the cost of that elimination follows the
nonzeros met, not the width of the rows.  The basis is in reduced row
echelon form, which makes it the unique canonical basis of the solution
subspace for a fixed column order.  :func:`rref` keeps dense lists on
both sides and runs the same sparse elimination in between, without the
presolve.  Entries are ints and Fractions, kept as given; every division
is :func:`~equicoh.mpoly.ratio`, so an exact quotient stays an ``int``,
and a unit weight of the presolve multiplies nothing, so the rows of
``int``s that graphs and x-rays hand in stay ``int``s wherever the
elimination is exact.
Both refuse any other entry (a float or a bool, zero or not) with
``InputError`` as they read the row that holds it.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Iterable, Mapping, NoReturn, Sequence

from .errors import InputError
from .mpoly import RATIONAL_TYPES, ratio

Rational = int | Fraction


def _refuse(x) -> NoReturn:
    """Raise for an entry that is not an exact rational."""
    raise InputError(f"entries must be ints or Fractions, got {x!r}")


def _reduced_rows(rows: Iterable[Mapping[int, Rational]]) -> dict[int, dict[int, Rational]]:
    """Reduced echelon rows of a sparse system, keyed by pivot column.

    Rows are ``{column: value}`` dicts of ints and Fractions, kept as
    given; zero entries are allowed and never kept.  Each row's pivot is
    its highest column.  Forward elimination brings each row, from its
    highest column down, onto the echelon rows found so far and divides
    what is left by its entry at its highest remaining column (one
    :func:`~equicoh.mpoly.ratio` per entry).  Back-substitution then clears, from the lowest pivot
    up, every pivot column out of each echelon row, so a reduced row holds
    its pivot, at 1, and lower free columns only.  The reduced echelon form
    is unique, so the order of the rows does not affect the result.
    """
    echelon: dict[int, dict[int, Rational]] = {}
    for given in rows:
        row = {j: x for j, x in given.items() if x}
        heap = [-j for j in row]
        heapq.heapify(heap)
        while heap:
            c = -heapq.heappop(heap)
            factor = row.get(c)
            if factor is None:
                continue
            pivot_row = echelon.get(c)
            if pivot_row is None:
                if factor != 1:
                    row = {j: ratio(x, factor) for j, x in row.items()}
                echelon[c] = row
                break
            for j, y in pivot_row.items():
                if j in row:
                    value = row[j] - factor * y
                    if value:
                        row[j] = value
                    else:
                        del row[j]
                else:
                    row[j] = -factor * y
                    heapq.heappush(heap, -j)
    reduced: dict[int, dict[int, Rational]] = {}
    for p in sorted(echelon):
        row = echelon[p]
        for q in [q for q in row if q != p and q in reduced]:
            factor = row.pop(q)
            for j, y in reduced[q].items():
                if j != q:
                    value = row.get(j, 0) - factor * y
                    if value:
                        row[j] = value
                    else:
                        row.pop(j, None)
        reduced[p] = row
    return reduced


def rref(rows: Sequence[Sequence[Rational]]) -> tuple[list[list[Rational]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices).

    Dense rows go in and come out.  Column j is handed to
    :func:`_reduced_rows` as column ``ncols - 1 - j``, so that its highest
    pivots are the leftmost ones here.
    """
    if not rows:
        return [], []
    last = len(rows[0]) - 1
    reduced = _reduced_rows(
        {
            last - j: x
            for j, x in enumerate(row)
            if (x if type(x) in RATIONAL_TYPES else _refuse(x))
        }
        for row in rows
    )
    dense = []
    pivots = []
    for p in sorted(reduced, reverse=True):
        out = [0] * (last + 1)
        for j, x in reduced[p].items():
            out[last - j] = x
        dense.append(out)
        pivots.append(last - p)
    return dense, pivots


def _find(parent: list[int], weight: list, c: int) -> tuple[int, object]:
    """``(root, w)`` with ``x_c = w * x_root`` for the class of column ``c``.

    ``parent[c] <= c`` points one step towards the lowest column of the
    class, with ``x_c = weight[c] * x_parent[c]``.  The path walked is
    compressed, iteratively: every column on it then points at the root,
    with its ratio to the root.
    """
    path = []
    while parent[c] != c:
        path.append(c)
        c = parent[c]
    for node in reversed(path):  # nearest the root first
        up = parent[node]
        if up != c:
            weight[node] = weight[node] * weight[up]
            parent[node] = c
    return c, weight[path[0]] if path else 1


def nullspace(
    rows: Iterable[Mapping[int, Rational]], ncols: int
) -> list[dict[int, Rational]]:
    """Canonical (reduced echelon) basis of {v : rows . v = 0} in Q^ncols.

    Rows and basis vectors are ``{column: value}`` dicts of ints and
    Fractions; zero entries may be given and are never returned, and no
    entry is ever a float: a row entry of any other type raises
    ``InputError``.

    Each row with exactly two nonzeros, ``a x_i + b x_j = 0``, is merged in
    a weighted union-find (Tarjan): every column points at the lowest
    column of its class, its representative ``r``, with ``x_c = w_c x_r``.
    A weight is an int when the division is exact and a Fraction otherwise.
    A row whose two columns are already in one class either holds there or
    forces the representative to zero; a forced representative merged
    under a lower one passes its flag on.  The rows of one term or of
    three or more are rewritten on the representatives and, with a row
    ``{r: 1}`` for each forced class, go through :func:`_reduced_rows`.  A
    reduced row holds its pivot and lower free columns, so the kernel
    vector of a free representative f is 1 at f and minus the reduced
    rows' f entries at their pivots; each entry ``v`` at a representative
    expands to ``v * w_c`` at every member c of its class.  A unit weight
    multiplies nothing, there or where a row is rewritten: the entry is
    kept as it is, and no new ``Fraction`` is made for it.

    The basis is the one elimination of the full system gives: every
    column c that is not a representative is the pivot of the row
    ``x_c - w_c x_r`` with ``r < c``, so the free columns of the full
    system are exactly the free representatives, and the reduced echelon
    basis is the same.
    """
    parent = list(range(ncols))
    weight: list = [1] * ncols
    forced: set[int] = set()
    rest = []
    for given in rows:
        terms = [
            (j, x) for j, x in given.items() if (x if type(x) in RATIONAL_TYPES else _refuse(x))
        ]
        if len(terms) != 2:
            if terms:
                rest.append(terms)
            continue
        (i, a), (j, b) = terms
        ri, wi = _find(parent, weight, i)
        rj, wj = _find(parent, weight, j)
        a, b = a * wi, b * wj  # now a x_ri + b x_rj = 0
        if ri == rj:
            if a + b:
                forced.add(ri)
            continue
        if ri > rj:
            ri, rj, a, b = rj, ri, b, a
        parent[rj] = ri
        weight[rj] = ratio(-a, b)
        if rj in forced:
            forced.discard(rj)
            forced.add(ri)
    # Point every column at its root: a parent is lower, so it is done first.
    roots: list[int] = []
    members: dict[int, list[int]] = {}  # the other columns of each class
    for c in range(ncols):
        up = parent[c]
        if up == c:
            roots.append(c)
            continue
        if parent[up] != up:
            weight[c] = weight[c] * weight[up]
            parent[c] = up = parent[up]
        members.setdefault(up, []).append(c)
    reps_rows = [{r: 1} for r in forced]
    for terms in rest:
        row: dict[int, object] = {}
        for j, x in terms:
            r, w = parent[j], weight[j]
            row[r] = row.get(r, 0) + (x if w == 1 else x * w)
        reps_rows.append(row)
    reduced = _reduced_rows(reps_rows)
    basis = {f: {f: 1} for f in roots if f not in reduced}
    for p, row in reduced.items():
        for f, x in row.items():
            if f != p:
                basis[f][p] = -x
    out = list(basis.values())
    if members:  # expand each vector in place onto the other columns
        for vector in out:
            for r, v in list(vector.items()):
                for c in members.get(r, ()):
                    w = weight[c]
                    vector[c] = v if w == 1 else v * w
    return out
