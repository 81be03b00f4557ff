"""Exact Gaussian elimination over the rationals.

:func:`nullspace` takes its rows sparse, as ``{column: Fraction}`` dicts,
and returns the kernel basis sparse in the same form, holding only
nonzeros.  Apart from one pass over the columns to list the free ones, its
cost follows the nonzeros met while eliminating, not the width of the
rows.  The basis is in reduced row echelon form, which makes it the unique
canonical basis of the solution subspace for a fixed column order.
:func:`rref` keeps dense lists of Fraction on both sides and runs the same
sparse elimination in between.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .mpoly import as_fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _reduced_rows(rows: Iterable[Mapping[int, Fraction]]) -> dict[int, dict[int, Fraction]]:
    """Reduced echelon rows of a sparse system, keyed by pivot column.

    Rows are ``{column: Fraction}`` dicts; zero entries may be given and are
    never kept.  Each row's pivot is its highest column.  Forward
    elimination brings each row, from its highest column down, onto the
    echelon rows found so far and normalises what is left at its highest
    remaining column.  Back-substitution then clears, from the lowest pivot
    up, every pivot column out of each echelon row, so a reduced row holds
    its pivot, at 1, and lower free columns only.  The reduced echelon form
    is unique, so the order of the rows does not affect the result.
    """
    echelon: dict[int, dict[int, Fraction]] = {}
    for given in rows:
        row = {j: as_fraction(x) for j, x in given.items() if x}
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
                    inv = 1 / factor
                    row = {j: x * inv for j, x in row.items()}
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
    reduced: dict[int, dict[int, Fraction]] = {}
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


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices).

    Dense rows go in and come out.  Column j is handed to
    :func:`_reduced_rows` as column ``ncols - 1 - j``, so that its highest
    pivots are the leftmost ones here.
    """
    if not rows:
        return [], []
    last = len(rows[0]) - 1
    reduced = _reduced_rows({last - j: x for j, x in enumerate(row) if x} for row in rows)
    dense = []
    pivots = []
    for p in sorted(reduced, reverse=True):
        out = [_ZERO] * (last + 1)
        for j, x in reduced[p].items():
            out[last - j] = x
        dense.append(out)
        pivots.append(last - p)
    return dense, pivots


def nullspace(
    rows: Iterable[Mapping[int, Fraction]], ncols: int
) -> list[dict[int, Fraction]]:
    """Canonical (reduced echelon) basis of {v : rows . v = 0} in Q^ncols.

    Rows and basis vectors are ``{column: Fraction}`` dicts; zero entries
    may be given and are never returned.  A reduced row of
    :func:`_reduced_rows` holds its pivot and lower free columns, so the
    kernel vector of a free column f is 1 at f and minus the reduced rows'
    f entries at their pivots, all above f: taken by increasing f these
    vectors are the reduced echelon basis.
    """
    reduced = _reduced_rows(rows)
    basis = {f: {f: _ONE} for f in range(ncols) if f not in reduced}
    for p, row in reduced.items():
        for f, x in row.items():
            if f != p:
                basis[f][p] = -x
    return list(basis.values())

