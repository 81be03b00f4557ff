"""Exact Gaussian elimination over the rationals.

Rows are passed in and returned as dense lists of Fraction; elimination
runs on sparse rows.  The nullspace basis is returned in reduced row
echelon form, which makes it the unique canonical basis of the solution
subspace for a fixed column order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices).

    Rows are held sparsely while eliminating, so normalising a pivot row and
    subtracting it from another row cost the pivot row's support rather than
    the full width.  The reduced echelon form is unique, so which row
    supplies each pivot does not affect the result.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    pending = [
        sparse
        for sparse in ({j: Fraction(x) for j, x in enumerate(row) if x} for row in rows)
        if sparse
    ]
    reduced: list[dict[int, Fraction]] = []
    pivots: list[int] = []
    for c in range(ncols):
        if not pending:
            break
        index = next((i for i, row in enumerate(pending) if c in row), None)
        if index is None:
            continue
        pivot_row = pending.pop(index)
        inv = 1 / pivot_row[c]
        if inv != 1:
            for j in pivot_row:
                pivot_row[j] *= inv
        for row in itertools.chain(reduced, pending):
            factor = row.get(c)
            if factor:
                for j, y in pivot_row.items():
                    value = row.get(j, 0) - factor * y
                    if value:
                        row[j] = value
                    else:
                        del row[j]
        pending = [row for row in pending if row]
        reduced.append(pivot_row)
        pivots.append(c)
    dense = []
    for row in reduced:
        out = [_ZERO] * ncols
        for j, x in row.items():
            out[j] = x
        dense.append(out)
    return dense, pivots


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Canonical (reduced echelon) basis of {v : rows . v = 0} in Q^ncols.

    One elimination, on the columns in reverse order.  The kernel vector
    read off a free column there is, back in the original order, 1 at that
    column, zero at every other free column and supported otherwise only
    on later (pivot) columns; taken in column order these vectors already
    are the reduced echelon basis.
    """
    reduced, pivots = rref([row[::-1] for row in rows])
    last = ncols - 1
    pivot_set = set(pivots)
    basis = []
    for f in range(last, -1, -1):
        if f in pivot_set:
            continue
        v = [_ZERO] * ncols
        v[last - f] = _ONE
        for row, p in zip(reduced, pivots):
            if row[f]:
                v[last - p] = -row[f]
        basis.append(v)
    return basis


def coordinates_in_span(
    basis: Sequence[Sequence[Fraction]], vector: Sequence[Fraction]
) -> list[Fraction] | None:
    """Coordinates of ``vector`` in a reduced-echelon ``basis``, or None."""
    residual = [Fraction(x) for x in vector]
    coords = []
    for row in basis:
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            coords.append(Fraction(0))
            continue
        factor = residual[lead] / row[lead]
        coords.append(factor)
        if factor:
            residual = [x - factor * y for x, y in zip(residual, row)]
    if any(residual):
        return None
    return coords
