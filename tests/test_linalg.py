"""Exact elimination: echelon forms, nullspaces, span tests."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from equicoh.linalg import nullspace, rref

entries = st.integers(-4, 4).map(Fraction)


def reference_coordinates_in_span(basis, vector):
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


def reference_rref(rows):
    """Dense Gauss-Jordan elimination, the routine the sparse ``rref`` replaced."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                factor = mat[i][c]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def reference_nullspace(rows, ncols):
    """Two-pass nullspace: read a kernel basis off ``rref``, then re-reduce it."""
    reduced, pivots = reference_rref(rows)
    pivot_set = set(pivots)
    basis = []
    for f in (c for c in range(ncols) if c not in pivot_set):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        basis.append(v)
    return reference_rref(basis)[0]


@st.composite
def systems(draw):
    """(rows, ncols) with up to 8 columns, mostly-zero entries, repeated and
    zero rows, and often more rows than columns."""
    ncols = draw(st.integers(0, 8))
    entry = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
    )
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=10))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    rows += [[Fraction(0)] * ncols] * draw(st.integers(0, 2))
    return draw(st.permutations(rows)), ncols


@st.composite
def sparse_systems(draw):
    """(rows, ncols) as ``{column: Fraction}`` dicts: empty rows, duplicate
    rows, explicit zero entries, columns no row touches and ``ncols`` up to
    three wider than the columns the rows use."""
    support = draw(st.integers(0, 7))
    ncols = support + draw(st.integers(0, 3))
    entry = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
    )
    row = st.dictionaries(st.integers(0, max(support - 1, 0)), entry, max_size=support)
    rows = draw(st.lists(row, max_size=10))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    rows += [{}] * draw(st.integers(0, 2))
    return draw(st.permutations(rows)), ncols


@st.composite
def two_term_systems(draw):
    """(rows, ncols) as ``{column: value}`` dicts, mostly of rows with two
    nonzeros ``a x_i + b x_j = 0``, the rows the presolve merges.  Entries
    mix ints and Fractions.  The rows come in blocks: single pairs; pairs
    repeated at a multiple (consistent) or with one entry changed (often
    not); chains, built from both ends and then joined in the middle;
    closed cycles, whose ratios rarely agree and so force zeros, then
    linked to a lower column; and rows of one term or of three or more,
    which land on merged columns.  Any row may carry explicit zero
    entries."""
    ncols = draw(st.integers(1, 9))
    scalar = st.one_of(
        st.integers(-3, 3), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    )
    nonzero = scalar.filter(bool)
    column = st.integers(0, ncols - 1)
    rows: list[dict] = []

    def link(i, j):
        rows.append({i: draw(nonzero), j: draw(nonzero)})

    for _ in range(draw(st.integers(0, 6))):
        block = draw(st.sampled_from(["pair", "repeat", "chain", "cycle", "other"]))
        if block == "pair" and ncols > 1:
            i, j = draw(st.lists(column, min_size=2, max_size=2, unique=True))
            link(i, j)
        elif block == "repeat" and rows:
            row = draw(st.sampled_from(rows))
            if draw(st.booleans()):
                k = draw(nonzero)
                rows.append({j: k * x for j, x in row.items()})
            else:
                j = draw(st.sampled_from(sorted(row)))
                rows.append({**row, j: draw(nonzero)})
        elif block == "chain" and ncols > 1:
            path = draw(st.lists(column, min_size=2, max_size=ncols, unique=True))
            edges = list(zip(path, path[1:]))
            middle = len(edges) // 2
            for i, j in edges[:middle]:  # one class from the left end
                link(i, j)
            for i, j in reversed(edges[middle + 1:]):  # another from the right end
                link(i, j)
            link(*edges[middle])  # then join them
        elif block == "cycle" and ncols > 3:
            path = draw(st.lists(st.integers(1, ncols - 1), min_size=3, unique=True))
            for i, j in zip(path, path[1:] + path[:1]):
                link(i, j)
            # merge the class, forced or not, under a lower column
            link(draw(st.integers(0, min(path) - 1)), path[0])
        else:
            support = draw(st.sampled_from([1, 3, 4]))
            if support <= ncols:
                cols = draw(st.lists(column, min_size=support, max_size=support, unique=True))
                rows.append({j: draw(nonzero) for j in cols})
    for row in rows:
        if draw(st.booleans()):
            row[draw(column)] = draw(st.sampled_from([0, Fraction(0)]))
    return rows, ncols


def sparse(rows):
    """Dense rows as ``{column: value}`` dicts of their nonzero entries."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def dense(vectors, ncols):
    """``{column: value}`` vectors as dense lists of width ``ncols``."""
    out = []
    for vector in vectors:
        row = [Fraction(0)] * ncols
        for j, x in vector.items():
            row[j] = x
        out.append(row)
    return out


def matrices(ncols: int):
    return st.lists(
        st.lists(entries, min_size=ncols, max_size=ncols), min_size=0, max_size=5
    )


def test_rref_known():
    reduced, pivots = rref([[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]])
    assert reduced == [[Fraction(1), Fraction(2)]]
    assert pivots == [0]

    reduced, pivots = rref(
        [
            [Fraction(0), Fraction(1), Fraction(1)],
            [Fraction(1), Fraction(0), Fraction(2)],
        ]
    )
    assert pivots == [0, 1]
    assert reduced == [
        [Fraction(1), Fraction(0), Fraction(2)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]


def test_rref_empty():
    assert rref([]) == ([], [])


def test_nullspace_known():
    # single relation x + y + z = 0
    basis = nullspace([{0: Fraction(1), 1: Fraction(1), 2: Fraction(1)}], 3)
    assert basis == [
        {0: Fraction(1), 2: Fraction(-1)},
        {1: Fraction(1), 2: Fraction(-1)},
    ]
    assert dense(basis, 3) == rref(dense(basis, 3))[0]


def test_nullspace_full_and_trivial():
    assert nullspace([], 2) == [{0: Fraction(1)}, {1: Fraction(1)}]
    identity = [{0: Fraction(1)}, {1: Fraction(1)}]
    assert nullspace(identity, 2) == []


@given(matrices(4))
def test_nullspace_annihilates_and_rank_nullity(rows):
    basis = dense(nullspace(sparse(rows), 4), 4)
    reduced, pivots = rref(rows)
    assert len(basis) == 4 - len(pivots)
    for v in basis:
        for row in rows:
            assert sum((a * b for a, b in zip(row, v)), start=Fraction(0)) == 0
    # canonical: the basis is its own reduced echelon form
    assert basis == rref(basis)[0]


@given(matrices(4), st.lists(entries, min_size=2, max_size=2))
def test_coordinates_in_span(rows, coeffs):
    basis, _ = rref(rows)
    if len(basis) < 2:
        return
    vector = [
        coeffs[0] * a + coeffs[1] * b for a, b in zip(basis[0], basis[1])
    ]
    coords = reference_coordinates_in_span(basis, vector)
    assert coords is not None
    rebuilt = [Fraction(0)] * len(vector)
    for c, row in zip(coords, basis):
        rebuilt = [x + c * y for x, y in zip(rebuilt, row)]
    assert rebuilt == vector


def test_coordinates_not_in_span():
    basis = [[Fraction(1), Fraction(0), Fraction(0)]]
    assert reference_coordinates_in_span(basis, [Fraction(0), Fraction(1), Fraction(0)]) is None
    coords = reference_coordinates_in_span(basis, [Fraction(5), Fraction(0), Fraction(0)])
    assert coords == [Fraction(5)]


@given(systems())
def test_rref_matches_the_dense_reference(system):
    rows, _ = system
    assert rref(rows) == reference_rref(rows)


@given(systems())
def test_nullspace_matches_the_two_pass_reference(system):
    rows, ncols = system
    assert dense(nullspace(sparse(rows), ncols), ncols) == reference_nullspace(rows, ncols)


@given(sparse_systems())
def test_sparse_nullspace_matches_the_dense_reference(system):
    rows, ncols = system
    basis = nullspace(rows, ncols)
    assert_exact(basis)
    assert all(0 <= j < ncols for vector in basis for j in vector)
    assert dense(basis, ncols) == reference_nullspace(dense(rows, ncols), ncols)


def assert_exact(basis):
    """Every entry is a nonzero int or Fraction: never a float."""
    assert all(type(x) in (int, Fraction) and x for vector in basis for x in vector.values())


@settings(max_examples=300)
@given(two_term_systems())
def test_two_term_systems_match_the_dense_reference(system):
    rows, ncols = system
    basis = nullspace(rows, ncols)
    assert_exact(basis)
    assert all(0 <= j < ncols for vector in basis for j in vector)
    assert dense(basis, ncols) == reference_nullspace(dense(rows, ncols), ncols)


def test_an_inconsistent_cycle_forces_its_class_to_zero():
    # x1 = x2 = x3, then x3 = 2 x1: the class is zero, x0 stays free
    rows = [{1: 1, 2: -1}, {2: 1, 3: -1}, {3: 1, 1: -2}]
    assert nullspace(rows, 4) == [{0: 1}]
    # the forced class, merged under column 0, passes the flag on
    rows += [{0: 1, 3: Fraction(-1, 2)}]
    assert nullspace(rows, 4) == []


def test_ratios_stay_int_where_the_division_is_exact():
    # x1 = 2 x0, x2 = 3 x1 / 2 = 3 x0, x3 = x2 / 2
    rows = [{0: 2, 1: -1}, {1: 3, 2: -2}, {2: 1, 3: -2}]
    [vector] = nullspace(rows, 4)
    assert vector == {0: 1, 1: 2, 2: 3, 3: Fraction(3, 2)}
    assert [type(vector[j]) for j in range(4)] == [int, int, int, Fraction]


def test_nullspace_of_a_bidiagonal_chain():
    n = 30
    rows = [{i: Fraction(1), i + 1: Fraction(-1)} for i in range(n - 1)]
    assert nullspace(rows, n) == [{j: Fraction(1) for j in range(n)}]
    assert dense(nullspace(rows, n), n) == reference_nullspace(dense(rows, n), n)
