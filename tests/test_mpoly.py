"""Exact multivariate polynomial ring and the character-adapted basis."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicoh import InputError, MPoly
from equicoh.mpoly import (
    LinearSubstitution,
    is_primitive,
    monomials_of_degree,
    poly_from_pairs,
    poly_to_pairs,
    unimodular_completion,
)

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def reference_evaluate(p, point):
    """The value of ``p`` at a point, by summing its terms."""
    if len(point) != p.nvars:
        raise InputError("evaluation point has wrong length")
    values = [Fraction(x) for x in point]
    total = Fraction(0)
    for exps, coeff in p.terms.items():
        term = coeff
        for v, e in zip(values, exps):
            term *= v ** e
        total += term
    return total


def reference_split_leading(p):
    """Decompose ``p`` as ``sum_d v_1^d * q_d(v_2..)``; returns {d: q_d}."""
    if p.nvars == 0:
        raise InputError("cannot split a polynomial in zero variables")
    parts = {}
    for exps, coeff in p.terms.items():
        parts.setdefault(exps[0], {})[exps[1:]] = coeff
    return {d: MPoly(p.nvars - 1, t) for d, t in parts.items()}


def polys(nvars: int, max_exp: int = 3):
    exps = st.tuples(*[st.integers(0, max_exp)] * nvars)
    return st.dictionaries(exps, fractions, max_size=4).map(
        lambda terms: MPoly(nvars, terms)
    )


def test_monomials_of_degree_order_and_count():
    assert monomials_of_degree(2, 3) == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert monomials_of_degree(3, 0) == [(0, 0, 0)]
    assert monomials_of_degree(1, 5) == [(5,)]
    assert len(monomials_of_degree(3, 4)) == 15
    assert monomials_of_degree(2, -1) == []
    assert monomials_of_degree(0, 0) == [()]
    assert monomials_of_degree(0, 1) == monomials_of_degree(0, 4) == []


def reference_monomials_of_degree(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """The exponent tuples of one total degree in descending lex order, by
    recursion on the leading exponent, from the largest down."""
    if degree < 0:
        return []
    if nvars == 0:
        return [()] if degree == 0 else []
    out = []

    def emit(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            emit(prefix + (e,), remaining - e, slots - 1)

    emit((), degree, nvars)
    return out


@pytest.mark.parametrize("nvars", range(6))
def test_monomials_of_degree_are_the_reference_listing(nvars):
    for degree in range(-1, 7):
        expected = reference_monomials_of_degree(nvars, degree)
        assert monomials_of_degree(nvars, degree) == expected, degree


def test_constructor_rejects_bad_exponents():
    with pytest.raises(InputError):
        MPoly(2, {(1,): Fraction(1)})
    with pytest.raises(InputError):
        MPoly(2, {(-1, 0): Fraction(1)})


@pytest.mark.parametrize("exponent", [1.5, 1.0, Fraction(1), "1", True, None], ids=repr)
def test_non_integer_exponents_are_refused(exponent):
    """A constructor, a monomial or a coefficient lookup refuses an exponent
    that is not an int, never truncating it to another monomial."""
    with pytest.raises(InputError, match="bad exponent tuple"):
        MPoly(2, {(exponent, 0): Fraction(1)})
    with pytest.raises(InputError, match="bad exponent tuple"):
        MPoly.monomial((exponent, 1), 1)
    with pytest.raises(InputError, match="exponents must be integers"):
        MPoly.variable(2, 0).coefficient((exponent, 0))


def test_zero_terms_are_dropped():
    p = MPoly(2, {(1, 0): Fraction(1), (0, 1): Fraction(0)})
    assert list(p.terms) == [(1, 0)]
    assert not (p - p)


@given(polys(2), polys(2), polys(2))
def test_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p * MPoly.constant(2, 1) == p
    assert p + MPoly.zero(2) == p


@given(polys(2))
def test_scalar_coercion(p):
    assert p + 0 == p
    assert 1 * p == p
    assert 2 * p == p + p
    assert p - p == MPoly.zero(2)


def test_mixed_variable_counts_rejected():
    with pytest.raises(InputError):
        MPoly.variable(2, 0) + MPoly.variable(3, 0)


@given(polys(2), st.permutations(range(2)))
def test_substitute_linear_permutation(p, perm):
    matrix = [[1 if j == perm[i] else 0 for j in range(2)] for i in range(2)]
    q = p.substitute_linear(matrix)
    # every transposition of two variables is an involution
    assert q.substitute_linear(matrix) == p
    point = (Fraction(2), Fraction(-3))
    assert reference_evaluate(q, point) == reference_evaluate(
        p, tuple(point[perm[i]] for i in range(2))
    )


small_matrix = st.lists(
    st.lists(st.integers(-3, 3), min_size=2, max_size=2), min_size=2, max_size=2
)


@given(polys(2), small_matrix, small_matrix)
def test_substitute_linear_composes(p, m, n):
    composed = [
        [sum(m[i][k] * n[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert p.substitute_linear(m).substitute_linear(n) == p.substitute_linear(composed)


def naive_substitution(p, matrix):
    """Expand every term as a product of linear forms, one factor at a time."""
    nout = len(matrix[0])
    images = [
        MPoly(nout, {tuple(int(j == k) for k in range(nout)): Fraction(m)
                     for j, m in enumerate(row) if m})
        for row in matrix
    ]
    result = MPoly.zero(nout)
    for exps, coeff in p.terms.items():
        term = MPoly.constant(nout, coeff)
        for i, e in enumerate(exps):
            for _ in range(e):
                term = term * images[i]
        result = result + term
    return result


primitive_characters = st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(is_primitive)


@settings(deadline=None)
@given(st.data(), primitive_characters)
def test_memoised_substitution_matches_naive_expansion(data, lam):
    matrix = unimodular_completion(lam)
    nvars = len(lam)
    substitution = LinearSubstitution(matrix)
    for p in data.draw(st.lists(polys(nvars), min_size=1, max_size=4)):
        expected = naive_substitution(p, matrix)
        first = substitution(p)
        assert first == expected
        assert p.substitute_linear(matrix) == expected
        # A caller mutating a result must not reach the memo behind it.
        for exps in list(first.terms):
            first.terms[exps] += 1
        first.terms[(7,) * nvars] = Fraction(5)
        assert substitution(p) == expected


@given(small_matrix, st.lists(polys(2), min_size=1, max_size=4))
def test_memoised_substitution_matches_naive_expansion_on_any_matrix(matrix, inputs):
    substitution = LinearSubstitution(matrix)
    for p in inputs:
        assert substitution(p) == naive_substitution(p, matrix)


def test_substitution_checks_the_variable_count():
    with pytest.raises(InputError, match="wrong number of rows"):
        LinearSubstitution([[1, 0], [0, 1]])(MPoly.variable(3, 0))


@given(polys(3))
def test_split_leading_reconstructs(p):
    parts = reference_split_leading(p)
    point = (Fraction(2), Fraction(3), Fraction(-1, 2))
    total = sum(
        (point[0] ** d * reference_evaluate(q, point[1:]) for d, q in parts.items()),
        start=Fraction(0),
    )
    assert total == reference_evaluate(p, point)


def test_is_primitive():
    assert is_primitive((1,))
    assert is_primitive((2, 3))
    assert is_primitive((0, -1, 5))
    assert not is_primitive((2, 4))
    assert not is_primitive((0, 0))


def _det(matrix) -> Fraction:
    mat = [[Fraction(x) for x in row] for row in matrix]
    n = len(mat)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if mat[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            det = -det
        det *= mat[c][c]
        inv = 1 / mat[c][c]
        for i in range(c + 1, n):
            if mat[i][c]:
                factor = mat[i][c] * inv
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[c])]
    return det


@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(
        lambda v: is_primitive(v)
    )
)
def test_unimodular_completion(lam):
    V = unimodular_completion(lam)
    r = len(lam)
    image = [sum(lam[i] * V[i][j] for i in range(r)) for j in range(r)]
    assert image == [1] + [0] * (r - 1)
    assert abs(_det(V)) == 1


NON_INTEGER_CHARACTERS = [(1.5, 1), (Fraction(3, 2), 2), ("1", 2), (1.0,), (True,)]


@pytest.mark.parametrize("lam", NON_INTEGER_CHARACTERS, ids=repr)
def test_characters_must_have_integer_entries(lam):
    """A non-integer entry is refused, never truncated to another character."""
    with pytest.raises(InputError, match="must have integer entries"):
        unimodular_completion(lam)
    with pytest.raises(InputError, match="must have integer entries"):
        is_primitive(lam)


def test_unimodular_completion_rejects_imprimitive():
    with pytest.raises(InputError):
        unimodular_completion((2, 4))
    with pytest.raises(InputError):
        unimodular_completion(())


@given(polys(2))
def test_pairs_round_trip(p):
    pairs = poly_to_pairs(p)
    assert poly_from_pairs(pairs, 2, Fraction) == p


def test_pairs_reject_bad_shapes():
    with pytest.raises(InputError):
        poly_from_pairs([[[0, 0]]], 2, Fraction)
    with pytest.raises(InputError):
        poly_from_pairs([[[0], "1"]], 2, Fraction)


@pytest.mark.parametrize("exponent", [1.7, 1.0, "1", True, None])
def test_pairs_reject_non_integer_exponents(exponent):
    with pytest.raises(InputError, match="exponents must be integers"):
        poly_from_pairs([[[exponent, 0], "1"]], 2, Fraction)


def test_pairs_are_checked_once_and_stored_directly(monkeypatch):
    """A negative exponent gets the constructor's message; like terms add
    up, zero sums are dropped and every coefficient is stored as given,
    without a second pass through the constructor."""
    with pytest.raises(InputError, match=r"^bad exponent tuple \(0, -1\) for 2 variables$"):
        poly_from_pairs([[[0, -1], "1"]], 2, Fraction)

    def second_pass(self, *args):
        raise AssertionError("poly_from_pairs went through MPoly.__init__")

    monkeypatch.setattr(MPoly, "__init__", second_pass)
    p = poly_from_pairs([[[1, 0], "1/2"], [[0, 1], 2], [[1, 0], "-1/2"], [[0, 1], 1]], 2, Fraction)
    assert p.nvars == 2 and p.terms == {(0, 1): Fraction(3)}
    q = poly_from_pairs([[[2, 0], 4]], 2, int)
    assert q.terms == {(2, 0): Fraction(4)}
    assert [type(c) for c in q.terms.values()] == [int]


def reference_poly_from_pairs(pairs, nvars, parse_scalar):
    """The sum of the pairs, each exponent entry tested one by one and each
    coefficient added to the running sum, starting from 0."""
    terms = {}
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InputError("polynomial term must be an [exponents, coefficient] pair")
        exps, coeff = pair
        if not isinstance(exps, (list, tuple)) or len(exps) != nvars:
            raise InputError(f"exponent vector must have length {nvars}")
        if any(type(e) is not int for e in exps):
            raise InputError(f"exponents must be integers, got {list(exps)}")
        key = tuple(exps)
        if any(e < 0 for e in key):
            raise InputError(f"bad exponent tuple {key} for {nvars} variables")
        terms[key] = terms.get(key, 0) + parse_scalar(coeff)
    return MPoly._trusted(nvars, {key: c for key, c in terms.items() if c})


def _outcome(read, *args):
    """``("ok", value)`` or the type and message of what ``read`` raised."""
    try:
        return "ok", read(*args)
    except InputError as exc:
        return type(exc), str(exc)


_EXPONENTS = st.one_of(
    st.integers(-2, 3), st.sampled_from([1.0, 2.5, True, "1", None])
)
_PAIRS = st.lists(
    st.one_of(
        st.tuples(st.lists(st.integers(0, 2), min_size=2, max_size=2), fractions).map(list),
        st.tuples(st.lists(_EXPONENTS, min_size=1, max_size=3), fractions).map(list),
        st.sampled_from([[[0, 0]], "pair", [[0, 0], 1, 2], [7, 1]]),
    ),
    max_size=5,
)


@given(_PAIRS, st.sampled_from([0, 1, 2]))
def test_pairs_match_the_reference_reader(pairs, nvars):
    """The same polynomial, coefficient types included, or the same refusal,
    as the term-by-term reader; a non-integer exponent is named before a
    negative one."""
    found = _outcome(poly_from_pairs, pairs, nvars, lambda c: c)
    expected = _outcome(reference_poly_from_pairs, pairs, nvars, lambda c: c)
    assert found[0] == expected[0]
    if found[0] != "ok":
        assert found == expected
        return
    assert found[1].nvars == expected[1].nvars and found[1].terms == expected[1].terms
    assert [type(c) for c in found[1].terms.values()] == [
        type(c) for c in expected[1].terms.values()
    ]


def test_pairs_name_a_non_integer_exponent_before_a_negative_one():
    with pytest.raises(InputError, match=r"^exponents must be integers, got \[-1, 1\.5\]$"):
        poly_from_pairs([[[-1, 1.5], "1"]], 2, Fraction)
    assert poly_from_pairs([[[], 3]], 0, int).terms == {(): 3}


def test_a_coefficient_is_added_only_to_a_repeated_key(monkeypatch):
    """A Fraction coefficient read once is stored as it is; only a repeated
    key adds, so nothing is added to a 0 first."""
    added = []
    radd = Fraction.__radd__

    def counting(self, other):
        added.append(other)
        return radd(self, other)

    monkeypatch.setattr(Fraction, "__radd__", counting)
    p = poly_from_pairs([[[1, 0], Fraction(1, 2)], [[0, 1], Fraction(1, 3)]], 2, lambda c: c)
    assert p.terms == {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)} and added == []
    q = poly_from_pairs([[[1, 0], 1], [[1, 0], Fraction(1, 2)]], 2, lambda c: c)
    assert q.terms == {(1, 0): Fraction(3, 2)} and added == [1]


# -- comparisons, reflected subtraction, lookups and the zero repr -------------


def test_a_polynomial_equals_the_rational_constant_it_is():
    assert MPoly.constant(2, 3) == 3 and 3 == MPoly.constant(2, 3)
    assert MPoly.constant(1, Fraction(1, 2)) == Fraction(1, 2)
    assert MPoly.zero(3) == 0
    assert MPoly.variable(2, 0) != 3 and MPoly.constant(2, 3) != 4
    assert MPoly.__eq__(MPoly.constant(2, 3), 3.0) is NotImplemented


def test_a_rational_minus_a_polynomial():
    p = MPoly(2, {(1, 0): 1, (0, 1): Fraction(1, 2)})
    assert 3 - p == MPoly(2, {(0, 0): 3, (1, 0): -1, (0, 1): Fraction(-1, 2)})
    assert Fraction(1, 2) - MPoly.constant(2, 1) == MPoly.constant(2, Fraction(-1, 2))


def test_coefficient_of_a_present_monomial():
    p = MPoly(2, {(1, 1): Fraction(1, 2), (2, 0): -3})
    assert p.coefficient((1, 1)) == Fraction(1, 2)
    assert p.coefficient([2, 0]) == -3
    assert p.coefficient((0, 2)) == 0


def test_the_zero_polynomial_prints_as_zero():
    assert repr(MPoly.zero(2)) == "0"
    assert repr(MPoly(0, {})) == "0"
    assert repr(MPoly.constant(2, 1) - MPoly.constant(2, 1)) == "0"
