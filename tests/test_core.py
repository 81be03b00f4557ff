"""Surface cohomology ring, Laurent elements and Poincare series."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from equicoh import (
    ComponentClass,
    InputError,
    InternalInconsistencyError,
    Laurent,
    MPoly,
    PoincareSeries,
    SurfaceClass,
    class_from_vector,
    cup_surface,
    degree_slots,
    equivariant_series,
    integrate_surface,
    laurent_mul,
)
from equicoh.linalg import nullspace, rref
from fixtures import chain, g1, g2, g3

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def reference_negative_part(x: Laurent) -> Laurent:
    """The terms of ``x`` at negative powers."""
    return Laurent({k: c for k, c in x.terms.items() if k < 0})


def surface_classes(genus: int):
    return st.builds(
        lambda c0, c1, c2: SurfaceClass(genus, c0, tuple(c1), c2),
        fractions,
        st.lists(fractions, min_size=2 * genus, max_size=2 * genus),
        fractions,
    )


def h1_generator(genus: int, index: int) -> SurfaceClass:
    c1 = tuple(Fraction(1 if i == index else 0) for i in range(2 * genus))
    return SurfaceClass(genus, c1=c1)


def test_cup_intersection_form():
    a1 = h1_generator(1, 0)
    b1 = h1_generator(1, 1)
    assert cup_surface(a1, b1) == SurfaceClass(1, c2=1)
    assert cup_surface(b1, a1) == -SurfaceClass(1, c2=1)
    assert not cup_surface(a1, a1)
    assert not cup_surface(b1, b1)


def test_cup_cross_terms_vanish():
    # a1 + b2 against b1 + a2 pairs to [S] - [S] = 0 in genus 2
    x = h1_generator(2, 0) + h1_generator(2, 3)
    y = h1_generator(2, 2) + h1_generator(2, 1)
    assert not cup_surface(x, y)


def test_cup_unit_and_top():
    one = SurfaceClass.unit(1)
    top = SurfaceClass(1, c2=1)
    a1 = h1_generator(1, 0)
    assert cup_surface(one, a1) == a1
    assert cup_surface(one, top) == top
    assert not cup_surface(top, top)
    assert not cup_surface(top, a1)


def test_cup_genus_mismatch():
    with pytest.raises(InputError):
        cup_surface(SurfaceClass.unit(1), SurfaceClass.unit(2))


@given(surface_classes(2), surface_classes(2), surface_classes(2))
def test_surface_ring_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert cup_surface(x, y + z) == cup_surface(x, y) + cup_surface(x, z)
    assert cup_surface(cup_surface(x, y), z) == cup_surface(x, cup_surface(y, z))


@given(surface_classes(2), surface_classes(2))
def test_cup_graded_commutativity(x, y):
    # restrict both to odd degree: the product then anticommutes
    odd_x = SurfaceClass(2, c1=x.c1)
    odd_y = SurfaceClass(2, c1=y.c1)
    assert cup_surface(odd_x, odd_y) == -cup_surface(odd_y, odd_x)
    # even classes commute with everything
    even_x = SurfaceClass(2, c0=x.c0, c2=x.c2)
    assert cup_surface(even_x, y) == cup_surface(y, even_x)


def test_integrate_surface():
    assert integrate_surface(SurfaceClass(3, c2=1)) == 1
    assert integrate_surface(SurfaceClass.unit(2)) == 0
    mixed = SurfaceClass(1, c0=3, c1=(Fraction(3), Fraction(0)), c2=5)
    assert integrate_surface(mixed) == 5


def test_laurent_monomials():
    u = Laurent({1: 1})
    u_inv = Laurent({-1: 1})
    assert laurent_mul(u_inv, u) == Laurent({0: 1})
    assert laurent_mul(Laurent({-2: 3}), Laurent({3: 2})) == Laurent({1: 6})


def test_laurent_predicates():
    x = Laurent({-1: Fraction(1, 2), 2: 1})
    assert not x.is_polynomial()
    assert reference_negative_part(x) == Laurent({-1: Fraction(1, 2)})
    assert x.coefficient(2) == 1
    assert x.coefficient(5) == 0
    assert x.powers() == [-1, 2]
    assert Laurent({3: 1}).is_polynomial()


def test_laurent_domain_mismatch():
    scalar = Laurent({0: 1})
    surface = Laurent({0: SurfaceClass.unit(1)})
    with pytest.raises(InputError):
        laurent_mul(scalar, surface)
    mixed_genus = Laurent({0: SurfaceClass.unit(1), 1: SurfaceClass.unit(2)})
    with pytest.raises(InputError):
        laurent_mul(mixed_genus, mixed_genus)


@given(
    st.integers(-5, 5).filter(bool),
    fractions,
    st.integers(0, 2),
)
def test_euler_times_inverse_is_one(b, e, genus):
    euler = Laurent(
        {1: SurfaceClass(genus, c0=-b), 0: SurfaceClass(genus, c2=e)}
    )
    inverse = Laurent(
        {
            -1: SurfaceClass(genus, c0=Fraction(-1, b)),
            -2: SurfaceClass(genus, c2=-e * Fraction(1, b) ** 2),
        }
    )
    assert laurent_mul(euler, inverse) == Laurent({0: SurfaceClass.unit(genus)})


@given(
    st.lists(fractions, min_size=1, max_size=4),
    st.lists(fractions, min_size=1, max_size=4),
)
def test_laurent_product_convolution(xs, ys):
    x = Laurent({k - 2: c for k, c in enumerate(xs)})
    y = Laurent({k - 1: c for k, c in enumerate(ys)})
    product = laurent_mul(x, y)
    for power in range(-4, 8):
        expected = sum(
            (x.coefficient(i) * y.coefficient(power - i) for i in range(-4, 8)),
            start=Fraction(0),
        )
        assert product.coefficient(power) == expected


def test_series_coefficients_frozen():
    geometric = PoincareSeries((1,), 1)
    assert geometric.coefficient(6) == 1
    assert geometric.coefficient(5) == 0

    assert PoincareSeries((1, 0, 1, 0, 1), 1).coefficient(4) == 3
    assert PoincareSeries((1, 2, 2, 2, 1), 1).coefficient(3) == 4


def reference_coefficient(series: PoincareSeries, k: int) -> int:
    """The coefficient of t^k, summed over every j with t^(k - 2j) tested
    against the numerator."""
    if k < 0:
        return 0
    m = series.denominator_power
    if m == 0:
        return series.numerator[k] if k < len(series.numerator) else 0
    value = 0
    for j in range(k // 2 + 1):
        idx = k - 2 * j
        if idx < len(series.numerator):
            value += series.numerator[idx] * math.comb(m - 1 + j, m - 1)
    return value


def test_coefficient_matches_the_full_sum():
    series = [
        equivariant_series(graph, which)
        for graph in (g1(), g2(0), g2(3), g3(), chain(5, 1))
        for which in ("manifold", "fixed")
    ]
    series += [
        PoincareSeries((3,), 1),
        PoincareSeries((0, 0, 0, 0, 0, 0, 1), 3),
        PoincareSeries((2, 0, 1, 4, 0, 0, 0, 5), 2),
        PoincareSeries((), 2),
    ]
    for s in series:
        for k in range(-2, 81):
            assert s.coefficient(k) == reference_coefficient(s, k), (s, k)


@given(
    st.lists(st.integers(0, 5), max_size=9), st.integers(0, 4), st.integers(-2, 60)
)
def test_coefficient_matches_the_full_sum_on_random_series(numerator, power, k):
    series = PoincareSeries(tuple(numerator), power)
    assert series.coefficient(k) == reference_coefficient(series, k)


def test_series_equality_cross_multiplied():
    lhs = PoincareSeries((1, 0, 1), 1)
    rhs = PoincareSeries((1, 0, 0, 0, -1), 2)
    assert lhs == rhs
    assert lhs != PoincareSeries((1, 0, 1), 2)


def test_series_negative_coefficient_is_inconsistent():
    with pytest.raises(InternalInconsistencyError):
        PoincareSeries((-1,), 1).coefficient(0)


def test_series_arithmetic():
    a = PoincareSeries((1, 0, 1), 0)
    b = PoincareSeries((2,), 1)
    total = a + b
    assert total.coefficient(0) == 3
    assert total.coefficient(2) == 3
    assert (total - b) == a
    product = a * b
    assert product.coefficient(2) == 2 * (1 + 1)


nonneg_series = st.lists(st.integers(0, 5), min_size=1, max_size=4).map(
    lambda num: PoincareSeries(tuple(num), 1)
)


@given(nonneg_series, nonneg_series, st.integers(0, 8))
def test_series_product_convolution(p, q, k):
    convolved = sum(p.coefficient(j) * q.coefficient(k - j) for j in range(k + 1))
    assert (p * q).coefficient(k) == convolved


def test_component_class_parity():
    with pytest.raises(InputError):
        ComponentClass("point", 0, {1: Fraction(1)})
    with pytest.raises(InputError):
        ComponentClass("surface", 1, {2: SurfaceClass(1, c1=(Fraction(1), Fraction(0)))})
    with pytest.raises(InputError):
        ComponentClass("surface", 0, {3: SurfaceClass(0, c0=1)})
    with pytest.raises(InputError):
        ComponentClass("surface", 0, {0: SurfaceClass(0, c2=1)})
    with pytest.raises(InputError):
        ComponentClass("point", 1, {})
    with pytest.raises(InputError):
        ComponentClass("surface", 1, {2: SurfaceClass(0, c0=1)})


@pytest.mark.parametrize("bad", [1.5, "x", MPoly.constant(1, 1), True], ids=repr)
@pytest.mark.parametrize("part, degree", [("c0", 0), ("c1", 1), ("c2", 2)])
def test_every_surface_part_of_a_circle_action_class_is_a_rational(part, degree, bad):
    """A surface's H^0, H^1 and H^2 parts are checked as a point's value is,
    with the point's message, so no float, string or polynomial part gets
    into a circle-action class (where membership would compute on it)."""
    parts = {"c0": 0, "c1": (0, 0), "c2": 0}
    parts[part] = (bad, 0) if part == "c1" else bad
    refused = f"^degree {degree}: expected a rational coefficient$"
    with pytest.raises(InputError, match=refused):
        ComponentClass("surface", 1, {degree: SurfaceClass(1, **parts)})
    with pytest.raises(InputError, match="^degree 0: expected a rational coefficient$"):
        ComponentClass("point", 0, {0: bad})


NOT_RATIONALS = [0.5, "1/2", True, Decimal("0.1")]

# Every constructor that takes a coefficient, applied to one value.
COEFFICIENT_TAKERS = {
    "MPoly": lambda x: MPoly(1, {(1,): x}),
    "MPoly.constant": lambda x: MPoly.constant(2, x),
    "MPoly.monomial": lambda x: MPoly.monomial((1, 0), x),
    "Laurent": lambda x: Laurent({-1: x}),
    "point value": lambda x: ComponentClass("point", 0, {2: x}),
    "surface part": lambda x: ComponentClass("surface", 1, {2: SurfaceClass(1, c0=x)}),
    "class_from_vector": lambda x: class_from_vector(g1(), 0, [x] * len(degree_slots(g1(), 0))),
}


def test_every_coefficient_taker_refuses_what_is_not_a_rational():
    """A rational is an int or a Fraction, by exact type: a float, a string,
    a bool or a Decimal handed to any constructor that takes a coefficient
    is refused with InputError, never converted to the rational it equals."""
    for make in COEFFICIENT_TAKERS.values():
        make(1)
        make(Fraction(1, 2))
    accepted = []
    for name, make in COEFFICIENT_TAKERS.items():
        for bad in NOT_RATIONALS:
            try:
                make(bad)
            except InputError:
                continue
            accepted.append((name, bad))
    assert accepted == []


def test_coefficients_are_kept_as_given():
    """An int stays an int and a Fraction a Fraction: no constructor turns
    one into the other."""
    assert type(MPoly(1, {(1,): 3}).terms[(1,)]) is int
    assert type(MPoly.constant(1, Fraction(3)).terms[(0,)]) is Fraction
    assert [type(c) for c in Laurent({0: 2, 1: Fraction(1, 2)}).terms.values()] == [int, Fraction]
    point = ComponentClass("point", 0, {0: 1, 2: Fraction(2)})
    assert [type(point.entries[k]) for k in (0, 2)] == [int, Fraction]
    surface = SurfaceClass(1, 1, (2, Fraction(3)), 4)
    assert [type(x) for x in (surface.c0, *surface.c1, surface.c2)] == [int, int, Fraction, int]


# Exact elimination and Poincare series, each applied to one entry: an
# exact entry, what it gives, and the float and bool twins it refuses,
# zeros included, rather than compute in floats or read True as 1.
EXACT_ENTRY_TAKERS = [
    ("rref", lambda x: rref([[x, 1], [1, 3]]), Fraction(1, 2), ([[1, 0], [0, 1]], [0, 1]), [0.5]),
    ("rref", lambda x: rref([[x, 1], [1, 3]]), 1, ([[1, 0], [0, 1]], [0, 1]), [1.0, True]),
    ("rref zero", lambda x: rref([[1, x], [1, 3]]), 0, ([[1, 0], [0, 1]], [0, 1]), [0.0, False]),
    ("nullspace", lambda x: nullspace([{0: x, 1: 1}], 2), Fraction(1, 2),
     [{0: 1, 1: Fraction(-1, 2)}], [0.5]),
    ("nullspace", lambda x: nullspace([{0: x, 1: 1}], 2), 1, [{0: 1, 1: -1}], [1.0, True]),
    ("nullspace zero", lambda x: nullspace([{0: x, 1: 1}], 2), 0, [{0: 1}], [0.0, False]),
    ("nullspace three terms", lambda x: nullspace([{0: x, 1: 1, 2: 1}], 3), 1,
     [{0: 1, 2: -1}, {1: 1, 2: -1}], [1.0, True]),
    ("PoincareSeries", lambda x: PoincareSeries((x, 2), 0).numerator, 1, (1, 2), [1.5, 1.0, True]),
    ("PoincareSeries zero", lambda x: PoincareSeries((1, x), 1).numerator, 0, (1,), [0.0, False]),
    ("PoincareSeries power", lambda x: PoincareSeries((1,), x).coefficient(2), 1, 1, [1.0, True]),
    ("PoincareSeries power zero", lambda x: repr(PoincareSeries((1,), x)), 0, "1*t^0",
     [0.0, False]),
    ("PoincareSeries degree", lambda k: PoincareSeries((1, 1), 1).coefficient(k), 1, 1,
     [1.0, True, "1"]),
    ("PoincareSeries degree", lambda k: PoincareSeries((1, 1), 1).coefficient(k), 2, 1,
     [2.0, "2"]),
    ("PoincareSeries degree zero", lambda k: PoincareSeries((1, 1), 1).coefficient(k), 0, 1,
     [0.0, False]),
]


@pytest.mark.parametrize(
    ("make", "exact", "result", "twins"),
    [row[1:] for row in EXACT_ENTRY_TAKERS],
    ids=[f"{row[0]}-{row[2]}" for row in EXACT_ENTRY_TAKERS],
)
def test_exact_elimination_and_series_refuse_the_float_and_bool_twins(make, exact, result, twins):
    assert make(exact) == result
    for twin in twins:
        with pytest.raises(
            InputError, match=r"must be (ints or Fractions|integers|an integer), got "
        ):
            make(twin)


@pytest.mark.parametrize("bad", [1.0, True, "1"], ids=repr)
def test_every_integer_field_of_a_class_constructor_refuses_a_float_or_a_bool(bad):
    """The genus of a surface class or a component, the rank of a component
    and the variable count of a polynomial are refused, not truncated, when
    they are not ints."""
    makers = [
        lambda: SurfaceClass(bad),
        lambda: ComponentClass("surface", bad, {}),
        lambda: ComponentClass("point", 0, {}, rank=bad),
        lambda: MPoly(bad, {}),
    ]
    for make in makers:
        with pytest.raises(InputError):
            make()


def test_the_integer_fields_keep_their_messages():
    """A negative genus and a point's genus are refused as before the type
    checks; an int rank and variable count pass."""
    with pytest.raises(InputError, match="^genus must be nonnegative$"):
        SurfaceClass(-1)
    with pytest.raises(InputError, match="^point components have no genus$"):
        ComponentClass("point", 1, {})
    assert ComponentClass("point", 0, {}, rank=2).rank == 2
    assert MPoly(0).nvars == 0


def test_component_class_entries():
    cls = ComponentClass("surface", 1, {2: SurfaceClass(1, c0=2, c2=3)})
    assert sorted(cls.entries) == [2]
    assert cls.entries[2].c0 == 2
    assert 4 not in cls.entries
    point = ComponentClass("point", 0, {0: Fraction(0), 2: Fraction(5)})
    assert sorted(point.entries) == [2]
    assert 0 not in point.entries


@pytest.mark.parametrize("key", [2.5, 2.0, Fraction(2), "2", True, None], ids=repr)
def test_non_integer_degrees_and_powers_are_refused(key):
    """A degree or a power that is not an int is refused, never truncated."""
    with pytest.raises(InputError, match="degrees must be nonnegative integers"):
        ComponentClass("point", 0, {key: Fraction(1)})
    with pytest.raises(InputError, match="degrees must be nonnegative"):
        ComponentClass("point", 0, {-2: Fraction(1)})
    with pytest.raises(InputError, match="powers must be integers"):
        Laurent({key: Fraction(1)})


def test_surface_class_shape_checks():
    with pytest.raises(InputError):
        SurfaceClass(1, c1=(Fraction(1),))
    with pytest.raises(InputError):
        SurfaceClass(-1)


# -- surface classes, Laurent elements and series: the remaining operations ----


def test_surface_classes_of_different_genus_do_not_add():
    with pytest.raises(InputError, match="^cannot add classes on surfaces of different genus$"):
        SurfaceClass(1, 1) + SurfaceClass(2, 1)


def test_surface_class_subtraction_is_partwise():
    left = SurfaceClass(1, 3, (1, 2), 5)
    right = SurfaceClass(1, 1, (1, Fraction(-1, 2)), 2)
    assert left - right == SurfaceClass(1, 2, (0, Fraction(5, 2)), 3)
    assert right - left == SurfaceClass(1, -2, (0, Fraction(-5, 2)), -3)


def test_surface_class_scalar_and_polynomial_multiples():
    x = SurfaceClass(1, 1, (2, 0), 4)
    half = Fraction(1, 2)
    assert x * half == SurfaceClass(1, half, (1, 0), 2)
    assert 3 * x == x * 3 == SurfaceClass(1, 3, (6, 0), 12)
    v = MPoly.variable(2, 1)
    times_v = x * v
    assert times_v.c0 == v and times_v.c1 == (2 * v, 0 * v) and times_v.c2 == 4 * v
    assert v * x == times_v
    with pytest.raises(TypeError):
        x * 1.5


def test_laurent_compares_only_with_a_laurent_of_the_same_powers():
    one = Laurent({0: 1})
    assert Laurent.__eq__(one, 1) is NotImplemented
    assert (one == 1) is False and one != "1"
    wider = Laurent({0: 1, 1: 2})
    assert one != wider and wider != one
    assert one != Laurent({1: 1})
    assert wider == Laurent({1: 2, 0: Fraction(1)})


def test_laurent_negation_and_subtraction():
    x = Laurent({-1: 2, 0: Fraction(1, 2)})
    assert -x == Laurent({-1: -2, 0: Fraction(-1, 2)})
    assert x - Laurent({0: Fraction(1, 2), 2: 3}) == Laurent({-1: 2, 2: -3})
    assert (x - x).terms == {}


def test_a_negative_series_denominator_power_is_refused():
    with pytest.raises(InputError, match="^denominator power must be nonnegative$"):
        PoincareSeries((1,), -1)


def test_series_repr_shows_its_denominator():
    assert repr(PoincareSeries((1, 0, 1), 2)) == "(1*t^0 + 1*t^2) / (1 - t^2)^2"
    assert repr(PoincareSeries((), 1)) == "(0) / (1 - t^2)^1"
    assert repr(PoincareSeries((2, 3))) == "2*t^0 + 3*t^1"


def test_a_surface_record_needs_surface_class_entries():
    for entry in (1, Fraction(1), (1, (), 0), {"c0": 1}):
        with pytest.raises(InputError, match="^degree 2: expected a surface class entry$"):
            ComponentClass("surface", 0, {2: entry})


def test_a_torus_part_is_a_polynomial_of_its_rank_or_a_zero_rational():
    message = "^degree 0: expected a polynomial in 2 variables$"
    for value in (1, Fraction(1, 2), MPoly.constant(3, 1), "0"):
        with pytest.raises(InputError, match=message):
            ComponentClass("point", 0, {0: value}, 2)
    with pytest.raises(InputError, match=message):
        ComponentClass("surface", 0, {0: SurfaceClass(0, 1)}, 2)
    # a zero rational is the zero polynomial of the rank
    entry = SurfaceClass(0, MPoly.variable(2, 0), (), Fraction(0))
    (kept,) = ComponentClass("surface", 0, {2: entry}, 2).entries.values()
    assert type(kept.c2) is MPoly and kept.c2 == MPoly.zero(2)
