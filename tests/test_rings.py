"""Coefficient ring arithmetic, the substitutions of an E-polynomial, and the
canonical text form."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hirzebruch import motivic, transforms, verify
from hirzebruch import spaces as sp
from hirzebruch.errors import InvalidParameter, NotPolynomial, ParseError
from hirzebruch.hodge import HodgeDiamond, parse_uv, render_uv
from hirzebruch.rings import LaurentY, RationalFunctionY, parse_y, render_y

import reference_rings as ref

ONE_Y = LaurentY({0: 1, 1: 1})  # 1 + y


def rand_laurent(rng, span=3, terms=4):
    return LaurentY({rng.randint(-span, span): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                     for _ in range(rng.randint(0, terms))})


def rand_uv(rng, span=2, terms=4):
    return HodgeDiamond({(rng.randint(-span, span), rng.randint(-span, span)): rng.randint(-5, 5)
                         for _ in range(rng.randint(0, terms))})


PT = HodgeDiamond.point()
U = HodgeDiamond({(1, 0): 1})
V = HodgeDiamond({(0, 1): 1})


class TestCombine:
    def test_monomial_product_uv(self):
        uv = HodgeDiamond({(1, 1): 1})
        assert uv * uv == HodgeDiamond({(2, 2): 1})

    def test_difference_of_squares(self):
        assert ONE_Y * LaurentY({0: 1, 1: -1}) == LaurentY({0: 1, 2: -1})

    def test_elliptic_e_polynomial(self):
        # (1-u)(1-v) expands to the four-term sign pattern
        e = (PT - U) * (PT - V)
        assert e.entries() == [((0, 0), 1), ((0, 1), -1), ((1, 0), -1), ((1, 1), 1)]

    @pytest.mark.parametrize("seed", range(8))
    def test_ring_axioms(self, seed):
        rng = random.Random(seed)
        for make in (rand_laurent, rand_uv):
            a, b, c = make(rng), make(rng), make(rng)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_power_and_negative_monomial_power(self):
        assert ONE_Y**3 == LaurentY({0: 1, 1: 3, 2: 3, 3: 1})
        assert LaurentY.y() ** -2 == LaurentY({-2: 1})
        with pytest.raises(ZeroDivisionError):
            ONE_Y**-1


class TestSubstitute:
    """The two substitutions of an E-polynomial, both methods of the table:
    chi_y is (u, v) -> (-y, 1) and the dual is (u, v) -> (1/u, 1/v)."""

    def test_tate_value(self):
        assert HodgeDiamond({(1, 1): 1}).chi_y() == LaurentY({1: -1})

    def test_elliptic_curve_genus_vanishes(self):
        assert ((PT - U) * (PT - V)).chi_y() == LaurentY.zero()

    def test_monomial_inversion(self):
        assert HodgeDiamond({(2, 2): 1}).dual() == HodgeDiamond({(-2, -2): 1})
        assert HodgeDiamond({(2, 1): 3, (0, -1): -1}).dual().entries() == [
            ((-2, -1), 3), ((0, 1), -1)]

    @pytest.mark.parametrize("seed", range(6))
    def test_chi_substitution_is_homomorphism(self, seed):
        """chi_y is a ring homomorphism for the tensor product and the sum."""
        rng = random.Random(100 + seed)
        a, b = rand_uv(rng), rand_uv(rng)
        assert a.tensor(b).chi_y() == a.chi_y() * b.chi_y()
        assert (a + b).chi_y() == a.chi_y() + b.chi_y()


class TestExponents:
    @pytest.mark.parametrize("coeffs", [{0: 1, 0.5: 2}, {1.0: 1}, {Fraction(1): 1}])
    def test_non_integer_exponent_is_refused(self, coeffs):
        # {0: 1, 0.5: 2} printed 2: int(0.5) overwrote the constant term
        with pytest.raises(InvalidParameter, match="not an integer"):
            LaurentY(coeffs)


class TestIntegerSizes:
    """A size, count or index is an int: a float is refused where it crashed
    with a TypeError or was read as an int, and a bool where it keyed a model
    of its own (``True == 1``, so a later size 1 was handed that model)."""

    @pytest.mark.parametrize("call", [
        lambda: sp.projective(True),
        lambda: sp.projective(2.0),
        lambda: sp.hypersurface(3.0, 2),
        lambda: sp.hypersurface(3, 2.0),
        lambda: sp.hypersurface(3, True),
        lambda: sp.with_arrangement(sp.projective(2), 1.0),
        lambda: sp.linear_embedding(1.0, 2),
        lambda: sp.linear_embedding(1, 2.0),
        lambda: sp.product_projection(sp.product(sp.projective(1), sp.projective(1)), 0.0),
        lambda: sp.line_bundle(sp.projective(2), Fraction(3, 2)),
        lambda: sp.sum_of_line_bundles(sp.projective(2), [1, True]),
        lambda: sp.sum_of_line_bundles(sp.projective(2), [1, 0.5]),
        lambda: motivic.projective(2.0),
        lambda: motivic.arrangement_complement(2, 1.0),
        lambda: motivic.arrangement_complement(2.0, 1),
        lambda: transforms.csm_arrangement(2, 1.0),
        lambda: transforms.csm_arrangement(2.0, 1),
        lambda: verify.run_suites("series-limits", order=2.5),
        lambda: HodgeDiamond({(True, 0): 1}),
        lambda: HodgeDiamond({(0, 0): True}),
    ], ids=["projective-bool", "projective-float", "hypersurface-n", "hypersurface-d",
            "hypersurface-bool", "with_arrangement", "linear_embedding-k",
            "linear_embedding-n", "product_projection", "line_bundle", "sum_of_line_bundles-bool",
            "sum_of_line_bundles-float", "motivic-projective",
            "motivic-arrangement-k", "motivic-arrangement-n", "csm_arrangement-k",
            "csm_arrangement-n", "run_suites-order", "hodge-index", "hodge-entry"])
    def test_a_size_that_is_not_an_int_is_refused(self, call):
        with pytest.raises(InvalidParameter, match="not an int|must be ints"):
            call()

    def test_a_refused_bool_keys_no_model(self):
        with pytest.raises(InvalidParameter):
            sp.projective(True)
        assert sp.projective(1).name == "P1"


class TestCoefficients:
    # 0.1 was read as its binary fraction, "1/2" as 1/2; nan and inf raised
    # ValueError and OverflowError
    @pytest.mark.parametrize("value", [0.1, 0.5, "1/2", float("nan"), float("inf"), None])
    def test_only_ints_and_fractions_are_coefficients(self, value):
        with pytest.raises(InvalidParameter, match="not an int or a Fraction"):
            LaurentY({0: value})

    @pytest.mark.parametrize("value", [0.5, "1/2", [1]])
    def test_a_scalar_alone_is_refused_the_same_way(self, value):
        # 0.5 and "1/2" alone raised a TypeError
        with pytest.raises(InvalidParameter, match="not an int or a Fraction"):
            LaurentY(value)

    @pytest.mark.parametrize("value", [0.5, "1/2"])
    def test_const_and_y_refuse_them_too(self, value):
        with pytest.raises(InvalidParameter):
            LaurentY.const(value)
        with pytest.raises(InvalidParameter):
            LaurentY.y(1, value)

    def test_ints_and_fractions_are_exact(self):
        half = Fraction(1, 2)
        assert LaurentY({0: half, 2: -3}) == LaurentY.const(half) - 3 * LaurentY.y(2)
        assert str(LaurentY({0: True, 1: Fraction(4, 2)})) == "1 + 2*y"


class TestRationalFunctionY:
    def test_simple_cancellation(self):
        q = RationalFunctionY(LaurentY({0: 1, 2: -1}), 1)  # (1-y^2)/(1+y)
        assert q.reduce_unit_denominator() == LaurentY({0: 1, 1: -1})

    def test_arrangement_style_cancellation(self):
        # ((3/2)(1+y)^2 - y(1+y)) / (1+y); cross-checked by multiplying back
        num = ONE_Y * ONE_Y * Fraction(3, 2) - LaurentY.y() * ONE_Y
        expected = ONE_Y * Fraction(3, 2) - LaurentY.y()
        assert expected * ONE_Y == num  # independent division check
        assert RationalFunctionY(num, 1).reduce_unit_denominator() == expected

    def test_genuine_pole(self):
        q = RationalFunctionY(LaurentY.one(), 1)
        with pytest.raises(NotPolynomial):
            q.reduce_unit_denominator()

    @pytest.mark.parametrize("seed", range(6))
    def test_multiplying_by_denominator_round_trips(self, seed):
        rng = random.Random(200 + seed)
        q = rand_laurent(rng)
        k = rng.randint(0, 3)
        assert RationalFunctionY(q * ONE_Y**k, k).reduce_unit_denominator() == q

    def test_arithmetic_and_invert_y(self):
        a = RationalFunctionY(LaurentY.one(), 1)      # 1/(1+y)
        b = RationalFunctionY(LaurentY.y(), 1)        # y/(1+y)
        assert a + b == RationalFunctionY(LaurentY.one(), 0)
        assert a * ONE_Y == 1
        # 1/(1+1/y) = y/(1+y)
        assert a.invert_y() == b
        assert a.invert_y().invert_y() == a

    def test_at_minus_one(self):
        q = RationalFunctionY(ONE_Y * LaurentY({0: 2, 1: 1}), 1)
        assert q.at_minus_one() == Fraction(1)

    def test_one_type(self):
        assert RationalFunctionY is LaurentY

    def test_a_pole_refuses_terms_and_values(self):
        q = LaurentY({0: 2, 1: 1}, 2)  # (2+y)/(1+y)^2
        assert q._k == 2 and str(q) == "(2 + y)/(1+y)^2"
        for read in (lambda: q(0), lambda: q(2), q.items, lambda: q.coeff(0),
                     q.at_minus_one, q.reduce_unit_denominator):
            with pytest.raises(NotPolynomial):
                read()
        assert not q.is_integral_polynomial() and not q.is_monomial()
        assert q * ONE_Y**2 == LaurentY({0: 2, 1: 1})

    def test_negative_denominator_power(self):
        with pytest.raises(InvalidParameter, match="must be >= 0"):
            LaurentY(1, -1)

    @pytest.mark.parametrize("den_pow", [1.5, "1", Fraction(1)])
    def test_denominator_power_is_an_int(self, den_pow):
        with pytest.raises(InvalidParameter, match="denominator power"):
            LaurentY(1, den_pow)

    @pytest.mark.parametrize("n", [2.5, "2", 2.0])
    def test_power_is_an_int(self, n):
        with pytest.raises(InvalidParameter, match="exponent"):
            LaurentY({0: 1, 1: 1}) ** n


class TestTextForm:
    def test_canonical_examples(self):
        assert render_y(LaurentY({0: 1, 1: -1, 2: 1})) == "1 - y + y^2"
        e = HodgeDiamond({(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})
        assert render_uv(e) == "1 - u - v + u*v"
        assert render_uv(HodgeDiamond({(1, 1): -1, (2, 2): 1})) == "-u*v + u^2*v^2"
        assert render_y(LaurentY({-1: Fraction(3, 2)})) == "3/2*y^-1"
        assert render_y(LaurentY.zero()) == "0"

    def test_zero_denominator_is_a_parse_error(self):
        with pytest.raises(ParseError, match="division by zero at offset 6"):
            parse_y("1 + 3/0*y")

    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip(self, seed):
        rng = random.Random(300 + seed)
        p = rand_laurent(rng)
        assert parse_y(render_y(p)) == p
        q = rand_uv(rng)
        assert parse_uv(render_uv(q)) == q
        # bit-exact: re-rendering the parse gives the identical string
        assert render_y(parse_y(render_y(p))) == render_y(p)
        assert render_uv(parse_uv(render_uv(q))) == render_uv(q)


# ---------------------------------------------------------------------------
# equal values hash equal, whatever type holds them

ONE_Y = LaurentY({0: 1, 1: 1})
laurent_dicts = st.dictionaries(
    st.integers(-1, 2), st.fractions(min_value=-3, max_value=3, max_denominator=2),
    max_size=3)


def value_forms(d, j):
    """The value of LaurentY(d), and of LaurentY(d)/(1+y)^j, in every type
    that can hold it."""
    lau = LaurentY(d)
    forms = [lau, RationalFunctionY(lau), RationalFunctionY(lau * ONE_Y**j, j),
             RationalFunctionY(lau, j), RationalFunctionY(lau * ONE_Y, j + 1)]
    if all(e == 0 for e, _ in lau.items()):
        c = lau.coeff(0)
        forms.append(c)
        if c.denominator == 1:
            forms += [c.numerator, HodgeDiamond({(0, 0): c.numerator})]
    return forms


@settings(max_examples=200, deadline=None)
@given(laurent_dicts, laurent_dicts, st.integers(0, 2))
def test_equal_values_hash_equal(d1, d2, j):
    values = value_forms(d1, j) + value_forms(d2, j)
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)


def test_a_set_holds_one_copy_of_a_value():
    three = LaurentY({0: 3})
    assert len({three, Fraction(3)}) == 1
    assert len({RationalFunctionY(three), three, 3}) == 1
    assert len({HodgeDiamond({(0, 0): 3}), 3}) == 1


# ---------------------------------------------------------------------------
# the integer-numerator types against the Fraction-dict types they replaced

small_terms = st.dictionaries(
    st.integers(-3, 3), st.fractions(min_value=-6, max_value=6, max_denominator=6), max_size=4)
scalars = st.one_of(st.integers(-6, 6),
                    st.fractions(min_value=-6, max_value=6, max_denominator=6))
REF_ONE_Y = ref.LaurentY({0: 1, 1: 1})


def both(d):
    return LaurentY(d), ref.LaurentY(d)


def agrees(new, old):
    """``new`` holds the value ``old`` holds, in the matching type; a
    LaurentY keeps int numerators over a positive denominator in lowest terms."""
    if isinstance(old, ref.RationalFunctionY):
        # the power of (1+y), and the numerator over d as stored
        num = new * ONE_Y**new._k
        return (new._k == old.den_pow and agrees(num, old.num)
                and (new._c, new._d) == (num._c, num._d))
    if isinstance(old, ref.LaurentY):
        return (isinstance(new, LaurentY) and not new._k and new.items() == old.items()
                and all(n.__class__ is int and n for n in new._c.values())
                and new._d > 0 and math.gcd(new._d, *new._c.values()) == 1)
    return type(new) is type(old) and new == old


@settings(max_examples=300, deadline=None)
@given(small_terms, small_terms, scalars)
def test_laurent_arithmetic_matches_the_reference(d1, d2, s):
    (a, ra), (b, rb) = both(d1), both(d2)
    pairs = [(a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb), (-a, -ra),
             (a + s, ra + s), (s + a, s + ra), (a - s, ra - s), (s - a, s - ra),
             (a * s, ra * s), (s * a, s * ra), (a.invert_y(), ra.invert_y())]
    if s:
        pairs.append((a / s, ra / s))
    for new, old in pairs:
        assert agrees(new, old), (new, old)
    for value in (Fraction(-1), Fraction(2, 3), Fraction(5), s):
        if value:
            assert agrees(a(value), ra(value))
    assert a.is_integral_polynomial() == ra.is_integral_polynomial()


@settings(max_examples=200, deadline=None)
@given(small_terms, st.integers(0, 4), st.integers(-3, 3),
       scalars.filter(bool), st.integers(-4, -1))
def test_laurent_powers_match_the_reference(d, n, e, c, m):
    a, ra = both(d)
    assert agrees(a**n, ra**n)
    mono, rmono = both({e: c})
    assert agrees(mono**m, rmono**m)
    if not ra.is_monomial():
        with pytest.raises(ZeroDivisionError):
            a**m
        with pytest.raises(ZeroDivisionError):
            ra**m


tiny_terms = st.dictionaries(
    st.integers(0, 1), st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]),
    max_size=2)


@settings(max_examples=300, deadline=None)
@given(tiny_terms, tiny_terms, st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(2)]))
def test_laurent_equality_and_hash_match_the_reference(d1, d2, s):
    (a, ra), (b, rb) = both(d1), both(d2)
    assert (a == b) == (ra == rb)
    assert (a == s) == (ra == s) and (s == a) == (s == ra)
    assert (a != b) == (ra != rb)
    if a == b:
        assert hash(a) == hash(b)
    if a == s:
        assert hash(a) == hash(s) == hash(ra)


@settings(max_examples=200, deadline=None)
@given(small_terms)
def test_laurent_text_form_matches_the_reference(d):
    a, ra = both(d)
    assert render_y(a) == render_y(ra) == str(a) == str(ra)
    assert agrees(parse_y(render_y(a)), ra)


@settings(max_examples=300, deadline=None)
@given(small_terms, st.integers(0, 3), st.integers(0, 3), small_terms, st.integers(0, 3),
       scalars)
def test_rational_functions_match_the_reference(d1, j, k, d2, k2, s):
    (a, ra), (b, rb) = both(d1), both(d2)
    # a numerator with (1+y)^j in it, so that normalization cancels factors
    q, rq = RationalFunctionY(a * ONE_Y**j, k), ref.RationalFunctionY(ra * REF_ONE_Y**j, k)
    p, rp = RationalFunctionY(b, k2), ref.RationalFunctionY(rb, k2)
    pairs = [(q, rq), (p, rp), (q + p, rq + rp), (q - p, rq - rp), (q * p, rq * rp),
             (-q, -rq), (q.invert_y(), rq.invert_y()), (q + a, rq + ra),
             (a - q, -(rq - ra)),  # the reference LaurentY cannot subtract one
             (q * s, rq * s), (s + q, s + rq),
             (RationalFunctionY(s, k), ref.RationalFunctionY(s, k)),
             # the dict form of the constructor builds the same values
             (LaurentY(dict((a * ONE_Y**j).items()), k), rq), (LaurentY(d2, k2), rp)]
    for new, old in pairs:
        assert agrees(new, old), (new, old)
    assert (q == p) == (rq == rp)
    if rq.den_pow:
        with pytest.raises(NotPolynomial) as got:
            q.reduce_unit_denominator()
        with pytest.raises(NotPolynomial) as want:
            rq.reduce_unit_denominator()
        assert str(got.value) == str(want.value)
    else:
        assert agrees(q.reduce_unit_denominator(), rq.reduce_unit_denominator())
        assert agrees(q.at_minus_one(), rq.at_minus_one())
