"""Virtual Hodge tables: tensor, dual, twist, and the two genera."""

import random
from fractions import Fraction
from math import comb

import pytest

from hirzebruch.errors import InvalidParameter
from hirzebruch.hodge import HodgeDiamond
from hirzebruch.rings import LaurentY

ELLIPTIC = HodgeDiamond({(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})
ELLIPTIC_H1 = HodgeDiamond({(1, 0): 1, (0, 1): 1}, pure_weight=1)


U = HodgeDiamond({(1, 0): 1})
V = HodgeDiamond({(0, 1): 1})


def rand_diamond(rng, span=3):
    return HodgeDiamond({(rng.randint(-span, span), rng.randint(-span, span)): rng.randint(-4, 4)
                         for _ in range(rng.randint(1, 6))})


def raw(d):
    """The nonzero entries of a table as a plain dict."""
    return dict(d.entries())


def convolution(a, b):
    """Oracle: the product of two E-polynomials, term by term on plain dicts."""
    out = {}
    for (p1, q1), v1 in a.entries():
        for (p2, q2), v2 in b.entries():
            out[p1 + p2, q1 + q2] = out.get((p1 + p2, q1 + q2), 0) + v1 * v2
    return {e: v for e, v in out.items() if v}


def signed_columns(d):
    """Oracle: chi_y from the entries, each u-column summed with the sign (-1)^p."""
    cols = {}
    for (p, _q), v in d.entries():
        cols[p] = cols.get(p, 0) + (-1 if p % 2 else 1) * v  # (-1) ** p is a float for p < 0
    return LaurentY(cols)


class TestTensor:
    def test_tate_squares(self):
        assert HodgeDiamond.tate(-1).tensor(HodgeDiamond.tate(-1)) == HodgeDiamond.tate(-2)

    def test_twist_of_weight_one_part(self):
        got = ELLIPTIC_H1.tensor(HodgeDiamond.tate(-1))
        assert got == HodgeDiamond({(2, 1): 1, (1, 2): 1})
        assert got.pure_weight == 3

    def test_elliptic_square_matches_polynomial_square(self):
        # oracle: (1-u)^2 (1-v)^2 expanded by the binomial theorem
        want = {(a, b): comb(2, a) * comb(2, b) * (-1) ** (a + b)
                for a in range(3) for b in range(3)}
        assert raw(ELLIPTIC.tensor(ELLIPTIC)) == want

    @pytest.mark.parametrize("seed", range(6))
    def test_e_polynomial_is_ring_homomorphism(self, seed):
        rng = random.Random(seed)
        a, b = rand_diamond(rng), rand_diamond(rng)
        assert a.e_polynomial() is a  # a table is its own E-polynomial
        assert raw(a.tensor(b)) == raw(a * b) == convolution(a, b)
        summed = raw(a)
        for e, v in b.entries():
            summed[e] = summed.get(e, 0) + v
        assert raw(a + b) == {e: v for e, v in summed.items() if v}


    def test_power_squares_only_while_bits_remain(self, monkeypatch):
        # x^4 is x^2 squared: two squarings and the multiply into the unit
        base = HodgeDiamond.point() + HodgeDiamond.tate(-1)
        want = base * base * base * base
        calls = []
        real = HodgeDiamond.tensor
        monkeypatch.setattr(HodgeDiamond, "tensor",
                            lambda a, b: calls.append(b) or real(a, b))
        assert base ** 4 == want
        assert len(calls) == 3


class TestDual:
    def test_tate_dual(self):
        assert HodgeDiamond.tate(-1).dual() == HodgeDiamond.tate(1)
        assert HodgeDiamond.tate(1) == HodgeDiamond({(-1, -1): 1})

    def test_weight_zero_symmetric_is_self_dual(self):
        d = HodgeDiamond({(1, -1): 2, (-1, 1): 2, (0, 0): 3})
        assert d.dual() == d

    @pytest.mark.parametrize("seed", range(10))
    def test_chi_y_duality(self, seed):
        rng = random.Random(50 + seed)
        d = rand_diamond(rng)
        assert d.dual().chi_y() == d.chi_y().invert_y()

    @pytest.mark.parametrize("seed", range(6))
    def test_e_duality(self, seed):
        # E(D d)(u, v) = E(d)(1/u, 1/v): every coordinate negated
        rng = random.Random(80 + seed)
        d = rand_diamond(rng)
        assert raw(d.dual()) == {(-p, -q): v for (p, q), v in d.entries()}


class TestTateTwist:
    def test_basic(self):
        assert HodgeDiamond.tate(0).tate_twist(-1) == HodgeDiamond.tate(-1)

    def test_twist_inverse(self):
        d = ELLIPTIC
        assert d.tate_twist(-2).tate_twist(2) == d

    @pytest.mark.parametrize("seed", range(5))
    def test_twist_scales_chi_y(self, seed):
        rng = random.Random(120 + seed)
        d = rand_diamond(rng)
        assert d.tate_twist(-1).chi_y() == d.chi_y() * LaurentY({1: -1})


class TestGenera:
    def test_tate_values(self):
        q = HodgeDiamond.tate(-1)
        assert q.e_polynomial() == HodgeDiamond({(1, 1): 1})
        assert q.chi_y() == LaurentY({1: -1})

    def test_elliptic_values(self):
        pt = HodgeDiamond.point()
        assert ELLIPTIC.e_polynomial() == (pt - U) * (pt - V)
        assert ELLIPTIC.chi_y() == LaurentY.zero()

    def test_projective_plane_diamond(self):
        # oracle: scissor recursion P^2 = A^2 + P^1 = L^2 + L + 1
        recursion = HodgeDiamond.tate(0) + HodgeDiamond.tate(-1) + HodgeDiamond.tate(-2)
        assert recursion == HodgeDiamond({(0, 0): 1, (1, 1): 1, (2, 2): 1})
        assert recursion.chi_y() == LaurentY({0: 1, 1: -1, 2: 1})

    def test_empty(self):
        zero = HodgeDiamond.zero().e_polynomial()
        assert zero == 0 and not zero and zero.entries() == []

    def test_chi_y_is_specialized_e(self):
        # chi_y is E at (u, v) = (-y, 1): signed column sums of the entries
        rng = random.Random(7)
        for _ in range(10):
            d = rand_diamond(rng)
            assert d.chi_y() == signed_columns(d)

    def test_chi_minus_one_is_dimension(self):
        rng = random.Random(8)
        for _ in range(10):
            d = rand_diamond(rng)
            assert d.chi_y()(Fraction(-1)) == sum(v for _, v in d.entries())


class TestConstructor:
    """The constructor refuses what it used to truncate with ``int``."""

    @pytest.mark.parametrize("entries", [
        {(0, 0): Fraction(1, 2), (1, 1): 2.7},  # gave [[1, 1, 2]]
        {(0, 0): 2.0},
        {(0.5, 0): 3},  # landed on (0, 0)
        {(0, Fraction(1)): 3},
    ])
    def test_non_integral_index_or_entry(self, entries):
        with pytest.raises(InvalidParameter, match="must be ints"):
            HodgeDiamond(entries)

    @pytest.mark.parametrize("n", [2.5, "2", 2.0])
    def test_power_is_an_int(self, n):
        with pytest.raises(InvalidParameter, match="exponent"):
            HodgeDiamond({(0, 0): 1, (1, 1): 1}) ** n


class TestPureWeight:
    def test_validation(self):
        with pytest.raises(InvalidParameter):
            HodgeDiamond({(1, 0): 1}, pure_weight=2)
        with pytest.raises(InvalidParameter):
            HodgeDiamond({(1, 0): 1, (0, 1): 2}, pure_weight=1)

    def test_pure_e_polynomial_is_symmetric(self):
        rng = random.Random(9)
        for _ in range(10):
            n = rng.randint(0, 4)
            entries = {}
            for _ in range(rng.randint(1, 4)):
                p = rng.randint(0, n)
                v = rng.randint(1, 5)
                entries[(p, n - p)] = v
                entries[(n - p, p)] = v
            d = HodgeDiamond(entries, pure_weight=n)
            e = dict(d.e_polynomial().entries())
            assert all(e.get((q, p)) == v for (p, q), v in e.items())

    def test_odd_weight_symmetric_has_zero_signature_value(self):
        rng = random.Random(10)
        for _ in range(10):
            n = 2 * rng.randint(0, 2) + 1
            entries = {}
            for _ in range(rng.randint(1, 4)):
                p = rng.randint(0, n)
                v = rng.randint(1, 5)
                entries[(p, n - p)] = v
                entries[(n - p, p)] = v
            d = HodgeDiamond(entries, pure_weight=n)
            assert d.chi_y()(Fraction(1)) == 0

    def test_triples_round_trip(self):
        d = ELLIPTIC
        assert HodgeDiamond({(p, q): v for p, q, v in d.triples()}) == d

    def test_json_rendering(self):
        import json
        d = ELLIPTIC
        # JSON keeps the triples' ints, so the table rebuilds from its document
        doc = json.loads(json.dumps(d.triples()))
        assert doc == d.triples()
        assert HodgeDiamond({(p, q): v for p, q, v in doc}) == d
