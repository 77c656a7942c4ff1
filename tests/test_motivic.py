"""Grothendieck-ring classes, each its Hodge table: atoms, scissor calculus,
duality."""

import pytest

from hirzebruch import motivic as mo
from hirzebruch.errors import InvalidParameter, ParseError
from hirzebruch.hodge import HodgeDiamond, parse_uv
from hirzebruch.rings import LaurentY


def scissor_projective(n):
    """Independent oracle: P^n = A^n + P^(n-1), starting from a point."""
    cls = mo.point()
    for k in range(1, n + 1):
        cls = mo.affine(k) + cls
    return cls


def inclusion_exclusion_e(n, k):
    """Independent oracle for the complement E-polynomial."""
    total = mo.projective(n).e_polynomial()
    binom = 1
    for s in range(1, min(k, n) + 1):
        binom = binom * (k - s + 1) // s
        term = mo.projective(n - s).e_polynomial() * binom
        total = total - term if s % 2 == 1 else total + term
    return total


class TestAtoms:
    def test_lefschetz(self):
        L = mo.lefschetz()
        assert L == HodgeDiamond({(1, 1): 1})
        assert L.e_polynomial() == HodgeDiamond({(1, 1): 1})

    def test_torus_is_affine_line_minus_point(self):
        assert mo.torus() == mo.affine(1) - mo.point()
        assert mo.torus() == HodgeDiamond({(1, 1): 1, (0, 0): -1})

    @pytest.mark.parametrize("n", range(5))
    def test_projective_by_scissor_recursion(self, n):
        assert mo.projective(n) == scissor_projective(n)

    def test_projective_two_table(self):
        assert mo.projective(2) == HodgeDiamond({(0, 0): 1, (1, 1): 1, (2, 2): 1})

    def test_curve_table(self):
        assert mo.curve(2) == HodgeDiamond(
            {(0, 0): 1, (1, 0): -2, (0, 1): -2, (1, 1): 1})

    def test_invalid_parameters(self):
        for bad in (lambda: mo.projective(-1), lambda: mo.affine(-2), lambda: mo.curve(-1)):
            with pytest.raises(InvalidParameter):
                bad()


class TestCombine:
    def test_line_minus_point_is_lefschetz(self):
        assert mo.projective(1) - mo.point() == mo.lefschetz()

    @pytest.mark.parametrize("n", [2.5, "2", 2.0])
    def test_power_is_an_int(self, n):
        with pytest.raises(InvalidParameter, match="exponent"):
            mo.projective(1) ** n

    def test_product_of_lines(self):
        got = (mo.projective(1) * mo.projective(1)).e_polynomial()
        assert got.entries() == [((0, 0), 1), ((1, 1), 2), ((2, 2), 1)]  # (1 + uv)^2

    def test_two_line_complement(self):
        cls = mo.projective(2) - 2 * mo.projective(1) + mo.point()
        assert cls.e_polynomial() == HodgeDiamond({(2, 2): 1, (1, 1): -1})
        assert cls == mo.arrangement_complement(2, 2)

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 4) for k in range(n + 2)])
    def test_arrangement_complement_matches_inclusion_exclusion(self, n, k):
        assert mo.arrangement_complement(n, k).e_polynomial() == inclusion_exclusion_e(n, k)

    def test_chi_y_is_multiplicative(self):
        a, b = mo.projective(2), mo.curve(1)
        assert (a * b).chi_y() == a.chi_y() * b.chi_y()


class TestDual:
    def test_dual_of_line(self):
        assert mo.projective(1).dual() == HodgeDiamond({(-1, -1): 1, (0, 0): 1})

    def test_dual_of_point(self):
        assert mo.point().dual() == mo.point()

    def test_dual_of_lefschetz_from_additivity(self):
        # D(L) = D(P1) - D(pt), and equals the table of L^(-1)
        got = mo.projective(1).dual() - mo.point().dual()
        assert got == mo.lefschetz().dual()
        assert got == HodgeDiamond({(-1, -1): 1})

    def test_involution_and_products(self):
        a, b = mo.projective(2), mo.curve(1)
        assert a.dual().dual() == a
        assert (a * b).dual() == a.dual() * b.dual()

    def test_dual_inverts_e_variables(self):
        # E(u, v) -> E(1/u, 1/v) negates every coordinate of the table
        for cls in (mo.projective(3), mo.curve(2), mo.arrangement_complement(2, 2)):
            assert dict(cls.dual().e_polynomial().entries()) == {
                (-p, -q): v for (p, q), v in cls.e_polynomial().entries()}

    @pytest.mark.parametrize("g", range(4))
    def test_curve_duality_polynomial_identity(self, g):
        # E(1/u, 1/v) = E(u, v) / (uv) for a curve: negated coordinates are
        # the coordinates shifted by (-1, -1)
        entries = mo.curve(g).e_polynomial().entries()
        assert {(-p, -q): v for (p, q), v in entries} == {(p - 1, q - 1): v for (p, q), v in entries}
        assert mo.curve(g).dual() == mo.curve(g).tate_twist(1)

    @pytest.mark.parametrize("n", range(1, 4))
    def test_torus_power_compact_ordinary_duality(self, n):
        # chi^c of Gm^n against the ordinary genus (1+y)^n
        compact = (mo.torus() ** n).chi_y()
        ordinary = LaurentY({0: 1, 1: 1}) ** n
        assert compact == ordinary.invert_y() * LaurentY({n: (-1) ** n})


class TestRefusals:
    """The refusals of ``motivic`` and ``hodge``."""

    @pytest.mark.parametrize("call, error", [
        (lambda: mo.projective(1) ** -1, InvalidParameter),
        (lambda: HodgeDiamond.point() ** -1, InvalidParameter),
        (lambda: mo.arrangement_complement(2, 4), InvalidParameter),
        (lambda: parse_uv("1/2*u"), ParseError),
    ], ids=["motivic-negative-power", "hodge-negative-power", "arrangement-too-many",
            "uv-fraction"])
    def test_refusal(self, call, error):
        with pytest.raises(error):
            call()

    @pytest.mark.parametrize("call, what", [
        (lambda: mo.curve(True), "genus"),
        (lambda: mo.curve(1.5), "genus"),
        (lambda: mo.affine(2.0), "affine space dimension"),
        (lambda: HodgeDiamond.tate(True), "Tate twist"),
        (lambda: HodgeDiamond.point().tate_twist(1.5), "Tate twist"),
        (lambda: HodgeDiamond({(1, 1): 1}, pure_weight=2.0), "pure weight"),
        (lambda: HodgeDiamond.point() * True, "scalar"),
        (lambda: True * HodgeDiamond.point(), "scalar"),
    ], ids=["curve-bool", "curve-float", "affine-float", "tate-bool", "tate_twist-float",
            "pure_weight-float", "scalar-bool", "bool-scalar"])
    def test_a_value_that_is_not_an_int_is_refused(self, call, what):
        # a bool or float was read as an int, or refused as a Hodge entry
        with pytest.raises(InvalidParameter, match=f"^{what} .* is not an int$"):
            call()
