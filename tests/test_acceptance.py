"""Acceptance criteria.

Every check is an exact rational identity (tolerance zero).  One criterion
per test; each prints a single pass line on success (run with ``-s`` or
``-rP`` to see them).  The whole module is budgeted to run in well under
ten seconds.
"""

from fractions import Fraction

from hirzebruch import motivic as mo
from hirzebruch import spaces as sp
from hirzebruch import verify
from hirzebruch.bundles import k_dual
from hirzebruch.hodge import HodgeDiamond
from hirzebruch.rings import LaurentY
from hirzebruch.transforms import (
    chi_y_genus,
    csm_arrangement,
    homology_dual,
    mhc_y,
    mht,
    specialize_minus_one,
)

ONE_Y = LaurentY({0: 1, 1: 1})


def _report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def _assert_suite(checks):
    bad = [c for c in checks if not c.ok]
    assert not bad, "; ".join(f"{c.name}: {c.detail}" for c in bad)
    return len(checks)


def test_criterion_1_elliptic_curve_genera():
    c1 = mo.curve(1)
    assert c1.e_polynomial() == HodgeDiamond(
        {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})
    assert c1.chi_y() == LaurentY.zero()
    _report(1, "E(C1) = 1-u-v+uv and chi_y(C1) = 0")


def test_criterion_2_ghrr_on_projective_spaces():
    for n in range(1, 5):
        chi = chi_y_genus(sp.projective(n))
        assert chi == LaurentY({p: (-1) ** p for p in range(n + 1)}), n
        assert chi(Fraction(-1)) == n + 1          # Euler characteristic
        assert chi(Fraction(0)) == 1               # arithmetic genus
        assert chi(Fraction(1)) == (1 if n % 2 == 0 else 0)  # signature
    _report(2, "integral of the T_y class of P^n is sum of (-y)^p for n = 1..4")


def test_criterion_3_series_limits_to_order_eight():
    _assert_suite(verify.suite_series_limits(order=8))
    _report(3, "interpolating series matches chern/todd/lclass at y = -1/0/1 to order 8")


def test_criterion_4_quartic_surface():
    chi = chi_y_genus(sp.hypersurface(3, 4))
    assert chi == LaurentY({0: 2, 1: -20, 2: 2})
    assert chi(Fraction(-1)) == 24
    assert chi(Fraction(1)) == -16
    _report(4, "quartic surface in P3 has chi_y = 2 - 20y + 2y^2, Euler 24, signature -16")


def test_criterion_5_multiplicativity_and_updown():
    n1 = _assert_suite(verify.suite_multiplicativity())
    n2 = _assert_suite(verify.suite_updown())
    _report(5, f"fiber-times-base genus and pushforward class identities "
               f"({n1} + {n2} bundle cases)")


def test_criterion_6_verdier_riemann_roch():
    _assert_suite(verify.suite_vrr())
    _report(6, "smooth pullback reproduces the total-space class for built-in projections")


def test_criterion_7_duality_suite():
    _assert_suite(verify.suite_duality())
    # spot-check the three smooth models directly at class level
    for space in (sp.projective(1), sp.projective(2),
                  sp.product(sp.projective(1), sp.projective(1))):
        c = mhc_y(space)
        assert k_dual(c) == c * LaurentY({-space.dim: (-1) ** space.dim})
        assert homology_dual(mht(c, normalized=False)) == mht(k_dual(c), normalized=False)
    _report(7, "chi_y duality on 100 random tables; K- and homology-duality on P1, P2, P1xP1")


def test_criterion_8_chern_specialization():
    _assert_suite(verify.suite_chern_limit())
    arr22 = sp.with_arrangement(sp.projective(2), 2)
    got22 = sp.gysin_pushforward(sp.open_restriction(arr22),  # the complement's class on P2
                                 specialize_minus_one(mht(mhc_y(arr22, "open_complement"))))
    assert got22 == csm_arrangement(2, 2)
    assert got22.component(1) == got22.space.monomial((1,))  # the line term of [P2]+l
    arr23 = sp.with_arrangement(sp.projective(2), 3)
    got23 = sp.gysin_pushforward(sp.open_restriction(arr23),  # the complement's class on P2
                                 specialize_minus_one(mht(mhc_y(arr23, "open_complement"))))
    assert got23 == csm_arrangement(2, 3)
    assert list(got23.by_degree()) == [0]  # bare [P2]: only the dimension-2 cycle
    _report(8, "normalized transformation at y = -1 equals the inclusion-exclusion "
               "Chern class for all n <= 3, k <= n+1")


def test_criterion_9_compact_support_duality():
    _assert_suite(verify.suite_arrangements())
    assert mo.arrangement_complement(2, 2).chi_y() == LaurentY({1: 1, 2: 1})
    arr = sp.with_arrangement(sp.projective(2), 2)
    assert chi_y_genus(arr, "open_complement") == ONE_Y
    _report(9, "compactly supported genus is (-y)^dim times the inverted ordinary genus "
               "for tori and arrangement complements")


def test_criterion_10_integrality_gate():
    _assert_suite(verify.suite_integrality())
    _report(10, "every genus from criteria 2, 4, 5, 9 lies in Z[y] after reduction")


def test_full_registry_is_green():
    results = verify.run_suites("all", order=8)
    assert verify.all_passed(results)
    total = sum(len(v) for v in results.values())
    print(f"ACCEPTANCE SUMMARY: all {total} registry checks pass")
