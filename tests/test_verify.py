"""Verification suites: failure details and the series-order plumbing."""

import inspect

from hirzebruch import spaces as sp
from hirzebruch import verify
from hirzebruch.bundles import KPolyClass
from hirzebruch.rings import LaurentY
from hirzebruch.transforms import mhc_y


class TestChDifference:
    def test_names_the_first_differing_degree_and_monomial(self):
        p2 = sp.projective(2)
        want = mhc_y(p2)
        got = KPolyClass(want.rank_poly, want.ch + p2.monomial((2,), LaurentY({1: 3})))
        assert got.rank_poly == want.rank_poly and got != want
        detail = verify.ch_difference(got, want)
        assert detail.startswith("ch differs first in degree 2 at h^2: ")
        assert f"{got.ch.coeff((2,))} vs {want.ch.coeff((2,))}" in detail

    def test_lowest_degree_wins(self):
        p1xp1 = sp.product(sp.projective(1), sp.projective(1))
        want = mhc_y(p1xp1)
        extra = p1xp1.monomial((1, 1)) + p1xp1.monomial((0, 1), 2)
        got = KPolyClass(want.rank_poly, want.ch + extra)
        assert verify.ch_difference(got, want).startswith("ch differs first in degree 1 at h2: ")

    def test_equal_classes_have_no_detail(self):
        c = mhc_y(sp.projective(2))
        assert verify.ch_difference(c, c * 1) == ""


def test_only_series_limits_takes_an_order():
    takes_order = {name for name, suite in verify.SUITES.items()
                   if "order" in inspect.signature(suite).parameters}
    assert takes_order == {"series-limits"}
    (check,) = [c for c in verify.run_suites("series-limits", order=3)["series-limits"]
                if c.name.startswith("hirzebruch(y=0)")]
    assert check.name.endswith("to order 3")
