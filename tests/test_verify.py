"""Verification suites: failure details, the series-order plumbing, and the
bundle family, genera and series logs shared within one run."""

import gc
import inspect
import re
from collections import Counter
from fractions import Fraction

import pytest

from hirzebruch import bundles
from hirzebruch import spaces as sp
from hirzebruch import verify
from hirzebruch.rings import LaurentY
from hirzebruch.transforms import csm_arrangement, mhc_y

FAMILY_SUITES = ["multiplicativity", "updown", "integrality"]


class TestChDifference:
    def test_names_the_first_differing_degree_and_monomial(self):
        p2 = sp.projective(2)
        want = mhc_y(p2)
        got = want + p2.monomial((2,), LaurentY({1: 3}))
        assert got.component(0) == want.component(0) and got != want
        detail = verify.ch_difference(got, want)
        assert detail.startswith("ch differs first in degree 2 at h^2: ")
        assert f"{got.coeff((2,))} vs {want.coeff((2,))}" in detail

    def test_lowest_degree_wins(self):
        p1xp1 = sp.product(sp.projective(1), sp.projective(1))
        want = mhc_y(p1xp1)
        extra = p1xp1.monomial((1, 1)) + p1xp1.monomial((0, 1), 2)
        got = want + extra
        assert verify.ch_difference(got, want).startswith("ch differs first in degree 1 at h2: ")

    def test_equal_classes_have_no_detail(self):
        c = mhc_y(sp.projective(2))
        assert verify.ch_difference(c, c * 1) == ""


def skewed(fn):
    """``fn`` with y*g added to the Chern character of its K-class result,
    for the first generator g of the space."""
    def wrapper(*args):
        k = fn(*args)
        return k + k.space.gen_class(0) * LaurentY({1: 1})
    return wrapper


WHERE = re.compile(r"^(ch differs first in degree \d+|ledger differs first in dimension \d+) "
                   r"at [a-z0-9^*]+: .+ vs .+$")


class TestFailureDetails:
    def test_duality_names_where_the_classes_differ(self, monkeypatch):
        monkeypatch.setattr(verify, "k_dual", skewed(verify.k_dual))
        checks = verify.suite_duality()
        failed = [c for c in checks if not c.ok]
        assert len(failed) == 9 and checks[0].ok
        for c in failed:
            assert WHERE.match(c.detail), (c.name, c.detail)
        assert failed[0].detail.startswith("ch differs first in degree 1 at h: ")
        assert failed[2].detail.startswith("ledger differs first in dimension 0 at h: ")

    def test_vrr_along_the_identity_names_where_the_classes_differ(self, monkeypatch):
        monkeypatch.setattr(verify, "pullback_smooth", skewed(verify.pullback_smooth))
        (check,) = [c for c in verify.suite_vrr() if c.name == "VRR along the identity"]
        assert not check.ok
        assert check.detail.startswith("ch differs first in degree 1 at h: ")
        assert WHERE.match(check.detail), check.detail


def test_only_series_limits_takes_an_order():
    takes_order = {name for name, suite in verify.SUITES.items()
                   if "order" in inspect.signature(suite).parameters}
    assert takes_order == {"series-limits"}
    (check,) = [c for c in verify.run_suites("series-limits", order=3)["series-limits"]
                if c.name.startswith("hirzebruch(y=0)")]
    assert check.name.endswith("to order 3")


class TestHomDifference:
    def test_names_the_first_differing_dimension_and_monomial(self):
        want = csm_arrangement(2, 1)
        got = want + want.space.monomial((1,), 5)  # 5 more on the dimension-1 cycle h
        assert verify.hom_difference(got, want) == "ledger differs first in dimension 1 at h: 7 vs 2"

    def test_a_missing_entry_reads_as_zero(self):
        want = csm_arrangement(2, 1)
        got = want - want.component(want.space.dim)  # no dimension-0 part
        assert verify.hom_difference(got, want) == "ledger differs first in dimension 0 at h^2: 0 vs 1"

    def test_equal_ledgers_have_no_detail(self):
        c = csm_arrangement(3, 2)
        assert verify.hom_difference(c, c * Fraction(1)) == ""


def counted(monkeypatch, owner, name):
    """The arguments of every call to ``owner.name`` while the test runs."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.fixture
def built(monkeypatch):
    """The arguments of every ``spaces.projective_bundle`` call in the test."""
    return counted(monkeypatch, sp, "projective_bundle")


class TestBundleFamily:
    def test_built_once_per_run(self, built):
        verify.run_suites(FAMILY_SUITES)
        assert len(built) == 238
        built.clear()
        verify.run_suites(FAMILY_SUITES)
        assert len(built) == 238

    def test_not_built_for_other_suites(self, built):
        verify.run_suites(["ghrr", "duality"])
        assert built == []

    @pytest.fixture(scope="class")
    def in_all(self):
        return verify.run_suites("all")

    @pytest.fixture(scope="class")
    def reversed_run(self):
        return verify.run_suites(FAMILY_SUITES[::-1])

    @pytest.mark.parametrize("name", FAMILY_SUITES)
    def test_same_checks_alone_in_all_and_reversed(self, name, in_all, reversed_run):
        alone = [c.as_tuple() for c in verify.SUITES[name]()]
        assert alone == [c.as_tuple() for c in in_all[name]]
        assert alone == [c.as_tuple() for c in reversed_run[name]]
        assert all(status == "pass" for _, status, _ in alone)

    def test_integrality_alone_after_multiplicativity_and_in_all(self, in_all):
        alone = [c.as_tuple() for c in verify.run_suites("integrality")["integrality"]]
        after = verify.run_suites(["multiplicativity", "integrality"])["integrality"]
        assert alone == [c.as_tuple() for c in after]
        assert alone == [c.as_tuple() for c in in_all["integrality"]]
        assert alone == [("all 258 computed genera lie in Z[y]", "pass", "")]


class TestSharedGenera:
    def test_integrality_reads_the_genera_kept_on_the_family(self, monkeypatch):
        # a genus is one multiply in a degree on its model; models of an
        # earlier run live on in reference cycles (model -> _classes -> class
        # -> model) until collected, and would lend it their kept genera
        calls = counted(monkeypatch, sp.CohClass, "multiply")

        def pairings(names):
            calls.clear()  # the classes of the last run, which hold its models
            gc.collect()
            results = verify.run_suites(names)
            assert verify.all_passed(results)
            return sum(1 for c, _, *degree in calls if degree and c.space.base is not None)

        alone = pairings(["multiplicativity"])  # 154 in a fresh process
        assert alone and pairings(["multiplicativity", "integrality"]) == alone

    def test_integrality_alone_computes_every_genus(self, monkeypatch):
        calls = counted(monkeypatch, verify, "chi_y_genus")
        verify.run_suites("integrality")
        assert len(calls) == 258


class TestSeriesLog:
    def test_one_log_per_series_object(self, monkeypatch, fresh_series):
        # a built-in series grows its kind's one log in place, so over a
        # registry run each log coefficient of each kind is computed once
        grown = []
        real = bundles._series_log

        def wrapper(a, order, out):
            grown.append((id(out), range(len(out), order + 1)))
            return real(a, order, out)

        monkeypatch.setattr(bundles, "_series_log", wrapper)
        assert verify.all_passed(verify.run_suites("all"))
        computed = Counter((log, k) for log, ks in grown for k in ks)
        assert computed and max(computed.values()) == 1
        assert sorted(computed) == sorted((id(log), k) for _, log in fresh_series.values()
                                          for k in range(1, len(log)))

    def test_a_patched_todd_series_gets_its_own_log(self, monkeypatch):
        # the series of the poisoned-Todd CLI test, one object per order
        real = bundles.genus_series.__wrapped__
        made = {}

        def poisoned(kind, order):
            if (kind, order) not in made:
                series = real(kind, order)
                if kind == "todd":
                    coeffs = list(series.coeffs)
                    coeffs[1] = coeffs[1] + LaurentY({0: 1})
                    series = bundles.ChernRootSeries(kind, coeffs, order)
                made[kind, order] = series
            return made[kind, order]

        monkeypatch.setattr(bundles, "genus_series", poisoned)
        logs = counted(monkeypatch, bundles, "_series_log")
        results = verify.run_suites("ghrr")
        assert sorted(made) == [("todd", n) for n in range(1, 5)]
        assert Counter((tuple(a), order) for a, order, _ in logs) == Counter(
            (s.coeffs, s.order) for s in made.values())
        assert not verify.all_passed(results)
