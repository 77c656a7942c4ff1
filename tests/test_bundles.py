"""Genus series, splitting-principle engine, lambda classes, K-duality."""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_bundles as ref
from hirzebruch import bundles
from hirzebruch import spaces as sp
from hirzebruch.bundles import (
    _elementary_from_power_sums,
    apply_series,
    chern_character,
    class_exp,
    genus_series,
    k_dual,
    lambda_y,
    power_sums,
)
from hirzebruch.errors import InvalidParameter
from hirzebruch.rings import LaurentY, RationalFunctionY, render_y
from hirzebruch.spaces import CohClass
from hirzebruch.transforms import chi_y_genus, mhc_y, pullback_smooth, pushforward
from hirzebruch.verify import bundle_family
from test_spaces import (
    FRACTIONAL_DOCUMENT,
    KERNEL_MODELS,
    SURPLUS_DOCUMENT,
    classes_on,
    fresh,
    model_id,
)


class TestBundleCombine:
    def test_dual_of_line_bundle(self):
        p1 = sp.projective(1)
        V = sp.line_bundle(p1, 2).dual()
        assert V.rank == 1
        assert V.total_chern == p1.one() - 2 * p1.gen_class(0)

    def test_euler_sequence_chern(self):
        # three copies of O(1) minus O on P^2 carries the tangent Chern class
        p2 = sp.projective(2)
        triple = sp.sum_of_line_bundles(p2, [1, 1, 1])
        assert triple.rank == 3
        assert triple.total_chern == p2.tangent_chern
        assert sp.BundleClass(2, triple.total_chern) == p2.tangent_bundle()


class TestGenusSeries:
    def test_todd_low_order(self):
        td = genus_series("todd", 2)
        assert [render_y(c) for c in td.coeffs] == ["1", "1/2", "1/12"]

    def test_l_series_low_order(self):
        l = genus_series("lclass", 2)
        assert [render_y(c) for c in l.coeffs] == ["1", "0", "1/3"]

    def test_interpolating_series_order_one(self):
        hz = genus_series("hirzebruch", 1)
        assert hz.coeffs[1] == LaurentY({0: Fraction(1, 2), 1: Fraction(-1, 2)})

    def test_specializations_to_order_eight(self):
        hz = genus_series("hirzebruch", 8)
        for value, kind in ((-1, "chern"), (0, "todd"), (1, "lclass")):
            want = genus_series(kind, 8)
            assert hz.at_y(value) == list(want.coeffs), kind

    def test_l_series_is_even(self):
        l = genus_series("lclass", 8)
        assert all(l.coeffs[j].is_zero() for j in range(1, 9, 2))


KINDS = ("chern", "todd", "lclass", "hirzebruch")
ORDERS = {"ascending": list(range(1, 17)), "descending": list(range(16, 0, -1)),
          "shuffled": random.Random(15).sample(range(1, 17), 16)}


@lru_cache(maxsize=None)
def reference_series(kind, order):
    """Coefficients and log of a built-in series, expanded from scratch."""
    coeffs = ref.genus_series_coeffs(kind, order)
    return tuple(coeffs), tuple(ref.series_log(coeffs, order))


class TestSeriesExpansion:
    """Every series object is a prefix of one in-place expansion per kind,
    whatever order the orders are asked in."""

    @pytest.mark.parametrize("orders", ORDERS.values(), ids=ORDERS)
    def test_coefficients_and_logs_match_the_reference(self, fresh_series, orders):
        for order in orders:
            for kind in KINDS:
                series = genus_series(kind, order)
                coeffs, log = reference_series(kind, order)
                assert series.coeffs == coeffs, (kind, order)
                assert series.log() == log, (kind, order)
        assert sorted(fresh_series) == sorted(KINDS)
        assert all(len(c) == len(log) == 17 for c, log in fresh_series.values())

    @pytest.mark.parametrize("orders", ORDERS.values(), ids=ORDERS)
    def test_logs_asked_after_every_order(self, fresh_series, orders):
        made = [genus_series(kind, order) for order in orders for kind in KINDS]
        for series in reversed(made):
            assert series.log() == reference_series(series.kind, series.order)[1]

    def test_log_grows_only_when_asked(self, fresh_series):
        genus_series("todd", 12)
        assert len(fresh_series["todd"][1]) == 1
        genus_series("todd", 5).log()
        assert [len(part) for part in fresh_series["todd"]] == [13, 6]

    def test_unknown_kind_and_order(self):
        with pytest.raises(InvalidParameter, match="unknown genus series kind"):
            genus_series("signature", 4)
        with pytest.raises(InvalidParameter, match="order must be >= 1"):
            genus_series("todd", 0)


class TestApplySeries:
    def test_chern_series_recovers_total_chern(self):
        for space in (sp.projective(2), sp.projective(3), sp.hypersurface(3, 2)):
            got = apply_series(genus_series("chern", space.dim), space.tangent_bundle())
            assert got == space.tangent_chern, space.name

    def test_todd_of_projective_plane(self):
        p2 = sp.projective(2)
        h = p2.gen_class(0)
        td = apply_series(genus_series("todd", 2), p2.tangent_bundle())
        assert td == p2.one() + h * Fraction(3, 2) + h * h
        assert p2.integrate(td.component(2)) == 1

    def test_interpolating_class_of_line(self):
        p1 = sp.projective(1)
        got = apply_series(genus_series("hirzebruch", 1), p1.tangent_bundle())
        want = p1.one() + p1.gen_class(0) * LaurentY({0: 1, 1: -1})
        assert got == want

    @pytest.mark.parametrize("kind", ["chern", "todd", "lclass", "hirzebruch"])
    def test_multiplicative_over_whitney_sum(self, kind):
        p3 = sp.projective(3)
        s = genus_series(kind, 3)
        a = sp.sum_of_line_bundles(p3, [1, -2])
        b = sp.sum_of_line_bundles(p3, [3])
        assert apply_series(s, a + b) == apply_series(s, a) * apply_series(s, b)

    def test_power_sums_additive(self):
        p3 = sp.projective(3)
        a = sp.sum_of_line_bundles(p3, [1, 2])
        b = sp.sum_of_line_bundles(p3, [-1])
        pa, pb, ps = power_sums(a), power_sums(b), power_sums(a + b)
        for x, y, z in zip(pa, pb, ps):
            assert x + y == z


class TestLambda:
    def test_trivial_bundle(self):
        p2 = sp.projective(2)
        lam = lambda_y(sp.trivial_bundle(p2, 3))
        one_y = LaurentY({0: 1, 1: 1})
        assert lam.component(0) == one_y**3
        assert lam == p2.one() * (one_y**3)

    def test_cotangent_of_line(self):
        p1 = sp.projective(1)
        lam = lambda_y(p1.tangent_bundle().dual())
        h = p1.gen_class(0)
        # [O] + y [O(-2)]: character 1 + y(1 - 2h)
        assert lam.component(0) == LaurentY({0: 1, 1: 1})
        assert lam == p1.one() * LaurentY({0: 1, 1: 1}) - h * LaurentY({1: 2})

    def test_toric_log_cotangent(self):
        arr = sp.with_arrangement(sp.projective(2), 3)
        lam = lambda_y(arr.log_cotangent())
        one_y = LaurentY({0: 1, 1: 1})
        assert lam == arr.one() * (one_y**2)

    def test_multiplicative_character(self):
        p2 = sp.projective(2)
        a = sp.sum_of_line_bundles(p2, [1])
        b = sp.sum_of_line_bundles(p2, [0, -1])
        assert lambda_y(a + b) == lambda_y(a) * lambda_y(b)

    def test_coefficients_stay_polynomial_in_y(self):
        tot = sp.projective_bundle(sp.projective(2), sp.sum_of_line_bundles(sp.projective(2), [0, 1, 3]))
        lam = lambda_y(tot.tangent_bundle().dual())
        assert isinstance(lam.coeff(tot._zero_exp), LaurentY)
        for _, v in lam.items():
            assert isinstance(v, LaurentY)
            assert all(e >= 0 for e, _ in v.items())


class TestKDual:
    def test_structure_sheaf_of_line(self):
        p1 = sp.projective(1)
        got = k_dual(p1.one())
        h = p1.gen_class(0)
        # -(1 - 2h) is the character of -[O(-2)]
        assert got.component(0) == LaurentY({0: -1})
        assert got == -(p1.one() - 2 * h)

    def test_scales_the_class_of_the_line(self):
        p1 = sp.projective(1)
        c = mhc_y(p1)
        assert k_dual(c) == c * LaurentY({-1: -1})

    def test_point_is_plain_y_inversion(self):
        pt = sp.point()
        c = pt.one() * LaurentY({0: 1, 1: 3})
        got = k_dual(c)
        assert got.component(0) == LaurentY({0: 1, -1: 3})

    @pytest.mark.parametrize("space", [sp.projective(1), sp.projective(2),
                                       sp.hypersurface(3, 2)])
    def test_involution(self, space):
        c = mhc_y(space)
        assert k_dual(k_dual(c)) == c


# ---------------------------------------------------------------------------
# each caller of the multiply-accumulate kernel against the loop it replaced


KERNEL_SPACES = [sp.projective(n) for n in range(1, 7)] + [
    sp.product(*[sp.projective(1)] * 3), sp.hypersurface(3, 4),
    sp.with_arrangement(sp.projective(3), 2), sp.from_document(FRACTIONAL_DOCUMENT)]


def _bundles(space):
    out = [space.tangent_bundle(), space.tangent_bundle().dual(),
           sp.sum_of_line_bundles(space, [2, -1])]
    if space.divisors is not None:
        out.append(space.log_cotangent())
    return out


def _check_newton_and_characters(space):
    for V in _bundles(space):
        p = power_sums(V)
        assert p == ref.power_sums(V)
        assert chern_character(V) == ref.chern_character(V)
        assert (_elementary_from_power_sums(space, p, space.dim)
                == ref._elementary_from_power_sums(space, p, space.dim))
        lam = lambda_y(V)
        assert lam == ref.lambda_y(V)
        assert k_dual(lam) == ref.k_dual(lam)


def _check_series_and_exp(space):
    for kind in ("chern", "todd", "lclass", "hirzebruch"):
        series = genus_series(kind, space.dim)
        for V in _bundles(space):
            assert apply_series(series, V) == ref.apply_series(series, V), kind
    root = space.canonical_chern_root()
    for X in (root, root * Fraction(-2, 3) + root * root * LaurentY({-1: 1, 2: 5}),
              root * RationalFunctionY(LaurentY.y(), 2)):
        assert class_exp(X) == ref.class_exp(X)


class TestKernelCallers:
    """The kernel gives every converted caller the class its loop of
    separately normalized sums and products gave."""

    @pytest.mark.parametrize("space", KERNEL_SPACES, ids=model_id)
    def test_newton_identities_and_characters(self, space):
        _check_newton_and_characters(space)

    @pytest.mark.parametrize("space", KERNEL_SPACES, ids=model_id)
    def test_genus_series_and_exp(self, space):
        _check_series_and_exp(space)

    def test_on_the_bundle_family(self):
        members = [tot for _, ms in bundle_family().values() for _, _, tot in ms]
        assert len(members) == 238
        for tot in members[::3]:
            _check_newton_and_characters(tot)
            _check_series_and_exp(tot)


class TestGradedRecurrence:
    """exp and (1+x)^a by the one graded recurrence against the repeated
    multiplies they replaced, on random classes without a constant term."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_exp_and_powers_match_repeated_multiplies(self, data):
        space = data.draw(st.sampled_from(KERNEL_MODELS))
        c = data.draw(classes_on(space))
        x = c - c.component(0)
        assert class_exp(x) == ref.class_exp(x)
        for a in range(-3, 5):
            want = (space.one() + x) ** a if a >= 0 else ref._inverse_one_plus(x) ** -a
            assert sp._one_plus_power(x, a) == want, a

    @pytest.mark.parametrize("space", KERNEL_MODELS, ids=model_id)
    def test_a_constant_term_is_refused(self, space):
        for x in (space.one() + space.gen_class(0), space.constant(Fraction(-1, 2))):
            with pytest.raises(InvalidParameter, match="constant term"):
                class_exp(x)
            with pytest.raises(InvalidParameter, match="constant term"):
                sp._one_plus_power(x, -1)


# ---------------------------------------------------------------------------
# lambda_y through the reduced roots e^x - 1 against the route over all rank
# Adams operations


def _same_lambda(V):
    got = lambda_y(V)
    assert got == ref.lambda_y_adams(V)
    assert got.component(0) == LaurentY({0: 1, 1: 1}) ** V.rank  # the rank of the class
    return got


LADDER_MODELS = [sp.projective(n) for n in range(4, 21)] + [
    sp.product(*[sp.projective(1)] * 7),
    sp.projective_bundle(sp.projective(3), sp.sum_of_line_bundles(sp.projective(3), [0, 1, 2, 3])),
    sp.hypersurface(4, 3)]


class TestReducedRootLambda:
    """Newton's identities on the reduced roots, stopped at min(rank, dim),
    give the class that Newton's identities on all rank Adams operations gave."""

    def test_on_the_bundle_family(self):
        seen = 0
        for _, members in bundle_family().values():
            for _, E, tot in members:
                for V in (tot.tangent_bundle(), tot.tangent_bundle().dual(), E, E.dual()):
                    _same_lambda(V)
                    seen += 1
        assert seen == 952

    @pytest.mark.parametrize("space", KERNEL_MODELS, ids=model_id)
    def test_on_the_kernel_models(self, space):
        for V in _bundles(space) + [sp.sum_of_line_bundles(space, [2, -1, 3])]:
            _same_lambda(V)

    @pytest.mark.parametrize("space", LADDER_MODELS, ids=lambda m: m.name)
    def test_on_the_size_ladder(self, space):
        for V in _bundles(space):
            _same_lambda(V)

    def test_log_cotangent_of_an_arrangement(self):
        _same_lambda(sp.with_arrangement(sp.projective(3), 3).log_cotangent())
        toric = sp.with_arrangement(sp.projective(3), 4)
        lam = _same_lambda(toric.log_cotangent())
        assert lam == toric.one() * LaurentY({0: 1, 1: 1}) ** 3

    def test_rank_zero(self):
        p2 = sp.projective(2)
        for V in (sp.trivial_bundle(p2, 0), sp.BundleClass(0, p2.one() + 2 * p2.gen_class(0))):
            assert _same_lambda(V) == p2.one()

    def test_rank_above_the_dimension(self):
        # three line bundles on P^1: prod of 1 + y(1 + a h) is (1+y)^3 + y (1+y)^2 (a+b+c) h
        p1 = sp.projective(1)
        lam = _same_lambda(sp.sum_of_line_bundles(p1, [2, -1, 5]))
        one_y = LaurentY({0: 1, 1: 1})
        assert lam == p1.one() * one_y**3 + p1.gen_class(0) * (LaurentY.y() * one_y**2 * 6)

    def test_relative_cotangent_of_a_smooth_pullback(self):
        tot = KERNEL_MODELS[5]
        prod = sp.product(sp.projective(1), sp.projective(2), sp.hypersurface(3, 4))
        maps = [sp.bundle_projection(tot)] + [sp.product_projection(prod, i) for i in range(3)]
        for m in maps:
            lam = _same_lambda(sp.relative_tangent(m).dual())
            one = m.target.one()
            assert pullback_smooth(m, one) == lam


# ---------------------------------------------------------------------------
# the Chern character a bundle keeps


def bundles_on(space):
    """Bundle classes on ``space``: a rank and a total Chern class 1 + terms
    of positive degree with small integer coefficients."""
    mono = st.tuples(*[st.integers(0, space.dim)] * len(space.gens))
    terms = st.lists(st.tuples(mono, st.integers(-3, 3)), max_size=4)
    return st.tuples(st.integers(0, 4), terms).map(lambda t: sp.BundleClass(
        t[0], space.one() + CohClass(space, {e: Fraction(c) for e, c in t[1] if sum(e)})))


def counted_power_sums(monkeypatch):
    """The bundle of every ``power_sums`` call while the test runs."""
    seen = []
    real = bundles.power_sums

    def wrapper(V):
        seen.append(V)
        return real(V)

    monkeypatch.setattr(bundles, "power_sums", wrapper)
    return seen


KEPT_SPACES = KERNEL_SPACES + [sp.from_document(SURPLUS_DOCUMENT),
                               sp.projective_bundle(sp.projective(2), sp.sum_of_line_bundles(
                                   sp.projective(2), [0, 2]))]


class TestKeptChernCharacter:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(KEPT_SPACES).flatmap(bundles_on))
    def test_dual_reads_the_original(self, V):
        dual = V.dual()
        assert chern_character(dual) == chern_character(V).adams(-1)
        # against Newton's identities run on the dual's own Chern classes
        assert chern_character(dual) == ref.chern_character(dual)
        assert chern_character(V) is chern_character(V)

    @pytest.mark.parametrize("twists", [(0, 1), (-2, 3), (0, 1, 3), (-1, -1, 2)])
    def test_relative_tangent_reads_the_tangent_bundles(self, twists):
        base = sp.projective(2)
        tot = fresh(lambda: sp.projective_bundle(base, sp.sum_of_line_bundles(base, twists)))
        rel = tot._classes["relative_tangent"]
        assert chern_character(rel) == ref.chern_character(rel)

    def test_tangent_bundle_is_kept(self):
        p3 = sp.projective(3)
        assert p3.tangent_bundle() is p3.tangent_bundle()
        assert chern_character(p3.tangent_bundle()) == ref.chern_character(p3.tangent_bundle())

    def test_genus_runs_newton_once(self, monkeypatch):
        # lambda_y(T*) and td(T) read one kept ch(T); a quartic surface's
        # tangent bundle has no splitting, so that ch takes the Newton route
        k3 = fresh(lambda: sp.hypersurface(3, 4))
        seen = counted_power_sums(monkeypatch)
        assert chi_y_genus(k3) == LaurentY({0: 2, 1: -20, 2: 2})
        assert seen == [k3.tangent_bundle()] and seen[0] is k3.tangent_bundle()

    def test_projective_genus_runs_no_newton(self, monkeypatch):
        # T P^4 = 5 O(1) - O: its ch and lambda_y are read in closed form
        p4 = fresh(lambda: sp.projective(4))
        seen = counted_power_sums(monkeypatch)
        assert chi_y_genus(p4) == LaurentY({p: (-1) ** p for p in range(5)})
        assert seen == []

    def test_second_pushforward_runs_no_newton(self, monkeypatch):
        base = sp.projective(2)
        tot = fresh(lambda: sp.projective_bundle(base, sp.sum_of_line_bundles(base, [0, 1, 3])))
        pi = sp.bundle_projection(tot)
        seen = counted_power_sums(monkeypatch)
        first = pushforward(pi, tot.one())
        # ch(T_rel) is ch(T) less the lifted ch(T_base): at most one run on each
        assert max(Counter(map(id, seen)).values()) == 1
        assert all(V is tot.tangent_bundle() or V is base.tangent_bundle() for V in seen)
        del seen[:]
        assert pushforward(pi, tot.one()) == first == base.constant(1)
        assert pushforward(pi, mhc_y(tot)) == mhc_y(base) * LaurentY({0: 1, 1: -1, 2: 1})
        assert seen == []

    @pytest.mark.parametrize("axis", [0, 1])
    def test_product_projection_reads_the_factors(self, axis):
        prod = sp.product(sp.projective(1), sp.projective(2), sp.projective(1))
        rel = sp.relative_tangent(sp.product_projection(prod, axis))
        assert chern_character(rel) == ref.chern_character(rel)

    def test_pullback_along_a_product_projection_runs_no_newton(self, monkeypatch):
        p1, p2 = sp.projective(1), sp.projective(2)
        prod = sp.product(p1, p2)
        pi = sp.product_projection(prod, 0)
        c = mhc_y(p1)
        chern_character(p2.tangent_bundle())
        seen = counted_power_sums(monkeypatch)
        # T_rel is pr_2^* T P2: its ch is the pulled-back kept ch(T P2)
        pulled = [pullback_smooth(pi, c) for _ in range(3)]
        assert seen == []
        assert pulled[0] == pulled[2] == mhc_y(prod)

    def test_relative_tangent_along_a_projection_is_kept(self, monkeypatch):
        # its Chern class is an exterior product of 2^(k-1) terms: built once per axis
        prod = fresh(lambda: sp.product(*[sp.projective(1)] * 4))
        calls = []
        real = sp.exterior_product
        monkeypatch.setattr(sp, "exterior_product",
                            lambda *c, space=None: calls.append(space) or real(*c, space=space))
        rel = sp.relative_tangent(sp.product_projection(prod, 1))
        assert sp.relative_tangent(sp.product_projection(prod, 1)) is rel
        assert calls == [prod]
        assert sp.relative_tangent(sp.product_projection(prod, 2)) is not rel
        assert rel.rank == 3 and rel.total_chern == real(*(
            f.one() if i == 1 else f.tangent_chern for i, f in enumerate(prod.factors)),
            space=prod)


# ---------------------------------------------------------------------------
# bundles with a splitting N L + O^(rank - N): closed form against Newton


def _split_bundles():
    out = []
    for n in range(13):
        T = fresh(lambda: sp.projective(n)).tangent_bundle()
        out += [(f"TP{n}", T), (f"T*P{n}", T.dual())]
    for n in range(7):
        for k in range(n + 2):
            out.append((f"log-Arr({n},{k})",
                        fresh(lambda: sp.with_arrangement(sp.projective(n), k)).log_cotangent()))
    return out


SPLIT_BUNDLES = _split_bundles()


class TestSplitBundles:
    @pytest.mark.parametrize("V", [V for _, V in SPLIT_BUNDLES], ids=[i for i, _ in SPLIT_BUNDLES])
    def test_closed_form_against_newton(self, V):
        N, c1 = V.splitting
        assert (V.space.one() + c1) ** N == V.total_chern
        plain = sp.BundleClass(V.rank, V.total_chern)  # no splitting: the Newton route
        assert plain.splitting is None
        assert chern_character(V) == chern_character(plain)
        assert lambda_y(V) == lambda_y(plain)

    def test_kinds_of_split_bundles(self):
        p3 = sp.projective(3)
        h = p3.gen_class(0)
        assert p3.tangent_bundle().splitting == (4, h)
        assert p3.tangent_bundle().dual().splitting == (4, -h)
        arr = sp.with_arrangement(p3, 2)
        assert arr.log_cotangent().splitting == (2, -arr.gen_class(0))
        # sums, line bundles and other models take the Newton route
        assert sp.line_bundle(p3, 1).splitting is None
        assert (p3.tangent_bundle() + sp.trivial_bundle(p3, 1)).splitting is None
        assert sp.hypersurface(3, 4).tangent_bundle().splitting is None
        assert sp.product(p3, p3).tangent_bundle().splitting is None


class TestCanonicalRoot:
    @pytest.mark.parametrize("build", [
        lambda: sp.product(sp.projective(1), sp.projective(2)),
        lambda: sp.product(sp.hypersurface(3, 4), sp.projective(1)),
    ], ids=["P1xP2", "Hyp(3,4)xP1"])
    def test_product_root_reads_the_factors(self, build):
        X = fresh(build)
        root = X.canonical_chern_root()
        assert "tangent" not in X._classes  # TX is not built
        assert root == -X.tangent_chern.component(1)
        assert X._classes["tangent"].total_chern is X.tangent_chern

    def test_k_dual_on_a_large_product_builds_no_tangent_class(self, time_limit):
        # c(TX) has 4,096 terms, and so do k and ch(omega): omega multiplies in by factor
        X = fresh(lambda: sp.product(*[sp.projective(1)] * 12))
        with time_limit(10):
            c = mhc_y(X)
            assert k_dual(c) == c * LaurentY({-12: 1})
        assert "tangent" not in X._classes


class TestRefusals:
    @pytest.mark.parametrize("call, reason", [
        (lambda: bundles.ChernRootSeries("custom", [2, 1], 1), "constant term 1"),
        (lambda: apply_series(genus_series("todd", 1), sp.projective(2).tangent_bundle()),
         "below the space dimension"),
        (lambda: lambda_y(sp.BundleClass(-1, sp.projective(2).one())), "non-virtual"),
    ], ids=["series-constant-term", "series-order", "lambda-negative-rank"])
    def test_refusal(self, call, reason):
        with pytest.raises(InvalidParameter, match=reason):
            call()
