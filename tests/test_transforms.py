"""The transformation pipeline: K-classes, homology ledgers, functorialities."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

import reference_bundles as ref
from hirzebruch import bundles, transforms, verify
from hirzebruch import motivic as mo
from hirzebruch import spaces as sp
from hirzebruch.bundles import apply_series, chern_character, k_dual, lambda_y
from hirzebruch.errors import InvalidParameter, MissingLogStructure, NotPolynomial, UnsupportedMap
from hirzebruch.rings import LaurentY, RationalFunctionY
from hirzebruch.spaces import BundleClass, CohClass
from hirzebruch.transforms import (
    VariationData,
    chi_y_genus,
    csm_arrangement,
    degree,
    exterior,
    homology_dual,
    mhc_cohomological,
    mhc_y,
    mht,
    pullback_smooth,
    pushforward,
    specialize_minus_one,
)

from test_spaces import FRACTIONAL_DOCUMENT, KERNEL_MODELS, SURPLUS_DOCUMENT, fresh, model_id

ONE_Y = LaurentY({0: 1, 1: 1})


class TestMhcCohomological:
    def test_trivial_variation_is_unit(self):
        p2 = sp.projective(2)
        got = mhc_cohomological(p2, VariationData.trivial(p2))
        assert got == p2.one()

    def test_tate_piece(self):
        p1 = sp.projective(1)
        got = mhc_cohomological(p1, VariationData.tate(p1, 1))
        assert got.component(0) == LaurentY({1: -1})
        assert got == p1.one() * LaurentY({1: -1})

    @pytest.mark.parametrize("p, sign", [(-1, -1), (-2, 1), (-3, -1)])
    def test_tate_piece_in_negative_degree(self, p, sign):
        # (-1) ** p is a float for p < 0, which a coefficient must not be
        p1 = sp.projective(1)
        data = VariationData.tate(p1, p)
        assert mhc_cohomological(p1, data) == p1.one() * LaurentY({p: sign})
        assert mhc_y(p1, "closed", data) == mhc_y(p1, "closed") * LaurentY({p: sign})
        assert chi_y_genus(p1, "closed", data) == LaurentY({p: sign, p + 1: -sign})

    @pytest.mark.parametrize("p", [1.5, "1", 1.0])
    def test_hodge_degree_is_an_int(self, p):
        with pytest.raises(InvalidParameter, match="Hodge degree"):
            VariationData([(p, sp.trivial_bundle(sp.projective(1), 1))])

    def test_two_pieces_on_line(self):
        # by definition the sum of (-y)^p [piece_p]
        p1 = sp.projective(1)
        h = p1.gen_class(0)
        data = VariationData([(0, sp.trivial_bundle(p1, 1)), (1, sp.line_bundle(p1, -2))])
        got = mhc_cohomological(p1, data)
        assert got.component(0) == LaurentY({0: 1, 1: -1})
        assert got == p1.one() * LaurentY({0: 1, 1: -1}) + h * LaurentY({1: 2})


class TestMhcY:
    def test_closed_on_line(self):
        p1 = sp.projective(1)
        got = mhc_y(p1, "closed")
        h = p1.gen_class(0)
        assert got.component(0) == ONE_Y
        assert got == p1.one() * ONE_Y - h * LaurentY({1: 2})

    def test_open_complement_of_two_points_in_line(self):
        gm = sp.with_arrangement(sp.projective(1), 2)
        got = mhc_y(gm, "open_complement")
        assert got == gm.one() * ONE_Y

    def test_open_complement_needs_log_structure(self):
        with pytest.raises(MissingLogStructure):
            mhc_y(sp.projective(1), "open_complement")

    def test_twisted_by_tate_on_line(self):
        p1 = sp.projective(1)
        got = mhc_y(p1, "closed", VariationData.tate(p1, 1))
        want = mhc_y(p1, "closed") * LaurentY({1: -1})
        assert got == want
        val = degree(mht(got, normalized=False)).reduce_unit_denominator()
        assert val == LaurentY({1: -1, 2: 1})  # -y(1 - y)

    @pytest.mark.parametrize("space, want", [
        (sp.projective(1), LaurentY({1: -1, 2: 1})),
        (sp.product(sp.projective(1), sp.projective(1)), LaurentY({1: -1, 2: 2, 3: -1})),
    ], ids=["P1", "P1xP1"])
    def test_closed_mode_twists_by_variation_data(self, space, want):
        # -y times the closed genus; with data a product takes the pairing, not its factors
        data = VariationData.tate(space, 1)
        assert chi_y_genus(space, "closed", data) == want
        assert mhc_y(space, "closed", data) == mhc_y(space) * LaurentY({1: -1})
        assert chi_y_genus(space) * LaurentY({1: -1}) == want  # the kept genus is untouched

    @pytest.mark.parametrize("space", [sp.projective(1), sp.product(sp.projective(1),
                                                                     sp.projective(1))],
                             ids=["P1", "P1xP1"])
    @pytest.mark.parametrize("mode", ["twisted", "open"])
    def test_unknown_mode(self, space, mode):
        for data in (None, VariationData.tate(space, 1)):
            for fn in (mhc_y, chi_y_genus):
                with pytest.raises(InvalidParameter, match="unknown mode"):
                    fn(space, mode, data)

    def test_twisted_open_complement(self):
        # a Tate twist over the torus multiplies the genus by -y
        gm = sp.with_arrangement(sp.projective(1), 2)
        tw = mhc_y(gm, "open_complement", VariationData.tate(gm, 1))
        val = degree(mht(tw, normalized=False)).reduce_unit_denominator()
        assert val == LaurentY({1: -1, 2: -1})


def poison_todd(monkeypatch, orders=None):
    """Patch ``bundles.genus_series`` so that the Todd series, at every order
    or only at ``orders``, has its x coefficient raised by 1."""
    real = bundles.genus_series

    def poisoned(kind, order):
        series = real(kind, order)
        if kind == "todd" and (orders is None or order in orders):
            coeffs = list(series.coeffs)
            coeffs[1] = coeffs[1] + LaurentY({0: 1})
            return bundles.ChernRootSeries(kind, coeffs, order)
        return series

    monkeypatch.setattr(bundles, "genus_series", poisoned)


class TestModelMemo:
    def test_genus_follows_a_patched_todd_series(self, monkeypatch):
        p2 = sp.projective(2)
        before = chi_y_genus(p2)
        poison_todd(monkeypatch)
        assert chi_y_genus(p2) != before
        monkeypatch.undo()
        assert chi_y_genus(p2) == before

    def test_product_genus_follows_a_patched_factor_series(self, monkeypatch):
        # a product's Todd class is the exterior product of its factors', so
        # it follows a patch of the series at a factor's order alone
        prod = sp.product(*[sp.projective(1)] * 3)
        before = chi_y_genus(prod)
        poison_todd(monkeypatch, orders=(1,))
        assert chi_y_genus(prod) != before
        monkeypatch.undo()
        assert chi_y_genus(prod) == before

    def test_closed_class_is_unchanged_by_arithmetic(self):
        p2 = sp.projective(2)
        c = mhc_y(p2)
        want = lambda_y(p2.tangent_bundle().dual())
        assert c * 2 != want
        assert k_dual(c) != want
        assert mhc_y(p2) == want
        assert mhc_y(p2) is c

    def test_kept_per_model_instance(self, monkeypatch):
        # one live model per key, so the class is computed once per key
        p1 = sp.projective(1)
        assert sp.projective(1) is p1
        p1._classes.pop("closed", None)
        calls = []
        real = transforms.lambda_y
        monkeypatch.setattr(transforms, "lambda_y", lambda V: calls.append(V) or real(V))
        assert mhc_y(p1) is mhc_y(sp.projective(1)) is mhc_y(sp.product(p1))
        assert len(calls) == 1
        # a product takes its closed and Todd classes as exterior products of
        # its factors' kept classes: no multiply on the product ring, and
        # neither lambda_y nor apply_series runs on the product model
        prod = sp.product(*[p1] * 5)
        prod._products.clear()
        prod._classes.clear()
        real_series = transforms.apply_series
        monkeypatch.setattr(transforms, "apply_series", lambda s, V:
                            calls.append(V) or real_series(s, V))
        assert mhc_y(prod) is mhc_y(prod)
        assert transforms._todd(prod) is transforms._todd(prod)
        assert not prod._products
        assert all(V.space is not prod for V in calls)
        chi_y_genus(prod)  # the product of the factors' genera: no pairing here
        assert not prod._products

    def test_factors_share_one_kept_genus(self, monkeypatch):
        # the closed genus of P1 is kept, so (P1)^5 runs one pairing, on P1
        p1 = sp.projective(1)
        mhc_y(p1)  # the classes it pairs are kept before counting
        transforms._todd(p1)
        p1._classes.pop("genus", None)
        calls = []
        real = CohClass.multiply
        monkeypatch.setattr(CohClass, "multiply", lambda a, b, degree=None:
                            calls.append(a.space) or real(a, b, degree))
        assert chi_y_genus(sp.product(*[p1] * 5)) == LaurentY({0: 1, 1: -1}) ** 5
        assert calls == [p1]
        assert chi_y_genus(p1) is chi_y_genus(p1)
        assert calls == [p1]


def counted_apply_series(monkeypatch):
    """Patch ``transforms.apply_series`` to record the bundle of each call."""
    calls = []
    real = transforms.apply_series
    monkeypatch.setattr(transforms, "apply_series", lambda s, V: calls.append(V) or real(s, V))
    return calls


class TestKeptRelativeTodd:
    """A kept relative tangent bundle keeps td(T_rel) for ``pushforward``."""

    def test_updown_runs_apply_series_once_per_model(self, monkeypatch):
        calls = counted_apply_series(monkeypatch)
        results = fresh(lambda: verify.run_suites(["updown"]))
        assert verify.all_passed(results) and len(results["updown"]) == 238
        assert len(calls) == len({id(V) for V in calls}) == 154

    def test_two_pushes_along_a_product_projection_run_it_once(self, monkeypatch):
        prod = fresh(lambda: sp.product(sp.projective(1), sp.projective(2)))
        k = mhc_y(prod)
        calls = counted_apply_series(monkeypatch)
        pi = sp.product_projection(prod, 0)
        assert pushforward(pi, k) == mhc_y(pi.target) * LaurentY({0: 1, 1: -1, 2: 1})
        assert pushforward(sp.product_projection(prod, 0), prod.one()) == pi.target.one()
        assert len(calls) == 1

    def test_a_patched_series_gives_a_fresh_relative_todd_class(self, monkeypatch):
        base = sp.projective(1)
        tot = fresh(lambda: sp.projective_bundle(base, sp.sum_of_line_bundles(base, [0, 1])))
        pi = sp.bundle_projection(tot)
        rel = sp.relative_tangent(pi)
        before = pushforward(pi, tot.one())
        kept = rel._td[1]
        poison_todd(monkeypatch)
        assert pushforward(pi, tot.one()) != before
        assert rel._td[1] == apply_series(bundles.genus_series("todd", tot.dim), rel) != kept
        monkeypatch.undo()
        assert pushforward(pi, tot.one()) == before and rel._td[1] == kept


class TestMht:
    def test_pole_in_the_chern_character(self):
        # ch = 1 + h/(1+y), td = 1 + h on P1: ch * td = 1 + (2+y)/(1+y) h
        p1 = sp.projective(1)
        h = p1.gen_class(0)
        k = p1.one() + h * RationalFunctionY(LaurentY.one(), 1)
        two_y = LaurentY({0: 2, 1: 1})
        assert mht(k, normalized=False) == CohClass(p1, {
            (0,): RationalFunctionY(LaurentY.one()), (1,): RationalFunctionY(two_y, 1)})
        assert mht(k) == CohClass(p1, {
            (0,): RationalFunctionY(LaurentY.one(), 1), (1,): RationalFunctionY(two_y, 1)})

    def test_pole_adds_to_the_normalization(self):
        # td(P2) = 1 + 3/2 h + h^2: the h entry of ch * td for ch = 1 + h/(1+y)
        # is (5/2 + 3/2 y)/(1+y), and dimension one adds one more (1+y)
        p2 = sp.projective(2)
        h = p2.gen_class(0)
        k = p2.one() + h * RationalFunctionY(LaurentY.one(), 1)
        num = LaurentY({0: Fraction(5, 2), 1: Fraction(3, 2)})
        assert mht(k, normalized=False).coeff((1,)) == RationalFunctionY(num, 1)
        assert mht(k).coeff((1,)) == RationalFunctionY(num, 2)

    def test_line_normalized_and_unnormalized(self):
        p1 = sp.projective(1)
        c = mhc_y(p1, "closed")
        assert mht(c) == CohClass(p1, {(0,): LaurentY.one(), (1,): LaurentY({0: 1, 1: -1})})
        assert mht(c, normalized=False) == CohClass(
            p1, {(0,): ONE_Y, (1,): LaurentY({0: 1, 1: -1})})

    def test_normalization_matches_chern_root_product(self):
        # the normalized transformation of the closed class equals the
        # interpolating genus series applied to the tangent bundle
        from hirzebruch.bundles import apply_series, genus_series
        # on a product this sets the kept exterior closed class against the
        # tangent class built on first read
        p1, p2 = sp.projective(1), sp.projective(2)
        for space in (p1, p2, sp.projective(3), sp.product(p1, p1), sp.product(p1, p2),
                      sp.product(sp.hypersurface(3, 4), p1),
                      sp.product(sp.projective_bundle(p2, sp.sum_of_line_bundles(p2, [-1, 2])),
                                 p1),
                      sp.product(p1, p1, p1)):
            want = apply_series(genus_series("hirzebruch", max(space.dim, 1)),
                                space.tangent_bundle())
            assert mht(mhc_y(space, "closed")) == want, space.name

    def test_plane_dimension_one_coefficient(self):
        p2 = sp.projective(2)
        got = mht(mhc_y(p2, "closed"))
        val = got.coeff((1,))
        assert val == RationalFunctionY(LaurentY({0: Fraction(3, 2), 1: Fraction(-3, 2)}))

    def test_three_line_arrangement(self):
        arr = sp.with_arrangement(sp.projective(2), 3)
        got = mht(mhc_y(arr, "open_complement"))
        want = CohClass(arr, {
            (0,): LaurentY.one(),
            (1,): ONE_Y * Fraction(3, 2),
            (2,): ONE_Y * ONE_Y,
        })
        assert got == want

    def test_normalized_output_has_no_pole(self):
        for space in (sp.projective(3), sp.hypersurface(3, 4),
                      sp.with_arrangement(sp.projective(3), 2)):
            mode = "open_complement" if space.log is not None else "closed"
            # a coefficient keeps a power of (1+y) in its denominator
            # exactly when a pole at y = -1 remains
            for _, v in mht(mhc_y(space, mode)).items():
                assert isinstance(v, Fraction) or not v._k


class TestDegree:
    def test_plane_genus_and_signature(self):
        chi = chi_y_genus(sp.projective(2))
        assert chi == LaurentY({0: 1, 1: -1, 2: 1})
        assert chi(Fraction(1)) == 1

    def test_quartic_surface(self):
        chi = chi_y_genus(sp.hypersurface(3, 4))
        assert chi == LaurentY({0: 2, 1: -20, 2: 2})
        assert chi(Fraction(-1)) == 24
        assert chi(Fraction(1)) == -16

    def test_classical_hypersurface_genera(self):
        # frozen from the Hodge tables of the named varieties
        cases = [
            ((2, 1), {0: 1, 1: -1}),             # a line in the plane
            ((2, 3), {}),                        # plane cubic: an elliptic curve
            ((3, 3), {0: 1, 1: -7, 2: 1}),       # cubic surface: plane + 6 blowups
            ((4, 3), {0: 1, 1: 4, 2: -4, 3: -1}),    # cubic threefold (b3 = 10)
            ((4, 5), {1: 100, 2: -100}),         # quintic threefold (h21 = 101)
        ]
        for (n, d), coeffs in cases:
            assert chi_y_genus(sp.hypersurface(n, d)) == LaurentY(coeffs), (n, d)
        # quintic Euler number is the classical -200
        assert chi_y_genus(sp.hypersurface(4, 5))(Fraction(-1)) == -200

    def test_open_complement_of_torus(self):
        gm = sp.with_arrangement(sp.projective(1), 2)
        assert chi_y_genus(gm, "open_complement") == ONE_Y

    def test_an_integrated_polynomial_is_a_laurent_polynomial(self):
        # the unnormalized degree of the plane: its (1+y) powers all cancel
        chi = degree(mht(mhc_y(sp.projective(2)), normalized=False))
        assert chi == LaurentY({0: 1, 1: -1, 2: 1})
        assert chi(0) == 1
        assert chi**2 == LaurentY({0: 1, 1: -2, 2: 3, 3: -2, 4: 1})
        assert chi / 2 == LaurentY({0: Fraction(1, 2), 1: Fraction(-1, 2), 2: Fraction(1, 2)})
        assert chi.items() == [(0, 1), (1, -1), (2, 1)]
        assert chi.is_integral_polynomial()


def genus_by_ledger(space, mode="closed", data=None):
    """The genus read off the full unnormalized ledger: the reference route."""
    return degree(mht(mhc_y(space, mode, data), normalized=False)).reduce_unit_denominator()


def two_piece_variation(space):
    return VariationData([(0, sp.trivial_bundle(space, 1)), (1, sp.line_bundle(space, -2))])


GM = sp.with_arrangement(sp.projective(1), 2)
OPEN_SPACES = ([sp.with_arrangement(sp.projective(n), k) for n in range(1, 4)
                for k in range(n + 2)]
               + [sp.product(*[GM] * n) for n in range(1, 4)]
               + [sp.product(GM, sp.with_arrangement(sp.projective(2), 1))])
TWISTED_SPACES = [sp.projective(1), sp.projective(3), sp.hypersurface(3, 4),
                  sp.product(sp.projective(1), sp.projective(2)),
                  sp.projective_bundle(sp.projective(2),
                                       sp.sum_of_line_bundles(sp.projective(2), [0, 1, 3]))]


class TestGenusPairing:
    """chi_y_genus reads the top degree of ch * td through a pairing of
    complementary degrees; the full ledger must give the same value."""

    @staticmethod
    def assert_same(got, want):
        assert isinstance(got, LaurentY) and got == want, (got, want)

    @pytest.mark.parametrize("space", KERNEL_MODELS, ids=model_id)
    def test_closed(self, space):
        self.assert_same(chi_y_genus(space), genus_by_ledger(space))

    @pytest.mark.parametrize("space", OPEN_SPACES, ids=lambda m: m.name)
    def test_open_complement(self, space):
        self.assert_same(chi_y_genus(space, "open_complement"),
                         genus_by_ledger(space, "open_complement"))
        data = two_piece_variation(space)
        self.assert_same(chi_y_genus(space, "open_complement", data),
                         genus_by_ledger(space, "open_complement", data))

    @pytest.mark.parametrize("space", TWISTED_SPACES, ids=lambda m: m.name)
    @pytest.mark.parametrize("variation", ["tate", "two-piece"])
    def test_twisted(self, space, variation):
        data = (VariationData.tate(space, 1) if variation == "tate"
                else two_piece_variation(space))
        self.assert_same(chi_y_genus(space, "closed", data),
                         genus_by_ledger(space, "closed", data))


P1, P2, P3 = sp.projective(1), sp.projective(2), sp.projective(3)
PROJ = sp.projective_bundle(P2, sp.sum_of_line_bundles(P2, [1, -1]))
ARR21, ARR22 = sp.with_arrangement(P2, 1), sp.with_arrangement(P2, 2)
SURPLUS = sp.from_document(SURPLUS_DOCUMENT)  # its rules leave a*b, above its dimension
CLOSED_PRODUCTS = (
    [sp.product(a, b) for a, b in combinations_with_replacement((P1, P2, P3), 2)]
    + [sp.product(sp.hypersurface(3, 4), b) for b in (P1, P2)]
    + [sp.product(PROJ, P1), sp.product(P1, sp.from_document(FRACTIONAL_DOCUMENT))]
    + [sp.product(*[P1] * k) for k in range(3, 6)]
    + [sp.product(SURPLUS, P1), sp.product(P2, SURPLUS), sp.product(SURPLUS, SURPLUS),
       sp.product(sp.projective_bundle(SURPLUS, sp.sum_of_line_bundles(SURPLUS, [0, 1])), P1)])
OPEN_PRODUCTS = [sp.product(GM, GM), sp.product(ARR21, GM), sp.product(ARR22, ARR21),
                 sp.product(GM, GM, GM), sp.product(ARR21, P1), sp.product(P2, GM),
                 sp.product(sp.hypersurface(3, 4), GM)]


class TestExterior:
    def test_k_classes_on_product_of_lines(self):
        p1 = sp.projective(1)
        prod = sp.product(p1, p1)
        assert exterior(mhc_y(p1), mhc_y(p1)) == ref.product_closed_class(prod)

    @pytest.mark.parametrize("space", CLOSED_PRODUCTS + OPEN_PRODUCTS, ids=model_id)
    def test_product_classes_match_the_product_ring(self, space):
        # the exterior products of the factors' classes against lambda_y(T*X),
        # td(TX) and c(TX) computed on the product ring
        assert space.tangent_chern == ref.product_tangent_bundle(space).total_chern
        assert mhc_y(space) == ref.product_closed_class(space)
        assert transforms._todd(space) == ref.product_todd_class(space)

    @pytest.mark.parametrize("space", [sp.product(SURPLUS, P1), sp.product(SURPLUS, SURPLUS)],
                             ids=model_id)
    def test_product_ring_truncates_each_factor_at_its_dimension(self, space):
        # a factor's monomials above its dimension vanish in its ring, so in the product's
        assert space._caps
        assert space.monomial((1, 1) + (0,) * (len(space.gens) - 2)).is_zero()  # a1*b1
        assert apply_series(bundles.genus_series("todd", space.dim),
                            space.tangent_bundle()) == transforms._todd(space)

    def test_projective_bundle_over_a_capped_base_is_the_product(self):
        # P(O + O) over the document is the document times P1: the same
        # exponents, generator for generator, carry the same classes
        tot = sp.projective_bundle(SURPLUS, sp.trivial_bundle(SURPLUS, 2))
        prod = sp.product(SURPLUS, P1)
        for got, want in ((tot.tangent_chern, prod.tangent_chern), (mhc_y(tot), mhc_y(prod)),
                          (transforms._todd(tot), transforms._todd(prod))):
            assert got.items() == want.items()
        assert chi_y_genus(tot) == chi_y_genus(prod)

    @pytest.mark.parametrize("space", OPEN_PRODUCTS, ids=model_id)
    def test_open_classes_match_the_product_ring(self, space):
        assert space.log.log_cotangent == ref.product_log_cotangent(space)
        assert mhc_y(space, "open_complement") == ref.product_open_class(space)

    def test_n_way_product_is_the_binary_product_repeated(self):
        a, b, c = mhc_y(P1), transforms._todd(P2), mhc_y(ARR21, "open_complement")
        assert sp.exterior_product(a, b, c) == exterior(exterior(a, b), c)
        assert sp.exterior_product(a, b, c).space is sp.product(P1, P2, ARR21)

    def test_degrees_multiply(self):
        p1 = sp.projective(1)
        t = mht(mhc_y(sp.product(p1, p1)), normalized=False)
        one_minus_y = LaurentY({0: 1, 1: -1})
        assert degree(t).reduce_unit_denominator() == one_minus_y * one_minus_y

    def test_homology_ledger_side(self):
        p1, p2 = sp.projective(1), sp.projective(2)
        prod = sp.product(p1, p2)
        lhs = exterior(mht(mhc_y(p1), normalized=False), mht(mhc_y(p2), normalized=False))
        assert lhs == mht(mhc_y(prod), normalized=False)

    def test_point_is_a_unit(self):
        p2 = sp.projective(2)
        c = mhc_y(p2)
        assert exterior(sp.point().one(), c) == c
        t = mht(c, normalized=False)
        assert exterior(mht(sp.point().one(), normalized=False), t) == t

    def test_open_complement_classes_commute_with_exterior(self):
        gm = sp.with_arrangement(sp.projective(1), 2)
        arr = sp.with_arrangement(sp.projective(2), 2)
        for a, b in ((gm, gm), (arr, gm)):
            lhs = exterior(mhc_y(a, "open_complement"), mhc_y(b, "open_complement"))
            assert lhs == mhc_y(sp.product(a, b), "open_complement")

    def test_mixed_product_with_empty_boundary_factor(self):
        # Gm x P1: the log-less factor contributes its plain cotangent bundle
        gm = sp.with_arrangement(sp.projective(1), 2)
        mixed = sp.product(gm, sp.projective(1))
        chi = chi_y_genus(mixed, "open_complement")
        assert chi == LaurentY({0: 1, 2: -1})  # (1+y)(1-y)
        compact = (mo.torus() * mo.projective(1)).chi_y()
        assert compact == chi.invert_y() * LaurentY({2: 1})


TWO_ROUTE_CLOSED = ([sp.product(sp.projective(a), sp.projective(b))
                     for a in range(1, 4) for b in range(1, 4)]
                    + [sp.product(sp.hypersurface(3, 4), P1),
                       sp.product(sp.projective_bundle(P2, sp.sum_of_line_bundles(P2, [-1, 2])),
                                  P1),
                       sp.product(P1, P1, P1)])
ARR12 = sp.with_arrangement(P1, 2)
TWO_ROUTE_OPEN = [sp.product(ARR12, ARR21), sp.product(ARR12, P1)]


def product_ring_route(space, mode):
    """K-class and Todd class of a product computed on the product ring, from
    fresh bundles that read none of the classes the factors keep."""
    V = BundleClass(space.dim, space.tangent_chern)
    if mode == "closed":
        k = lambda_y(V.dual())
    else:
        log = space.log.log_cotangent
        k = lambda_y(BundleClass(log.rank, log.total_chern))
    return k, apply_series(bundles.genus_series("todd", space.dim), V)


class TestFirstRead:
    """A product builds its tangent and log-cotangent classes on first read;
    they equal the exterior products built eagerly from the factors."""

    @pytest.mark.parametrize("space", CLOSED_PRODUCTS + TWO_ROUTE_OPEN, ids=model_id)
    def test_lazy_classes_match_the_eager_ones(self, space):
        factors = space.factors
        fresh = sp._product(space.key, factors)  # an instance whose classes are unread
        assert callable(fresh._tangent_chern)
        assert fresh.tangent_chern == sp.exterior_product(
            *(f.tangent_chern for f in factors), space=fresh)
        if space.log is not None:
            assert callable(fresh.log._log_cotangent)
            logs = [f.tangent_bundle().dual() if f.log is None else f.log.log_cotangent
                    for f in factors]
            log = fresh.log.log_cotangent
            assert log.rank == sum(V.rank for V in logs) == space.log.log_cotangent.rank
            assert log.total_chern == sp.exterior_product(
                *(V.total_chern for V in logs), space=fresh)
        assert fresh.tangent_chern is fresh.tangent_chern
        assert not fresh._products


class TestTwoRoutes:
    """A product's classes and genus, taken from its factors, against the
    same values computed on the product ring."""

    @pytest.mark.parametrize("space, mode",
                             [(X, "closed") for X in TWO_ROUTE_CLOSED + TWO_ROUTE_OPEN]
                             + [(X, "open_complement") for X in TWO_ROUTE_OPEN],
                             ids=lambda v: model_id(v) if isinstance(v, sp.SpaceModel) else v)
    def test_genus_and_class(self, space, mode):
        k, td = product_ring_route(space, mode)
        assert mhc_y(space, mode) == k
        pairing = space.integrate(k.multiply(td, space.dim)).reduce_unit_denominator()
        assert chi_y_genus(space, mode) == pairing

    @pytest.mark.parametrize("space", TWO_ROUTE_CLOSED + TWO_ROUTE_OPEN, ids=model_id)
    @pytest.mark.parametrize("kind", ["chern", "todd", "lclass", "hirzebruch"])
    def test_series_class(self, space, kind):
        V = BundleClass(space.dim, space.tangent_chern)
        want = apply_series(bundles.genus_series(kind, space.dim), V)
        assert transforms.series_class(space, kind) == want

    def test_open_genus_needs_boundary_data(self):
        with pytest.raises(MissingLogStructure):
            chi_y_genus(sp.product(P1, P2), "open_complement")

    def test_data_keeps_the_pairing(self):
        # a Tate twist multiplies the genus by -y; with data the pairing runs
        space = TWO_ROUTE_OPEN[0]
        tw = chi_y_genus(space, "open_complement", VariationData.tate(space, 1))
        assert tw == chi_y_genus(space, "open_complement") * LaurentY({1: -1})


ORACLE_SPACES = (
    [sp.projective(n) for n in range(1, 5)] + [sp.hypersurface(3, 4)]
    + [sp.projective_bundle(sp.projective(n), sp.sum_of_line_bundles(sp.projective(n), t))
       for n, t in ((1, (0, 1)), (2, (-1, 2)), (1, (-3, 0, 3)))]
    + [sp.product(P1, P2), sp.product(P1, P1, P1), sp.product(sp.hypersurface(3, 4), P1),
       sp.product(PROJ, P1)])


class TestGenusIntegrals:
    """Gauss-Bonnet, Hirzebruch-Riemann-Roch and the signature theorem: the
    integral of c(TX), td(TX) and L(TX), each expanded by ``apply_series``
    on the model's own ring, is chi_y at y = -1, 0 and 1."""

    @pytest.mark.parametrize("space", ORACLE_SPACES, ids=model_id)
    @pytest.mark.parametrize("kind, y", [("chern", -1), ("todd", 0), ("lclass", 1)])
    def test_integral_is_the_genus_at(self, space, kind, y):
        series = bundles.genus_series(kind, space.dim)
        integral = space.integrate(apply_series(series, space.tangent_bundle()))
        assert integral == chi_y_genus(space)(Fraction(y))


class TestPushforward:
    def test_bundle_projection_fiber_factor(self):
        base = sp.projective(1)
        tot = sp.projective_bundle(base, sp.sum_of_line_bundles(base, [0, 1]))
        got = pushforward(sp.bundle_projection(tot), mhc_y(tot))
        assert got == mhc_y(base) * LaurentY({0: 1, 1: -1})

    def test_constant_map_gives_degree(self):
        p2 = sp.projective(2)
        c = mhc_y(p2)
        pushed = pushforward(sp.constant_map(p2), c)
        assert pushed.component(0) == chi_y_genus(p2)

    def test_linear_embedding_of_chern_class(self):
        # c(TP1) against [P1] pushed into the plane: l + 2 [pt]
        p1 = sp.projective(1)
        cls = CohClass(p1, {(0,): LaurentY.one(), (1,): LaurentY.const(2)})
        got = sp.gysin_pushforward(sp.linear_embedding(1, 2), cls)
        p2 = sp.projective(2)
        assert got == CohClass(p2, {(1,): LaurentY.one(), (2,): LaurentY.const(2)})

    def test_k_pushforward_keeping_a_pole_is_a_domain_error(self):
        p1 = sp.projective(1)
        h = p1.gen_class(0)
        c = p1.one() + h * RationalFunctionY(LaurentY.one(), 1)
        with pytest.raises(NotPolynomial):
            pushforward(sp.constant_map(p1), c)

    def test_k_pushforward_whose_poles_cancel(self):
        # the integral of (1 + 2h/(1+y) - 3h^2/(1+y)) * td(P2) is 1 + 3/(1+y) - 3/(1+y)
        p2 = sp.projective(2)
        h = p2.gen_class(0)
        c = (p2.one() + h * RationalFunctionY(LaurentY.const(2), 1)
             + h * h * RationalFunctionY(LaurentY.const(-3), 1))
        assert pushforward(sp.constant_map(p2), c).component(0) == LaurentY.one()

    def test_homology_pushforward_to_point(self):
        p2 = sp.projective(2)
        t = mht(mhc_y(p2), normalized=False)
        pushed = sp.gysin_pushforward(sp.constant_map(p2), t)
        assert degree(pushed).reduce_unit_denominator() == chi_y_genus(p2)

    def test_k_pushforward_along_hypersurface_inclusion(self):
        # the structure sheaf of a quartic pushes to [O] - [O(-4)]
        x = sp.hypersurface(3, 4)
        iota = sp.hypersurface_inclusion(x)
        got = pushforward(iota, x.one())
        p3 = iota.target
        h = p3.gen_class(0)
        want_ch = 4 * h - 8 * h**2 + h**3 * Fraction(32, 3)  # 1 - exp(-4h)
        assert got == want_ch
        assert got.component(0) == LaurentY.zero()

    def test_k_pushforward_along_linear_embedding(self):
        # [O_{P1}] in the plane is [O] - [O(-1)]
        emb = sp.linear_embedding(1, 2)
        got = pushforward(emb, emb.source.one())
        p2 = emb.target
        h = p2.gen_class(0)
        assert got == h - h * h * Fraction(1, 2)

    @pytest.mark.parametrize("base_n,twists", [(1, (0, 1)), (2, (0, 1, -2)), (2, (3, -1))])
    def test_composed_up_and_down(self, base_n, twists):
        # push(pull(c)) equals push(lambda_y of the relative cotangent) times c
        from hirzebruch.bundles import lambda_y
        base = sp.projective(base_n)
        E = sp.sum_of_line_bundles(base, twists)
        tot = sp.projective_bundle(base, E)
        pi = sp.bundle_projection(tot)
        c = mhc_y(base)
        lhs = pushforward(pi, pullback_smooth(pi, c))
        rel_push = pushforward(pi, lambda_y(sp.relative_tangent(pi).dual()))
        assert lhs == rel_push * c
        # the pushed fiber class is the genus of the fiber
        assert rel_push.component(0) == LaurentY({p: (-1) ** p for p in range(E.rank)})


class TestPullbackSmooth:
    def test_product_projection(self):
        p1 = sp.projective(1)
        prod = sp.product(p1, p1)
        got = pullback_smooth(sp.product_projection(prod, 0), mhc_y(p1))
        assert got == mhc_y(prod)

    def test_identity(self):
        p2 = sp.projective(2)
        c = mhc_y(p2)
        assert pullback_smooth(sp.identity_map(p2), c) == c

    def test_bundle_projection(self):
        base = sp.projective(1)
        tot = sp.projective_bundle(base, sp.sum_of_line_bundles(base, [0, 1]))
        got = pullback_smooth(sp.bundle_projection(tot), mhc_y(base))
        assert got == mhc_y(tot)

    def test_open_restriction_keeps_coefficients(self):
        arr = sp.with_arrangement(sp.projective(2), 2)
        c = mhc_y(sp.projective(2))  # same underlying ring
        got = pullback_smooth(sp.open_restriction(arr), c)
        assert got.space is arr and got.items() == c.items()

    @pytest.mark.parametrize("name", ["hypersurface_inclusion", "linear_embedding", "constant"])
    def test_refused_along_a_map_that_is_not_smooth(self, name):
        m = _pushdown_maps()[name]
        with pytest.raises(UnsupportedMap):
            pullback_smooth(m, m.target.one())
        if name != "constant":  # the constant map has a ring pullback
            with pytest.raises(UnsupportedMap, match="has no ring pullback"):
                sp.ring_pullback(m, m.target.one())

    @pytest.mark.parametrize("name", ["bundle_projection", "product_projection0", "identity",
                                      "open_restriction"])
    def test_a_class_on_the_wrong_model_is_refused(self, name):
        m = _pushdown_maps()[name]
        wrong = sp.projective(5).one()
        for pull in (sp.ring_pullback, pullback_smooth):
            with pytest.raises(InvalidParameter, match="target of the map"):
                pull(m, wrong)


def _pushdown_maps():
    """The built-in maps, by test id."""
    base = sp.projective(1)
    tot = sp.projective_bundle(base, sp.sum_of_line_bundles(base, [0, 1]))
    prod = sp.product(sp.projective(1), sp.projective(2))
    p2 = sp.projective(2)
    return {"bundle_projection": sp.bundle_projection(tot),
            "product_projection0": sp.product_projection(prod, 0),
            "product_projection1": sp.product_projection(prod, 1),
            "hypersurface_inclusion": sp.hypersurface_inclusion(sp.hypersurface(3, 4)),
            "linear_embedding": sp.linear_embedding(1, 3), "constant": sp.constant_map(p2),
            "identity": sp.identity_map(p2),
            "open_restriction": sp.open_restriction(sp.with_arrangement(p2, 2))}


class TestMhtPushdown:
    """MHT_y commutes with proper pushdown (Grothendieck-Riemann-Roch): the
    ledger of the K-theory pushforward equals the Gysin pushforward of the
    ledger, normalized or not."""

    @pytest.mark.parametrize("normalized", [True, False])
    @pytest.mark.parametrize("name", list(_pushdown_maps()))
    def test_commutes(self, name, normalized):
        m = _pushdown_maps()[name]
        src = m.source
        for k in (mhc_y(src), chern_character(sp.line_bundle(src, 1)),
                  mhc_y(src, "closed", VariationData.tate(src, 1))):
            assert (mht(pushforward(m, k), normalized=normalized)
                    == sp.gysin_pushforward(m, mht(k, normalized=normalized))), k

    def test_k_pushforward_is_not_the_gysin_map(self):
        # td of the relative tangent bundle of a bundle projection is not 1
        base = sp.projective(1)
        tot = sp.projective_bundle(base, sp.sum_of_line_bundles(base, [0, 1]))
        pi = sp.bundle_projection(tot)
        for k in (tot.one(), mhc_y(tot)):
            assert pushforward(pi, k) != sp.gysin_pushforward(pi, k)
        assert pushforward(pi, tot.one()) == base.one()  # the fibre P1 has chi(O) = 1


class TestLedger:
    def test_readers(self):
        # dimension-k cycles are the degree-(2 - k) monomials on P2
        p2 = sp.projective(2)
        c = CohClass(p2, {(0,): Fraction(1), (2,): LaurentY({1: 3})})
        assert [p2.dim - d for d in c.by_degree()] == [2, 0]
        assert c.component(2) == p2.monomial((2,), LaurentY({1: 3}))
        assert not c.component(1)
        assert c.component(0) == p2.one()
        assert c.items() == [((0,), 1), ((2,), LaurentY({1: 3}))]
        assert c - c == CohClass(p2, {}) and not (c - c)
        assert c.map_coeffs(lambda v: v * 2) == c * 2 == c + c


class TestDualities:
    def test_homology_dual_worked_example(self):
        p1 = sp.projective(1)
        t = homology_dual(mht(mhc_y(p1), normalized=False))
        want = CohClass(p1, {
            (0,): RationalFunctionY(-(LaurentY({-1: 1, 0: 1}))),
            (1,): RationalFunctionY(LaurentY({-1: -1, 0: 1})),
        })
        assert t == want

    def test_dimension_zero_is_plain_inversion(self):
        p1 = sp.projective(1)
        c = CohClass(p1, {(1,): LaurentY({1: 1})})
        assert homology_dual(c) == CohClass(p1, {(1,): LaurentY({-1: 1})})

    def test_involution(self):
        p2 = sp.projective(2)
        t = mht(mhc_y(p2), normalized=False)
        assert homology_dual(homology_dual(t)) == t

    def test_consistency_with_k_duality(self):
        for space in (sp.projective(1), sp.projective(2),
                      sp.product(sp.projective(1), sp.projective(1))):
            c = mhc_y(space)
            assert homology_dual(mht(c, normalized=False)) == mht(k_dual(c), normalized=False)


class TestSpecialization:
    def test_closed_plane_gives_chern_class(self):
        p2 = sp.projective(2)
        got = specialize_minus_one(mht(mhc_y(p2, "closed")))
        assert got == csm_arrangement(2, 0)

    def test_two_line_complement(self):
        arr = sp.with_arrangement(sp.projective(2), 2)
        got = sp.gysin_pushforward(sp.open_restriction(arr),  # the complement's class on P2
                                   specialize_minus_one(mht(mhc_y(arr, "open_complement"))))
        want = CohClass(sp.projective(2), {(0,): Fraction(1), (1,): Fraction(1)})
        assert got == want == csm_arrangement(2, 2)

    def test_three_line_complement(self):
        arr = sp.with_arrangement(sp.projective(2), 3)
        got = sp.gysin_pushforward(sp.open_restriction(arr),
                                   specialize_minus_one(mht(mhc_y(arr, "open_complement"))))
        assert got == CohClass(sp.projective(2), {(0,): Fraction(1)})
        assert got == csm_arrangement(2, 3)

    def test_pole_is_reported(self):
        p1 = sp.projective(1)
        c = CohClass(p1, {(1,): RationalFunctionY(LaurentY.one(), 1)})
        with pytest.raises(NotPolynomial):
            specialize_minus_one(c)


class TestCsmOracle:
    def test_full_plane(self):
        got = csm_arrangement(2, 0)
        want = CohClass(sp.projective(2), {
            (0,): Fraction(1), (1,): Fraction(3), (2,): Fraction(3)})
        assert got == want

    def test_euler_numbers_from_degree(self):
        # the degree of the oracle class is the Euler number of the complement
        for n in range(1, 4):
            for k in range(0, n + 2):
                cls = csm_arrangement(n, k)
                euler = cls.coeff((n,))  # the dimension-0 part
                # independent count: chi(P^n) - strata corrections via
                # inclusion-exclusion on chi values
                want = Fraction(n + 1)
                binom = 1
                for s in range(1, min(k, n) + 1):
                    binom = binom * (k - s + 1) // s
                    want += Fraction((-1) ** s * binom * (n - s + 1))
                assert euler == want, (n, k)


class TestSeldomRun:
    @pytest.mark.parametrize("call, reason", [
        (lambda: VariationData([(0, sp.trivial_bundle(sp.projective(1), -1))]), "total rank"),
        (lambda: mhc_y(sp.projective(1), "closed", VariationData.trivial(sp.projective(2))),
         "wrong space"),
        (lambda: csm_arrangement(2, 4), "0 <= k <= n\\+1"),
    ], ids=["data-negative-rank", "data-off-space", "csm-too-many-hyperplanes"])
    def test_refusal(self, call, reason):
        with pytest.raises(InvalidParameter, match=reason):
            call()

    def test_exterior_with_a_class_on_a_point(self):
        a = sp.projective(1).gen_class()
        assert exterior(a, sp.point().constant(3)) == a * 3
