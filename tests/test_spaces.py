"""Space models: construction, integration, Gysin maps, custom documents."""

import gc
import itertools
import weakref
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_bundles as ref
from hirzebruch import spaces as sp
from hirzebruch.bundles import (
    _elementary_from_power_sums,
    _z_power_sums,
    chern_character,
    lambda_y,
    power_sums,
)
from hirzebruch.errors import InvalidParameter, NotPolynomial, ParseError, UnsupportedMap
from hirzebruch.exprlang import parse_space
from hirzebruch.rings import LaurentY, RationalFunctionY
from hirzebruch.verify import bundle_family


def fresh(build):
    """``build()`` with an empty model table, so that every model it asks
    for is built anew rather than handed out live."""
    live = sp._live
    sp._live = weakref.WeakValueDictionary()
    try:
        return build()
    finally:
        sp._live = live


def series_quotient_oracle(num_coeffs, den_linear, order):
    """Expand (sum num_coeffs[j] h^j) / (1 + den_linear*h) to the given order
    with plain list arithmetic, independent of the class machinery."""
    inv = [Fraction(1)]
    for j in range(1, order + 1):
        inv.append(inv[-1] * -den_linear)
    out = []
    for j in range(order + 1):
        acc = Fraction(0)
        for i in range(j + 1):
            if i < len(num_coeffs):
                acc += num_coeffs[i] * inv[j - i]
        out.append(acc)
    return out


def segre_oracle(chern_coeffs, order):
    """Formal inverse of a total Chern class given by plain coefficients."""
    s = [Fraction(1)]
    for j in range(1, order + 1):
        acc = Fraction(0)
        for i in range(1, j + 1):
            if i < len(chern_coeffs):
                acc += chern_coeffs[i] * s[j - i]
        s.append(-acc)
    return s


class TestConstruction:
    @pytest.mark.parametrize("n", [2.5, "2", 2.0])
    def test_integer_arguments_are_ints(self, n):
        p2 = sp.projective(2)
        with pytest.raises(InvalidParameter, match="exponent"):
            p2.gen_class(0) ** n
        with pytest.raises(InvalidParameter, match="bundle rank"):
            sp.BundleClass(n, p2.one())

    def test_projective_plane_tangent(self):
        p2 = sp.projective(2)
        h = p2.gen_class(0)
        assert p2.tangent_chern == p2.one() + 3 * h + 3 * h * h

    def test_quartic_surface(self):
        x = sp.hypersurface(3, 4)
        # oracle: (1+h)^4 / (1+4h) truncated at degree 2
        want = series_quotient_oracle([1, 4, 6, 4, 1], 4, 2)
        assert want == [Fraction(1), Fraction(0), Fraction(6)]
        h = x.gen_class(0)
        assert x.tangent_chern == x.one() + 6 * h * h
        assert x.integrate(x.tangent_chern.component(2)) == 24

    def test_toric_boundary_has_trivial_log_bundle(self):
        arr = sp.with_arrangement(sp.projective(2), 3)
        assert arr.log_cotangent().rank == 2
        assert arr.log_cotangent().total_chern == arr.one()

    def test_arrangement_extremes(self):
        n = 3
        full = sp.with_arrangement(sp.projective(n), n + 1)
        assert full.log_cotangent().total_chern == full.one()
        none = sp.with_arrangement(sp.projective(n), 0)
        h = none.gen_class(0)
        assert none.log_cotangent().total_chern == (none.one() - h) ** (n + 1)

    def test_preconditions(self):
        with pytest.raises(InvalidParameter):
            sp.hypersurface(1, 2)
        with pytest.raises(InvalidParameter):
            sp.hypersurface(3, 0)
        with pytest.raises(InvalidParameter):
            sp.with_arrangement(sp.projective(2), 4)
        with pytest.raises(InvalidParameter):
            sp.projective_bundle(sp.projective(1), sp.trivial_bundle(sp.projective(1), 0))

    @pytest.mark.parametrize("exp", [(1.5,), (-1,), (1, 2), (), 1])
    def test_malformed_monomial_is_refused(self, exp):
        # (1.5,) and (-1,) printed h^1.5 and h^-1; (1, 2) gave 0
        with pytest.raises(InvalidParameter, match="not a monomial"):
            sp.CohClass(sp.projective(2), {exp: 1})

    @pytest.mark.parametrize("value", [0.5, "1/2", None])
    def test_coefficient_that_is_not_exact_is_refused(self, value):
        # 0.5 raised a TypeError, and "1/2" one from adding it to an int
        with pytest.raises(InvalidParameter, match="not a class coefficient"):
            sp.CohClass(sp.projective(2), {(1,): value})
        with pytest.raises(InvalidParameter, match="not a class coefficient"):
            sp.CohClass(sp.projective(2), {(3,): value})  # one that the ring kills

    @pytest.mark.parametrize("value", [0.5, "1/2"])
    def test_scalar_that_is_not_exact_is_refused(self, value):
        # these raised a TypeError from the shared canonical form
        p2 = sp.projective(2)
        for make in (lambda: p2.one() + value, lambda: value - p2.one(),
                     lambda: p2.constant(value)):
            with pytest.raises(InvalidParameter, match="not a class coefficient"):
                make()

    def test_monomial_of_the_wrong_length_is_refused(self):
        p2 = sp.projective(2)
        with pytest.raises(InvalidParameter, match="not a monomial"):
            p2.monomial((0, 3))
        assert p2.monomial((3,)).is_zero()  # a well-formed monomial above the dimension

    def test_arrangement_on_an_arrangement_is_refused(self):
        # it would replace the boundary data, not add to it
        arr = sp.with_arrangement(sp.projective(2), 1)
        with pytest.raises(InvalidParameter, match="already carries"):
            sp.with_arrangement(arr, 1)
        with pytest.raises(InvalidParameter):
            sp.with_arrangement(sp.with_arrangement(sp.projective(1), 0), 2)
        assert len(arr.divisors) == 1

    def test_bundle_whose_chern_class_depends_on_y_is_refused(self, monkeypatch):
        p1 = sp.projective(1)
        h = p1.gen_class(0)
        monkeypatch.setattr(sp, "_projective_bundle", lambda *args: pytest.fail("built"))
        for c in (p1.one() + h * LaurentY({1: 1}),
                  p1.one() + h * RationalFunctionY(LaurentY.one(), 1)):
            with pytest.raises(InvalidParameter, match="depend on y"):
                sp.projective_bundle(p1, sp.BundleClass(1, c))

    def test_product_drops_points_and_flattens(self):
        p1 = sp.projective(1)
        assert sp.product(p1, sp.point()) is p1
        triple = sp.product(sp.product(p1, p1), p1)
        assert triple.dim == 3 and len(triple.gens) == 3


class TestIntegration:
    def test_normalization(self):
        p2 = sp.projective(2)
        assert p2.integrate(p2.gen_class(0) ** 2) == 1

    def test_bundle_relation_segre(self):
        base = sp.projective(1)
        tot = sp.projective_bundle(base, sp.sum_of_line_bundles(base, [0, 1]))
        xi = tot.gen_class(1)
        assert tot.integrate(xi * xi) == -1

    def test_product_integration(self):
        prod = sp.product(sp.projective(1), sp.projective(2))
        top = prod.monomial((1, 2))
        assert prod.integrate(top) == 1
        assert prod.integrate(prod.monomial((0, 2))) == 0

    @pytest.mark.parametrize("twists", [(0, 0), (0, 1), (-1, 2), (1, 2, 3), (0, -2)])
    def test_segre_classes_from_pushforward(self, twists):
        # pi_*(xi^(r-1+j)) must equal the formal inverse of c(E)
        base = sp.projective(3)
        E = sp.sum_of_line_bundles(base, twists)
        r = E.rank
        tot = sp.projective_bundle(base, E)
        pi = sp.bundle_projection(tot)
        xi = tot.gen_class(len(base.gens))
        chern_coeffs = [E.chern(i).coeff((i,)) for i in range(base.dim + 1)]
        want = segre_oracle(chern_coeffs, base.dim)
        for j in range(base.dim + 1):
            got = sp.gysin_pushforward(pi, xi ** (r - 1 + j))
            assert got == base.monomial((j,), want[j]), (twists, j)

    @pytest.mark.parametrize("twists", [(0, 0), (0, 1), (0, 1, 3), (-2, 1)])
    @pytest.mark.parametrize("base_n", [1, 2])
    def test_chi_structure_sheaf_is_birational_invariant(self, base_n, twists):
        # integral of td(T) over P(E) equals the base value (checks the
        # Grothendieck-relation sign convention)
        from hirzebruch.bundles import apply_series, genus_series
        base = sp.projective(base_n)
        tot = sp.projective_bundle(base, sp.sum_of_line_bundles(base, twists))
        td_tot = apply_series(genus_series("todd", tot.dim), tot.tangent_bundle())
        td_base = apply_series(genus_series("todd", max(base.dim, 1)), base.tangent_bundle())
        assert tot.integrate(td_tot.component(tot.dim)) == \
            base.integrate(td_base.component(base.dim)) == 1


class TestGysin:
    def test_bundle_projection_unit(self):
        base = sp.projective(1)
        tot = sp.projective_bundle(base, sp.sum_of_line_bundles(base, [0, 1]))
        pi = sp.bundle_projection(tot)
        xi = tot.gen_class(1)
        assert sp.gysin_pushforward(pi, xi) == base.one()

    def test_hypersurface_fundamental_class(self):
        x = sp.hypersurface(3, 4)
        iota = sp.hypersurface_inclusion(x)
        p3 = iota.target
        assert sp.gysin_pushforward(iota, x.one()) == p3.monomial((1,), Fraction(4))

    def test_linear_embedding_point(self):
        emb = sp.linear_embedding(1, 2)
        p1 = emb.source
        pushed = sp.gysin_pushforward(emb, p1.gen_class(0))
        assert pushed == emb.target.monomial((2,))

    def test_constant_map(self):
        p2 = sp.projective(2)
        k = sp.constant_map(p2)
        assert sp.gysin_pushforward(k, p2.gen_class(0) ** 2) == k.target.one()

    def test_unsupported(self):
        with pytest.raises(UnsupportedMap):
            sp.bundle_projection(sp.projective(2))

    def test_projection_formula(self):
        # f_* (f^* a . b) == a . f_* b for the two projection-type maps
        base = sp.projective(2)
        E = sp.sum_of_line_bundles(base, [0, 1, -1])
        tot = sp.projective_bundle(base, E)
        pi = sp.bundle_projection(tot)
        a = base.gen_class(0) + 2 * base.one()
        b = tot.gen_class(len(base.gens)) ** 2 + tot.gen_class(0)
        lhs = sp.gysin_pushforward(pi, sp.ring_pullback(pi, a) * b)
        assert lhs == a * sp.gysin_pushforward(pi, b)

        prod = sp.product(sp.projective(1), sp.projective(2))
        pr = sp.product_projection(prod, 0)
        a = pr.target.gen_class(0)
        b = prod.monomial((0, 2)) + prod.monomial((1, 1))
        lhs = sp.gysin_pushforward(pr, sp.ring_pullback(pr, a) * b)
        assert lhs == a * sp.gysin_pushforward(pr, b)


P2_DOCUMENT = """
# the projective plane, presented explicitly
dim 2
gens h
relation h^3 = 0
integral h^2 = 1
tangent 1 + 3*h + 3*h^2
"""

QUADRIC_DOCUMENT = """
# P1 x P1 with generators a, b
dim 2
gens a b
relation a^2 = 0
relation b^2 = 0
integral a*b = 1
tangent 1 + 2*a + 2*b + 4*a*b
"""


GROTHENDIECK_DOCUMENT = """
dim 2
gens h xi
relation h^2 = 0
relation xi^2 = -1*h*xi
integral h*xi = 1
tangent 1 + 2*xi + 3*h + 4*h*xi
"""

# a relation whose coefficients carry denominators
# two points' worth of curve: a^2 = b^2 = 0 leave a*b, above the dimension,
# to the truncation alone
SURPLUS_DOCUMENT = """
dim 1
gens a b
relation a^2 = 0
relation b^2 = 0
integral a = 1
integral b = 1
tangent 1 + 2*a + 2*b
"""


FRACTIONAL_DOCUMENT = """
dim 3
gens h xi
relation h^3 = 0
relation xi^2 = 1/2*h*xi - 1/3*h^2
integral h^2*xi = 1
tangent 1 + 2*xi + 3*h
"""


class TestDocuments:
    def test_projective_plane_document(self):
        m = sp.from_document(P2_DOCUMENT)
        assert m.dim == 2
        assert m.integrate(m.gen_class(0) ** 2) == 1
        assert m.tangent_chern.coeff((1,)) == 3
        assert m.tangent_chern.coeff((2,)) == 3

    def test_quadric_document_genus_inputs(self):
        m = sp.from_document(QUADRIC_DOCUMENT)
        a, b = m.gen_class(0), m.gen_class(1)
        assert m.integrate(a * b) == 1
        assert (a * a).is_zero()

    def test_quadric_document_feeds_the_genus_pipeline(self):
        from hirzebruch.rings import LaurentY
        from hirzebruch.transforms import chi_y_genus
        m = sp.from_document(QUADRIC_DOCUMENT)
        assert chi_y_genus(m) == LaurentY({0: 1, 1: -2, 2: 1})

    def test_document_with_grothendieck_relation(self):
        m = sp.from_document(GROTHENDIECK_DOCUMENT)
        xi = m.gen_class(1)
        assert m.integrate(xi * xi) == -1

    def test_document_errors(self):
        with pytest.raises(ParseError):
            sp.from_document("dim 2\ngens h\nintegral h^2 = 1\n")  # no tangent
        with pytest.raises(ParseError):
            sp.from_document("gens h\nrelation h^2 = 0\n")  # no dim
        with pytest.raises(ParseError):
            sp.from_document(
                "dim 1\ngens h\nrelation h^2 = h^2\nintegral h = 1\ntangent 1")

    @pytest.mark.parametrize("relations, lines", [
        (["a^2 = b^2", "b^2 = a^2"], "3, 4"),
        (["a^2 = a*b", "b^2 = a*b"], "3, 4"),
        (["a^2 = b^2", "b^2 = c^2", "c^2 = a^2"], "3, 4, 5"),
        (["c^2 = 0", "a^2 = a*b + c^2", "b^2 = a^2"], "4, 5"),
    ], ids=["swap", "through-a-mixed-term", "three-cycle", "cycle-beside-a-nilpotent"])
    def test_cyclic_relations_are_rejected(self, relations, lines, time_limit):
        doc = "dim 2\ngens a b c\n" + "".join(f"relation {r}\n" for r in relations) + \
            "integral a*b = 1\ntangent 1 + 3*a + 3*b\n"
        with time_limit(10), pytest.raises(ParseError, match=rf"\(lines {lines}\)"):
            sp.from_document(doc)

    def test_relation_chains_without_cycles_load(self, time_limit):
        # a rewrites into b, b into a nilpotent c; xi's own power on the
        # right (as in GROTHENDIECK_DOCUMENT) is no cycle
        doc = ("dim 3\ngens a b c\nrelation a^2 = a*b + b^2\nrelation b^2 = b*c - c^2\n"
               "relation c^2 = 0\nintegral a*b*c = 1\ntangent 1 + a + b + c\n")
        with time_limit(10):
            m = sp.from_document(doc)
            a = m.gen_class(0)
            assert (a * a) == naive_product(a, a)
            assert m.integrate(a ** 3) == m.integrate(naive_product(a * a, a))
            assert sp.from_document(GROTHENDIECK_DOCUMENT).dim == 2

    @pytest.mark.parametrize("extra, lines", [
        ("relation a^2 = a*b", "4, 8"),       # a later rule would replace the first
        ("relation a^3 = 0", "4, 8"),
        ("integral a*b = 5", "6, 8"),         # a later value would replace the first
        ("integral b*a = 1", "6, 8"),
        ("dim 2", "2, 8"),
        ("gens a b", "3, 8"),
        ("tangent 1 + 2*a + 2*b", "7, 8"),
    ], ids=["relation", "nilpotency-cap", "integral", "integral-reordered", "dim", "gens",
            "tangent"])
    def test_repeated_lines_are_rejected(self, extra, lines):
        assert sp.from_document(QUADRIC_DOCUMENT.strip()).dim == 2
        with pytest.raises(ParseError, match=rf"\(lines {lines}\)"):
            sp.from_document(QUADRIC_DOCUMENT.strip() + "\n" + extra + "\n")

    @pytest.mark.parametrize("doc, line", [
        ("dim 2\ngens a\nrelation a^2 = a*q\nintegral a^2 = 1\ntangent 1\n", 3),
        ("dim 1\ngens h\nintegral h = 1\ntangent 1 + 2*z\n", 4),
        ("dim 1\ngens h\nintegral h = 1\ntangent 1 + 2*h^-1\n", 4),
        ("dim 1\ngens h\nintegral h^ = 1\ntangent 1 + 2*h\n", 3),
        ("dim 1\ngens h\nintegral h = 1\ntangent 1 + 2*h^²\n", 4),
        ("dim 1\ngens a a\nintegral a = 1\ntangent 1 + 2*a\n", 2),
        ("dim 1\ngens h\nintegral h = 1\ntangent 2 + 2*h\n", 4),
    ], ids=["relation-unknown-variable", "tangent-unknown-variable", "negative-exponent",
            "dangling-power", "superscript-exponent", "generator-twice",
            "tangent-constant-term"])
    def test_malformed_line_is_named(self, doc, line):
        with pytest.raises(ParseError, match=rf"\(line {line}\)"):
            sp.from_document(doc)

    def test_rules_are_keyed_by_their_generator(self):
        # the same rules on swapped generators: a*a is 0 on the first model only
        doc = "dim 3\ngens a b\nrelation {}^2 = 0\nintegral a*b^2 = 1\ntangent 1 + a + b\n"
        first, second = sp.from_document(doc.format("a")), sp.from_document(doc.format("b"))
        assert first.key != second.key
        assert sp.from_document(doc.format("a")).key == first.key
        a1, a2 = first.gen_class(0), second.gen_class(0)
        assert (a1 * a1).is_zero() and a2 * a2 == second.monomial((2, 0))
        for mix in (lambda: a1 + a2, lambda: a2 - a1, lambda: a1 * a2,
                    lambda: sp.CohClass.combine(first, [(1, a1, a2)]),
                    lambda: sp.CohClass.combine(first, [(1, a2, None)])):
            with pytest.raises(InvalidParameter, match="different spaces"):
                mix()

    def test_relation_terms_in_either_order_share_a_key(self):
        doc = ("dim 2\ngens h k\nrelation h^2 = 0\nrelation k^2 = {}\n"
               "integral h*k = 1\ntangent 1 + 2*h + 2*k\n")
        first, second = (sp.from_document(doc.format(rhs)) for rhs in ("h*k + h^2", "h^2 + h*k"))
        assert first.key == second.key
        k1, k2 = first.gen_class(1), second.gen_class(1)
        assert k1 * k1 + k2 * k2 == first.monomial((1, 1), 2)
        assert sp.CohClass.combine(first, [(1, k1, k2), (1, k2, None)]) == k1 * k1 + k1

    @pytest.mark.parametrize("relation", ["h^2 = h", "h^2 = h*k + k", "k^2 = h^3"])
    def test_relation_must_be_homogeneous(self, relation):
        doc = f"dim 2\ngens h k\nrelation {relation}\nintegral h*k = 1\ntangent 1\n"
        with pytest.raises(ParseError, match=r"not homogeneous .*\(line 3\)"):
            sp.from_document(doc)


# ---------------------------------------------------------------------------
# the class multiply against a naive reference


def naive_product(a, b):
    """Every term pair multiplied, then one reduction of the raw sum."""
    raw = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            raw[e] = raw.get(e, 0) + v1 * v2
    return sp.CohClass(a.space, raw)


KERNEL_MODELS = [
    sp.projective(1), sp.projective(3), sp.projective(5),
    sp.product(sp.projective(1), sp.projective(1)),
    sp.product(*[sp.projective(1)] * 4),
    sp.projective_bundle(sp.projective(2),
                         sp.sum_of_line_bundles(sp.projective(2), [0, 1, 3])),
    sp.hypersurface(3, 4),
    sp.with_arrangement(sp.projective(3), 2),
    sp.from_document(GROTHENDIECK_DOCUMENT),
    sp.from_document(FRACTIONAL_DOCUMENT),
]


def model_id(space):
    """A model's name as a test id, the fractional document apart from the other one."""
    return "custom-fractional" if space.key == KERNEL_MODELS[-1].key else space.name

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)
laurents = st.dictionaries(st.integers(-2, 2), small_fractions, max_size=3).map(LaurentY)
coefficients = st.one_of(
    small_fractions,
    laurents,
    st.builds(RationalFunctionY, laurents, st.integers(0, 2)),
)


@st.composite
def classes_on(draw, space):
    exps = st.tuples(*[st.integers(0, space.dim)] * len(space.gens))
    return sp.CohClass(space, draw(st.dictionaries(exps, coefficients, max_size=5)))


class TestMultiplyKernel:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_naive_reduction(self, data):
        space = data.draw(st.sampled_from(KERNEL_MODELS))
        a, b = data.draw(classes_on(space)), data.draw(classes_on(space))
        assert a * b == naive_product(a, b)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_commutative_and_associative(self, data):
        space = data.draw(st.sampled_from(KERNEL_MODELS))
        a, b, c = (data.draw(classes_on(space)) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)

    @pytest.mark.parametrize("space", KERNEL_MODELS, ids=model_id)
    def test_every_basis_pair_in_both_orders(self, space):
        exps = itertools.product(range(space.dim + 1), repeat=len(space.gens))
        basis = [space.monomial(e) for e in exps if space._reduce({e: 1}) == {e: 1}]
        for a in basis:
            for b in basis:
                assert a * b == naive_product(a, b)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_equal_classes_hash_equal(self, data):
        space = data.draw(st.sampled_from(KERNEL_MODELS))
        exps = st.tuples(*[st.integers(0, space.dim)] * len(space.gens))
        raw = data.draw(st.dictionaries(exps, laurents, max_size=4))
        j = data.draw(st.integers(0, 2))
        one_y = LaurentY({0: 1, 1: 1})
        forms = [sp.CohClass(space, raw),
                 sp.CohClass(space, {e: RationalFunctionY(v) for e, v in raw.items()}),
                 sp.CohClass(space, {e: RationalFunctionY(v * one_y**j, j)
                                     for e, v in raw.items()}),
                 sp.CohClass(space, {e: RationalFunctionY(v, j) for e, v in raw.items()})]
        if all(e == 0 for v in raw.values() for e, _ in v.items()):
            forms.append(sp.CohClass(space, {e: v.coeff(0) for e, v in raw.items()}))
        forms += [c.coeff(space._zero_exp) for c in forms if c == c.coeff(space._zero_exp)]
        assert forms[0] == forms[1] == forms[2]
        for a in forms:
            for b in forms:
                if a == b:
                    assert hash(a) == hash(b), (a, b)

    def test_a_set_holds_one_copy_of_a_class(self):
        p2 = sp.projective(2)
        assert len({sp.CohClass(p2, {(1,): Fraction(3)}),
                    sp.CohClass(p2, {(1,): LaurentY({0: 3})})}) == 1
        assert len({p2.constant(LaurentY({0: 3})), Fraction(3)}) == 1

    def test_relation_denominators_fold_into_the_class(self):
        # a fresh model: the first products raise the table denominator in
        # the middle of a multiply
        m = fresh(lambda: sp.from_document(FRACTIONAL_DOCUMENT))
        h, xi = m.gen_class(0), m.gen_class(1)
        a = m.one() + 2 * xi + h * Fraction(1, 5) + xi * h * LaurentY({1: 3})
        assert a * a == naive_product(a, a)
        assert xi ** 3 == m.monomial((2, 1), Fraction(-1, 12))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_multiply_in_one_degree_matches_the_full_product(self, data):
        space = data.draw(st.sampled_from(KERNEL_MODELS))
        a, b = data.draw(classes_on(space)), data.draw(classes_on(space))
        full = a * b
        for d in range(-1, space.dim + 2):
            assert a.multiply(b, d) == full.component(d), d

    def test_table_denominator_rises_in_a_multiply_in_one_degree(self):
        # a fresh model and operands built without a multiply: the table
        # denominator first rises inside the restricted product
        m = fresh(lambda: sp.from_document(FRACTIONAL_DOCUMENT))
        a = sp.CohClass(m, {(0, 0): 1, (0, 1): 2, (1, 1): LaurentY({1: 3})})
        b = sp.CohClass(m, {(0, 0): 1, (1, 0): 1, (0, 1): Fraction(1, 5)})
        assert m._table_den == 1
        got = a.multiply(b, m.dim)
        assert m._table_den > 1
        assert got == naive_product(a, b).component(m.dim)
        assert got == m.monomial((2, 1), LaurentY({1: Fraction(33, 10)}))

    def test_vanishing_pairs_are_tabled_empty(self):
        p2 = sp.projective(2)
        h = p2.gen_class(0)
        assert (h * h * h).is_zero()
        assert p2._products[(2,)][(1,)] == ()
        assert p2._products[(1,)][(1,)] == (((2,), 1),)


# ---------------------------------------------------------------------------
# the multiply-accumulate kernel against the naive sum of its terms

weights = st.one_of(st.integers(-3, 3), coefficients)


def naive_combination(space, terms):
    """The sum of w * (a * b), or of w * a, one separately built class each."""
    total = space.zero()
    for w, a, b in terms:
        total = total + (a if b is None else naive_product(a, b)) * w
    return total


@st.composite
def kernel_terms(draw, space):
    return [(draw(weights), draw(classes_on(space)),
             draw(st.one_of(st.none(), classes_on(space))))
            for _ in range(draw(st.integers(0, 4)))]


multi_term_laurents = st.dictionaries(
    st.integers(-2, 3), small_fractions.filter(bool), min_size=2, max_size=4).map(LaurentY)
multi_term_weights = st.one_of(
    multi_term_laurents, st.builds(RationalFunctionY, multi_term_laurents, st.integers(0, 2)))


@st.composite
def classes_over_poles(draw, space):
    """A class with int or Laurent numerators, over (1+y)^k for k = 0..2."""
    exps = st.tuples(*[st.integers(0, space.dim)] * len(space.gens))
    values = st.one_of(st.integers(-5, 5), laurents)
    c = sp.CohClass(space, draw(st.dictionaries(exps, values, max_size=5)))
    return c * RationalFunctionY(LaurentY.one(), draw(st.integers(0, 2)))


class TestCombineKernel:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_the_naive_sum(self, data):
        space = data.draw(st.sampled_from(KERNEL_MODELS))
        terms = data.draw(kernel_terms(space))
        assert sp.CohClass.combine(space, terms) == naive_combination(space, terms)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_in_one_degree_matches_the_component(self, data):
        space = data.draw(st.sampled_from(KERNEL_MODELS))
        terms = data.draw(kernel_terms(space))
        full = sp.CohClass.combine(space, terms)
        for d in range(-1, space.dim + 2):
            assert sp.CohClass.combine(space, terms, d) == full.component(d), d

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_multi_term_weights_times_classes_match_the_naive_sum(self, data):
        space = data.draw(st.sampled_from(KERNEL_MODELS))
        terms = [(data.draw(multi_term_weights), data.draw(classes_over_poles(space)), None)
                 for _ in range(data.draw(st.integers(1, 4)))]
        want = naive_combination(space, terms)
        assert sp.CohClass.combine(space, terms) == want
        for d in range(-1, space.dim + 2):
            assert sp.CohClass.combine(space, terms, d) == want.component(d), d

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_degree_scaled_and_adams(self, data):
        space = data.draw(st.sampled_from(KERNEL_MODELS))
        c = data.draw(classes_on(space))
        weights = data.draw(st.lists(st.integers(-30, 30), min_size=space.dim + 1,
                                     max_size=space.dim + 1))
        want = sp.CohClass.combine(space, [(w, c.component(j), None)
                                           for j, w in enumerate(weights)])
        assert c.degree_scaled(weights) == want
        k = data.draw(st.integers(-3, 3))
        assert c.adams(k) == c.degree_scaled([k**j for j in range(space.dim + 1)])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_reduced_root_power_sums(self, data):
        """p_k(z) for z = e^x - 1 starts in degree k and is the sum of
        (-1)^(k-m) C(k,m) psi^m ch over m = 0..k."""
        space = data.draw(st.sampled_from(KERNEL_MODELS))
        ch = data.draw(classes_on(space))
        psums = _z_power_sums(ch, space.dim + 1)
        assert len(psums) == space.dim + 1 and psums[-1].is_zero()
        for k, p in enumerate(psums, start=1):
            assert all(sum(e) >= k for e, _ in p.items()), k
            assert p == sp.CohClass.combine(space, [
                ((-1) ** (k - m) * comb(k, m), ch.adams(m), None) for m in range(k + 1)]), k

    def test_pole_denominators_of_weights_and_operands(self):
        p2 = sp.projective(2)
        h = p2.gen_class(0)
        a = sp.CohClass(p2, {(0,): 1, (1,): RationalFunctionY(LaurentY.y(), 2)})
        b = sp.CohClass(p2, {(1,): Fraction(3, 4), (2,): RationalFunctionY(LaurentY.one(), 1)})
        terms = [(RationalFunctionY(LaurentY({0: 2, 1: -1}), 3), a, b),
                 (LaurentY({-1: Fraction(1, 3)}), b, None), (Fraction(-5, 6), h, a)]
        got = sp.CohClass.combine(p2, terms)
        assert got == naive_combination(p2, terms)
        assert got._k > 0
        # 1/(1+y) + y/(1+y) = 1: the weights' pole cancels in the canonical form
        got = sp.CohClass.combine(p2, [(RationalFunctionY(LaurentY.one(), 1), a, None),
                                       (RationalFunctionY(LaurentY.y(), 1), a, None)])
        assert got == a and got._k == a._k == 2

    def test_zero_weights_and_empty_classes(self):
        p3 = sp.projective(3)
        h = p3.gen_class(0)
        zero = p3.zero()
        for terms in ([], [(0, h, h)], [(Fraction(0), h, None)], [(LaurentY(), h, h)],
                      [(RationalFunctionY(LaurentY(), 2), h, None)], [(3, zero, h)],
                      [(3, h, zero)], [(1, zero, None)], [(1, h, None), (-1, h, None)],
                      [(1, h, h), (-1, h * h, None)]):
            got = sp.CohClass.combine(p3, terms)
            assert got.is_zero() and got == zero and (got._d, got._k) == (1, 0), terms
        assert sp.CohClass.combine(p3, [(0, h, h), (2, h, None)]) == 2 * h

    def test_table_denominator_rises_inside_one_call(self):
        # a fresh model and operands built without a multiply: the first new
        # table entries raise the table denominator in the middle of the sum
        m = fresh(lambda: sp.from_document(FRACTIONAL_DOCUMENT))
        a = sp.CohClass(m, {(0, 0): 1, (0, 1): 2, (1, 1): LaurentY({1: 3})})
        b = sp.CohClass(m, {(0, 0): 1, (1, 0): 1, (0, 1): Fraction(1, 5)})
        c = sp.CohClass(m, {(0, 1): RationalFunctionY(LaurentY.y(), 1), (2, 0): 7})
        terms = [(Fraction(1, 3), a, None), (2, a, b), (LaurentY({1: -1}), b, c),
                 (Fraction(-1, 7), c, c)]
        assert m._table_den == 1
        got = sp.CohClass.combine(m, terms)
        assert m._table_den > 1
        assert got == naive_combination(m, terms)
        other = fresh(lambda: sp.from_document(FRACTIONAL_DOCUMENT))
        terms = [(w, sp.CohClass(other, dict(x.items())),
                  None if y is None else sp.CohClass(other, dict(y.items())))
                 for w, x, y in terms]
        assert other._table_den == 1
        assert sp.CohClass.combine(other, terms, m.dim) == got.component(m.dim)
        assert other._table_den > 1

    def test_multiply_is_the_kernel_with_one_pair(self):
        p2 = sp.projective(2)
        a = p2.one() + p2.gen_class(0) * LaurentY({1: 2})
        assert a * a == sp.CohClass.combine(p2, [(1, a, a)])
        assert a.multiply(a, 1) == sp.CohClass.combine(p2, [(1, a, a)], 1)

    def test_operands_and_weights_are_checked(self):
        p1, p2 = sp.projective(1), sp.projective(2)
        a, b = p2.gen_class(0), p1.gen_class(0)
        for terms in ([(1, a, b)], [(1, b, a)], [(1, b, None)], [(0, b, None)],
                      [(1, a, None), (1, a, b)]):
            with pytest.raises(InvalidParameter, match="different spaces"):
                sp.CohClass.combine(p2, terms)
        with pytest.raises(TypeError, match="not a class coefficient"):
            sp.CohClass.combine(p2, [(1.5, a, a)])


def _invert(v):
    return v if isinstance(v, Fraction) else v.invert_y()


class TestCoefficientMaps:
    """invert_y, at_minus_one and normalize_cycles on the integer numerators
    agree with the same maps applied coefficient by coefficient."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_invert_y(self, data):
        space = data.draw(st.sampled_from(KERNEL_MODELS))
        c = data.draw(classes_on(space))
        assert c.invert_y() == c.map_coeffs(_invert)
        assert c.invert_y().invert_y() == c

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_at_minus_one(self, data):
        space = data.draw(st.sampled_from(KERNEL_MODELS))
        c = data.draw(classes_on(space))
        if any(not isinstance(v, Fraction) and v._k for _, v in c.items()):  # a pole
            with pytest.raises(NotPolynomial):
                c.at_minus_one()
        else:
            assert c.at_minus_one() == sp.CohClass(space, {
                e: v if isinstance(v, Fraction) else v(-1) for e, v in c.items()})

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_normalize_cycles(self, data):
        space = data.draw(st.sampled_from(KERNEL_MODELS))
        c = data.draw(classes_on(space))
        assert c.normalize_cycles() == sp.CohClass(space, {
            e: RationalFunctionY(LaurentY.one(), space.dim - sum(e)) * v for e, v in c.items()})


# ---------------------------------------------------------------------------
# the arithmetic of one registry pass against the routes it replaced


def old_degree_sign(c):
    """(-1)^j on the degree-j part, term by term."""
    return sp.CohClass(c.space, {e: v if sum(e) % 2 == 0 else -v for e, v in c.items()})


def old_adams_power_sums(V):
    """q_k = rank + sum of k^m p_m / m! for k = 1..rank, one scalar multiply
    and one add per (k, m)."""
    space = V.space
    p = power_sums(V)
    q = []
    for k in range(1, V.rank + 1):
        acc = space.constant(Fraction(V.rank))
        for m in range(1, space.dim + 1):
            acc = acc + p[m - 1] * Fraction(k**m, factorial(m))
        q.append(acc)
    return q


def old_lambda_y(V):
    e = _elementary_from_power_sums(V.space, old_adams_power_sums(V), V.rank)
    ch = V.space.zero()
    for i, c in enumerate(e):
        ch = ch + c * LaurentY.y(i)
    return ch


def old_twisted_chern(E, t):
    """c_k(E(x)L) = sum over j of C(rank-j, k-j) c_j(E) t^(k-j), degree by degree."""
    space = t.space
    total = space.zero()
    for k in range(space.dim + 1):
        for j in range(k + 1):
            b = comb(E.rank - j, k - j) if 0 <= k - j <= E.rank - j else 0
            if b:
                total = total + E.chern(j) * (t ** (k - j)) * Fraction(b)
    return total


def old_bundle_gysin(m, c):
    """The xi^(r-1) coefficients summed as typed coefficients, then rebuilt."""
    r = m.source.key[2]
    nb = len(m.target.gens)
    raw = {}
    for exp, v in c.items():
        if exp[nb] == r - 1:
            raw[exp[:nb]] = raw.get(exp[:nb], 0) + v
    return sp.CohClass(m.target, raw)


@pytest.fixture(scope="module")
def family_members():
    return [member for _, members in bundle_family().values() for member in members]


def _bundles_on(space):
    out = [space.tangent_bundle(), space.tangent_bundle().dual()]
    if space.divisors is not None:
        out.append(space.log_cotangent())
    return out


class TestRegistryArithmetic:
    """Adams operations, the closed-form twisted Chern class and the
    numerator-level Gysin map agree with the routes they replaced."""

    @pytest.mark.parametrize("space", KERNEL_MODELS, ids=model_id)
    def test_lambda_y_through_adams_operations(self, space):
        for V in _bundles_on(space):
            ch = chern_character(V)
            assert [ch.adams(k) for k in range(1, V.rank + 1)] == old_adams_power_sums(V)
            assert lambda_y(V) == old_lambda_y(V)

    def test_lambda_y_on_the_bundle_family(self, family_members):
        assert len(family_members) == 238
        for _, _, tot in family_members:
            for V in _bundles_on(tot):
                assert lambda_y(V) == old_lambda_y(V), tot.name

    def test_twisted_chern_on_the_bundle_family(self, family_members):
        for twists, E, tot in family_members:
            xi = tot.gen_class(len(tot.gens) - 1)
            E_up = sp.BundleClass(E.rank, sp._embedded(tot, 0, E.total_chern))
            assert ref._twisted_chern(E_up, xi) == old_twisted_chern(E_up, xi), twists
            assert tot._classes["relative_tangent"].total_chern == old_twisted_chern(E_up, xi)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.lists(st.integers(-4, 4), min_size=1, max_size=4),
           st.integers(-3, 3))
    def test_twisted_chern_on_split_bundles(self, n, twists, a):
        # E(x)O(a) of a split E is split again, its multiples moved by a
        base = sp.projective(n)
        E = ref.sum_of_line_bundles(base, twists)
        t = base.gen_class(0) * a
        want = sp.sum_of_line_bundles(base, [x + a for x in twists]).total_chern
        assert ref._twisted_chern(E, t) == old_twisted_chern(E, t) == want

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_adams_scales_each_degree(self, data):
        space = data.draw(st.sampled_from(KERNEL_MODELS))
        c = data.draw(classes_on(space))
        k = data.draw(st.integers(-3, 3))
        want = space.zero()
        for j in range(space.dim + 1):
            want = want + c.component(j) * k**j
        assert c.adams(k) == want
        assert c.adams(-1) == old_degree_sign(c)

    def test_adams_keeps_fractional_and_pole_denominators(self):
        p2 = sp.projective(2)
        c = sp.CohClass(p2, {(0,): Fraction(1, 3), (1,): RationalFunctionY(LaurentY.y(), 2),
                             (2,): Fraction(5, 4)})
        assert c.adams(2) == sp.CohClass(p2, {
            (0,): Fraction(1, 3), (1,): RationalFunctionY(LaurentY({1: 2}), 2), (2,): 5})
        assert c.adams(-1) == old_degree_sign(c)
        assert c.adams(0) == p2.constant(Fraction(1, 3))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bundle_gysin_on_numerators(self, data):
        tot = data.draw(st.sampled_from([KERNEL_MODELS[5], sp.projective_bundle(
            sp.projective(1), sp.sum_of_line_bundles(sp.projective(1), [-1, 2]))]))
        c = data.draw(classes_on(tot))
        pi = sp.bundle_projection(tot)
        assert sp.gysin_pushforward(pi, c) == old_bundle_gysin(pi, c)

    def test_bundle_gysin_with_a_pole_denominator(self):
        tot = KERNEL_MODELS[5]  # P(O + O(1) + O(3)) over P2, fibers P2
        h, xi = tot.gen_class(0), tot.gen_class(1)
        c = (xi**2 * RationalFunctionY(LaurentY({0: 1, 2: 3}), 3)
             + h * xi**2 * Fraction(2, 7) + xi * RationalFunctionY(LaurentY.one(), 1))
        assert c._k == 3
        pi = sp.bundle_projection(tot)
        got = sp.gysin_pushforward(pi, c)
        assert got == old_bundle_gysin(pi, c)
        assert got._k == 3 and got.space is pi.target


# the Grothendieck and fractional documents with xi first: the first generator
# has a rewriting relation, so g^j rewrites, and the fractional one gives c(E)
# of a split E a denominator
XI_FIRST_DOCUMENTS = ["""
dim 2
gens xi h
relation h^2 = 0
relation xi^2 = -1*h*xi
integral h*xi = 1
tangent 1 + 2*xi + 3*h + 4*h*xi
""", """
dim 3
gens xi h
relation h^3 = 0
relation xi^2 = 1/2*h*xi - 1/3*h^2
integral h^2*xi = 1
tangent 1 + 2*xi + 3*h
"""]

CLOSED_FORM_BASES = (
    [sp.projective(n) for n in range(4)]
    + [sp.product(sp.projective(1), sp.projective(2)), sp.hypersurface(3, 2)]
    + [sp.from_document(d) for d in (QUADRIC_DOCUMENT, GROTHENDIECK_DOCUMENT,
                                     FRACTIONAL_DOCUMENT, *XI_FIRST_DOCUMENTS)])
CLOSED_FORM_IDS = ["P0", "P1", "P2", "P3", "P1xP2", "Hyp(3,2)", "quadric", "grothendieck",
                   "fractional", "grothendieck-xi-first", "fractional-xi-first"]


def _twists(top):
    return [t for r in range(top + 1) for t in itertools.combinations_with_replacement(
        range(-3, 4), r)]


class TestClosedFormBundles:
    """``sum_of_line_bundles`` and the twisted Chern class of a projective
    bundle, each one reduction, against the Whitney sums and Horner's rule
    they replaced (``reference_bundles``)."""

    @pytest.mark.parametrize("space", CLOSED_FORM_BASES, ids=CLOSED_FORM_IDS)
    def test_sum_of_line_bundles(self, space):
        for twists in _twists(3):
            got = sp.sum_of_line_bundles(space, twists)
            assert got == ref.sum_of_line_bundles(space, twists), twists
            assert got.rank == len(twists)
            assert got.splitting is None
        assert sp.line_bundle(space, -2) == ref.line_bundle(space, -2)

    def test_the_xi_first_documents_rewrite_and_carry_denominators(self):
        grothendieck, fractional = map(sp.from_document, XI_FIRST_DOCUMENTS)
        assert sp.sum_of_line_bundles(grothendieck, [1, 2]).total_chern.coeff((1, 1)) == -2
        c = sp.sum_of_line_bundles(fractional, [1, 2, 3]).total_chern
        assert c._d > 1 and c == ref.sum_of_line_bundles(fractional, [1, 2, 3]).total_chern

    @pytest.mark.parametrize("space", CLOSED_FORM_BASES, ids=CLOSED_FORM_IDS)
    def test_projective_bundle_tangent_classes(self, space):
        for twists in _twists(3)[1:]:
            E = ref.sum_of_line_bundles(space, twists)
            tot = fresh(lambda: sp.projective_bundle(space, E))
            xi = tot.gen_class(len(tot.gens) - 1)
            rel = ref._twisted_chern(sp.BundleClass(E.rank, sp._embedded(tot, 0, E.total_chern)),
                                     xi)
            assert tot._classes["relative_tangent"].total_chern == rel, twists
            assert tot.tangent_chern == sp._embedded(tot, 0, space.tangent_chern) * rel, twists

    def test_the_registry_family_is_154_models(self):
        family = bundle_family()
        assert sum(len(members) for _, members in family.values()) == 238
        keys = {n: {tot.key for _, _, tot in members} for n, (_, members) in family.items()}
        assert {n: len(k) for n, k in keys.items()} == {1: 39, 2: 115}


# ---------------------------------------------------------------------------
# maps that only re-key monomials move the numerators; the routes they
# replaced rebuilt each class from its typed coefficients


def old_pull_to_product(prod, axis, c):
    start, width = sum(len(f.gens) for f in prod.factors[:axis]), len(prod.gens)
    pad = lambda e: (0,) * start + e + (0,) * (width - start - len(e))
    return sp.CohClass(prod, {pad(e): v for e, v in c.items()})


def old_lift_from_base(total, c):
    return sp.CohClass(total, {e + (0,): v for e, v in c.items()})


def old_hypersurface_inclusion(m, c):
    d = m.source.key[2]
    return sp.CohClass(m.target, {(e[0] + 1,): v * d for e, v in c.items()})


def old_linear_embedding(m, c):
    shift = m.target.dim - m.source.dim
    return sp.CohClass(m.target, {(e[0] + shift,): v for e, v in c.items()})


def old_exterior_product(a, b):
    raw = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            raw[e1 + e2] = raw.get(e1 + e2, 0) + v1 * v2
    return sp.CohClass(sp.product(a.space, b.space), raw)


REKEY_FACTORS = [sp.projective(1), sp.projective(2), sp.hypersurface(3, 4),
                 sp.product(sp.projective(1), sp.projective(1)), KERNEL_MODELS[-1]]
BUNDLES = [KERNEL_MODELS[5], sp.projective_bundle(
    sp.projective(1), sp.sum_of_line_bundles(sp.projective(1), [-1, 2]))]


class TestRekeyingMaps:
    """Each re-keying map gives the class the old route built, stored
    identically (``==`` compares the canonical numerators)."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_pull_to_product_on_both_axes(self, data):
        factors = [data.draw(st.sampled_from(REKEY_FACTORS)) for _ in range(2)]
        prod = sp.product(*factors)
        for axis, f in enumerate(prod.factors):
            c = data.draw(classes_on(f))
            assert sp.pull_to_product(prod, axis, c) == old_pull_to_product(prod, axis, c)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_lift_from_base(self, data):
        tot = data.draw(st.sampled_from(BUNDLES))
        c = data.draw(classes_on(tot.base))
        assert sp._embedded(tot, 0, c) == old_lift_from_base(tot, c)
        assert sp.ring_pullback(sp.bundle_projection(tot), c) == old_lift_from_base(tot, c)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_hypersurface_inclusion(self, data):
        hyp = data.draw(st.sampled_from([sp.hypersurface(3, 4), sp.hypersurface(4, 3),
                                         sp.hypersurface(2, 6)]))
        m = sp.hypersurface_inclusion(hyp)
        c = data.draw(classes_on(hyp))
        assert sp.gysin_pushforward(m, c) == old_hypersurface_inclusion(m, c)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_linear_embedding(self, data):
        k = data.draw(st.integers(0, 3))
        m = sp.linear_embedding(k, data.draw(st.integers(k, 5)))
        c = data.draw(classes_on(m.source))
        assert sp.gysin_pushforward(m, c) == old_linear_embedding(m, c)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_exterior_product(self, data):
        a, b = (data.draw(classes_on(data.draw(st.sampled_from(REKEY_FACTORS))))
                for _ in range(2))
        assert sp.exterior_product(a, b) == old_exterior_product(a, b)


# ---------------------------------------------------------------------------
# one live model per key


def spec_atoms(level, boundary=True):
    """One space atom; with ``boundary`` false, no ``Arr`` anywhere in it."""
    arrangements = st.integers(1, 3).flatmap(
        lambda n: st.integers(0, n + 1).map(lambda k: f"Arr({n},{k})"))
    atoms = [st.integers(0, 3).map(lambda n: f"P{n}"),
             st.tuples(st.integers(2, 4), st.integers(1, 4)).map(lambda t: "Hyp(%d,%d)" % t)]
    if boundary:
        atoms.append(arrangements)
    if level:  # a projective bundle needs a base without boundary data
        twists = st.lists(st.integers(-3, 3), min_size=1, max_size=3)
        atoms.append(st.tuples(spec_products(level - 1, boundary=False), twists).map(
            lambda t: f"Proj({t[0]}; {','.join(map(str, t[1]))})"))
    return st.one_of(atoms)


def spec_products(level, boundary=True):
    """Space specs: products of P, Hyp, Arr (unless ``boundary`` is false) and,
    below ``level`` nestings, Proj atoms over bases without boundary data."""
    return st.lists(spec_atoms(level, boundary), min_size=1, max_size=3).map("x".join)


SPACE_SPECS = spec_products(1)


def _read(read):
    """What a read of a model gives: its value, or the refusal it raises."""
    try:
        return read()
    except InvalidParameter as exc:
        return exc.__class__, str(exc)


def assert_same_model(a, b):
    """Everything a caller can see of two models is equal: each read gives
    equal values on both, or the same refusal on both, as a class past the
    exterior-product budget is refused."""
    assert a.key == b.key
    assert (a._rules, a._integrals, a.gens) == (b._rules, b._integrals, b.gens)
    assert [f.key for f in a.factors] == [f.key for f in b.factors]
    assert (a.base and a.base.key) == (b.base and b.base.key)
    assert _read(a.describe) == _read(b.describe)
    assert _read(lambda: a.tangent_chern) == _read(lambda: b.tangent_chern)
    assert (a.divisors is None) == (b.divisors is None)
    if a.divisors is not None:
        assert a.divisors == b.divisors
        assert _read(lambda: a.log_cotangent()) == _read(lambda: b.log_cotangent())


class TestModelKey:
    @settings(max_examples=80, deadline=None)
    @given(SPACE_SPECS)
    @example("P3xProj(P2xP3xP3; 0)xProj(P2xP3xP3; 0,0)")  # describe() passes the budget
    def test_one_instance_per_spec(self, spec):
        space = parse_space(spec)
        assert parse_space(spec) is space
        built = fresh(lambda: parse_space(spec))
        assert built is not space
        assert_same_model(built, space)

    @pytest.mark.parametrize("doc", [QUADRIC_DOCUMENT, GROTHENDIECK_DOCUMENT,
                                     FRACTIONAL_DOCUMENT])
    def test_one_instance_per_document(self, doc):
        space = sp.from_document(doc)
        assert sp.from_document("# the same model\n" + doc) is space
        built = fresh(lambda: sp.from_document(doc))
        assert built is not space
        assert_same_model(built, space)

    def test_boundary_data_is_part_of_the_key(self):
        p2 = sp.projective(2)
        models = [p2, sp.with_arrangement(p2, 2), sp.with_arrangement(p2, 0)]
        assert len({m.key for m in models}) == len({id(m) for m in models}) == 3
        gm = sp.with_arrangement(sp.projective(1), 2)
        for n in range(1, 4):
            torus, lines = sp.product(*[gm] * n), sp.product(*[sp.projective(1)] * n)
            assert torus is not lines and torus.key != lines.key
            assert torus.divisors is not None and lines.divisors is None

    def test_only_the_plain_point_is_dropped_from_a_product(self):
        # an arrangement on P0 is kept with its boundary data, as it is alone
        p1 = sp.projective(1)
        assert sp.product(sp.point(), p1) is p1
        for k in (0, 1):
            space = sp.product(sp.with_arrangement(sp.point(), k), p1)
            assert space.key == ("product", ("arr", 0, k), ("proj", 1))
            assert space.divisors is not None

    def test_arrangement_leaves_projective_space_unchanged(self):
        p2 = sp.projective(2)
        before = p2.describe()
        arr = sp.with_arrangement(p2, 2)
        assert arr is not p2 and arr.name == "P2\\2H"
        assert sp.projective(2) is p2
        assert (p2.name, p2.divisors, p2.factors, p2.base, p2.describe()) == (
            "P2", None, (), None, before)

    def test_open_restriction_maps_to_the_compactification(self):
        p1, p2 = sp.projective(1), sp.projective(2)
        gm = sp.with_arrangement(p1, 2)
        arr = sp.with_arrangement(p2, 2)
        for space, target in ((arr, p2), (p2, p2), (sp.product(gm, gm), sp.product(p1, p1)),
                              (sp.product(gm, p2, arr), sp.product(p1, p2, p2))):
            m = sp.open_restriction(space)
            assert m.source is space and m.target is target
            c = space.tangent_chern
            pushed = sp.gysin_pushforward(m, c)
            assert pushed.space is target and pushed._c == c._c
            assert sp.ring_pullback(m, pushed) == c

    def test_models_no_caller_holds_are_freed(self):
        def build():
            hyp = sp.hypersurface(6, 11)  # a model no other test builds
            return [weakref.ref(m) for m in (hyp, sp.product(hyp, hyp),
                                              sp.with_arrangement(sp.projective(5), 5))]
        refs = build()
        gc.collect()
        assert [r() for r in refs] == [None] * 3
        assert not {("hyp", 6, 11), ("arr", 5, 5)} & set(sp._live)

    def test_relation_terms_that_cancel_are_dropped(self):
        doc = ("dim 2\ngens h k\nrelation h^2 = 0\nrelation k^2 = {}\n"
               "integral h*k = 1\ntangent 1 + 2*h + 2*k\n")
        first, second = (sp.from_document(doc.format(rhs)) for rhs in ("h*k - h*k", "0"))
        assert first is second
        assert first.gen_class(1) + second.gen_class(1) == first.monomial((0, 1), 2)
        with pytest.raises(ParseError, match=r"not homogeneous .*\(line 3\)"):
            sp.from_document(doc.replace("h^2 = 0", "h^2 = h - h").format("0"))

    def test_bundle_with_a_huge_chern_coefficient_builds(self):
        p1 = sp.projective(1)
        tot = sp.projective_bundle(p1, sp.sum_of_line_bundles(p1, [10**5000, 1]))
        assert tot.dim == 2
        assert sp.projective_bundle(p1, sp.sum_of_line_bundles(p1, [1, 10**5000])) is tot
        with pytest.raises(InvalidParameter, match="too large to print"):
            tot.describe()


# ---------------------------------------------------------------------------
# refusals and paths that no other test runs


def _document(*lines):
    """A custom document on two generators a, b of dimension 2."""
    return "\n".join(("dim 2", "gens a b") + lines) + "\n"


class TestSeldomRun:
    @pytest.mark.parametrize("call, error, reason", [
        (lambda: sp.projective(-1), InvalidParameter, "dimension must be >= 0"),
        (lambda: sp.projective_bundle(sp.projective(2), sp.trivial_bundle(sp.projective(1), 2)),
         InvalidParameter, "does not live on the base"),
        (lambda: sp.BundleClass(1, sp.projective(1).gen_class()), InvalidParameter,
         "constant term 1"),
        (lambda: sp.projective(1).gen_class() ** -1, InvalidParameter, "negative power"),
        (lambda: sp.with_arrangement(sp.product(sp.projective(1), sp.projective(1)), 1),
         InvalidParameter, "modeled on projective space"),
        (lambda: sp.product_projection(sp.projective(2), 0), UnsupportedMap, "product model"),
        (lambda: sp.product_projection(sp.product(sp.projective(1), sp.projective(1)), 2),
         UnsupportedMap, "no such factor"),
        (lambda: sp.hypersurface_inclusion(sp.projective(2)), UnsupportedMap,
         "hypersurface model"),
        (lambda: sp.linear_embedding(3, 2), UnsupportedMap, "0 <= k <= n"),
        (lambda: sp.gysin_pushforward(sp.identity_map(sp.projective(1)),
                                      sp.projective(2).one()),
         InvalidParameter, "source of the map"),
        (lambda: sp.from_document(_document("volume 3")), ParseError, "unknown directive"),
        (lambda: sp.from_document(_document("relation a^2 + b^2 = 0")), ParseError,
         "single monomial"),
        (lambda: sp.from_document(_document("relation a*b = 0")), ParseError,
         "pure generator power"),
        (lambda: sp.from_document(_document("relation 2*a^2 = 0")), ParseError,
         "pure generator power"),
        (lambda: sp.from_document(_document("integral 2*a*b = 1")), ParseError,
         "bare monomial"),
        (lambda: sp.from_document(_document("integral a = 1")), ParseError,
         "must have top degree"),
        (lambda: sp.from_document(_document("tangent 1 + a")), ParseError,
         "at least one 'integral'"),
    ], ids=["projective-negative", "bundle-off-base", "chern-constant-term",
            "negative-power", "arrangement-on-product", "projection-of-non-product",
            "projection-axis", "inclusion-of-P2", "embedding-P3-in-P2",
            "pushforward-off-source", "document-directive", "document-relation-sum",
            "document-relation-mixed", "document-relation-scaled", "document-integral-scaled",
            "document-integral-degree", "document-no-integral"])
    def test_refusal(self, call, error, reason):
        with pytest.raises(error, match=reason):
            call()

    def test_rewritten_terms_that_cancel_leave_zero(self):
        m = sp.from_document(_document("relation b^2 = -1*a^2", "integral a^2 = 1",
                                       "tangent 1 + 3*a"))
        assert sp.CohClass(m, {(2, 0): 1, (0, 2): 1}).is_zero()
        assert sp.CohClass(m, {(2, 0): 1, (0, 2): 2}) == m.monomial((0, 2))

    def test_sum_of_classes_and_a_scalar_subtracted(self):
        p2 = sp.projective(2)
        h = p2.gen_class()
        assert sum([h, h * h, h]) == h * 2 + h * h
        assert h - 1 == h + p2.constant(-1) == -(1 - h)
