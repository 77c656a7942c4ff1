"""The expression language and space-spec syntax."""

import operator
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hirzebruch import cli
from hirzebruch import exprlang as ex
from hirzebruch import motivic as mo
from hirzebruch import spaces as sp
from hirzebruch.errors import ParseError
from hirzebruch.hodge import HodgeDiamond, parse_uv
from hirzebruch.rings import parse_y


class TestParse:
    def test_product_and_difference(self):
        tree = ex.parse_expr("P2 * P1 - L")
        assert tree == ("sub", ("mul", ("atom", "P2"), ("atom", "P1")), ("atom", "L"))

    def test_scalar_juxtaposition(self):
        tree = ex.parse_expr("P2 - 2 P1 + pt")
        cls = ex.evaluate(tree)
        assert cls == mo.arrangement_complement(2, 2)
        assert cls.e_polynomial() == HodgeDiamond({(2, 2): 1, (1, 1): -1})

    def test_dangling_operator(self):
        with pytest.raises(ParseError) as err:
            ex.parse_expr("P2 +")
        assert err.value.position >= 3
        assert err.value.expected  # a nonempty set of acceptable tokens

    def test_unknown_atom(self):
        with pytest.raises(ParseError) as err:
            ex.parse_expr("P2 + Q5")
        assert err.value.position == 5

    def test_parentheses_and_powers_of_scalars(self):
        assert ex.evaluate(ex.parse_expr("2*(P1 + pt)")) == \
            2 * (mo.projective(1) + mo.point())
        assert ex.evaluate(ex.parse_expr("L*L - 1")) == \
            mo.lefschetz() * mo.lefschetz() - mo.point()

    def test_atoms_evaluate(self):
        assert ex.evaluate(ex.parse_expr("Gm")) == mo.torus()
        assert ex.evaluate(ex.parse_expr("A3")) == mo.affine(3)
        assert ex.evaluate(ex.parse_expr("C1")) == mo.curve(1)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            ex.parse_expr("P1 P2")


def rand_tree(rng, depth=0):
    if depth > 3 or rng.random() < 0.4:
        choice = rng.randint(0, 5)
        if choice == 0:
            return ("int", rng.randint(0, 9))
        return ("atom", rng.choice(["P1", "P2", "A2", "C1", "Gm", "L", "pt"]))
    op = rng.choice(["add", "sub", "mul"])
    return (op, rand_tree(rng, depth + 1), rand_tree(rng, depth + 1))


def depth(tree):
    """The depth the parser caps: one level per + - * node; a power counts as
    the product it stands for, so X^n adds n - 1 (at least one) and
    (X^a)^b counts ab - 1."""
    kind = tree[0]
    if kind in ("atom", "int"):
        return 0
    if kind == "dual":
        return depth(tree[1])
    if kind == "pow":
        return (depth(tree[1]) + 1) * max(tree[2], 2) - 1
    return 1 + max(depth(tree[1]), depth(tree[2]))


class TestDepthCap:
    def test_nesting_up_to_the_cap_parses(self):
        deep = "(" * ex.MAX_DEPTH + "P1" + ")" * ex.MAX_DEPTH
        assert ex.evaluate(ex.parse_expr(deep)) == mo.projective(1)
        chain = "+".join(["pt"] * ex.MAX_DEPTH)
        tree = ex.parse_expr(chain)
        assert depth(tree) == ex.MAX_DEPTH - 1
        assert ex.parse_expr(ex.render(tree)) == tree
        assert ex.evaluate(tree) == mo.point() * ex.MAX_DEPTH
        space = ex.parse_space("(" * ex.MAX_DEPTH + "P1" + ")" * ex.MAX_DEPTH)
        assert space.key == ("proj", 1)

    @pytest.mark.parametrize("src, offset", [
        ("(" * (ex.MAX_DEPTH + 1) + "P1" + ")" * (ex.MAX_DEPTH + 1), ex.MAX_DEPTH + 1),
        ("+".join(["pt"] * (ex.MAX_DEPTH + 2)), 3 * ex.MAX_DEPTH + 2),
        ("2 " * (ex.MAX_DEPTH + 1) + "P1", 2 * ex.MAX_DEPTH + 2),
    ], ids=["parentheses", "sum", "juxtaposition"])
    def test_one_level_more_is_a_parse_error(self, src, offset):
        with pytest.raises(ParseError) as err:
            ex.parse_expr(src)
        assert err.value.position == offset

    def test_space_spec_nesting(self):
        deep = "Proj(" * (ex.MAX_DEPTH + 1) + "P1" + ";0)" * (ex.MAX_DEPTH + 1)
        with pytest.raises(ParseError) as err:
            ex.parse_space(deep)
        assert err.value.position == 5 * (ex.MAX_DEPTH + 1)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(25))
    def test_parse_render_identity(self, seed):
        tree = rand_tree(random.Random(seed))
        assert ex.parse_expr(ex.render(tree)) == tree

    def test_render_examples(self):
        tree = ex.parse_expr("P2 - 2 P1 + pt")
        assert ex.render(tree) == "P2 - 2*P1 + pt"


class TestPowersDualsAndSignedLiterals:
    def test_trees(self):
        assert ex.parse_expr("P2^2 - D(P1)") == \
            ("sub", ("pow", ("atom", "P2"), 2), ("dual", ("atom", "P1")))
        assert ex.parse_expr("-1*P1 + P2") == \
            ("add", ("mul", ("int", -1), ("atom", "P1")), ("atom", "P2"))
        assert ex.parse_expr("P2 + -3") == ("add", ("atom", "P2"), ("int", -3))
        assert ex.parse_expr("P1^2^3") == ("pow", ("pow", ("atom", "P1"), 2), 3)

    def test_binary_minus_is_read_first(self):
        assert ex.parse_expr("P2 -1") == ("sub", ("atom", "P2"), ("int", 1))
        assert ex.parse_expr("2 -1") == ("sub", ("int", 2), ("int", 1))

    def test_values_match_the_python_built_classes(self):
        p1, p2 = mo.projective(1), mo.projective(2)
        assert ex.evaluate(ex.parse_expr("P2^2 - D(P1)")) == p2 ** 2 - p1.dual()
        assert ex.evaluate(ex.parse_expr("-1*P1 + P2")) == -p1 + p2
        assert ex.evaluate(ex.parse_expr("(P1 - pt)^3")) == mo.lefschetz() ** 3
        assert ex.evaluate(ex.parse_expr("P1^0")) == mo.point()

    @pytest.mark.parametrize("src, offset", [
        ("P1^-1", 3), ("P1^x", 3), ("P1^", 3), ("- 1", 0), ("-P1", 0), ("D (P1)", 0),
        ("D(P1", 4), ("P1 D(P1)", 3),
    ])
    def test_malformed(self, src, offset):
        with pytest.raises(ParseError) as err:
            ex.parse_expr(src)
        assert err.value.position == offset

    def test_a_power_counts_like_the_product_it_stands_for(self):
        top = f"P1^{ex.MAX_DEPTH + 1}"
        assert depth(ex.parse_expr(top)) == ex.MAX_DEPTH
        with pytest.raises(ParseError) as err:
            ex.parse_expr(f"P1^{ex.MAX_DEPTH + 2}")
        assert err.value.position == 2 and "nesting" in str(err.value)
        with pytest.raises(ParseError) as err:  # ^1 and ^0 count as ^2
            ex.parse_expr("P1" + "^1" * 7)  # depth 1, 3, 7, ..., 127
        assert err.value.position == 14
        with pytest.raises(ParseError) as err:
            ex.parse_expr("P1" + "^0" * 7)
        assert err.value.position == 14

    def test_nested_powers_count_the_product_of_their_exponents(self):
        assert depth(ex.parse_expr("P1^10^10")) == 99
        assert depth(ex.parse_expr("(P1 + pt)^2^5")) == 19  # (1 + 1)*2*5 - 1
        assert depth(ex.parse_expr("P1" + "^2" * 6)) == 63
        for src, offset in [("P1^10^11", 5), ("P1" + "^2" * 20, 14), ("2" + "^2" * 14, 13),
                            (f"(P1^{ex.MAX_DEPTH // 2})^3", 7)]:
            with pytest.raises(ParseError) as err:
                ex.parse_expr(src)
            assert err.value.position == offset and "nesting" in str(err.value)
        with pytest.raises(ParseError) as err:
            ex.parse_expr("P1^" + "9" * 5000)
        assert err.value.position == 3

    def test_dual_opens_a_level(self):
        deep = "D(" * ex.MAX_DEPTH + "P1" + ")" * ex.MAX_DEPTH
        assert ex.evaluate(ex.parse_expr(deep)) == mo.projective(1)  # an involution
        assert ex.evaluate(ex.parse_expr(deep[2:-1])) == mo.projective(1).dual()
        with pytest.raises(ParseError) as err:
            ex.parse_expr("D(" * (ex.MAX_DEPTH + 1) + "P1" + ")" * (ex.MAX_DEPTH + 1))
        assert err.value.position == 2 * (ex.MAX_DEPTH + 1)

    def test_python_built_classes_display_their_nesting(self):
        p1, p2, p3 = mo.projective(1), mo.projective(2), mo.projective(3)
        assert str(p1 + (p2 + p3)) == "P1 + (P2 + P3)"
        assert str(p1 * (p2 * p3)) == "P1*(P2*P3)"
        assert str(p3 - p2 * 2 + p1) == "P3 - 2*P2 + P1"
        assert str(-p1) == "-1*P1"
        assert str((p1 ** 2).dual() - 3) == "D(P1^2) - 3"


ATOM_NAMES = ["P0", "P1", "P2", "A0", "A2", "C0", "C2", "Gm", "L", "pt"]

trees = st.recursive(
    st.one_of(st.sampled_from(ATOM_NAMES).map(lambda a: ("atom", a)),
              st.integers(-12, 12).map(lambda n: ("int", n))),
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul"]), kids, kids),
        st.tuples(st.just("pow"), kids, st.integers(0, 4)),
        st.tuples(st.just("dual"), kids)),
    max_leaves=10)

ATOMS = [mo.point(), mo.lefschetz(), mo.torus(), mo.projective(1), mo.affine(2),
         mo.curve(1)]


def _combine(kids):
    ints = st.integers(-4, 4)
    return st.one_of(
        *[st.builds(op, kids, kids) for op in (operator.add, operator.sub, operator.mul)],
        st.builds(operator.add, kids, ints), st.builds(operator.add, ints, kids),
        st.builds(operator.sub, kids, ints),
        st.builds(operator.mul, kids, ints), st.builds(operator.mul, ints, kids),
        st.builds(operator.neg, kids),
        st.builds(operator.pow, kids, st.integers(0, 3)),
        kids.map(lambda c: c.dual()))


classes = st.recursive(st.sampled_from(ATOMS), _combine, max_leaves=6)

# superscript and other non-decimal digits, non-ASCII letters and the
# grammar's own characters, mixed into arbitrary text
texts = st.text(st.one_of(st.sampled_from("P2AC0Gm Lpt+-*()^D/uvy²³½٣éß"),
                          st.characters()), max_size=40)


class TestRoundTripProperties:
    @settings(max_examples=300, deadline=None)
    @given(trees)
    def test_render_parses_back_to_the_tree(self, tree):
        assume(depth(tree) <= ex.MAX_DEPTH)
        assert ex.parse_expr(ex.render(tree)) == tree
        assert ex.evaluate(tree).expr == tree

    @settings(max_examples=200, deadline=None)
    @given(classes)
    def test_a_class_survives_its_display(self, cls):
        assume(depth(cls.expr) <= ex.MAX_DEPTH)  # the parser refuses deeper displays
        back = ex.evaluate(ex.parse_expr(str(cls)))
        assert back.expr == cls.expr
        assert back == cls

    @settings(max_examples=500, deadline=None)
    @given(texts)
    def test_parsers_return_or_raise_parse_error(self, src):
        for parse in (ex.parse_expr, parse_y, parse_uv):
            try:
                parse(src)
            except ParseError:
                pass

    @pytest.mark.parametrize("src", ["²", "P1 + ²", "2²", "y^²", "u²"])
    def test_superscript_digits_are_parse_errors(self, src):
        for parse in (ex.parse_expr, parse_y, parse_uv):
            with pytest.raises(ParseError):
                parse(src)


class TestSpaceSpec:
    def test_projective(self):
        assert ex.parse_space("P3").key == ("proj", 3)

    def test_product(self):
        space = ex.parse_space("P1xP1xP2")
        assert space.dim == 4
        assert space.key == ("product", ("proj", 1), ("proj", 1), ("proj", 2))

    def test_bundle(self):
        space = ex.parse_space("Proj(P1; 0,1)")
        assert space.key[0] == "projbundle"
        assert space.dim == 2
        base = sp.projective(1)
        want = sp.projective_bundle(base, sp.sum_of_line_bundles(base, [0, 1]))
        assert space.key == want.key

    def test_negative_twists(self):
        space = ex.parse_space("Proj(P2; -1,2,0)")
        assert space.dim == 4

    def test_hypersurface_and_arrangement(self):
        assert ex.parse_space("Hyp(3,4)").key == ("hyp", 3, 4)
        arr = ex.parse_space("Arr(2,3)")
        assert arr.log is not None and len(arr.log.divisors) == 3

    def test_errors(self):
        for bad in ("P", "Proj(P1)", "Hyp(3)", "P1yP2", "Arr(2,3"):
            with pytest.raises(ParseError):
                ex.parse_space(bad)

    @pytest.mark.parametrize("src, offset, message", [
        ("P1xé", 3, "unexpected character 'é' in space spec"),
        ("P²", 0, "unexpected character 'P' in space spec"),
        ("P1x(P" + "9" * 5000 + ")", 4, "integer literal too long"),
    ])
    def test_error_messages(self, src, offset, message):
        with pytest.raises(ParseError) as err:
            ex.parse_space(src)
        assert err.value.position == offset and err.value.reason == message

    @pytest.mark.parametrize("atom", ["P", "A", "C"])
    def test_an_unreadable_atom_index_is_a_parse_error(self, atom):
        with pytest.raises(ParseError) as err:
            ex.parse_expr("pt + " + atom + "9" * 5000)
        assert err.value.position == 5

    def test_document_reference(self, tmp_path):
        doc = tmp_path / "plane.space"
        doc.write_text("dim 2\ngens h\nrelation h^3 = 0\n"
                       "integral h^2 = 1\ntangent 1 + 3*h + 3*h^2\n")
        space = ex.load_space(f"@{doc}")
        assert space.dim == 2 and space.key[0] == "custom"


class TestSpecRefusals:
    @pytest.mark.parametrize("spec", ["xP1", "P1)"])
    def test_refusal(self, spec, capsys):
        with pytest.raises(ParseError):
            ex.parse_space(spec)
        assert cli.main(["genus", "--space", spec]) == 2
        assert capsys.readouterr().err.startswith("error: ")
