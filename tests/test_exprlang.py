"""The expression language and space-spec syntax."""

import random

import pytest

from hirzebruch import exprlang as ex
from hirzebruch import motivic as mo
from hirzebruch import spaces as sp
from hirzebruch.errors import ParseError
from hirzebruch.rings import PolyUV


class TestParse:
    def test_product_and_difference(self):
        tree = ex.parse_expr("P2 * P1 - L")
        assert tree == ex.BinOp("-", ex.BinOp("*", ex.Atom("P2"), ex.Atom("P1")),
                                ex.Atom("L"))

    def test_scalar_juxtaposition(self):
        tree = ex.parse_expr("P2 - 2 P1 + pt")
        cls = ex.evaluate(tree)
        assert cls == mo.arrangement_complement(2, 2)
        assert cls.e_polynomial() == PolyUV({(2, 2): 1, (1, 1): -1})

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
            return ex.IntLit(rng.randint(0, 9))
        return ex.Atom(rng.choice(["P1", "P2", "A2", "C1", "Gm", "L", "pt"]))
    op = rng.choice(["+", "-", "*"])
    return ex.BinOp(op, rand_tree(rng, depth + 1), rand_tree(rng, depth + 1))


class TestDepthCap:
    def test_nesting_up_to_the_cap_parses(self):
        deep = "(" * ex.MAX_DEPTH + "P1" + ")" * ex.MAX_DEPTH
        assert ex.evaluate(ex.parse_expr(deep)) == mo.projective(1)
        chain = "+".join(["pt"] * ex.MAX_DEPTH)
        tree = ex.parse_expr(chain)
        assert tree.depth == ex.MAX_DEPTH - 1
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


class TestSpaceSpec:
    def test_projective(self):
        assert ex.parse_space("P3").key == ("proj", 3)

    def test_product(self):
        space = ex.parse_space("P1xP1xP2")
        assert space.dim == 4
        assert space.key == ("product", ("proj", 1), ("proj", 1), ("proj", 2))

    def test_bundle(self):
        space = ex.parse_space("Proj(P1; 0,1)")
        assert space.kind == "projbundle"
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

    def test_document_reference(self, tmp_path):
        doc = tmp_path / "plane.space"
        doc.write_text("dim 2\ngens h\nrelation h^3 = 0\n"
                       "integral h^2 = 1\ntangent 1 + 3*h + 3*h^2\n")
        space = ex.load_space(f"@{doc}")
        assert space.dim == 2 and space.kind == "custom"
