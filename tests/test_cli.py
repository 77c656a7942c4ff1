"""End-to-end command line behavior, including exit codes and determinism."""

import json
import os
import pathlib
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import HealthCheck, given, settings

from hirzebruch import bundles
from hirzebruch import cli
from hirzebruch import exprlang
from hirzebruch.errors import ParseError
from hirzebruch.rings import LaurentY, render_y
from hirzebruch.transforms import csm_arrangement, render_homology_on_projective
from test_exprlang import trees


NESTING = ("nesting deeper than", "offset")
TOO_LARGE = ("coefficient too large to print",)
BIG = "7" * 3000  # its square has more digits than str() converts


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_epoly_elliptic_curve(self, capsys):
        code, out, _ = run(capsys, "epoly", "C1")
        assert code == 0
        assert "epoly: 1 - u - v + u*v" in out

    def test_genus_of_plane(self, capsys):
        code, out, _ = run(capsys, "genus", "--space", "P2")
        assert code == 0
        assert "chi_y: 1 - y + y^2" in out
        assert "euler: 3" in out
        assert "signature: 1" in out

    def test_genus_motivic(self, capsys):
        code, out, _ = run(capsys, "genus", "--motivic", "P2*P1 - L")
        assert code == 0
        assert "chi_y:" in out

    @pytest.mark.parametrize("expr", ["D(P1)", "((P0) - (D(P3)))^3"])
    def test_motivic_genus_with_a_pole_at_zero(self, capsys, expr):
        """A chi_y with negative powers of y has no value at y = 0."""
        code, out, err = run(capsys, "genus", "--motivic", expr)
        assert code == 2 and not out
        assert err.startswith("error:") and "pole at y = 0" in err
        code, out, _ = run(capsys, "epoly", expr)
        assert code == 0 and "chi_y:" in out

    def test_genus_needs_exactly_one_input(self, capsys):
        code, _, err = run(capsys, "genus")
        assert code == 2 and "error" in err

    def test_classes_todd(self, capsys):
        code, out, _ = run(capsys, "classes", "--space", "P2", "--series", "todd")
        assert code == 0
        assert "3/2*h" in out
        assert "integral: 1" in out

    def test_classes_ty(self, capsys):
        code, out, _ = run(capsys, "classes", "--space", "P1", "--series", "ty")
        assert code == 0
        assert "(1 - y)*h" in out

    def test_arrangement_mht_specialization_line(self, capsys):
        code, out, _ = run(capsys, "arrangement", "--n", "2", "--k", "2", "--op", "mht")
        assert code == 0
        assert "y=-1: [P2] + 1*l" in out

    def test_arrangement_csm(self, capsys):
        code, out, _ = run(capsys, "arrangement", "--n", "2", "--k", "0", "--op", "csm")
        assert code == 0
        assert "[P2] + 3*l + 3*[pt]" in out

    def test_arrangement_genus(self, capsys):
        code, out, _ = run(capsys, "arrangement", "--n", "2", "--k", "2", "--op", "genus")
        assert code == 0
        assert "chi_y: 1 + y" in out
        assert "chi_y_compact: y + y^2" in out

    def test_genus_on_arrangement_spec_uses_open_mode(self, capsys):
        code, out, _ = run(capsys, "genus", "--space", "Arr(2,2)")
        assert code == 0
        assert "mode: open_complement" in out
        assert "chi_y: 1 + y" in out

    @pytest.mark.parametrize("spec", ["Proj(Arr(1,2);1)", "Proj(Arr(2,0);0,1)",
                                      "Proj(P1xArr(1,2);1)", "Proj(Proj(P1;0)xArr(1,1);0,0)"])
    def test_projective_bundle_over_an_open_base_exit_code(self, capsys, spec):
        # the bundle's model would drop the base's boundary: P(E) needs a closed base
        code, out, err = run(capsys, "genus", "--space", spec)
        assert code == 2 and not out
        assert err.startswith("error:") and "boundary data" in err

    def test_describe_arrangement_shows_boundary(self, capsys):
        code, out, _ = run(capsys, "describe", "--space", "Arr(2,3)")
        assert code == 0
        assert "log_cotangent_rank: 2" in out

    def test_classes_on_product(self, capsys):
        code, out, _ = run(capsys, "classes", "--space", "P1xP1", "--series", "chern")
        assert code == 0
        assert "integral: 4" in out  # top Chern number is the Euler number

    def test_describe_space_document(self, capsys, tmp_path):
        doc = tmp_path / "m.space"
        doc.write_text("dim 1\ngens h\nrelation h^2 = 0\n"
                       "integral h = 1\ntangent 1 + 2*h\n")
        code, out, _ = run(capsys, "describe", "--space", f"@{doc}")
        assert code == 0
        assert "dim: 1" in out

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "epoly", "P2 +")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("doc, where", [
        ("dim x\ngens h\nintegral h = 1\ntangent 1 + 2*h\n", "(line 1)"),
        ("dim 1\ngens h\nintegral h = 1/0\ntangent 1 + 2*h\n", "(line 3)"),
        ("dim 1\ngens a b\nintegral a + b = 1\ntangent 1 + 2*a\n", "(line 3)"),
        ("dim 1\ngens h\nrelation h^2 = h\nintegral h = 1\ntangent 1 + 2*h\n", "(line 3)"),
        ("dim 1\ngens h\nrelation h^2 = 0\nintegral h = 1\nrelation h^3 = 0\n"
         "tangent 1 + 2*h\n", "(lines 3, 5)"),
        ("dim 1\ngens h\nintegral h = 1\nintegral h = 5\ntangent 1 + 2*h\n", "(lines 3, 4)"),
        ("dim 1\ngens h\ndim 1\nintegral h = 1\ntangent 1 + 2*h\n", "(lines 1, 3)"),
        ("dim 1\ngens h\nintegral h = 1\ngens h\ntangent 1 + 2*h\n", "(lines 2, 4)"),
        ("dim 1\ngens h\nintegral h = 1\ntangent 1 + 2*h\ntangent 1\n", "(lines 4, 5)"),
        ("dim 1\ngens h\nrelation h^2 = h*q\nintegral h = 1\ntangent 1 + 2*h\n", "(line 3)"),
        ("dim 1\ngens h\nintegral h = 1\ntangent 1 + 2*z\n", "(line 4)"),
        ("dim 1\ngens h\nintegral h = 1\ntangent 1 + 2*h^-1\n", "(line 4)"),
        ("dim 1\ngens h h\nintegral h = 1\ntangent 1 + 2*h\n", "(line 2)"),
        ("dim 1\ngens h\nintegral h = 1\ntangent 1 + 2*h^²\n", "(line 4)"),
        ("dim 1\ngens h\nrelation h^2\nintegral h = 1\ntangent 1 + 2*h\n", "(line 3)"),
        ("dim 1\ngens h\nrelation h^2 =\nintegral h = 1\ntangent 1 + 2*h\n", "(line 3)"),
        ("dim 1\ngens x1 x2\nintegral x1 = 1\ntangent 1 + 2*x1\n", "(line 2)"),
        ("dim 1\ngens h x-1\nintegral h = 1\ntangent 1 + 2*h\n", "(line 2)"),
        ("dim 1\ngens h\nrelation h^2 = h - h\nintegral h = 1\ntangent 1 + 2*h\n", "(line 3)"),
    ], ids=["dim-not-integer", "integral-divides-by-zero", "integral-two-monomials",
            "relation-lowers-degree", "second-relation", "second-integral", "second-dim",
            "second-gens", "second-tangent", "relation-unknown-variable",
            "tangent-unknown-variable", "negative-exponent", "generator-twice",
            "superscript-exponent", "relation-without-equals", "relation-empty-right-side",
            "generator-with-digits", "generator-with-minus", "relation-terms-cancel"])
    def test_malformed_document_exit_code(self, capsys, tmp_path, doc, where):
        path = tmp_path / "bad.space"
        path.write_text(doc)
        code, out, err = run(capsys, "genus", "--space", f"@{path}")
        assert code == 2 and not out
        assert err.startswith("error:") and where in err

    def test_document_that_is_not_utf8_exit_code(self, capsys, tmp_path):
        path = tmp_path / "latin1.space"
        path.write_bytes(b"dim 1\ngens h\xff\n")
        with pytest.raises(ParseError) as caught:
            exprlang.load_space(f"@{path}")
        assert caught.value.position == 12
        code, out, err = run(capsys, "genus", "--space", f"@{path}")
        assert code == 2 and not out
        assert err == "error: byte 0xff is not UTF-8 at offset 12\n"

    def test_cyclic_relations_exit_code(self, capsys, tmp_path, time_limit):
        path = tmp_path / "cyclic.space"
        path.write_text("dim 2\ngens a b\nrelation a^2 = b^2\nrelation b^2 = a^2\n"
                        "integral a*b = 1\ntangent 1 + 3*a + 3*b\n")
        with time_limit(10):
            code, out, err = run(capsys, "genus", "--space", f"@{path}")
        assert code == 2 and not out
        assert err.startswith("error:") and "(lines 3, 4)" in err

    @pytest.mark.parametrize("argv, says", [
        (("epoly", "(" * 3000 + "P1" + ")" * 3000), NESTING),
        (("genus", "--motivic", "(" * 3000 + "P1" + ")" * 3000), NESTING),
        (("genus", "--space", "(" * 3000 + "P1" + ")" * 3000), NESTING),
        (("epoly", "+".join(["P1"] * 3000)), NESTING),
        (("epoly", "*".join(["pt"] * 3000)), NESTING),
        (("epoly", "2 " * 3000 + "P1"), NESTING),
        (("genus", "--space", "Proj(" * 3000 + "P1" + ";0)" * 3000), NESTING),
        (("epoly", "P1" + "^2" * 20), NESTING),
        (("epoly", "2" + "^2" * 14), NESTING),
        (("epoly", f"{BIG}*{BIG}"), TOO_LARGE),
        (("genus", "--motivic", f"{BIG}*{BIG}"), TOO_LARGE),
        # chi_y is 0 here; the Hodge table holds the huge numbers
        (("genus", "--motivic", f"{BIG}*{BIG}*C1"), TOO_LARGE),
        (("genus", "--motivic", f"{BIG}*{BIG}*C1", "--format", "json"), TOO_LARGE),
    ], ids=["epoly-parentheses", "motivic-parentheses", "space-parentheses", "long-sum",
            "long-product", "juxtaposed-scalars", "nested-proj", "power-tower",
            "integer-power-tower", "epoly-huge-coefficient", "motivic-huge-coefficient",
            "motivic-huge-hodge-table", "motivic-huge-hodge-table-json"])
    def test_deep_nesting_exit_code(self, capsys, time_limit, argv, says):
        """Input past a size cap: too deeply nested to parse, or with a
        coefficient too long to print."""
        with time_limit(10):
            code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err.startswith("error:") and all(s in err for s in says)

    @pytest.mark.parametrize("series", ["todd", "l"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_huge_class_coefficient_exit_code(self, capsys, tmp_path, series, fmt):
        """A tangent class whose square has more digits than str() converts."""
        path = tmp_path / "big.space"
        path.write_text(f"dim 2\ngens h\nrelation h^3 = 0\nintegral h^2 = 1\n"
                        f"tangent 1 + {'7' * 2500}*h\n")
        code, out, err = run(capsys, "classes", "--series", series, "--space", f"@{path}",
                             "--format", fmt)
        assert code == 2 and not out
        assert err.startswith("error:") and all(s in err for s in TOO_LARGE)

    def test_huge_bundle_coefficient_exits_2_only_where_printed(self, capsys):
        """c_2(E) = 3*N^2 has more digits than str() converts; the genus does
        not print it, the tangent class of ``describe`` does."""
        n = "7" * 2200
        spec = f"Proj(P2; {n},{n},{n})"
        code, out, _ = run(capsys, "genus", "--space", spec)
        assert code == 0 and "chi_y: 1 - 2*y + 3*y^2 - 2*y^3 + y^4" in out
        code, out, err = run(capsys, "describe", "--space", spec)
        assert code == 2 and not out
        assert err.startswith("error:") and all(s in err for s in TOO_LARGE)

    @pytest.mark.parametrize("argv", [
        ("epoly", "²"),
        ("epoly", "P1^²"),
        ("genus", "--motivic", "P1 + 2²"),
        ("genus", "--space", "P²"),
        ("epoly", "9" * 5000),
        ("epoly", "P1^" + "9" * 5000),
        ("epoly", "P" + "9" * 5000),
        ("genus", "--space", "P" + "9" * 5000),
    ], ids=["superscript", "superscript-exponent", "superscript-scalar", "superscript-space",
            "long-literal", "long-exponent", "long-atom-index", "long-space-index"])
    def test_unreadable_input_exit_code(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err.startswith("error:") and "offset" in err

    def test_epoly_unknown_atom(self, capsys):
        code, _, err = run(capsys, "epoly", "Q1")
        assert code == 2 and "offset" in err

    @pytest.mark.parametrize("argv, same_as", [
        (["epoly", "-1*P1"], ["epoly", "--", "-1*P1"]),
        (["epoly", "-11*A2", "--format", "json"], ["epoly", "--format", "json", "--", "-11*A2"]),
        (["genus", "--motivic", "-1*P1"], ["genus", "--motivic=-1*P1"]),
        (["genus", "--motivic", "-2*L + P1", "--format", "json"],
         ["genus", "--format", "json", "--motivic=-2*L + P1"]),
    ])
    def test_expression_with_a_leading_minus(self, capsys, argv, same_as):
        # a word that starts with "-" and a digit is a value: no option starts so
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert run(capsys, *same_as) == (0, out, "")

    def test_genus_of_a_large_product(self, capsys, time_limit):
        # the product of the factors' genera; a pairing on the product ring
        # would visit C(28, 14) monomial pairs
        with time_limit(2):
            code, out, _ = run(capsys, "genus", "--space", "x".join(["P1"] * 14),
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["chi_y"] == render_y(LaurentY({0: 1, 1: -1}) ** 14)

    def test_genus_of_a_large_projective_space(self, capsys, time_limit):
        # T P^n is (n+1) O(1) - O: ch and lambda_y in closed form, no Newton
        # identities, which cost about n^4 monomial pairs
        with time_limit(5):
            code, out, _ = run(capsys, "genus", "--space", "P150", "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["chi_y"] == render_y(
            LaurentY({p: (-1) ** p for p in range(151)}))

    def test_genus_of_a_larger_projective_space(self, capsys, time_limit):
        # the Todd class is exp of a dense class, one kernel call per degree
        with time_limit(5):
            code, out, _ = run(capsys, "genus", "--space", "P250", "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["chi_y"] == render_y(
            LaurentY({p: (-1) ** p for p in range(251)}))

    def test_ty_class_of_a_large_projective_space(self, capsys, time_limit):
        # exp of the dense T_y log sum, one kernel call per degree
        with time_limit(5):
            code, out, _ = run(capsys, "classes", "--space", "P80", "--series", "ty",
                               "--format", "json")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["class"]["degree 1"] == "(81/2 - 81/2*y)*h"
        assert results["integral"] == render_y(LaurentY({p: (-1) ** p for p in range(81)}))

    @pytest.mark.parametrize("argv", [["describe"], ["classes", "--series", "ty"]],
                             ids=["describe", "classes"])
    def test_large_product_is_refused_before_it_is_built(self, capsys, time_limit, argv):
        # the exterior product of 20 factor classes would have 2^20 terms
        with time_limit(5):
            code, out, err = run(capsys, *argv, "--space", "x".join(["P1"] * 20))
        assert (code, out) == (2, "")
        assert f"{2 ** 20} terms, more than {2 ** 14}" in err

    def test_largest_product_inside_the_bound(self, capsys, time_limit):
        with time_limit(5):
            code, out, _ = run(capsys, "describe", "--space", "x".join(["P1"] * 14),
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["tangent_chern"].count(" + ") == 2 ** 14 - 1

    def test_mht_of_a_large_arrangement_complement(self, capsys, time_limit):
        # the log-cotangent bundle is 98 O(-1) + 2 O: lambda_y in closed form
        with time_limit(5):
            code, out, _ = run(capsys, "arrangement", "--n", "100", "--k", "3", "--op", "mht",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["y=-1"] == render_homology_on_projective(
            csm_arrangement(100, 3))

    @pytest.mark.parametrize("spec, chi", [
        ("x".join(["P1"] * 24), LaurentY({0: 1, 1: -1}) ** 24),
        # Arr(1,1)^20's log-cotangent class has 2^20 terms, Arr(1,2)'s one
        ("x".join(["Arr(1,1)"] * 20 + ["Arr(1,2)"]), LaurentY({0: 1, 1: 1})),
    ], ids=["P1^24", "Arr(1,1)^20xArr(1,2)"])
    def test_genus_of_a_product_builds_no_exterior_class(self, capsys, time_limit, spec, chi):
        # the genus reads no 2^k-term class of the product
        with time_limit(2):
            code, out, _ = run(capsys, "genus", "--space", spec, "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["chi_y"] == render_y(chi)


SPACE_ENGINE = {"spaces", "bundles", "transforms"}
MOTIVIC = {"hodge", "motivic"}


class TestStartUp:
    """Each command compiles only the modules it runs; probed in a fresh
    interpreter, since the test process has loaded every module."""

    def loaded(self, argv=None):
        """The hirzebruch modules loaded by ``hirz argv``, or by a bare
        ``import hirzebruch`` when ``argv`` is None."""
        run_it = ("import io, contextlib, hirzebruch.cli as cli\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  f"    assert cli.main({argv!r}) == 0\n") if argv else "import hirzebruch\n"
        probe = run_it + ("import json, sys; print(json.dumps(sorted(n for n in sys.modules "
                          "if n.startswith('hirzebruch.'))))")
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
        assert done.returncode == 0, done.stderr
        return {n.removeprefix("hirzebruch.") for n in json.loads(done.stdout)}

    @pytest.mark.parametrize("command, absent", [
        ("epoly P2-2*P1+C1", SPACE_ENGINE),
        ("genus --motivic Gm^2+C2", SPACE_ENGINE),
        ("genus --space Proj(P1xP1;1,2)", MOTIVIC),
        ("classes --space Hyp(3,2)xP1 --series ty", MOTIVIC),
        ("describe --space Arr(2,3)xP1", MOTIVIC | {"bundles", "transforms"}),
        ("arrangement --n 2 --k 3 --op csm", MOTIVIC | {"exprlang"}),
        ("arrangement --n 2 --k 3 --op mht", MOTIVIC | {"exprlang"}),
        ("arrangement --n 2 --k 3 --op genus", {"exprlang"}),
    ], ids=["epoly", "genus-motivic", "genus-space", "classes", "describe",
            "arrangement-csm", "arrangement-mht", "arrangement-genus"])
    def test_command_loads_only_its_modules(self, command, absent):
        loaded = self.loaded(command.split())
        assert not loaded & absent
        assert "verify" not in loaded  # only its own command loads the registry

    def test_bare_import_loads_errors_and_rings(self):
        assert self.loaded() == {"errors", "rings"}

    def test_verify_loads_every_module(self):
        assert self.loaded(["verify", "--suite", "ghrr"]) >= SPACE_ENGINE | MOTIVIC | {"verify"}


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "series-limits")
        assert code == 0
        assert "PASS" in out

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nonsense")
        assert code == 2
        # an InvalidParameter: a KeyError's message printed inside quotes
        assert err.startswith("error: unknown suite 'nonsense'; known: ")

    def test_a_key_error_inside_a_command_propagates(self, monkeypatch):
        # an engine bug is not a usage error: no exit 2 for a stray KeyError
        def broken(names, order=8):
            return {}["missing"]

        monkeypatch.setattr("hirzebruch.verify.run_suites", broken)
        with pytest.raises(KeyError, match="missing"):
            cli.main(["verify", "--suite", "ghrr"])

    def test_order_above_the_cap(self, capsys, time_limit):
        from hirzebruch.verify import MAX_ORDER
        with time_limit(5):
            code, out, err = run(capsys, "verify", "--order", "100000")
        assert code == 2 and not out
        assert err.startswith("error:") and str(MAX_ORDER) in err
        code, out, _ = run(capsys, "verify", "--suite", "series-limits",
                           "--order", str(MAX_ORDER), "--format", "json")
        assert code == 0 and json.loads(out)["inputs"]["order"] == MAX_ORDER

    @pytest.mark.parametrize("suite", ["ghrr", "series-limits"])
    @pytest.mark.parametrize("order", ["0", "-3"])
    def test_order_below_one(self, capsys, suite, order):
        # one range rule for every suite, though only series-limits reads it
        from hirzebruch.verify import MAX_ORDER
        code, out, err = run(capsys, "verify", "--suite", suite, "--order", order)
        assert code == 2 and not out
        assert err == f"error: series order {order} is outside 1..{MAX_ORDER}\n"

    def test_order_flag_wins(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "series-limits",
                           "--order", "6", "--format", "json")
        assert code == 0
        assert json.loads(out)["inputs"]["order"] == 6

    def test_json_output_is_deterministic(self, capsys):
        _, out1, _ = run(capsys, "verify", "--suite", "ghrr", "--format", "json")
        _, out2, _ = run(capsys, "verify", "--suite", "ghrr", "--format", "json")
        assert out1 == out2
        doc = json.loads(out1)
        assert set(doc) == {"command", "inputs", "results", "suites"}

    def test_perturbed_series_coefficient_fails_verification(self, capsys, monkeypatch):
        # mutation sanity check: poison one Todd coefficient and at least one
        # suite must go red
        real = bundles.genus_series.__wrapped__

        def poisoned(kind, order):
            series = real(kind, order)
            if kind == "todd":
                coeffs = list(series.coeffs)
                coeffs[1] = coeffs[1] + LaurentY({0: 1})
                return bundles.ChernRootSeries(kind, coeffs, order)
            return series

        monkeypatch.setattr(bundles, "genus_series", poisoned)
        code, out, _ = run(capsys, "verify", "--suite", "all")
        assert code == 1
        assert "FAIL" in out


class TestJsonShape:
    def test_epoly_json(self, capsys):
        code, out, _ = run(capsys, "epoly", "C1", "--format", "json")
        doc = json.loads(out)
        assert doc["results"]["epoly"] == "1 - u - v + u*v"
        assert doc["results"]["chi_y"] == "0"

    def test_genus_json(self, capsys):
        code, out, _ = run(capsys, "genus", "--space", "Hyp(3,4)", "--format", "json")
        doc = json.loads(out)
        assert doc["results"]["chi_y"] == "2 - 20*y + 2*y^2"
        assert doc["results"]["euler"] == "24"
        assert doc["results"]["signature"] == "-16"


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tree=trees)
def test_motivic_commands_exit_0_or_2(time_limit, tree):
    """Any rendered expression tree: each motivic command answers or refuses."""
    src = exprlang.render(tree)
    for argv in (["epoly", src], ["genus", "--motivic", src]):
        with time_limit(10), redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            code = cli.main(argv)
        assert code in (0, 2), (argv, code)
