"""The JSON documents of a fixed command set stay byte-identical.

``golden_cli.json`` maps each command line below to the exit code and the
standard output of ``hirz ... --format json``.  Regenerate it (only when an
output change is intended) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import json
import pathlib
import sys
from contextlib import redirect_stdout
from io import StringIO

import pytest

from hirzebruch import cli

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")

# Space documents, written to a temporary directory and named in a command
# as @<name>; the JSON documents record the model name, never the path.
DOCUMENTS = {
    "grothendieck": """
dim 2
gens h xi
relation h^2 = 0
relation xi^2 = -1*h*xi
integral h*xi = 1
tangent 1 + 2*xi + 3*h + 4*h*xi
""",
    "fractional": """
dim 3
gens h xi
relation h^3 = 0
relation xi^2 = 1/2*h*xi - 1/3*h^2
integral h^2*xi = 1
tangent 1 + 2*xi + 3*h + 1/2*h*xi + 4*h^2 + 5*h^2*xi
""",
}

SPACES = ["P1", "P2", "P3", "P4", "P6", "Hyp(3,4)", "P1xP1", "P1xP1xP1xP1",
          "Proj(P2;0,1,3)", "Proj(P3;2,-1,3)", "Arr(2,2)", "Arr(3,2)",
          "Arr(1,2)xArr(1,2)", "@grothendieck", "@fractional"]
CLASS_SPACES = ["P3", "Hyp(4,3)", "P1xP1xP1", "Proj(P2;0,1,3)", "Arr(2,2)", "@fractional"]
FAST_SUITES = ["ghrr", "series-limits", "vrr", "duality", "chern-limit", "arrangements"]

COMMANDS = (
    [("genus", "--space", s) for s in SPACES]
    + [("classes", "--space", s, "--series", series)
       for s in CLASS_SPACES for series in ("chern", "todd", "l", "ty")]
    + [("arrangement", "--n", str(n), "--k", str(k), "--op", op)
       for n, k in ((2, 2), (3, 1), (3, 4)) for op in ("csm", "mht", "genus")]
    + [("describe", "--space", s)
       for s in ("P2", "Hyp(3,4)", "Proj(P1;0,1)", "Arr(2,3)", "P1xP2")]
    + [("epoly", e) for e in ("C1", "P2 - 2 P1 + pt", "Gm*Gm + 3 A2")]
    + [("genus", "--motivic", e) for e in ("P2*P1 - L", "C2", "P3 - Gm")]
    # parse-heavy inputs: scalars, parentheses, nesting and twist signs
    + [("epoly", e) for e in ("2*(P1 + pt)", "L*L - 1", "P2 - (P1 - (pt - A0))",
                              "3 (C2 + 2 Gm)*A1", "P2^2 - D(P1)", "-1*P1 + P2")]
    + [("genus", "--motivic", e) for e in ("2 2 P1 - (Gm + L)", "P02 + 1")]
    + [("describe", "--space", "Proj(P2; -1,2,0)")]
    + [("genus", "--space", s) for s in ("(P1xP1)xP1", "Proj((P1); 0 ,1)")]
    + [("verify", "--suite", s) for s in FAST_SUITES + ["integrality", "all"]]
)


def run(argv, docdir):
    """Exit code and standard output of one JSON command, run in-process."""
    argv = [f"@{docdir / a[1:]}" if a.startswith("@") else a for a in argv]
    for name, text in DOCUMENTS.items():
        (docdir / name).write_text(text)
    out = StringIO()
    with redirect_stdout(out):
        code = cli.main(argv + ["--format", "json"])
    return code, out.getvalue()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_command_set_is_pinned(golden):
    assert sorted(golden) == sorted(" ".join(c) for c in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_json_document_unchanged(golden, argv, tmp_path):
    code, out = run(list(argv), tmp_path)
    want = golden[" ".join(argv)]
    assert code == want["exit"]
    assert out == want["stdout"]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        docs = pathlib.Path(tmp)
        pinned = {}
        for argv in COMMANDS:
            code, out = run(list(argv), docs)
            pinned[" ".join(argv)] = {"exit": code, "stdout": out}
    GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} documents to {GOLDEN}", file=sys.stderr)
