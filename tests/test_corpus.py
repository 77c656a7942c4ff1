"""Every line of a seeded output corpus keeps its exit code and output.

``corpus.json`` maps each command line (``shlex.join`` of its argv), one
to a line, to the exit code and the sha256 of the standard output of ``hirz <line>``, run
in-process.  ``draw_commands`` draws the lines from a fixed seed with
``random.Random``, whose draws do not change between library versions:
space specs for ``genus``, ``describe`` and ``classes`` (all four series),
with the two space documents of ``test_golden_cli``, motivic expressions for
``epoly`` and ``genus --motivic``, fixed products with boundary data, and
``verify --suite all``.  The draws stay inside today's size limits and
include refused sizes and malformed text, so some lines pin an exit code 2.
Regenerate the file (only when an output change is intended, and say which
lines changed) with

    PYTHONPATH=src python tests/test_corpus.py
"""

import hashlib
import json
import os
import pathlib
import random
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

from hirzebruch import cli
from test_golden_cli import DOCUMENTS

CORPUS = pathlib.Path(__file__).with_name("corpus.json")
SEED = 31
SPACE_LINES = 800  # each spec is drawn for one of genus, describe, classes
EXPR_LINES = 500  # each expression for epoly or genus --motivic
LINE_SECONDS = 20

# products with boundary data, whose describe output no golden document covers
BOUNDARY_PRODUCTS = ["Arr(1,2)xP1", "Arr(2,0)xArr(1,1)", "P1xArr(2,3)", "Arr(0,1)xP1",
                     "Arr(3,0)xP2", "Arr(1,1)xHyp(3,2)xArr(1,2)", "(Arr(2,2)xP1)xArr(1,0)"]
SERIES = ("chern", "todd", "l", "ty")
FORMATS = ("text", "json")


def _twists(rng):
    return ",".join(str(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4)))


def _small(rng):
    """A factor of dimension at most 2 for a projective bundle's base."""
    return rng.choice([f"P{rng.randint(0, 2)}", f"Hyp(3,{rng.randint(1, 4)})", "Arr(1,1)"])


def _atom(rng):
    kind = rng.choice(["P", "P", "Hyp", "Arr", "Proj"])
    if kind == "P":
        return f"P{rng.randint(0, 9)}"
    if kind == "Hyp":
        return f"Hyp({rng.randint(1, 9)},{rng.randint(0, 6)})"
    if kind == "Arr":
        n = rng.randint(0, 5)
        return f"Arr({n},{rng.randint(0, n + 2)})"
    base = rng.choice([f"P{rng.randint(0, 9)}", f"Hyp({rng.randint(2, 9)},{rng.randint(1, 6)})",
                       "x".join(_small(rng) for _ in range(rng.randint(1, 2)))])
    return f"Proj({base}; {_twists(rng)})"


def draw_spec(rng):
    """A product of one to three atoms, the last two sometimes in parentheses."""
    factors = [_atom(rng) for _ in range(rng.choice([1, 1, 2, 2, 3]))]
    if len(factors) == 3 and rng.random() < 0.3:
        factors[1:] = [f"({factors[1]}x{factors[2]})"]
    return "x".join(factors)


def _factor(rng, depth):
    roll = rng.random()
    if depth > 2 or roll < 0.45:
        text = rng.choice([f"P{rng.randint(0, 9)}", f"A{rng.randint(0, 6)}",
                           f"C{rng.randint(0, 4)}", "Gm", "L", "pt", str(rng.randint(0, 5))])
    elif roll < 0.6:
        text = f"({draw_expr(rng, depth + 1)})"
    elif roll < 0.7:
        text = f"D({draw_expr(rng, depth + 1)})"
    elif roll < 0.85:
        text = f"{rng.randint(-3, 4)} {_factor(rng, depth + 1)}"
    else:
        text = f"-{rng.randint(1, 3)}*{_factor(rng, depth + 1)}"
    if rng.random() < 0.15:
        text += f"^{rng.randint(0, 3)}"
    return text


def draw_expr(rng, depth=0):
    """A motivic expression; about one in twelve is malformed text."""
    text = _factor(rng, depth)
    for _ in range(rng.randint(0, 2)):
        text += rng.choice([" + ", " - ", "*", " * "]) + _factor(rng, depth)
    if depth == 0 and rng.random() < 0.08:
        text = rng.choice([text + " +", text + ")", "Q3 + " + text, text + "^-1", "(" + text])
    return text


def draw_commands(seed=SEED):
    """The corpus's argvs, in a fixed order, each once."""
    rng = random.Random(seed)
    out = []
    for _ in range(SPACE_LINES):
        spec = draw_spec(rng)
        cmd = rng.choice(["genus", "describe", "classes"])
        extra = ["--series", rng.choice(SERIES)] if cmd == "classes" else []
        out.append([cmd, "--space", spec] + extra + ["--format", rng.choice(FORMATS)])
    for _ in range(EXPR_LINES):
        cmd = rng.choice([["epoly"], ["genus", "--motivic"]])
        out.append(cmd + [draw_expr(rng), "--format", rng.choice(FORMATS)])
    for spec in BOUNDARY_PRODUCTS + [f"@{name}" for name in DOCUMENTS]:
        for fmt in FORMATS:
            out += [[cmd, "--space", spec, "--format", fmt] for cmd in ("genus", "describe")]
            out += [["classes", "--space", spec, "--series", s, "--format", fmt] for s in SERIES]
    out.append(["verify", "--suite", "all", "--format", "json"])
    return list({shlex.join(argv): argv for argv in out}.values())


def run(argv, docdir):
    """Exit code and the sha256 of the standard output of one command line,
    run in-process in ``docdir``, where a space document is ``@<name>``
    (``describe`` prints the argument, so it holds no temporary path)."""
    for name, text in DOCUMENTS.items():
        (docdir / name).write_text(text)
    out, cwd = StringIO(), os.getcwd()
    os.chdir(docdir)
    try:
        with redirect_stdout(out), redirect_stderr(StringIO()):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text())


def test_the_generator_draws_the_committed_lines(corpus):
    assert list(corpus) == [shlex.join(argv) for argv in draw_commands()]


def test_every_line_keeps_its_exit_code_and_output(corpus, tmp_path, time_limit):
    changed = []
    for line, want in corpus.items():
        with time_limit(LINE_SECONDS):
            code, digest = run(shlex.split(line), tmp_path)
        if (code, digest) != (want["exit"], want["sha256"]):
            changed.append(f"{line}: exit {want['exit']} -> {code}"
                           + ("" if digest == want["sha256"] else ", output changed"))
    assert not changed, f"{len(changed)} corpus lines changed:\n" + "\n".join(changed)


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        pinned = {}
        for argv in draw_commands():
            code, digest = run(argv, pathlib.Path(tmp))
            pinned[shlex.join(argv)] = {"exit": code, "sha256": digest}
    CORPUS.write_text("{\n" + ",\n".join(f" {json.dumps(line)}: {json.dumps(want)}"
                                         for line, want in pinned.items()) + "\n}\n")
    codes = [v["exit"] for v in pinned.values()]
    print(f"wrote {len(pinned)} lines to {CORPUS} "
          f"({codes.count(0)} exit 0, {codes.count(2)} exit 2)", file=sys.stderr)
