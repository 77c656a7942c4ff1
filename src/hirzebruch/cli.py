"""Command-line front end.

Commands:

* ``epoly EXPR``                    E-polynomial of a motivic expression
* ``genus --motivic EXPR``          compactly supported chi_y of a class
* ``genus --space SPEC``            chi_y of a space model, with the y = -1, 0, 1
                                    specializations
* ``classes --space SPEC --series S``  a characteristic class of the tangent
                                    bundle (chern | todd | l | ty), by degree
* ``arrangement --n N --k K --op O``   csm | mht | genus for the complement of
                                    K general-position hyperplanes in P^N
* ``verify --suite NAME|all``       run verification suites; exit 1 on failure
* ``describe --space SPEC``         print the model's presentation

Every command accepts ``--format text|json``; JSON output is a single
deterministic document {command, inputs, results, suites}.  A space SPEC may
be ``@path`` to load a custom space document.  Exit codes: 0 success,
1 verification failure, 2 usage or computation-domain error.  ``verify
--order N`` sets the series order of ``series-limits`` (default 8, from 1 to
``verify.MAX_ORDER``; every suite refuses an order outside that range).

Each handler imports the engine modules it runs, so a process compiles only
those: a command that reads an expression or a SPEC loads ``exprlang``,
``epoly`` and ``genus --motivic`` load ``hodge`` and ``motivic``, the space
commands ``spaces`` (with ``bundles`` and ``transforms`` where a class or
genus is computed), and ``verify`` loads every module.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .errors import (InvalidParameter, MissingLogStructure, NotPolynomial, ParseError,
                     UnsupportedMap)
from .rings import printed, render_y


class Report:
    """What a command produced, in a rendering-agnostic form; ``failed``
    (a verification failure, exit code 1) is not rendered."""

    def __init__(self, command, inputs=None, results=None, suites=None, failed=False):
        self.command = command
        self.inputs = inputs or {}
        self.results = results or {}
        self.suites = suites or []
        self.failed = failed

    def to_json(self):
        doc = {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "suites": [list(s) for s in self.suites],
        }
        return json.dumps(doc, sort_keys=True, indent=2)

    def to_text(self):
        lines = []
        for key, value in self.inputs.items():
            lines.append(f"{key}: {value}")
        for key, value in self.results.items():
            if isinstance(value, dict):
                lines.append(f"{key}:")
                for k2, v2 in value.items():
                    lines.append(f"  {k2}: {v2}")
            else:
                lines.append(f"{key}: {value}")
        for name, status, detail in self.suites:
            line = f"{name}: {status.upper()}"
            if detail:
                line += f"  [{detail}]"
            lines.append(line)
        return "\n".join(lines)


def _render_hom(c):
    """Dimension-graded rendering of a homology ledger class."""
    return {f"dim {c.space.dim - d}": c.space.render_class(part)
            for d, part in c.by_degree().items()}


def _cmd_epoly(args):
    from . import exprlang
    from .hodge import render_uv
    tree = exprlang.parse_expr(args.expr)
    cls = exprlang.evaluate(tree)
    return Report(
        command=f"epoly {args.expr}",
        inputs={"expr": exprlang.render(tree)},
        results={"epoly": render_uv(cls.e_polynomial()),
                 "chi_y": render_y(cls.chi_y()),
                 "hodge_table": cls.realization.triples()},
    )


def _cmd_genus(args):
    if (args.motivic is None) == (args.space is None):
        raise InvalidParameter("genus needs exactly one of --motivic or --space")
    from . import exprlang
    results = {}
    if args.motivic is not None:
        tree = exprlang.parse_expr(args.motivic)
        cls = exprlang.evaluate(tree)
        chi = cls.chi_y()
        inputs = {"motivic": exprlang.render(tree), "support": "compact"}
        results["hodge_table"] = cls.realization.triples()
    else:
        from . import transforms as tr
        space = exprlang.load_space(args.space)
        mode = "open_complement" if space.log is not None else "closed"
        chi = tr.chi_y_genus(space, mode)
        inputs = {"space": space.name, "mode": mode}
    results.update({
        "chi_y": render_y(chi),
        "euler": printed(str, chi(Fraction(-1))),
        "chi_0": printed(str, chi(Fraction(0))),
        "signature": printed(str, chi(Fraction(1))),
    })
    return Report(command="genus", inputs=inputs, results=results)


_SERIES = {"chern": "chern", "todd": "todd", "l": "lclass", "ty": "hirzebruch"}


def _cmd_classes(args):
    from . import exprlang, transforms as tr
    space = exprlang.load_space(args.space)
    cls = tr.series_class(space, _SERIES[args.series])
    by_degree = {f"degree {d}": space.render_class(c) for d, c in cls.by_degree().items()}
    return Report(
        command="classes",
        inputs={"space": space.name, "series": args.series},
        results={"class": by_degree,
                 "integral": printed(str, space.integrate(cls.component(space.dim)))},
    )


def _cmd_arrangement(args):
    from . import spaces as sp, transforms as tr
    n, k = args.n, args.k
    inputs = {"n": n, "k": k, "op": args.op}
    if args.op == "csm":
        cls = tr.csm_arrangement(n, k)
        results = {"csm": tr.render_homology_on_projective(cls),
                   "components": _render_hom(cls)}
    elif args.op == "mht":
        arr = sp.with_arrangement(sp.projective(n), k)
        cls = tr.mht(tr.mhc_y(arr, "open_complement"))
        results = {"components": _render_hom(cls),
                   "y=-1": tr.render_homology_on_projective(tr.specialize_minus_one(cls))}
    else:
        from . import motivic
        arr = sp.with_arrangement(sp.projective(n), k)
        ordinary = tr.chi_y_genus(arr, "open_complement")
        compact = motivic.arrangement_complement(n, k).chi_y()
        results = {"chi_y": render_y(ordinary), "chi_y_compact": render_y(compact)}
    return Report(command="arrangement", inputs=inputs, results=results)


def _cmd_verify(args):
    from . import verify as verify_mod  # compiled only for this command
    results = verify_mod.run_suites(args.suite, order=args.order)
    suites = []
    counts = {}
    for name, checks in results.items():
        counts[name] = f"{sum(c.ok for c in checks)}/{len(checks)}"
        for check, status, detail in (c.as_tuple() for c in checks):
            suites.append((f"{name}: {check}", status, detail))
    return Report(
        command="verify",
        inputs={"suite": args.suite, "order": args.order},
        results={"summary": counts},
        suites=suites,
        failed=not verify_mod.all_passed(results),
    )


def _cmd_describe(args):
    from . import exprlang
    space = exprlang.load_space(args.space)
    return Report(command="describe", inputs={"space": args.space},
                  results=space.describe())


class _Parser(argparse.ArgumentParser):
    """Reads a word that starts with "-" and a digit as a value, as argparse
    reads a plain negative number: no hirz option starts so, and an
    expression such as ``-1*P1`` is valid input."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\d.*", re.S)


def build_parser():
    parser = _Parser(
        prog="hirz",
        description="Exact Hodge genera and characteristic classes of space models.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name, run, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(run=run)
        return p

    p = add("epoly", _cmd_epoly, help="E-polynomial of a motivic expression")
    p.add_argument("expr")

    p = add("genus", _cmd_genus, help="chi_y genus of a motivic class or space model")
    p.add_argument("--motivic")
    p.add_argument("--space")

    p = add("classes", _cmd_classes, help="characteristic class of the tangent bundle")
    p.add_argument("--space", required=True)
    p.add_argument("--series", required=True, choices=sorted(_SERIES))

    p = add("arrangement", _cmd_arrangement,
            help="hyperplane-arrangement complement computations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--op", choices=("csm", "mht", "genus"), default="genus")

    p = add("verify", _cmd_verify, help="run verification suites")
    p.add_argument("--suite", default="all")
    p.add_argument("--order", type=int, default=8)

    p = add("describe", _cmd_describe, help="print a space model's presentation")
    p.add_argument("--space", required=True)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        report = args.run(args)
        text = printed(Report.to_json if args.format == "json" else Report.to_text, report)
    except (ParseError, InvalidParameter, NotPolynomial,
            MissingLogStructure, UnsupportedMap, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
