"""Seeded inputs and exact oracles for the three benchmark workloads.

Everything here is independent of the engine under test: the closed forms
are computed with plain integer and ``Fraction`` arithmetic, and engine
output is read back from its JSON documents with a small parser of the
engine's printed polynomial forms.  A check returns ``None`` when the
answer is right and a one-line reason when it is not.

Oracles used:

* chi_y of P^n is sum of (-y)^p; it is multiplicative over products and
  over projective bundles, chi(P(E)) = chi(P^(r-1)) chi(base).
* chi_y of a degree-d hypersurface in P^n is sum of chi(Omega^p) y^p, with
  chi(Omega^p) from the Euler sequence (Bott's formula on P^n), the
  restriction sequence and the conormal sequence.  This never touches a
  characteristic class.
* The complement of k general hyperplanes in P^n: compactly supported
  chi_y by inclusion-exclusion over the strata P^(n-s); the ordinary genus
  by the duality chi(y) = (-y)^n chi^c(1/y); its Chern-Schwartz-MacPherson
  class is (1+h)^(n+1-k) against [P^n] (Aluffi's formula for a normal
  crossing complement).
* Grothendieck-ring expressions: E-polynomials of the atoms, composed by
  the harness from the expression tree it generated.
* Gauss-Bonnet: the integral of the top Chern class of a compact model is
  its Euler number chi_y(-1); Hirzebruch-Riemann-Roch: the integral of the
  Todd class is chi_y(0); the signature theorem: the integral of the L
  class is chi_y(1); and the integral of T_y is chi_y itself.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from math import comb, factorial

# ---------------------------------------------------------------------------
# Laurent polynomials in y as {exponent: Fraction}


def _clean(p):
    return {e: Fraction(c) for e, c in p.items() if c}


def padd(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _clean(out)


def pmul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return _clean(out)


def peval(p, y):
    return sum((c * Fraction(y) ** e for e, c in p.items()), Fraction(0))


def chi_projective(n):
    return _clean({p: (-1) ** p for p in range(n + 1)})


def _chi_O(n, m):
    """chi(P^n, O(m)) = C(m+n, n), as a polynomial in m (valid for m < 0)."""
    num = 1
    for i in range(1, n + 1):
        num *= m + i
    return Fraction(num, factorial(n))


def _chi_omega_P(n, p, k):
    """chi(P^n, Omega^p(k)); [Omega^p] = sum_j (-1)^(p-j) C(n+1, j) [O(-j)]."""
    if p < 0:
        return Fraction(0)
    return sum((Fraction((-1) ** (p - j) * comb(n + 1, j)) * _chi_O(n, k - j)
                for j in range(p + 1)), Fraction(0))


def chi_hypersurface(n, d):
    """chi_y of a smooth degree-d hypersurface X in P^n.

    chi(Omega^p_X(k)) = chi(Omega^p_P(k)) - chi(Omega^p_P(k-d))
                        - chi(Omega^(p-1)_X(k-d)).
    """
    memo = {}

    def omega_X(p, k):
        if p < 0:
            return Fraction(0)
        if (p, k) not in memo:
            memo[p, k] = (_chi_omega_P(n, p, k) - _chi_omega_P(n, p, k - d)
                          - omega_X(p - 1, k - d))
        return memo[p, k]

    return _clean({p: omega_X(p, 0) for p in range(n)})


def chi_arrangement_compact(n, k):
    out = {}
    for s in range(min(k, n) + 1):
        out = padd(out, {e: (-1) ** s * comb(k, s) * c
                         for e, c in chi_projective(n - s).items()})
    return out


def chi_arrangement(n, k):
    """Ordinary chi_y of P^n minus k general hyperplanes."""
    return _clean({n - e: (-1) ** n * c
                   for e, c in chi_arrangement_compact(n, k).items()})


def csm_arrangement(n, k):
    """{cycle dimension: coefficient} of (1+h)^(n+1-k) against [P^n]."""
    return {n - i: Fraction(comb(n + 1 - k, i))
            for i in range(n + 1) if comb(n + 1 - k, i)}


# ---------------------------------------------------------------------------
# space descriptions: ("P", n), ("Hyp", n, d), ("Arr", n, k),
# ("Proj", base, twists), ("x", factors)


def spec(desc):
    kind = desc[0]
    if kind == "P":
        return f"P{desc[1]}"
    if kind == "Hyp":
        return f"Hyp({desc[1]},{desc[2]})"
    if kind == "Arr":
        return f"Arr({desc[1]},{desc[2]})"
    if kind == "Proj":
        return f"Proj({spec(desc[1])};{','.join(map(str, desc[2]))})"
    return "x".join(spec(f) for f in desc[1])


def dim(desc):
    kind = desc[0]
    if kind in ("P", "Arr"):
        return desc[1]
    if kind == "Hyp":
        return desc[1] - 1
    if kind == "Proj":
        return dim(desc[1]) + len(desc[2]) - 1
    return sum(dim(f) for f in desc[1])


def generators(desc):
    if desc[0] == "Proj":
        return generators(desc[1]) + 1
    if desc[0] == "x":
        return sum(generators(f) for f in desc[1])
    return 1


def is_open(desc):
    if desc[0] == "x":
        return any(is_open(f) for f in desc[1])
    return desc[0] == "Arr"


def chi(desc, compact_model=False):
    """Ordinary chi_y; with compact_model, that of the compact model under
    any arrangement (an Arr factor counts as its P^n)."""
    kind = desc[0]
    if kind == "P":
        return chi_projective(desc[1])
    if kind == "Hyp":
        return chi_hypersurface(desc[1], desc[2])
    if kind == "Arr":
        if compact_model:
            return chi_projective(desc[1])
        return chi_arrangement(desc[1], desc[2])
    if kind == "Proj":
        return pmul(chi_projective(len(desc[2]) - 1), chi(desc[1], compact_model))
    out = {0: Fraction(1)}
    for f in desc[1]:
        out = pmul(out, chi(f, compact_model))
    return out


def euler(desc):
    return peval(chi(desc, compact_model=True), -1)


# ---------------------------------------------------------------------------
# parsers for the engine's printed forms

_NUM = re.compile(r"-?\d+(/\d+)?")


def parse_poly(text, names):
    """'2 - 20*y + 2*y^2' -> {(0,): 2, (1,): -20, (2,): 2} over ``names``."""
    text = text.strip()
    if text == "0":
        return {}
    parts = re.split(r" ([+-]) ", text)
    terms = [(1, parts[0])] + [(1 if parts[i] == "+" else -1, parts[i + 1])
                               for i in range(1, len(parts), 2)]
    out = {}
    for sign, term in terms:
        if term.startswith("-"):
            sign, term = -sign, term[1:]
        coeff = Fraction(sign)
        exp = [0] * len(names)
        for factor in term.split("*"):
            if _NUM.fullmatch(factor):
                coeff *= Fraction(factor)
                continue
            name, _, power = factor.partition("^")
            exp[names.index(name)] += int(power) if power else 1
        out[tuple(exp)] = out.get(tuple(exp), 0) + coeff
    return {e: c for e, c in out.items() if c}


def parse_y(text):
    return {e[0]: c for e, c in parse_poly(text, ["y"]).items()}


def parse_class(text, gens):
    """A class rendered as 'c*mono + ...' with rational coefficients."""
    if text == "0":
        return {}
    out = {}
    for piece in text.split(" + "):
        factors = piece.split("*")
        coeff = Fraction(factors.pop(0)) if _NUM.fullmatch(factors[0]) else Fraction(1)
        exp = [0] * len(gens)
        for factor in factors:
            name, _, power = factor.partition("^")
            exp[gens.index(name)] += int(power) if power else 1
        out[tuple(exp)] = out.get(tuple(exp), 0) + coeff
    return out


def parse_ledger(text):
    """'[P3] + 2*[P2] + 1*l' -> {cycle dimension: coefficient}."""
    if text == "0":
        return {}
    out = {}
    for piece in text.split(" + "):
        coeff, _, sym = piece.rpartition("*")
        if sym == "[pt]":
            k = 0
        elif sym == "l":
            k = 1
        elif sym.startswith("[P") and sym.endswith("]"):
            k = int(sym[2:-1])
        else:
            raise ValueError(f"unknown cycle {sym!r}")
        out[k] = Fraction(coeff) if coeff else Fraction(1)
    return out


def _differ(what, got, want):
    return None if got == want else f"{what}: got {got}, expected {want}"


# ---------------------------------------------------------------------------
# checks on CLI documents


def check_genus_space(doc, desc):
    r = doc["results"]
    want = chi(desc)
    mode = "open_complement" if is_open(desc) else "closed"
    return (_differ("mode", doc["inputs"]["mode"], mode)
            or _differ("chi_y", parse_y(r["chi_y"]), want)
            or _differ("euler", Fraction(r["euler"]), peval(want, -1))
            or _differ("chi_0", Fraction(r["chi_0"]), peval(want, 0))
            or _differ("signature", Fraction(r["signature"]), peval(want, 1)))


def check_motivic(doc, epoly, with_epoly):
    r = doc["results"]
    chi_y = {}
    for (a, _b), c in epoly.items():
        chi_y = padd(chi_y, {a: c * (-1) ** a})
    table = {(p, q): Fraction(h) for p, q, h in r["hodge_table"]}
    failure = (_differ("hodge_table", table, epoly)
               or _differ("chi_y", parse_y(r["chi_y"]), chi_y))
    if with_epoly:
        return failure or _differ("epoly", parse_poly(r["epoly"], ["u", "v"]), epoly)
    return (failure
            or _differ("euler", Fraction(r["euler"]), peval(chi_y, -1))
            or _differ("chi_0", Fraction(r["chi_0"]), peval(chi_y, 0))
            or _differ("signature", Fraction(r["signature"]), peval(chi_y, 1)))


def check_classes(doc, desc, series):
    r = doc["results"]
    want = chi(desc)
    got = parse_y(r["integral"])
    if series == "ty":
        failure = _differ("integral of T_y", got, want)
    else:
        at = {"chern": -1, "todd": 0, "l": 1}[series]
        failure = _differ(f"integral of {series}", got, _clean({0: peval(want, at)}))
    return failure or _differ("degree 0", r["class"].get("degree 0"), "1")


def check_arrangement(doc, n, k, op):
    r = doc["results"]
    if op == "csm":
        return _differ("csm", parse_ledger(r["csm"]), csm_arrangement(n, k))
    if op == "mht":
        return _differ("y=-1", parse_ledger(r["y=-1"]), csm_arrangement(n, k))
    return (_differ("chi_y", parse_y(r["chi_y"]), chi_arrangement(n, k))
            or _differ("chi_y_compact", parse_y(r["chi_y_compact"]),
                       chi_arrangement_compact(n, k)))


def check_describe(doc, desc):
    r = doc["results"]
    gens = r["generators"]
    top = {e: c for e, c in parse_class(r["tangent_chern"], gens).items()
           if sum(e) == r["dim"]}
    weights = {next(iter(parse_class(m, gens))): Fraction(w)
               for m, w in r["integrals"].items()}
    gauss_bonnet = sum((c * weights.get(e, 0) for e, c in top.items()), Fraction(0))
    return (_differ("dim", r["dim"], dim(desc))
            or _differ("generators", len(gens), generators(desc))
            or _differ("Gauss-Bonnet", gauss_bonnet, euler(desc)))


# the registry's expected shape: 535 checks in these suites, all passing
REGISTRY_COUNTS = {
    "ghrr": 8, "series-limits": 3, "multiplicativity": 238, "vrr": 8,
    "updown": 238, "duality": 10, "chern-limit": 12, "arrangements": 17,
    "integrality": 1,
}


def check_registry(doc):
    summary = doc["results"]["summary"]
    want = {name: f"{n}/{n}" for name, n in REGISTRY_COUNTS.items()}
    failing = [name for name, status, _ in doc["suites"] if status != "pass"]
    return (_differ("summary", summary, want)
            or _differ("checks listed", len(doc["suites"]), sum(REGISTRY_COUNTS.values()))
            or (f"failing: {failing[:3]}" if failing else None))


# ---------------------------------------------------------------------------
# generators


def ladder_specs(seed):
    """The size ladder: P^4..P^14, (P^1)^2..(P^1)^7, P(O(a1)+..+O(ar)) over
    P^3 for r = 2..4 with seeded twists; each paired with its closed form."""
    rng = random.Random(seed)
    rungs = [(f"P{n}", chi_projective(n)) for n in range(4, 15)]
    rungs += [("x".join(["P1"] * k), chi(("x", [("P", 1)] * k))) for k in range(2, 8)]
    for r in range(2, 5):
        desc = ("Proj", ("P", 3), [rng.randint(-3, 3) for _ in range(r)])
        rungs.append((spec(desc), chi(desc)))
    return rungs


# The query mix is an assumption, not measured usage: there is no record of
# how the engine is used.  So every draw is uniform: over the six command
# kinds of KINDS, over the space families, and over the sizes a family allows
# within dimension MAX_DIM.  The ranges of hypersurface degrees (1..5), twists
# (-3..3), atoms per motivic expression (1..3) and scalars (1..3) are chosen
# here, not taken from any source.
MAX_DIM = 4
CLOSED = ("P", "x", "Proj", "Hyp")
ALL = CLOSED + ("Arr",)


def _family(rng, kind, n):
    """A space of family ``kind`` and dimension ``n``."""
    if kind == "P":
        return ("P", n)
    if kind == "Hyp":
        return ("Hyp", n + 1, rng.randint(1, 5))
    if kind == "Arr":
        return ("Arr", n, rng.randint(0, n + 1))
    m = rng.randint(1, n - 1)             # base P^m, rank n - m + 1 >= 2
    return ("Proj", ("P", m), [rng.randint(-3, 3) for _ in range(n - m + 1)])


def space(rng, families):
    """A space of one of ``families``: P, Hyp, Arr, Proj or a product "x" of
    two of the atoms P, Hyp, Arr among them."""
    kind = rng.choice(families)
    if kind == "x":
        a, b = rng.choice([(a, b) for a in range(1, MAX_DIM)
                           for b in range(1, MAX_DIM - a + 1)])
        atoms = [f for f in families if f in ("P", "Hyp", "Arr")]
        return ("x", [_family(rng, rng.choice(atoms), a),
                      _family(rng, rng.choice(atoms), b)])
    return _family(rng, kind, rng.randint(2 if kind == "Proj" else 1, MAX_DIM))


def _atom(rng):
    """A Grothendieck-ring atom and its E-polynomial."""
    kind = rng.choice(("pt", "L", "Gm", "A", "P", "C"))
    if kind == "pt":
        return "pt", {(0, 0): 1}
    if kind == "L":
        return "L", {(1, 1): 1}
    if kind == "Gm":
        return "Gm", {(1, 1): 1, (0, 0): -1}
    if kind == "A":
        n = rng.randint(1, 3)
        return f"A{n}", {(n, n): 1}
    if kind == "P":
        n = rng.randint(1, 3)
        return f"P{n}", {(i, i): 1 for i in range(n + 1)}
    g = rng.randint(0, 3)
    return f"C{g}", _clean({(0, 0): 1, (1, 0): -g, (0, 1): -g, (1, 1): 1})


def _uv_mul(a, b):
    out = {}
    for (a1, b1), c1 in a.items():
        for (a2, b2), c2 in b.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    return _clean(out)


def motivic_expr(rng):
    """A random expression string and its E-polynomial {(p, q): coeff}:
    1 to 3 atoms, each with a scalar 1 to 3, joined left to right by + - *."""
    text, e = None, None
    for _ in range(rng.randint(1, 3)):
        atom, ae = _atom(rng)
        m = rng.randint(1, 3)
        if m > 1:
            atom, ae = f"{m}*{atom}", {k: m * c for k, c in ae.items()}
        if text is None:
            text, e = atom, _clean(ae)
            continue
        op = rng.choice("+-*")
        if op == "*":
            e = _uv_mul(e, ae)
        else:
            sign = 1 if op == "+" else -1
            e = dict(e)
            for k, c in ae.items():
                e[k] = e.get(k, 0) + sign * c
            e = _clean(e)
        text = f"({text}) {op} ({atom})"
    return text, e


KINDS = ("genus --space", "genus --motivic", "epoly", "classes", "arrangement", "describe")


def query(rng):
    """One short CLI command (argv without --format) and its oracle."""
    kind = rng.choice(KINDS)
    if kind == "genus --space":
        desc = space(rng, ALL)
        return (["genus", "--space", spec(desc)],
                lambda doc: check_genus_space(doc, desc))
    if kind == "genus --motivic":
        text, e = motivic_expr(rng)
        return (["genus", "--motivic", text], lambda doc: check_motivic(doc, e, False))
    if kind == "epoly":
        text, e = motivic_expr(rng)
        return (["epoly", text], lambda doc: check_motivic(doc, e, True))
    if kind == "classes":
        desc = space(rng, CLOSED)
        series = rng.choice(("chern", "todd", "l", "ty"))
        return (["classes", "--space", spec(desc), "--series", series],
                lambda doc: check_classes(doc, desc, series))
    if kind == "arrangement":
        n = rng.randint(1, MAX_DIM)
        k = rng.randint(0, n + 1)
        op = rng.choice(("csm", "mht", "genus"))
        return (["arrangement", "--n", str(n), "--k", str(k), "--op", op],
                lambda doc: check_arrangement(doc, n, k, op))
    desc = space(rng, ALL)
    return (["describe", "--space", spec(desc)], lambda doc: check_describe(doc, desc))


def query_stream(seed):
    """Endless seeded stream of (argv, check) pairs."""
    rng = random.Random(seed)
    while True:
        argv, check = query(rng)
        yield argv + ["--format", "json"], check
