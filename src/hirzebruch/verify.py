"""Named verification suites.

Each suite cross-computes a family of identities by two independent routes
and reports one record per identity: (name, passed, detail), with the
offending values rendered when a check fails.  The registry is what the
command line's ``verify`` command runs; the acceptance tests run the same
suites, so a perturbation anywhere in the pipeline shows up in both.

``multiplicativity``, ``updown`` and ``integrality`` run on the same
projective-bundle family.  ``run_suites`` builds it once per call, on first
need, and hands it to each of them; called without a family, a suite builds
its own.  Its models keep their closed K-class, Todd class, genus and
td(T_rel) (see ``spaces``), so a later suite reuses what an earlier one
computed on them, ``integrality`` the family's genera among them; the other
20 genera it checks are of small models, which it builds and computes again.
Members with equal keys are one model and share these classes (over P^1,
P(E) depends only on c_1(E)): the 238 members are 154 models, 39 over P^1
and 115 over P^2.  Within one identity the two sides are still computed on
different models.  The call keeps no reference to the family,
but its models live on in reference cycles (model, ``_classes``, class,
model), and later calls read them, until the garbage collector runs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement

from .errors import InvalidParameter
from .rings import LaurentY, _integer, render_monomial, render_y
from .hodge import HodgeDiamond
from . import motivic
from . import spaces as sp
from . import bundles
from .bundles import k_dual
from .transforms import (
    chi_y_genus,
    csm_arrangement,
    homology_dual,
    mhc_y,
    mht,
    pullback_smooth,
    pushforward,
    specialize_minus_one,
)


class Check:
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name, ok, detail=""):
        self.name = name
        self.ok = bool(ok)
        self.detail = detail

    def as_tuple(self):
        return (self.name, "pass" if self.ok else "fail", self.detail)


def _eq(name, got, want, render=str):
    ok = got == want
    detail = "" if ok else f"got {render(got)}, expected {render(want)}"
    return Check(name, ok, detail)


def _difference(what, got, want, grade):
    """The first monomial (in the order of ``CohClass.items``, lowest degree
    first) at which two classes on one space differ, named by ``grade`` and
    with both coefficients; empty when they are equal."""
    if got == want:
        return ""
    e, _ = (got - want).items()[0]
    return (f"{what} differs first in {grade(e)} at {render_monomial(got.space.gens, e) or '1'}: "
            f"{got.coeff(e)} vs {want.coeff(e)}")


def ch_difference(got, want):
    """Where two K-classes differ: the first degree and monomial of their
    Chern characters."""
    return _difference("ch", got, want, lambda e: f"degree {sum(e)}")


def hom_difference(got, want):
    """Where two homology ledgers differ: the first cycle dimension (from
    the top) and monomial."""
    return _difference("ledger", got, want, lambda e: f"dimension {got.space.dim - sum(e)}")


def _chi_projective(n):
    return LaurentY({p: (-1) ** p for p in range(n + 1)})


def suite_ghrr():
    """Genus of projective spaces and of the quartic surface, via the
    transformation pipeline against directly known values."""
    checks = []
    for n in range(1, 5):
        got = chi_y_genus(sp.projective(n))
        checks.append(_eq(f"chi_y(P{n})", got, _chi_projective(n), render_y))
    chi = chi_y_genus(sp.hypersurface(3, 4))
    checks.append(_eq("chi_y(quartic surface)", chi,
                      LaurentY({0: 2, 1: -20, 2: 2}), render_y))
    checks.append(_eq("quartic Euler number", chi(Fraction(-1)), 24))
    checks.append(_eq("quartic arithmetic genus", chi(Fraction(0)), 2))
    checks.append(_eq("quartic signature", chi(Fraction(1)), -16))
    return checks


def suite_series_limits(order=8):
    """The one-parameter genus series specializes coefficient-wise to the
    Chern, Todd, and L series at y = -1, 0, 1."""
    hz = bundles.genus_series("hirzebruch", order)
    checks = []
    for value, kind in ((-1, "chern"), (0, "todd"), (1, "lclass")):
        want = bundles.genus_series(kind, order)
        got = hz.at_y(value)
        ok = all(g == w for g, w in zip(got, want.coeffs))
        detail = "" if ok else "; ".join(
            f"x^{i}: {render_y(g)} vs {render_y(w)}"
            for i, (g, w) in enumerate(zip(got, want.coeffs)) if g != w
        )
        checks.append(Check(f"hirzebruch(y={value}) == {kind} to order {order}", ok, detail))
    return checks


def bundle_family():
    """The split bundles of rank <= 3 and twists in -3..3 over P1 and P2
    with their projectivizations: ``{n: (P^n, [(twists, E, P(E)), ...])}``."""
    out = {}
    for n in (1, 2):
        base = sp.projective(n)
        members = []
        for r in range(1, 4):
            for twists in combinations_with_replacement(range(-3, 4), r):
                E = sp.sum_of_line_bundles(base, twists)
                members.append((twists, E, sp.projective_bundle(base, E)))
        out[n] = (base, members)
    return out


def suite_multiplicativity(family=None):
    """chi_y of a projective bundle equals the fiber genus times the base
    genus, for split bundles of rank <= 3 over P1 and P2."""
    checks = []
    for base_n, (base, members) in (family or bundle_family()).items():
        chi_base = chi_y_genus(base)
        for twists, E, tot in members:
            got = chi_y_genus(tot)
            want = _chi_projective(E.rank - 1) * chi_base
            checks.append(_eq(f"chi_y(P(O({','.join(map(str, twists))})) over P{base_n})",
                              got, want, render_y))
    return checks


def suite_updown(family=None):
    """Pushing the total-space class down a bundle projection yields the
    fiber genus times the base class, as a full class identity."""
    checks = []
    for base_n, (base, members) in (family or bundle_family()).items():
        mhc_base = mhc_y(base)
        for twists, E, tot in members:
            pi = sp.bundle_projection(tot)
            got = pushforward(pi, mhc_y(tot))
            want = mhc_base * _chi_projective(E.rank - 1)
            checks.append(Check(
                f"pushforward(P(O({','.join(map(str, twists))})) over P{base_n})",
                got == want, ch_difference(got, want)))
    return checks


def suite_vrr():
    """Smooth pullback reproduces the total-space class for the built-in
    projections."""
    checks = []
    cases = []
    for a, b in ((1, 1), (1, 2), (2, 2)):
        prod = sp.product(sp.projective(a), sp.projective(b))
        cases.append((sp.product_projection(prod, 0), sp.projective(a), prod))
    for base_n, twists in ((1, (0, 1)), (1, (-1, 2)), (2, (0, 1)), (1, (0, -1, 2))):
        base = sp.projective(base_n)
        E = sp.sum_of_line_bundles(base, twists)
        tot = sp.projective_bundle(base, E)
        cases.append((sp.bundle_projection(tot), base, tot))
    for m, base, tot in cases:
        got = pullback_smooth(m, mhc_y(base))
        want = mhc_y(tot)
        checks.append(Check(f"VRR along {tot.name} -> {base.name}", got == want,
                            ch_difference(got, want)))
    idm = sp.identity_map(sp.projective(2))
    c = mhc_y(sp.projective(2))
    got = pullback_smooth(idm, c)
    checks.append(Check("VRR along the identity", got == c, ch_difference(got, c)))
    return checks


def _random_diamond(rng):
    entries = {}
    for _ in range(rng.randint(1, 6)):
        entries[(rng.randint(-3, 3), rng.randint(-3, 3))] = rng.randint(-4, 4)
    return HodgeDiamond(entries)


def suite_duality():
    """chi_y duality on random tables, Grothendieck duality on K-classes of
    smooth models, and its consistency with the homology-ledger duality."""
    checks = []
    rng = random.Random(20260808)
    bad = 0
    for _ in range(100):
        d = _random_diamond(rng)
        if d.dual().chi_y() != d.chi_y().invert_y():
            bad += 1
    checks.append(Check("chi_y(dual) == chi_{1/y} on 100 random tables", bad == 0,
                        "" if bad == 0 else f"{bad} failures"))
    spaces = [sp.projective(1), sp.projective(2),
              sp.product(sp.projective(1), sp.projective(1))]
    for space in spaces:
        c = mhc_y(space)
        dual = k_dual(c)
        want = c * LaurentY({-space.dim: (-1) ** space.dim})
        checks.append(Check(f"k_dual on {space.name} is (-y)^(-{space.dim}) times the class",
                            dual == want, ch_difference(dual, want)))
        twice = k_dual(dual)
        checks.append(Check(f"k_dual is an involution on {space.name}",
                            twice == c, ch_difference(twice, c)))
        lhs = homology_dual(mht(c, normalized=False))
        rhs = mht(dual, normalized=False)
        checks.append(Check(f"homology duality matches K duality on {space.name}",
                            lhs == rhs, hom_difference(lhs, rhs)))
    return checks


def suite_chern_limit():
    """The normalized transformation of an arrangement complement has no
    pole at y = -1 and specializes there to the inclusion-exclusion Chern
    class, for all n <= 3, 0 <= k <= n+1."""
    checks = []
    for n in range(1, 4):
        for k in range(0, n + 2):
            arr = sp.with_arrangement(sp.projective(n), k)
            got = sp.gysin_pushforward(sp.open_restriction(arr),  # the complement's class on P^n
                                       specialize_minus_one(mht(mhc_y(arr, "open_complement"))))
            want = csm_arrangement(n, k)
            checks.append(Check(f"y=-1 class of P{n} minus {k} hyperplanes", got == want,
                                hom_difference(got, want)))
    return checks


def _gm(n):
    """The torus Gm^n, as (P^1 minus two points)^n."""
    return sp.product(*[_arrangement(1, 2)] * n)


def _arrangement(n, k):
    return sp.with_arrangement(sp.projective(n), k)


def suite_arrangements():
    """Compact-support versus ordinary genus duality for torus powers and
    arrangement complements: chi^c_y = (-y)^dim chi_{1/y}."""
    checks = []
    for n in range(1, 4):
        ordinary = chi_y_genus(_gm(n), "open_complement")
        compact = (motivic.torus() ** n).chi_y()
        want = ordinary.invert_y() * LaurentY({n: (-1) ** n})
        checks.append(_eq(f"compact-support duality for Gm^{n}", compact, want, render_y))
    for n in range(1, 4):
        for k in range(0, n + 2):
            ordinary = chi_y_genus(_arrangement(n, k), "open_complement")
            compact = motivic.arrangement_complement(n, k).chi_y()
            want = ordinary.invert_y() * LaurentY({n: (-1) ** n})
            checks.append(_eq(f"compact-support duality for P{n} minus {k} hyperplanes",
                              compact, want, render_y))
    checks.append(_eq("2-line complement, compactly supported genus",
                      motivic.arrangement_complement(2, 2).chi_y(),
                      LaurentY({1: 1, 2: 1}), render_y))
    checks.append(_eq("2-line complement, ordinary genus",
                      chi_y_genus(_arrangement(2, 2), "open_complement"),
                      LaurentY({0: 1, 1: 1}), render_y))
    return checks


def suite_integrality(family=None):
    """Every genus the other suites produce lies in Z[y] after cancelling
    the (1+y) denominators."""
    kept = [(f"P{n}", chi_y_genus(sp.projective(n))) for n in range(1, 5)]
    kept.append(("quartic surface", chi_y_genus(sp.hypersurface(3, 4))))
    for _, members in (family or bundle_family()).values():
        kept += [(f"{tot.name}O({twists})", chi_y_genus(tot)) for twists, _, tot in members]
    for n in range(1, 4):
        kept.append((f"Gm^{n}", chi_y_genus(_gm(n), "open_complement")))
        kept += [(f"P{n} minus {k}H", chi_y_genus(_arrangement(n, k), "open_complement"))
                 for k in range(n + 2)]
    bad = [(name, g) for name, g in kept if not g.is_integral_polynomial()]
    return [Check(f"all {len(kept)} computed genera lie in Z[y]", not bad,
                  "" if not bad else "; ".join(f"{n}: {render_y(g)}" for n, g in bad))]


SUITES = {
    "ghrr": suite_ghrr,
    "series-limits": suite_series_limits,
    "multiplicativity": suite_multiplicativity,
    "vrr": suite_vrr,
    "updown": suite_updown,
    "duality": suite_duality,
    "chern-limit": suite_chern_limit,
    "arrangements": suite_arrangements,
    "integrality": suite_integrality,
}


_FAMILY_SUITES = ("multiplicativity", "updown", "integrality")


# the highest series order: series-limits takes about 0.1 s at order 128,
# 0.6 s at 256 and 4.4 s at 512 (Python 3.11, one core of a 2-vCPU VM)
MAX_ORDER = 256


def run_suites(names, order=8):
    """Run the named suites (or all of them); returns {suite: [Check]}.

    ``order`` is the series order of ``series-limits``, the only suite that
    depends on one; every suite refuses an order outside 1..``MAX_ORDER``.  The bundle
    family is built once per call, on first need, and handed to every suite
    that runs on it, so its models and the genera kept on them live through
    the call.  An unknown suite name raises ``InvalidParameter``."""
    if not 1 <= _integer(order, "series order") <= MAX_ORDER:
        raise InvalidParameter(f"series order {order} is outside 1..{MAX_ORDER}")
    if names in ("all", None):
        names = list(SUITES)
    elif isinstance(names, str):
        names = [names]
    results = {}
    family = None
    for name in names:
        if name not in SUITES:
            raise InvalidParameter(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
        kwargs = {}
        if name == "series-limits":
            kwargs["order"] = order
        if name in _FAMILY_SUITES:
            kwargs["family"] = family = family or bundle_family()
        results[name] = SUITES[name](**kwargs)
    return results


def all_passed(results):
    return all(c.ok for checks in results.values() for c in checks)
