"""Chern-root calculus on bundle classes.

Everything here works through the splitting principle: a bundle class is
its total Chern class, Newton's identities convert between Chern classes
and power sums of the roots, and a multiplicative genus is applied as
exp(sum of log-series coefficients times power sums), all exact and uniform
for virtual classes.  The power sums are read off the Chern character,
p_m = m! ch_m, which a bundle keeps after the one Newton run that gives it;
a dual reads it off the original's as adams(-1), so lambda_y(T*X) and
td(TX) share one run.  lambda_y runs Newton's identities on the reduced
roots e^x - 1, which start in degree 1, so it stops at min(rank, dim) and
keeps its coefficients in Q[y].  Newton's identities both ways and exp are
one graded recurrence, ``spaces.graded_recurrence``, one ``CohClass.combine``
per degree; ch and the sums inside lambda_y and apply_series are one each.

One kind of bundle names its roots: one carrying a ``splitting`` (N, c1),
N copies of a line bundle L with c1(L) = c1 plus a trivial bundle, as the
tangent bundle of P^n (Euler sequence) and the log-cotangent bundle of an
arrangement complement (residue sequence) do.  Its ch is N e^c1 + rank - N
and its lambda_y is (1+y)^(rank - N) times the sum of C(N,j) y^j e^(j c1),
both multiplicative over the Whitney sum, so it runs no Newton identities.
Every other bundle, a Whitney sum of split pieces included, takes the
Newton route, which serves as the reference for the closed form.

A K-class with y-graded coefficients is carried as its Chern character, a
``CohClass`` over Q[y, 1/y, 1/(1+y)]; its rank is its degree-0 part.

Four genus series are built in.  Each is a prefix of one expansion per
kind, grown in place to the highest order asked, its log only when asked:

* ``chern``      1 + x
* ``todd``       x / (1 - exp(-x))
* ``lclass``     x / tanh(x) = td(2x) - x
* ``hirzebruch`` x(1+y) / (1 - exp(-x(1+y))) - xy = td(x(1+y)) - xy

The last one interpolates the other three at y = -1, 0, 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial

from .errors import InvalidParameter
from .rings import LaurentY, _over
from .spaces import CohClass, _unit_series, graded_recurrence, pull_to_product


# -- series on coefficient lists (index = power of x, entries LaurentY) ------


def _series_log(a, order, out):
    """Grow ``out``, a prefix of log(a) holding at least its constant term 0,
    in place to x^order."""
    for k in range(len(out), order + 1):
        acc = (a[k] if k < len(a) else LaurentY()) * k
        for j in range(1, k):
            if k - j < len(a):
                acc = acc - out[j] * a[k - j] * j
        out.append(acc / k)


class ChernRootSeries:
    """A normalized one-root genus series: coefficients of x^0..x^order."""

    __slots__ = ("kind", "coeffs", "order", "_log")

    def __init__(self, kind, coeffs, order, log=None):
        if coeffs[0] != 1:
            raise InvalidParameter("genus series must be normalized (constant term 1)")
        self.kind = kind
        self.coeffs = tuple(coeffs)
        self.order = order
        # a prefix of the log, grown in place: a built-in series shares its kind's
        self._log = [LaurentY()] if log is None else log

    def log(self):
        """log(series) to x^order, grown on first use; its x^k coefficient
        needs the series to x^k only, so a lower order reads a prefix, and a
        built-in series reads one of its kind's log."""
        if len(self._log) <= self.order:
            _series_log(self.coeffs, self.order, self._log)
        return tuple(self._log[:self.order + 1])

    def at_y(self, value):
        """Evaluate the y-dependence at a rational value, as a plain list."""
        return [LaurentY.const(c(Fraction(value))) for c in self.coeffs]

    def __repr__(self):
        return f"ChernRootSeries({self.kind}, order={self.order})"


_TODD = [Fraction(1)]  # x/(1 - exp(-x)) = sum of _TODD[k] x^k, grown in place
_EXPANSIONS = {}  # kind -> (coefficients, log), each a list grown in place


def _coefficient(kind, k):
    """The x^k coefficient, k >= 1, of a built-in series, from the Todd
    numbers, which invert (1 - exp(-x))/x = sum of (-1)^i x^i / (i+1)!."""
    for n in range(len(_TODD), k + 1):
        _TODD.append(-sum(Fraction((-1) ** i, factorial(i + 1)) * _TODD[n - i]
                          for i in range(1, n + 1)))
    if kind == "todd":
        return LaurentY.const(_TODD[k])
    if kind == "lclass":
        return LaurentY.const(2**k * _TODD[k] - (k == 1))
    if kind == "hirzebruch":
        return LaurentY({0: 1, 1: 1}) ** k * _TODD[k] - LaurentY.y(1, k == 1)
    return LaurentY.const(k == 1)  # chern


@lru_cache(maxsize=None)
def genus_series(kind, order):
    """One of the built-in genus series to the given order, one object per
    (kind, order); no coefficient of a kind is expanded twice."""
    if order < 1:
        raise InvalidParameter("series order must be >= 1")
    if kind not in ("chern", "todd", "lclass", "hirzebruch"):
        raise InvalidParameter(f"unknown genus series kind {kind!r}")
    coeffs, log = _EXPANSIONS.setdefault(kind, ([LaurentY.one()], [LaurentY()]))
    coeffs.extend(_coefficient(kind, k) for k in range(len(coeffs), order + 1))
    return ChernRootSeries(kind, coeffs[:order + 1], order, log)


# -- Newton's identities -------------------------------------------------------


def power_sums(V):
    """Power sums p_1..p_dim of the Chern roots, from the Chern classes."""
    return graded_recurrence(V.space, {i: V.chern(i) for i in range(1, V.space.dim + 1)},
                             lambda i, k: (-1) ** (i - 1) * (k if i == k else 1), V.space.dim)


def _elementary_from_power_sums(space, psums, upto):
    """e_0..e_upto from power sums: k e_k = sum of (-1)^(i-1) p_i e_(k-i)."""
    return [space.one(), *graded_recurrence(space, dict(enumerate(psums, 1)),
                                            lambda i, k: Fraction((-1) ** (i - 1), k), upto)]


def chern_character(V):
    """ch(V) = rank + sum of p_m / m!, kept on V.  A bundle with a splitting
    reads it in closed form, one that knows its ch from other bundles' (a
    dual, a relative tangent bundle) reads it off theirs, and every other
    bundle runs Newton's identities once."""
    if V._ch is None and V.splitting is not None:
        V._ch = _split_character(V)
    elif V._ch is None:
        space = V.space
        V._ch = CohClass.combine(space, [(V.rank, space.one(), None)] + [
            (Fraction(1, factorial(m)), p, None) for m, p in enumerate(power_sums(V), start=1)])
    elif V._ch.__class__ is not CohClass:
        V._ch = V._ch(chern_character)
    return V._ch


def _split_character(V):
    """ch(V) = N e^c1 + rank - N for a bundle with a splitting (N, c1)."""
    N, c1 = V.splitting
    space = V.space
    return CohClass.combine(space, [(N, class_exp(c1), None), (V.rank - N, space.one(), None)])


def class_exp(X):
    """exp of a class X with no constant term (else InvalidParameter), the
    sum of its degree parts E_k, by k E_k = sum of j X_j E_(k-j)."""
    return _unit_series(X, lambda j, k: Fraction(j, k))


def apply_series(series, V):
    """Product of series(root) over the Chern roots of V, on V's space.

    Computed as exp(sum of log-series coefficients times power sums), which
    is exact to the truncation order and multiplicative over Whitney sums.
    """
    space = V.space
    if series.order < space.dim:
        raise InvalidParameter(
            f"series order {series.order} is below the space dimension {space.dim}"
        )
    lcoeffs = series.log()
    p = chern_character(V).degree_scaled([factorial(m) for m in range(space.dim + 1)])
    return class_exp(CohClass.combine(space, [  # p_m, the m-th power sum, is m! ch_m(V)
        (lcoeffs[m], c, None) for m, c in p.by_degree().items() if m]))


# -- exterior powers and duality ------------------------------------------------


def _z_power_sums(ch, upto):
    """p_1..p_upto of the reduced roots z = e^x - 1 of a Chern character."""
    row, out = [1] + [0] * ch.space.dim, []  # k! S(j,k) for j = 0..dim, from k = 0
    for k in range(1, upto + 1):  # k! S(j,k) = k (k! S(j-1,k) + (k-1)! S(j-1,k-1))
        row = list(accumulate(row[:-1], lambda t, s: k * (t + s), initial=0))
        out.append(ch.degree_scaled(row))
    return out


def lambda_y(V):
    """The total exterior-power class of a bundle, sum of y^i [Lambda^i V],
    as its Chern character.

    That is the product of 1 + y e^x over the roots x, which is the
    sum of y^j (1+y)^(r-j) e_j(z) over the reduced roots z = e^x - 1, for r
    the rank; the weights lie in Z[y], so coefficients stay in Q[y].  The
    degree-j part of p_k(z), the sum of (-1)^(k-m) C(k,m) psi^m ch(V) over
    m = 0..k, is ch_j(V) times k! S(j,k) (Stirling numbers of the second
    kind), 0 for j < k: one degree-wise scaling of ch(V), no products.  So
    e_j(z) starts in degree j and Newton's identities stop at min(r, dim).
    """
    if V.rank < 0:
        raise InvalidParameter("lambda_y needs an honest (non-virtual) rank")
    if V.splitting is not None:
        return _split_lambda_y(V)
    space, r = V.space, V.rank
    p = _z_power_sums(chern_character(V), min(r, space.dim))
    return CohClass.combine(space, [
        (LaurentY({j + i: comb(r - j, i) for i in range(r - j + 1)}), c, None)
        for j, c in enumerate(_elementary_from_power_sums(space, p, len(p)))])


def _split_lambda_y(V):
    """lambda_y of V = N L + O^(r-N) with c1(L) = c1: (1+y)^(r-N) times the
    sum of C(N,j) y^j psi^j(e^c1) over j = 0..N, one degree-wise scaling of
    e^c1 per j and no products.  e^c1 is read off the kept ch(V); with N = 0
    only psi^0(e^c1) = 1 is read.  With N > r, the weight's negative power of
    (1+y) is its denominator (1+y)^(N-r), divided out by the canonical form."""
    N, _ = V.splitting
    space, m = V.space, V.rank - N
    e = CohClass.combine(space, [(Fraction(1, N), chern_character(V), None),
                                 (Fraction(-m, N), space.one(), None)]) if N else space.one()
    p = max(m, 0)
    terms = []
    for j in range(N + 1):
        w = LaurentY({j + i: comb(N, j) * comb(p, i) for i in range(p + 1)})
        terms.append((w if m >= 0 else _over(w, 1, -m), e.adams(j), None))
    return CohClass.combine(space, terms)


def k_dual(k):
    """Grothendieck duality on K-classes of a smooth model of dimension m:
    each term [F] y^i goes to (-1)^m [F* (x) omega] (1/y)^i.  On a product,
    omega is the exterior product of the factors' canonical bundles, so its
    ch multiplies in one factor at a time, each a sparse pulled-back class."""
    space = k.space
    if space.factors:
        omegas = [pull_to_product(space, i, class_exp(f.canonical_chern_root()))
                  for i, f in enumerate(space.factors)]
    else:
        omegas = [class_exp(space.canonical_chern_root())]
    out, sign = k.adams(-1).invert_y(), (-1) ** space.dim
    for omega in omegas:
        out, sign = CohClass.combine(space, [(sign, out, omega)]), 1
    return out
