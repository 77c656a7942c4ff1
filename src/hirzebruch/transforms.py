"""Characteristic class transformations on the computable fragment.

The K-theory side assigns to a space (or to variation data over it) a
y-graded K-class: for a smooth compact model that of the total exterior
algebra of the cotangent bundle, for an open complement that of the
logarithmic cotangent bundle along the boundary arrangement, in either mode
multiplied by the cohomological class of variation data when supplied.  A
K-class is carried as its Chern character, a ``CohClass``; its rank is its
degree-0 part.  The classes are functorial for exterior products, so on a
product model the closed class, the open class without data and every
multiplicative series class of the tangent bundle are the exterior products
of the factors' classes, and the genus without data is the product of the
factors' genera, since the integral over X x Y of (a x b)(c x d) is the
integral over X of ac times that over Y of bd.  Variation data, ``mht``,
pushforward and smooth pullback still work on the product ring.

The homology side applies a Todd-twisted Chern character: the unnormalized
transformation is ch * td(TM) set against the fundamental class and graded
by cycle dimension, and the normalized one additionally scales the
dimension-k part by (1+y)^(-k).  Its dimension-0 part is the genus; its
normalized value at y = -1 is a rational homology class that the hyperplane
arrangement oracle reproduces by pure inclusion-exclusion.

A homology ledger is a ``CohClass`` too: on a smooth model H_*(X) is the
cohomology ring with the degree-(dim - k) monomials standing for
dimension-k cycles, and the coefficients live in the ring
Q[y, 1/y, 1/(1+y)] of class coefficients.  Every ledger operation is one
class operation: ``mht`` is ch * td (then ``normalize_cycles``), a ledger
is pushed forward by ``spaces.gysin_pushforward`` (the built-in maps keep
cycle dimension), duality is ``adams(-1).invert_y()`` up to the sign
(-1)^dim, and the y = -1 specialization is ``at_minus_one``.
"""

from __future__ import annotations

from math import comb, prod

from .errors import InvalidParameter, MissingLogStructure, UnsupportedMap
from .rings import LaurentY, _integer, printed
from . import bundles
from .bundles import apply_series, chern_character, lambda_y
from . import spaces as sp
from .spaces import CohClass


def _kept_series(V, kind):
    """The class of the bundle V under the built-in genus series ``kind``,
    at V's model's order, kept on V after its one computation; a product's
    own tangent bundle reads ``series_class``, the factors' exterior product."""
    if V.space.factors and V is V.space._classes.get("tangent"):
        return series_class(V.space, kind)
    out = V._series.get(kind)
    if out is None:
        out = V._series[kind] = apply_series(bundles.genus_series(kind, max(V.space.dim, 1)), V)
    return out


def series_class(space, kind):
    """The class of TM under the built-in genus series ``kind`` (see
    ``bundles.genus_series``): the one kept on the model's tangent bundle,
    or on a product the exterior product of the factors' classes, each at
    its factor's own order (a multiplicative series is multiplicative over
    TX x TY), kept on the model.  Each is computed once, on first use."""
    if not space.factors:
        return _kept_series(space.tangent_bundle(), kind)
    out = space._classes.get(kind)
    if out is None:
        out = space._classes[kind] = sp.exterior_product(
            *(series_class(f, kind) for f in space.factors), space=space)
    return out


def _todd(space):
    """td(TM), kept on the model."""
    return series_class(space, "todd")


def _factor_modes(space, mode):
    """A product model's factors, each with its share of ``mode``: a factor
    without boundary data takes the closed mode."""
    if mode != "closed" and space.divisors is None:
        raise MissingLogStructure(f"{space.name} has no boundary arrangement")
    return [(f, mode if f.divisors is not None else "closed") for f in space.factors]


def _by_factor(space, mode):
    """The exterior product of a product model's factor classes in ``mode``."""
    return sp.exterior_product(*(mhc_y(f, m) for f, m in _factor_modes(space, mode)),
                               space=space)


class VariationData:
    """Graded pieces of (the boundary extension of) a good variation:
    a finite list of (Hodge degree p, bundle class of the graded piece)."""

    __slots__ = ("pieces",)

    def __init__(self, pieces):
        pieces = tuple((_integer(p, "Hodge degree"), V) for p, V in pieces)
        if sum(V.rank for _, V in pieces) < 0:
            raise InvalidParameter("total rank of variation data must be >= 0")
        self.pieces = pieces

    @classmethod
    def trivial(cls, space):
        return cls([(0, sp.trivial_bundle(space, 1))])

    @classmethod
    def tate(cls, space, n):
        """The weight-(-2n) rank-one twist: a single piece in degree n."""
        return cls([(n, sp.trivial_bundle(space, 1))])


def mhc_cohomological(space, data):
    """Sum over pieces of (-y)^p [piece_p], as a K-class on the space."""
    for _, V in data.pieces:
        if V.space.key != space.key:
            raise InvalidParameter("variation piece lives on the wrong space")
    return CohClass.combine(space, [(LaurentY({p: -1 if p % 2 else 1}), chern_character(V), None)
                                    for p, V in data.pieces])


def mhc_y(space, mode="closed", data=None):
    """The K-theoretic characteristic class of the space in the given mode,
    (sum_p (-y)^p [Gr^p_F V]) * lambda_y(Omega^1(log D)) for variation data V
    (``mhc_cohomological``; without data the first factor is 1).

    * ``closed``: the compact smooth model itself, D empty: the total
      exterior-algebra class of its cotangent bundle.
    * ``open_complement``: the complement of the boundary arrangement D,
      via the logarithmic cotangent bundle.

    The closed class without data is kept on the model after its first
    computation.
    """
    product = bool(space.factors)
    if mode == "closed":
        out = space._classes.get("closed")
        if out is None:
            out = space._classes["closed"] = (_by_factor(space, mode) if product
                                              else lambda_y(space.tangent_bundle().dual()))
    elif mode == "open_complement":
        out = _by_factor(space, mode) if product else lambda_y(space.log_cotangent())
    else:
        raise InvalidParameter(f"unknown mode {mode!r}")
    return out if data is None else mhc_cohomological(space, data) * out


def mht(k, normalized=True):
    """The Todd-twisted homology class of a K-class on a smooth model.

    Unnormalized: ch(k) * td(TM) against the fundamental class, read by
    cycle dimension.  Normalized: the dimension-j part is additionally
    divided by (1+y)^j, on top of any (1+y) denominator the Chern character
    already carries.
    """
    total = k * _todd(k.space)
    return total.normalize_cycles() if normalized else total


def degree(c):
    """The dimension-0 component, evaluated by the integration functional."""
    return c.space.integrate(c)


def chi_y_genus(space, mode="closed", data=None):
    """The y-genus of the space in the given mode (``closed`` or
    ``open_complement``, with variation data in either; see ``mhc_y``), as a
    Laurent polynomial.

    It is the degree of the dimension-0 part of the unnormalized ``mht``,
    i.e. the integral of the top-degree part of ch * td(TM).  That part is
    read through a complementary-degree pairing: only the monomial pairs of
    ch and td whose degrees add up to the dimension are multiplied, and the
    full ledger that ``mht`` builds is never formed.  On a product without
    variation data (closed, or open with the product's boundary data) it is
    the product of the factors' genera, each factor in its share of the mode.
    The closed genus without data of any other model is kept on the model
    after its first computation, so the factors of (P^1)^k share one pairing.
    """
    kept = mode == "closed" and data is None
    if kept and "genus" in space._classes:
        return space._classes["genus"]
    if space.factors and data is None and mode in ("closed", "open_complement"):
        return prod(chi_y_genus(f, m) for f, m in _factor_modes(space, mode))
    top = mhc_y(space, mode, data).multiply(_todd(space), space.dim)
    genus = space.integrate(top).reduce_unit_denominator()
    if kept:
        space._classes["genus"] = genus
    return genus


# -- functorialities -----------------------------------------------------------


def exterior(a, b):
    """Exterior product of two classes, on the product of their spaces; a
    class on a point scales the other by its single coefficient."""
    if sp.is_point(a.space):
        return b * a.coeff(a.space._zero_exp)
    if sp.is_point(b.space):
        return a * b.coeff(b.space._zero_exp)
    return sp.exterior_product(a, b)


def pushforward(m, k):
    """Proper pushforward of a K-class along a built-in map: the Gysin
    pushforward of k * td(T_m), the Todd class of the virtual relative
    tangent bundle (so that pushing to a point computes the genus).  T_m
    keeps td(T_m), as a model's tangent bundle keeps ``series_class``, so
    off products a push to a point reads the td(TM) that ``mht`` uses.

    Raises NotPolynomial when the degree-0 part of the result keeps a pole
    at y = -1.  A homology ledger is pushed by ``spaces.gysin_pushforward``.
    """
    pushed = sp.gysin_pushforward(m, k * _kept_series(sp.relative_tangent(m), "todd"))
    pushed.component(0).at_minus_one()  # NotPolynomial while the rank keeps a pole
    return pushed


def pullback_smooth(m, k):
    """Smooth pullback of a K-class: lambda_y of the relative cotangent bundle
    (1 where that is O^0: identity, open restriction) times the ring pullback."""
    if not m.smooth:
        raise UnsupportedMap(f"{m.kind} is not a built-in smooth map")
    return lambda_y(sp.relative_tangent(m).dual()) * sp.ring_pullback(m, k)


def homology_dual(c):
    """Duality on the homology ledger: (-1)^k on the dimension-k part and
    y -> 1/y in every coefficient."""
    return c.adams(-1).invert_y() * (-1) ** c.space.dim


def specialize_minus_one(c):
    """Evaluate at y = -1 after cancelling all (1+y) factors.

    Raises NotPolynomial when a component has a genuine pole at y = -1.
    """
    return c.at_minus_one()


def csm_arrangement(n, k):
    """Chern class of the complement of k general-position hyperplanes in
    P^n, by additivity and inclusion-exclusion over the strata.

    This is a pure binomial computation, independent of the transformation
    pipeline, and serves as its y = -1 oracle.
    """
    if not (0 <= _integer(k, "hyperplane count") <= _integer(n, "dimension") + 1):
        raise InvalidParameter("need 0 <= k <= n+1 hyperplanes in general position")
    raw = {}
    for s in range(min(k, n) + 1):
        m = n - s
        for j in range(m + 1):
            # dimension-j part of c(TP^m) against [P^m], pushed into P^n
            e = (n - j,)
            raw[e] = raw.get(e, 0) + (-1) ** s * comb(k, s) * comb(m + 1, m - j)
    return CohClass(sp.projective(n), raw)


def render_homology_on_projective(c):
    """Render a ledger class on a P^n model in cycle notation: the
    fundamental class as [Pn], dimension-one as l, dimension-zero as [pt]."""
    n = c.space.dim
    pieces = []
    for e, val in c.items():  # by degree: from the fundamental class down
        k = n - sum(e)
        if k == n:
            sym = f"[P{n}]"
        elif k == 1 and n != 1:
            sym = "l"
        elif k == 0:
            sym = "[pt]"
        else:
            sym = f"[P{k}]"
        text = printed(str, val)
        if " " in text:
            text = f"({text})"
        if k == n and val == 1:
            pieces.append(sym)
        else:
            pieces.append(f"{text}*{sym}")
    return " + ".join(pieces) if pieces else "0"
