"""Characteristic class transformations on the computable fragment.

The K-theory side assigns to a space (or to variation data over it) a
y-graded K-class: for a smooth compact model that of the total exterior
algebra of the cotangent bundle, for an open complement that of the
logarithmic cotangent bundle along the boundary arrangement, optionally
multiplied by the cohomological class of supplied variation data.

The homology side applies a Todd-twisted Chern character: the unnormalized
transformation is ch * td(TM) set against the fundamental class and graded
by cycle dimension, and the normalized one additionally scales the
dimension-k part by (1+y)^(-k).  Its dimension-0 part is the genus; its
normalized value at y = -1 is a rational homology class that the hyperplane
arrangement oracle reproduces by pure inclusion-exclusion.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidParameter, MissingLogStructure, UnsupportedMap
from .rings import LaurentY, RationalFunctionY
from . import bundles
from .bundles import KPolyClass, apply_series, chern_character, lambda_y
from . import spaces as sp
from .spaces import CohClass


def _todd(space):
    """td(TM), kept on the model together with the series it came from."""
    series = bundles.genus_series("todd", max(space.dim, 1))
    memo = space._classes.get("todd")
    if memo is None or memo[0] is not series:
        memo = space._classes["todd"] = (
            series, apply_series(series, space.tangent_bundle(), space))
    return memo[1]


def _as_rf(c):
    if isinstance(c, RationalFunctionY):
        return c
    if isinstance(c, LaurentY):
        return RationalFunctionY(c)
    return RationalFunctionY(LaurentY({0: Fraction(c)}))


class VariationData:
    """Graded pieces of (the boundary extension of) a good variation:
    a finite list of (Hodge degree p, bundle class of the graded piece)."""

    __slots__ = ("pieces",)

    def __init__(self, pieces):
        pieces = tuple((int(p), V) for p, V in pieces)
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

    def rank(self):
        return sum(V.rank for _, V in self.pieces)


def mhc_cohomological(space, data):
    """Sum over pieces of (-y)^p [piece_p], as a K-class on the space."""
    rank_poly = LaurentY()
    ch = space.zero()
    for p, V in data.pieces:
        if V.space.key != space.key:
            raise InvalidParameter("variation piece lives on the wrong space")
        sign = LaurentY({p: (-1) ** p})
        rank_poly = rank_poly + sign * V.rank
        ch = ch + chern_character(V) * sign
    return KPolyClass(rank_poly, ch)


def mhc_y(space, mode="closed", data=None):
    """The K-theoretic characteristic class of the space in the given mode.

    * ``closed``: the class of the compact smooth model itself, the total
      exterior-algebra class of its cotangent bundle.
    * ``open_complement``: the class of the complement of the boundary
      arrangement, via the logarithmic cotangent bundle; variation data, if
      supplied, multiplies in through its cohomological class.
    * ``twisted``: variation data against the closed class.

    The closed class is kept on the model after its first computation.
    """
    if mode == "closed":
        k = space._classes.get("closed")
        if k is None:
            k = space._classes["closed"] = lambda_y(space.tangent_bundle().dual())
        return k
    if mode == "open_complement":
        if space.log is None:
            raise MissingLogStructure(f"{space.name} has no boundary arrangement")
        out = lambda_y(space.log.log_cotangent)
        if data is not None:
            out = mhc_cohomological(space, data) * out
        return out
    if mode == "twisted":
        if data is None:
            raise InvalidParameter("twisted mode needs variation data")
        return mhc_cohomological(space, data) * mhc_y(space, "closed")
    raise InvalidParameter(f"unknown mode {mode!r}")


class HomClassY:
    """A homology ledger: cycle-dimension-graded coordinate vectors.

    ``comps[k]`` maps a degree-(dim - k) monomial exponent to a coefficient;
    coefficients are RationalFunctionY for transformation outputs and plain
    Fractions for specialized (y = -1) classes.
    """

    __slots__ = ("space", "comps")

    def __init__(self, space, comps):
        clean = {}
        for k, row in comps.items():
            row = {tuple(e): v for e, v in row.items() if v}
            if row:
                clean[int(k)] = row
        self.space = space
        self.comps = clean

    def component(self, k):
        return dict(self.comps.get(k, {}))

    def component_class(self, k):
        """The dimension-k component as a cohomology class."""
        return CohClass(self.space, self.comps.get(k, {}))

    def dims(self):
        return sorted(self.comps)

    def __bool__(self):
        return bool(self.comps)

    def __eq__(self, other):
        if not isinstance(other, HomClassY):
            return NotImplemented
        if self.space.key != other.space.key or set(self.comps) != set(other.comps):
            return False
        for k, row in self.comps.items():
            orow = other.comps[k]
            if set(row) != set(orow):
                return False
            if any(orow[e] != v for e, v in row.items()):
                return False
        return True

    def __add__(self, other):
        if not isinstance(other, HomClassY):
            return NotImplemented
        if self.space.key != other.space.key:
            raise InvalidParameter("classes live on different spaces")
        comps = {k: dict(row) for k, row in self.comps.items()}
        for k, row in other.comps.items():
            mine = comps.setdefault(k, {})
            for e, v in row.items():
                w = mine.get(e, 0) + v
                if w:
                    mine[e] = w
                else:
                    mine.pop(e, None)
        return HomClassY(self.space, comps)

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, scalar):
        return HomClassY(self.space, {
            k: {e: v * scalar for e, v in row.items()} for k, row in self.comps.items()
        })

    __rmul__ = __mul__

    def map_coeffs(self, fn):
        return HomClassY(self.space, {
            k: {e: fn(v) for e, v in row.items()} for k, row in self.comps.items()
        })

    def __repr__(self):
        rows = ", ".join(
            f"dim {k}: {self.space.render_class(self.component_class(k))}"
            for k in sorted(self.comps, reverse=True)
        )
        return f"HomClassY({rows})"


def mht(k, normalized=True):
    """The Todd-twisted homology class of a K-class on a smooth model.

    Unnormalized: ch(k) * td(TM) against the fundamental class, regraded by
    cycle dimension.  Normalized: the dimension-j part is additionally
    scaled by (1+y)^(-j), on top of any (1+y) denominator the Chern
    character already carries.
    """
    space = k.space
    total = k.ch * _todd(space)
    comps = {}
    for degree, part in total.by_degree().items():
        j = space.dim - degree
        if j < 0:
            continue
        row = {}
        for e, v in part.items():
            rf = _as_rf(v)
            row[e] = RationalFunctionY(rf.num, rf.den_pow + (j if normalized else 0))
        comps[j] = row
    return HomClassY(space, comps)


def degree(c):
    """The dimension-0 component, evaluated by the integration functional."""
    top = c.component_class(0)
    val = c.space.integrate(top)
    return _as_rf(val)


def chi_y_genus(space, mode="closed", data=None):
    """The y-genus of the space in the given mode, as a Laurent polynomial.

    It is the degree of the dimension-0 part of the unnormalized ``mht``,
    i.e. the integral of the top-degree part of ch * td(TM).  That part is
    read through a complementary-degree pairing: only the monomial pairs of
    ch and td whose degrees add up to the dimension are multiplied, and the
    full ledger that ``mht`` builds is never formed.
    """
    top = mhc_y(space, mode, data).ch.multiply(_todd(space), space.dim)
    return _as_rf(space.integrate(top)).reduce_unit_denominator()


# -- functorialities -----------------------------------------------------------


def exterior(a, b):
    """Exterior product of two classes, on the product of their spaces."""
    if isinstance(a, KPolyClass) and isinstance(b, KPolyClass):
        if sp.is_point(a.space):
            return b * a.rank_poly
        if sp.is_point(b.space):
            return a * b.rank_poly
        prod = sp.product(a.space, b.space)
        raw = {}
        for e1, v1 in a.ch.items():
            for e2, v2 in b.ch.items():
                raw[e1 + e2] = raw.get(e1 + e2, 0) + v1 * v2
        return KPolyClass(a.rank_poly * b.rank_poly, CohClass(prod, raw))
    if isinstance(a, HomClassY) and isinstance(b, HomClassY):
        if sp.is_point(a.space):
            return b * degree(a)
        if sp.is_point(b.space):
            return a * degree(b)
        prod = sp.product(a.space, b.space)
        comps = {}
        for k1, row1 in a.comps.items():
            for k2, row2 in b.comps.items():
                row = comps.setdefault(k1 + k2, {})
                for e1, v1 in row1.items():
                    for e2, v2 in row2.items():
                        e = e1 + e2
                        w = row.get(e, 0) + v1 * v2
                        if w:
                            row[e] = w
                        else:
                            row.pop(e, None)
        return HomClassY(prod, comps)
    raise InvalidParameter("exterior product needs two classes of the same kind")


def pushforward(m, c):
    """Proper pushforward along a built-in map.

    K-classes acquire the Todd twist of the virtual relative tangent bundle
    (so that pushing to a point computes the genus); homology classes push
    forward dimension by dimension.
    """
    if isinstance(c, KPolyClass):
        tdrel = apply_series(bundles.genus_series("todd", max(m.source.dim, 1)),
                             sp.relative_tangent(m), m.source)
        pushed = sp.gysin_pushforward(m, c.ch * tdrel)
        rank = pushed.coeff(m.target._zero_exp)
        if not isinstance(rank, LaurentY):
            rank = LaurentY({0: Fraction(rank)})
        return KPolyClass(rank, pushed)
    if isinstance(c, HomClassY):
        comps = {}
        for k, row in c.comps.items():
            pushed = sp.gysin_pushforward(m, CohClass(c.space, row))
            if pushed:
                comps[k] = dict(pushed.items())
        return HomClassY(m.target, comps)
    raise InvalidParameter("pushforward needs a K-class or a homology class")


def pullback_smooth(m, c):
    """Smooth pullback of a K-class: the exterior-algebra class of the
    relative cotangent bundle times the ring pullback."""
    if not isinstance(c, KPolyClass):
        raise InvalidParameter("smooth pullback is defined on K-classes")
    if m.kind in ("identity", "open_restriction"):
        return KPolyClass(c.rank_poly, sp.ring_pullback(m, c.ch))
    if m.kind in ("bundle_projection", "product_projection"):
        rel = sp.relative_tangent(m)
        lam = lambda_y(rel.dual())
        pulled = KPolyClass(c.rank_poly, sp.ring_pullback(m, c.ch))
        return lam * pulled
    raise UnsupportedMap(f"{m.kind} is not a built-in smooth map")


def homology_dual(c):
    """Duality on the homology ledger: (-1)^k on the dimension-k part and
    y -> 1/y in every coefficient."""
    comps = {}
    for k, row in c.comps.items():
        sign = (-1) ** k
        comps[k] = {e: _as_rf(v).invert_y() * sign for e, v in row.items()}
    return HomClassY(c.space, comps)


def specialize_minus_one(c):
    """Evaluate at y = -1 after cancelling all (1+y) factors.

    Raises NotPolynomial when a component has a genuine pole at y = -1.
    """
    comps = {}
    for k, row in c.comps.items():
        comps[k] = {e: _as_rf(v).at_minus_one() for e, v in row.items()}
    return HomClassY(c.space, comps)


def csm_arrangement(n, k):
    """Chern class of the complement of k general-position hyperplanes in
    P^n, by additivity and inclusion-exclusion over the strata.

    This is a pure binomial computation, independent of the transformation
    pipeline, and serves as its y = -1 oracle.
    """
    if not (0 <= k <= n + 1):
        raise InvalidParameter("need 0 <= k <= n+1 hyperplanes in general position")
    target = sp.projective(n)
    comps = {}
    binom_k = 1
    for s in range(0, min(k, n) + 1):
        if s > 0:
            binom_k = binom_k * (k - s + 1) // s
        sign = (-1) ** s
        m = n - s
        for j in range(m + 1):
            # dimension-j part of c(TP^m) against [P^m], pushed into P^n
            value = Fraction(sign * binom_k * sp._binomial(m + 1, m - j))
            row = comps.setdefault(j, {})
            e = (n - j,)
            w = row.get(e, 0) + value
            if w:
                row[e] = w
            else:
                row.pop(e, None)
    return HomClassY(target, comps)


def render_homology_on_projective(c, at=None):
    """Render a ledger class on a P^n model in cycle notation: the
    fundamental class as [Pn], dimension-one as l, dimension-zero as [pt]."""
    space = c.space
    n = space.dim
    pieces = []
    for k in sorted(c.comps, reverse=True):
        (val,) = c.comps[k].values()
        if at is not None:
            val = _as_rf(val).reduce_unit_denominator()(Fraction(at))
        if k == n:
            sym = f"[P{n}]"
        elif k == 1 and n != 1:
            sym = "l"
        elif k == 0:
            sym = "[pt]"
        else:
            sym = f"[P{k}]"
        text = str(val)
        if " " in text:
            text = f"({text})"
        if k == n and val == 1:
            pieces.append(sym)
        else:
            pieces.append(f"{text}*{sym}")
    return " + ".join(pieces) if pieces else "0"
