"""Virtual Hodge number tables.

A ``HodgeDiamond`` is a finitely supported integer table h(p, q), standing
for a class in the Grothendieck group of (graded polarizable) mixed Hodge
structures: h(p, q) is the virtual dimension of the (p, q) graded piece.
Only these graded dimensions are modeled; actual filtrations, morphisms and
polarizations never enter any formula computed here.

A table is its own E-polynomial, the Laurent polynomial sum of
h(p, q) u^p v^q with integer coefficients, and its group and ring
operations are those of the polynomial: sums add tables, the tensor product
multiplies them, duality is (u, v) -> (1/u, 1/v) and a Tate twist
multiplies by a monomial.  The two genera attached to a table are the
E-polynomial itself (in u, v, seeing both gradings) and chi_y, its
specialization (u, v) -> (-y, 1) (in y, seeing only the first grading).
Both are ring homomorphisms for the tensor product.  ``render_uv`` and
``parse_uv`` give the canonical text form of the E-polynomial (terms by
increasing total degree, u before v), which round-trips exactly.
"""

from __future__ import annotations

from .errors import InvalidParameter, ParseError
from .rings import LaurentY, _integer, _parse_poly, _power, _render_terms, render_monomial


class HodgeDiamond:
    """Finitely supported map (p, q) -> integer, optionally flagged pure;
    the nonzero entries ``{(p, q): int}`` are the E-polynomial's terms.

    When ``pure_weight`` is set to n, entries are required to sit on the
    anti-diagonal p + q = n and to satisfy the symmetry h(p, q) = h(q, p).
    A table equals an int n when it is n times the point.  The constructor
    refuses an index, entry or weight that is not an int, as the scalars,
    powers and twists below refuse theirs.
    """

    __slots__ = ("_c", "pure_weight")

    def __init__(self, entries=None, pure_weight=None):
        c = {}
        for (p, q), v in (entries or {}).items():
            if not all(isinstance(x, int) and not isinstance(x, bool) for x in (p, q, v)):
                raise InvalidParameter(f"Hodge entry {v!r} at ({p!r}, {q!r}): indices and "
                                       "entries must be ints")
            if v:
                c[p, q] = v
        if pure_weight is not None:
            _integer(pure_weight, "pure weight")
            for (p, q), v in c.items():
                if p + q != pure_weight:
                    raise InvalidParameter(f"entry at ({p},{q}) violates pure weight {pure_weight}")
                if c.get((q, p)) != v:
                    raise InvalidParameter(f"pure table is not symmetric at ({p},{q})")
        self._c = c
        self.pure_weight = pure_weight

    @classmethod
    def _of(cls, c, pure_weight=None):
        """The table with the nonzero entries ``c``, known to satisfy ``pure_weight``."""
        out = cls.__new__(cls)
        out._c = c
        out.pure_weight = pure_weight
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def point(cls):
        return cls.tate(0)

    @classmethod
    def tate(cls, n):
        """The rank-one class of type (-n, -n) (weight -2n)."""
        _integer(n, "Tate twist")
        return cls({(-n, -n): 1}, pure_weight=-2 * n)

    # -- basic structure ---------------------------------------------------

    def entries(self):
        """Nonzero entries as ((p, q), h) sorted lexicographically."""
        return sorted(self._c.items())

    def triples(self):
        """Entries as [p, q, h] lists (the text/JSON interchange form)."""
        return [[p, q, v] for (p, q), v in self.entries()]

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if isinstance(other, HodgeDiamond):
            return self._c == other._c
        if isinstance(other, int):
            return self._c == ({(0, 0): other} if other else {})
        return NotImplemented

    def __hash__(self):
        if self._c.keys() <= {(0, 0)}:  # equal to the int it holds
            return hash(self._c.get((0, 0), 0))
        return hash(frozenset(self._c.items()))

    # -- group and ring operations ------------------------------------------

    def __add__(self, other):
        if not isinstance(other, HodgeDiamond):
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            if w := c.get(e, 0) + v:
                c[e] = w
            else:
                del c[e]
        weight = self.pure_weight if self.pure_weight == other.pure_weight else None
        return HodgeDiamond._of(c, weight)

    def __neg__(self):
        return HodgeDiamond._of({e: -v for e, v in self._c.items()}, self.pure_weight)

    def __sub__(self, other):
        if not isinstance(other, HodgeDiamond):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            c = {e: v * other for e, v in self._c.items()} if _integer(other, "scalar") else {}
            return HodgeDiamond._of(c, self.pure_weight)
        if isinstance(other, HodgeDiamond):
            return self.tensor(other)
        return NotImplemented

    __rmul__ = __mul__

    def tensor(self, other):
        """Tensor product: convolution of tables, the product of their
        E-polynomials; weights add."""
        c = {}
        for (p1, q1), v1 in self._c.items():
            for (p2, q2), v2 in other._c.items():
                e = (p1 + p2, q1 + q2)
                c[e] = c.get(e, 0) + v1 * v2
        weight = (None if self.pure_weight is None or other.pure_weight is None
                  else self.pure_weight + other.pure_weight)
        return HodgeDiamond._of({e: v for e, v in c.items() if v}, weight)

    def __pow__(self, n):
        if _integer(n, "exponent") < 0:
            raise InvalidParameter("negative tensor power")
        return _power(self, n, HodgeDiamond.point())

    def dual(self):
        """h'(p, q) = h(-p, -q), E at (1/u, 1/v); inverts the weight."""
        weight = None if self.pure_weight is None else -self.pure_weight
        return HodgeDiamond._of({(-p, -q): v for (p, q), v in self._c.items()}, weight)

    def tate_twist(self, n):
        """Tensor with the rank-one type (-n, -n) class: shift by (-n, -n)."""
        _integer(n, "Tate twist")
        weight = None if self.pure_weight is None else self.pure_weight - 2 * n
        return HodgeDiamond._of({(p - n, q - n): v for (p, q), v in self._c.items()}, weight)

    # -- genera --------------------------------------------------------------

    def e_polynomial(self):
        """E = sum of h(p, q) u^p v^q: the table itself."""
        return self

    def chi_y(self):
        """chi_y = sum over p of (sum over q of h(p, q)) (-y)^p, E at
        (u, v) = (-y, 1): each column of entries sums into one term."""
        cols = {}
        for (p, _q), v in self._c.items():
            cols[p] = cols.get(p, 0) + (v if p % 2 == 0 else -v)
        return LaurentY(cols)

    # -- rendering -------------------------------------------------------------

    def __repr__(self):
        return f"HodgeDiamond({dict(self.entries())!r})"


def render_uv(table):
    """Canonical string for a table's E-polynomial, total degree
    increasing, u before v."""
    terms = sorted(table._c.items(), key=lambda t: (t[0][0] + t[0][1], -t[0][0]))
    return _render_terms([(c, render_monomial("uv", e)) for e, c in terms])


def parse_uv(src):
    """Parse the canonical E-polynomial format (inverse of render_uv) into a table."""
    c = {}
    for coeff, expd in _parse_poly(src, {"u", "v"}):
        if coeff.denominator != 1:
            raise ParseError("E-polynomial coefficients must be integers", 0)
        e = (expd.get("u", 0), expd.get("v", 0))
        c[e] = c.get(e, 0) + coeff.numerator
    return HodgeDiamond(c)
