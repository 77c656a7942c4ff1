"""Virtual Hodge number tables.

A ``HodgeDiamond`` is a finitely supported integer table h(p, q), standing
for a class in the Grothendieck group of (graded polarizable) mixed Hodge
structures: h(p, q) is the virtual dimension of the (p, q) graded piece.
Only these graded dimensions are modeled; actual filtrations, morphisms and
polarizations never enter any formula computed here.

A table is stored as its E-polynomial, the ``PolyUV`` sum of h(p, q) u^p v^q,
so the group and ring operations are those of the polynomial: sums add
tables, the tensor product multiplies them, duality is (u, v) -> (1/u, 1/v)
and a Tate twist multiplies by a monomial.  The two genera attached to a
table are the E-polynomial itself (in u, v, seeing both gradings) and
chi_y (in y, seeing only the first grading).  Both are ring homomorphisms
for the tensor product.
"""

from __future__ import annotations

from .errors import InvalidParameter
from .rings import PolyUV, chi_substitute, invert_uv


class HodgeDiamond:
    """Finitely supported map (p, q) -> integer, optionally flagged pure.

    When ``pure_weight`` is set to n, entries are required to sit on the
    anti-diagonal p + q = n and to satisfy the symmetry h(p, q) = h(q, p).
    """

    __slots__ = ("_e", "pure_weight")

    def __init__(self, entries=None, pure_weight=None):
        e = PolyUV(entries)
        if pure_weight is not None:
            for (p, q), v in e.items():
                if p + q != pure_weight:
                    raise InvalidParameter(f"entry at ({p},{q}) violates pure weight {pure_weight}")
                if e.coeff(q, p) != v:
                    raise InvalidParameter(f"pure table is not symmetric at ({p},{q})")
        self._e = e
        self.pure_weight = pure_weight

    @classmethod
    def _of(cls, e, pure_weight=None):
        """The table with E-polynomial ``e``, known to satisfy ``pure_weight``."""
        out = cls.__new__(cls)
        out._e = e
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
        return cls({(-n, -n): 1}, pure_weight=-2 * n)

    @classmethod
    def from_triples(cls, triples, pure_weight=None):
        return cls(sum((PolyUV({(p, q): v}) for p, q, v in triples), PolyUV()),
                   pure_weight=pure_weight)

    # -- basic structure ---------------------------------------------------

    def entries(self):
        """Nonzero entries as ((p, q), h) sorted lexicographically."""
        return sorted(self._e.items())

    def triples(self):
        """Entries as [p, q, h] lists (the text/JSON interchange form)."""
        return [[p, q, v] for (p, q), v in self.entries()]

    def to_json(self):
        import json

        return json.dumps(self.triples())

    def entry(self, p, q):
        return self._e.coeff(p, q)

    def total_dimension(self):
        """Sum of all entries; equals chi_y evaluated at y = -1."""
        return sum(v for _, v in self._e.items())

    def is_zero(self):
        return self._e.is_zero()

    def __bool__(self):
        return bool(self._e)

    def __eq__(self, other):
        if not isinstance(other, HodgeDiamond):
            return NotImplemented
        return self._e == other._e

    def __hash__(self):
        return hash(self._e)

    # -- group and ring operations ------------------------------------------

    def __add__(self, other):
        if not isinstance(other, HodgeDiamond):
            return NotImplemented
        weight = self.pure_weight if self.pure_weight == other.pure_weight else None
        return HodgeDiamond._of(self._e + other._e, weight)

    def __neg__(self):
        return HodgeDiamond._of(-self._e, self.pure_weight)

    def __sub__(self, other):
        if not isinstance(other, HodgeDiamond):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return HodgeDiamond._of(self._e * other, self.pure_weight)
        if isinstance(other, HodgeDiamond):
            return self.tensor(other)
        return NotImplemented

    __rmul__ = __mul__

    def tensor(self, other):
        """Tensor product: convolution of tables, weights add."""
        weight = (None if self.pure_weight is None or other.pure_weight is None
                  else self.pure_weight + other.pure_weight)
        return HodgeDiamond._of(self._e * other._e, weight)

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise InvalidParameter("negative tensor power")
        weight = 0 if n == 0 else None if self.pure_weight is None else n * self.pure_weight
        return HodgeDiamond._of(self._e ** n, weight)

    def dual(self):
        """h'(p, q) = h(-p, -q); inverts the weight."""
        weight = None if self.pure_weight is None else -self.pure_weight
        return HodgeDiamond._of(invert_uv(self._e), weight)

    def tate_twist(self, n):
        """Tensor with the rank-one type (-n, -n) class: shift by (-n, -n)."""
        weight = None if self.pure_weight is None else self.pure_weight - 2 * n
        return HodgeDiamond._of(self._e * PolyUV({(-n, -n): 1}), weight)

    # -- genera --------------------------------------------------------------

    def e_polynomial(self):
        """E = sum of h(p, q) u^p v^q."""
        return self._e

    def chi_y(self):
        """chi_y = sum over p of (sum over q of h(p, q)) (-y)^p."""
        return chi_substitute(self._e)

    # -- rendering -------------------------------------------------------------

    def __str__(self):
        if not self._e:
            return "0"
        return " + ".join(
            f"{v}@({p},{q})" for (p, q), v in self.entries()
        ).replace("+ -", "- ")

    def __repr__(self):
        return f"HodgeDiamond({dict(self.entries())!r})"
