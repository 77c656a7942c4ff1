"""The Grothendieck ring of varieties at desk scale.

A ``MotivicClass`` is an element of the localized Grothendieck ring of
complex algebraic varieties over a point, carried by its Hodge realization
(the virtual Hodge table of compactly supported cohomology) together with a
display expression tree recording how it was built.  Equality is equality of
realizations: every invariant computed in this package factors through the
realization, and localization at the Lefschetz class is free because tables
already admit negative diagonal entries.  The display tree is the parse tree
of ``exprlang``'s expression grammar; ``render_expr`` writes it back in that
grammar.

Atoms: point, affine n-space, the Lefschetz class L, the one-torus Gm,
projective n-space, a smooth projective curve of genus g, and arbitrary
custom tables.  All genera extracted from these classes are compactly
supported by construction.
"""

from __future__ import annotations

from .errors import InvalidParameter
from .hodge import HodgeDiamond
from .rings import _integer

# Display trees are nested tuples, one kind per production of the
# expression grammar in ``exprlang``:
#   ("atom", label), ("int", n), ("add"|"sub"|"mul", left, right),
#   ("pow", tree, n) with n >= 0, ("dual", tree)
# An integer factor on either side, and unary minus, make
# ("mul", ("int", n), tree).  ``exprlang.parse_expr`` returns these trees and
# ``exprlang.evaluate`` rebuilds them, so ``render_expr`` output re-parses
# to the same tree.

_PREC = {"add": 1, "sub": 1, "mul": 2, "pow": 3}
_OPS = {"add": " + ", "sub": " - ", "mul": "*"}


def render_expr(tree, parent_prec=0):
    """Render a display tree.  A right operand of equal precedence is
    parenthesized, so ``exprlang.parse_expr(render_expr(t)) == t``."""
    kind = tree[0]
    if kind == "atom":
        return tree[1]
    if kind == "int":
        return str(tree[1])
    if kind == "dual":
        return f"D({render_expr(tree[1])})"
    prec = _PREC[kind]
    if kind == "pow":
        body = f"{render_expr(tree[1], prec)}^{tree[2]}"
    else:
        body = f"{render_expr(tree[1], prec)}{_OPS[kind]}{render_expr(tree[2], prec + 1)}"
    return f"({body})" if prec < parent_prec else body


class MotivicClass:
    """A Grothendieck-ring class: Hodge realization plus display expression."""

    __slots__ = ("realization", "expr")

    def __init__(self, realization, expr):
        self.realization = realization
        self.expr = expr

    def __eq__(self, other):
        if not isinstance(other, MotivicClass):
            return NotImplemented
        return self.realization == other.realization

    def __hash__(self):
        return hash(self.realization)

    def _wrap(self, other):
        if isinstance(other, MotivicClass):
            return other
        if isinstance(other, int):
            return integer(other)
        return None

    def __add__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return MotivicClass(self.realization + other.realization,
                            ("add", self.expr, other.expr))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return MotivicClass(self.realization - other.realization,
                            ("sub", self.expr, other.expr))

    def __mul__(self, other):
        if isinstance(other, int):
            return MotivicClass(self.realization * other,
                                ("mul", ("int", other), self.expr))
        if not isinstance(other, MotivicClass):
            return NotImplemented
        return MotivicClass(self.realization.tensor(other.realization),
                            ("mul", self.expr, other.expr))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __neg__(self):
        return self * -1

    def __pow__(self, n):
        if _integer(n, "exponent") < 0:
            raise InvalidParameter("negative power of a motivic class")
        return MotivicClass(self.realization**n, ("pow", self.expr, n))

    def dual(self):
        """The duality involution: h(p, q) -> h(-p, -q).

        On the class of a smooth proper variety of dimension m this equals
        multiplication by L^(-m).
        """
        return MotivicClass(self.realization.dual(), ("dual", self.expr))

    def e_polynomial(self):
        """E-polynomial of compactly supported cohomology."""
        return self.realization.e_polynomial()

    def chi_y(self):
        """Compactly supported chi_y genus."""
        return self.realization.chi_y()

    def __str__(self):
        return render_expr(self.expr)

    def __repr__(self):
        return f"MotivicClass({render_expr(self.expr)!r})"


# -- atoms ------------------------------------------------------------------


def point():
    return MotivicClass(HodgeDiamond.point(), ("atom", "pt"))


def integer(n):
    """n times the point, displayed as the literal n."""
    return MotivicClass(HodgeDiamond.point() * n, ("int", n))


def lefschetz():
    """L, the class of the affine line; realization the rank-one (1,1) table."""
    return MotivicClass(HodgeDiamond({(1, 1): 1}), ("atom", "L"))


def affine(n):
    if n < 0:
        raise InvalidParameter("affine space dimension must be >= 0")
    return MotivicClass(HodgeDiamond({(n, n): 1}), ("atom", f"A{n}"))


def torus():
    """Gm = A1 minus a point."""
    return MotivicClass(HodgeDiamond({(1, 1): 1, (0, 0): -1}), ("atom", "Gm"))


def projective(n):
    """P^n = 1 + L + ... + L^n."""
    if _integer(n, "projective space dimension") < 0:
        raise InvalidParameter("projective space dimension must be >= 0")
    return MotivicClass(HodgeDiamond({(p, p): 1 for p in range(n + 1)}),
                        ("atom", f"P{n}"))


def curve(g):
    """A smooth projective curve of genus g."""
    if g < 0:
        raise InvalidParameter("genus must be >= 0")
    return MotivicClass(
        HodgeDiamond({(0, 0): 1, (1, 0): -g, (0, 1): -g, (1, 1): 1}),
        ("atom", f"C{g}"),
    )


def custom(diamond, label="X"):
    """Wrap an arbitrary table as a formal class."""
    return MotivicClass(diamond, ("atom", label))


def arrangement_complement(n, k):
    """P^n minus k hyperplanes in general position, by inclusion-exclusion.

    Any j <= n of the hyperplanes meet in a P^(n-j); any n+1 of them have
    empty intersection.
    """
    if not (0 <= _integer(k, "hyperplane count") <= _integer(n, "dimension") + 1):
        raise InvalidParameter("need 0 <= k <= n+1 hyperplanes in general position")
    total = projective(n)
    binom = 1
    for s in range(1, min(k, n) + 1):
        binom = binom * (k - s + 1) // s
        term = projective(n - s) * binom if binom != 1 else projective(n - s)
        total = total - term if s % 2 == 1 else total + term
    return total
