"""The Grothendieck ring of varieties at desk scale: its atoms.

A class in the localized Grothendieck ring of complex algebraic varieties
over a point is carried by its Hodge realization, the virtual Hodge table of
compactly supported cohomology, and here it is that ``HodgeDiamond``: every
invariant computed in this package factors through the table, and
localization at the Lefschetz class is free because tables already admit
negative diagonal entries.  Sums, products, powers and the duality
involution are the table's own operations; ``exprlang.evaluate`` folds a
parsed expression through them.

Atoms: point, affine n-space, the Lefschetz class L, the one-torus Gm,
projective n-space, a smooth projective curve of genus g, and arbitrary
custom tables.  All genera extracted from these classes are compactly
supported by construction.
"""

from __future__ import annotations

from .errors import InvalidParameter
from .hodge import HodgeDiamond
from .rings import _integer


class MotivicClass(HodgeDiamond):
    """No value has this type: the atoms return ``HodgeDiamond`` tables.
    The name is kept, with no methods, because ``perfbench/tracer.py``
    looks it up."""

    __slots__ = ()


def point():
    return HodgeDiamond.point()


def lefschetz():
    """L, the class of the affine line: the rank-one (1,1) table."""
    return HodgeDiamond({(1, 1): 1})


def affine(n):
    if _integer(n, "affine space dimension") < 0:
        raise InvalidParameter("affine space dimension must be >= 0")
    return HodgeDiamond({(n, n): 1})


def torus():
    """Gm = A1 minus a point."""
    return HodgeDiamond({(1, 1): 1, (0, 0): -1})


def projective(n):
    """P^n = 1 + L + ... + L^n."""
    if _integer(n, "projective space dimension") < 0:
        raise InvalidParameter("projective space dimension must be >= 0")
    return HodgeDiamond({(p, p): 1 for p in range(n + 1)})


def curve(g):
    """A smooth projective curve of genus g."""
    if _integer(g, "genus") < 0:
        raise InvalidParameter("genus must be >= 0")
    return HodgeDiamond({(0, 0): 1, (1, 0): -g, (0, 1): -g, (1, 1): 1})


def custom(diamond):
    """An arbitrary table taken as a class: the table itself."""
    return diamond


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
        total = total + projective(n - s) * (-binom if s % 2 else binom)
    return total
