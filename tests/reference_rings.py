"""The Fraction-dict ``LaurentY`` and ``RationalFunctionY`` that the
integer-numerator types in ``hirzebruch.rings`` replaced, kept verbatim as
the reference for the differential tests in ``test_rings.py``."""

from fractions import Fraction

from hirzebruch.errors import NotPolynomial
from hirzebruch.rings import render_y


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return None


class LaurentY:
    """Laurent polynomial in y over the rationals: {exponent: coefficient}."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                v = Fraction(v)
                if v:
                    c[int(e)] = v
        self._c = c

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def const(cls, v):
        return cls({0: Fraction(v)})

    @classmethod
    def y(cls, exp=1, coeff=1):
        return cls({exp: Fraction(coeff)})

    def items(self):
        """Terms as (exponent, coefficient), exponents increasing."""
        return sorted(self._c.items())

    def coeff(self, e):
        return self._c.get(e, Fraction(0))

    def is_zero(self):
        return not self._c

    def is_monomial(self):
        return len(self._c) == 1

    def min_exp(self):
        return min(self._c) if self._c else 0

    def max_exp(self):
        return max(self._c) if self._c else 0

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if isinstance(other, LaurentY):
            return self._c == other._c
        f = _as_fraction(other)
        if f is not None:
            return self._c == ({0: f} if f else {})
        return NotImplemented

    def __hash__(self):
        if set(self._c) <= {0}:  # equal to the Fraction it holds
            return hash(self._c.get(0, 0))
        return hash(frozenset(self._c.items()))

    def __neg__(self):
        return LaurentY({e: -v for e, v in self._c.items()})

    def __add__(self, other):
        if not isinstance(other, LaurentY):
            f = _as_fraction(other)
            if f is None:
                return NotImplemented
            other = LaurentY({0: f})
        c = dict(self._c)
        for e, v in other._c.items():
            w = c.get(e, Fraction(0)) + v
            if w:
                c[e] = w
            else:
                c.pop(e, None)
        out = LaurentY()
        out._c = c
        return out

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, LaurentY) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, LaurentY):
            f = _as_fraction(other)
            if f is None:
                return NotImplemented
            if not f:
                return LaurentY()
            return LaurentY({e: v * f for e, v in self._c.items()})
        c = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                w = c.get(e, Fraction(0)) + v1 * v2
                if w:
                    c[e] = w
                else:
                    c.pop(e, None)
        out = LaurentY()
        out._c = c
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        f = _as_fraction(other)
        if f is None:
            return NotImplemented
        return self * (1 / f)

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            if not self.is_monomial():
                raise ZeroDivisionError("negative power of a non-monomial Laurent polynomial")
            (e, v), = self._c.items()
            return LaurentY({e * n: v**n})
        result = LaurentY.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def invert_y(self):
        """Substitute y -> 1/y (negate every exponent)."""
        return LaurentY({-e: v for e, v in self._c.items()})

    def __call__(self, value):
        """Evaluate at a rational value of y (nonzero if negative exponents occur)."""
        value = Fraction(value)
        total = Fraction(0)
        for e, v in self._c.items():
            total += v * value**e
        return total

    def div_one_plus_y(self):
        """Divide by (1+y): return (quotient, remainder) with remainder rational.

        remainder == 0 exactly when (1+y) divides self in Q[y, y^-1].
        """
        if not self._c:
            return LaurentY(), Fraction(0)
        lo = self.min_exp()
        # shift to an ordinary polynomial, synthetic division at root -1
        deg = self.max_exp() - lo
        coeffs = [self.coeff(lo + i) for i in range(deg + 1)]
        quot = [Fraction(0)] * deg
        carry = Fraction(0)
        for i in range(deg, 0, -1):
            quot[i - 1] = coeffs[i] + carry
            carry = -quot[i - 1]
        rem = coeffs[0] + carry
        return LaurentY({lo + i: q for i, q in enumerate(quot)}), rem

    def is_integral_polynomial(self):
        """True when the value lies in Z[y] (integer coefficients, exponents >= 0)."""
        return all(e >= 0 and v.denominator == 1 for e, v in self._c.items())

    def __str__(self):
        return render_y(self)

    def __repr__(self):
        return f"LaurentY({render_y(self)!r})"



class RationalFunctionY:
    """A Laurent polynomial in y divided by (1+y)^k, kept normalized so that
    (1+y) does not divide the numerator while k > 0."""

    __slots__ = ("num", "den_pow")

    def __init__(self, num, den_pow=0):
        if not isinstance(num, LaurentY):
            num = LaurentY({0: Fraction(num)})
        den_pow = int(den_pow)
        if den_pow < 0:
            raise ValueError("denominator power must be >= 0")
        while den_pow > 0 and num:
            q, r = num.div_one_plus_y()
            if r != 0:
                break
            num, den_pow = q, den_pow - 1
        if not num:
            den_pow = 0
        self.num = num
        self.den_pow = den_pow

    @classmethod
    def zero(cls):
        return cls(LaurentY())

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def _coerce(self, other):
        if isinstance(other, RationalFunctionY):
            return other
        if isinstance(other, LaurentY):
            return RationalFunctionY(other)
        f = _as_fraction(other)
        if f is None:
            return None
        return RationalFunctionY(LaurentY({0: f}))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den_pow == other.den_pow

    def __hash__(self):
        # without a pole the value equals its numerator
        return hash((self.num, self.den_pow)) if self.den_pow else hash(self.num)

    def __neg__(self):
        q = RationalFunctionY.__new__(RationalFunctionY)
        q.num = -self.num
        q.den_pow = self.den_pow
        return q

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        k = max(self.den_pow, other.den_pow)
        one_y = LaurentY({0: 1, 1: 1})
        a = self.num * one_y ** (k - self.den_pow)
        b = other.num * one_y ** (k - other.den_pow)
        return RationalFunctionY(a + b, k)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunctionY(self.num * other.num, self.den_pow + other.den_pow)

    __rmul__ = __mul__

    def invert_y(self):
        """Substitute y -> 1/y.  Uses 1 + 1/y = (1+y)/y."""
        return RationalFunctionY(self.num.invert_y() * LaurentY.y(self.den_pow), self.den_pow)

    def reduce_unit_denominator(self):
        """Return the numerator once every (1+y) factor has cancelled.

        Raises NotPolynomial when the normalized denominator power is still
        positive, i.e. the value has a genuine pole at y = -1.
        """
        if self.den_pow:
            raise NotPolynomial(
                f"({render_y(self.num)}) is not divisible by (1+y)^{self.den_pow}"
            )
        return self.num

    def at_minus_one(self):
        """Evaluate at y = -1 (after cancelling the denominator)."""
        return self.reduce_unit_denominator()(Fraction(-1))

    def __str__(self):
        if self.den_pow == 0:
            return render_y(self.num)
        tail = "(1+y)" if self.den_pow == 1 else f"(1+y)^{self.den_pow}"
        return f"({render_y(self.num)})/{tail}"

    def __repr__(self):
        return f"RationalFunctionY({str(self)!r})"

