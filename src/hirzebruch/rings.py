"""Exact coefficient rings for the genus engine.

Every value this package produces lives in one of three rings, all built on
integers and ``fractions.Fraction`` (no floating point anywhere):

* ``LaurentY`` -- Laurent polynomials in y with rational coefficients.
  The chi_y genus and all y-graded class coefficients live here.
* ``PolyUV`` -- Laurent polynomials in u and v with integer coefficients.
  E-polynomials of Hodge number tables live here.
* ``RationalFunctionY`` -- quotients p(y)/(1+y)^k.  A power of (1+y) is the
  only denominator normalized homology classes ever acquire, so the type
  tracks that power instead of a general denominator.

Polynomials are stored as finitely supported dictionaries from exponents to
coefficients with no explicit zeros; values are immutable and arithmetic
never mutates its operands.  ``render_y``/``parse_y`` and
``render_uv``/``parse_uv`` give a canonical text form (terms in increasing
exponent order) that round-trips exactly.  Its parser reads through
``Tokens``, the one scanner and cursor of every text form in the package
(motivic expressions and space specs use it too); the parser also accepts
the polynomials of custom space documents.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InvalidParameter, NotPolynomial, ParseError


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


class PolyUV:
    """Laurent polynomial in u, v with integer coefficients: {(a, b): n}."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for (a, b), v in coeffs.items():
                v = int(v)
                if v:
                    c[(int(a), int(b))] = v
        self._c = c

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def const(cls, n):
        return cls({(0, 0): n})

    @classmethod
    def u(cls, exp=1):
        return cls({(exp, 0): 1})

    @classmethod
    def v(cls, exp=1):
        return cls({(0, exp): 1})

    def items(self):
        """Terms as ((a, b), coefficient) sorted by total degree, u first."""
        return sorted(self._c.items(), key=lambda t: (t[0][0] + t[0][1], -t[0][0]))

    def coeff(self, a, b):
        return self._c.get((a, b), 0)

    def is_zero(self):
        return not self._c

    def is_monomial(self):
        return len(self._c) == 1

    def is_symmetric(self):
        """True when invariant under swapping u and v."""
        return all(self._c.get((b, a)) == v for (a, b), v in self._c.items())

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if isinstance(other, PolyUV):
            return self._c == other._c
        if isinstance(other, int):
            return self._c == ({(0, 0): other} if other else {})
        return NotImplemented

    def __hash__(self):
        if set(self._c) <= {(0, 0)}:  # equal to the int it holds
            return hash(self._c.get((0, 0), 0))
        return hash(frozenset(self._c.items()))

    def __neg__(self):
        return PolyUV({e: -v for e, v in self._c.items()})

    def __add__(self, other):
        if isinstance(other, int):
            other = PolyUV.const(other)
        if not isinstance(other, PolyUV):
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            w = c.get(e, 0) + v
            if w:
                c[e] = w
            else:
                c.pop(e, None)
        out = PolyUV()
        out._c = c
        return out

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = PolyUV.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return PolyUV({e: v * other for e, v in self._c.items()})
        if not isinstance(other, PolyUV):
            return NotImplemented
        c = {}
        for (a1, b1), v1 in self._c.items():
            for (a2, b2), v2 in other._c.items():
                e = (a1 + a2, b1 + b2)
                w = c.get(e, 0) + v1 * v2
                if w:
                    c[e] = w
                else:
                    c.pop(e, None)
        out = PolyUV()
        out._c = c
        return out

    __rmul__ = __mul__

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            if not self.is_monomial():
                raise ZeroDivisionError("negative power of a non-monomial")
            ((a, b), v), = self._c.items()
            if v not in (1, -1):
                raise ZeroDivisionError("monomial coefficient is not a unit over Z")
            return PolyUV({(a * n, b * n): v**n})
        result = PolyUV.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __str__(self):
        return render_uv(self)

    def __repr__(self):
        return f"PolyUV({render_uv(self)!r})"


def _lift_to(ring_elt_class, x):
    if isinstance(x, ring_elt_class):
        return x
    f = _as_fraction(x)
    if f is None:
        raise TypeError(f"cannot lift {x!r} into {ring_elt_class.__name__}")
    if ring_elt_class is LaurentY:
        return LaurentY({0: f})
    if f.denominator != 1:
        raise TypeError("PolyUV has integer coefficients")
    return PolyUV({(0, 0): f.numerator})


def substitute(p, u_value, v_value):
    """Evaluate a PolyUV at u = u_value, v = v_value.

    Each value may be a number, a LaurentY, or a PolyUV; negative exponents
    of a variable require its value to be an invertible monomial.  Both
    values must land in the same ring.  Returns an element of that ring, or
    a Fraction when both values are numbers.
    """
    ring = None
    for val in (u_value, v_value):
        if isinstance(val, LaurentY):
            ring = LaurentY
        elif isinstance(val, PolyUV):
            if ring is LaurentY:
                raise TypeError("mixed substitution targets")
            ring = PolyUV
    if ring is None:
        uu, vv = Fraction(u_value), Fraction(v_value)
        total = Fraction(0)
        for (a, b), c in p._c.items():
            total += c * uu**a * vv**b
        return total
    uu = _lift_to(ring, u_value)
    vv = _lift_to(ring, v_value)
    total = ring.zero()
    for (a, b), c in p._c.items():
        total = total + (uu**a) * (vv**b) * c
    return total


def chi_substitute(p):
    """The specialization (u, v) -> (-y, 1), from E-polynomials to LaurentY.

    It sums each u-column of coefficients into one term (-1)^a y^a,
    without the generic ``substitute``'s powers of LaurentY values.
    """
    cols = {}
    for (a, _b), c in p._c.items():
        cols[a] = cols.get(a, 0) + (c if a % 2 == 0 else -c)
    return LaurentY(cols)


def invert_uv(p):
    """The substitution (u, v) -> (1/u, 1/v)."""
    return PolyUV({(-a, -b): v for (a, b), v in p._c.items()})


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


# ---------------------------------------------------------------------------
# canonical rendering and parsing


def _render_terms(terms):
    # terms: list of (coefficient, monomial-string); coefficient Fraction/int
    if not terms:
        return "0"
    pieces = []
    for i, (c, mono) in enumerate(terms):
        neg = c < 0
        c = -c if neg else c
        try:
            digits = str(c)  # ValueError past the interpreter's digit limit
        except ValueError:
            raise InvalidParameter("coefficient too large to print") from None
        if not mono:
            body = digits
        elif c == 1:
            body = mono
        else:
            body = f"{digits}*{mono}"
        if i == 0:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f"{' - ' if neg else ' + '}{body}")
    return "".join(pieces)


def _mono_y(e):
    if e == 0:
        return ""
    if e == 1:
        return "y"
    return f"y^{e}"


def _mono_uv(a, b):
    parts = []
    for name, e in (("u", a), ("v", b)):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def render_y(p):
    """Canonical string for a LaurentY, exponents increasing."""
    return _render_terms([(c, _mono_y(e)) for e, c in p.items()])


def render_uv(p):
    """Canonical string for a PolyUV, total degree increasing, u before v."""
    return _render_terms([(c, _mono_uv(a, b)) for (a, b), c in p.items()])


# ---------------------------------------------------------------------------
# the token scanner shared by every parser of the package


def read_int(digits, offset):
    """``int(digits)``; a ``ParseError`` at ``offset`` for more digits than it converts."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError("integer literal too long", offset) from None


class Tokens:
    """The tokens of one source string, with a cursor over them.

    Polynomials here, and motivic expressions and space specs in
    ``exprlang``, read their input through this class.  A token is a
    ``(kind, value, offset)`` triple; white space between tokens is
    dropped.  ``pattern`` is tried first: its matching group names the
    kind, except that the group ``op`` makes the text its own kind.
    Failing that, with ``tail`` given, a letter (``str.isalpha``) and the
    characters after it for which ``tail`` holds make a word of kind
    ``classify(word, offset)`` (default ``"name"``), which may raise.
    Integer patterns use ``\\d``, the digits ``int`` reads (``str.isdigit``
    also takes "²"); an ``int`` token's value is the integer.  The whole
    string is read before parsing, so an unreadable character raises
    ``ParseError`` at its offset wherever it sits; ``where`` ends its message.
    """

    __slots__ = ("tokens", "pos", "end")

    def __init__(self, src, pattern, tail=None, classify=None, where=""):
        tokens = []
        i, n = 0, len(src)
        while i < n:
            ch = src[i]
            if ch.isspace():
                i += 1
                continue
            m = pattern.match(src, i)
            if m:
                kind, j, value = m.lastgroup, m.end(), m.group()
                if kind == "op":
                    kind = value
                elif kind == "int":
                    value = read_int(value, i)
            elif tail is not None and ch.isalpha():
                j = i + 1
                while j < n and tail(src[j]):
                    j += 1
                value = src[i:j]
                kind = "name" if classify is None else classify(value, i)
            else:
                raise ParseError(f"unexpected character {ch!r}{where}", i)
            tokens.append((kind, value, i))
            i = j
        self.tokens = tokens
        self.pos = 0
        self.end = ("end", "", n)

    def peek(self, ahead=0):
        """The token ``ahead`` places past the cursor; ``("end", "",
        len(src))`` once the tokens run out."""
        k = self.pos + ahead
        return self.tokens[k] if k < len(self.tokens) else self.end

    def take(self, kind=None):
        """The token at the cursor, moving past it; with ``kind``, a
        ``ParseError`` unless the token is of that kind."""
        tok = self.peek()
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2], {kind})
        self.pos += 1
        return tok


_POLY_TOKEN = re.compile(r"(?P<int>\d+)|(?P<op>[-+*^/])")


def _parse_poly(src, names):
    """Shared polynomial parser.  Returns list of (coeff, {name: exp}) terms."""
    toks = Tokens(src, _POLY_TOKEN, str.isalpha)

    def parse_int():
        sign = 1
        while toks.peek()[0] == "-":
            toks.take()
            sign = -sign
        return sign * toks.take("int")[1]

    def parse_factor():
        kind, value, at = toks.peek()
        if kind == "int":
            toks.take()
            if toks.peek()[0] == "/":
                toks.take()
                den, den_at = toks.take("int")[1:]
                if not den:
                    raise ParseError("division by zero", den_at)
                return Fraction(value, den), {}
            return Fraction(value), {}
        if kind == "name":
            toks.take()
            if value not in names:
                raise ParseError(f"unknown variable {value!r}", at, set(names))
            exp = 1
            if toks.peek()[0] == "^":
                toks.take()
                exp = parse_int()
            return Fraction(1), {value: exp}
        raise ParseError(f"expected a term, found {value!r}", at, {"int", "name"})

    def parse_term():
        coeff, expd = parse_factor()
        while toks.peek()[0] == "*":
            toks.take()
            c2, e2 = parse_factor()
            coeff *= c2
            for k, v in e2.items():
                expd[k] = expd.get(k, 0) + v
        return coeff, expd

    terms = []
    sign = 1
    if toks.peek()[0] == "-":
        toks.take()
        sign = -1
    while True:
        c, e = parse_term()
        terms.append((sign * c, e))
        kind, value, at = toks.take()
        if kind == "end":
            break
        if kind not in ("+", "-"):
            raise ParseError(f"expected '+' or '-', found {value!r}", at, {"+", "-"})
        sign = 1 if kind == "+" else -1
    return terms


def parse_y(src):
    """Parse the canonical LaurentY format (inverse of render_y)."""
    out = LaurentY()
    for coeff, expd in _parse_poly(src, {"y"}):
        out = out + LaurentY({expd.get("y", 0): coeff})
    return out


def parse_uv(src):
    """Parse the canonical PolyUV format (inverse of render_uv)."""
    out = PolyUV()
    for coeff, expd in _parse_poly(src, {"u", "v"}):
        if coeff.denominator != 1:
            raise ParseError("PolyUV coefficients must be integers", 0)
        out = out + PolyUV({(expd.get("u", 0), expd.get("v", 0)): coeff.numerator})
    return out
