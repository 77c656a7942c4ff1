"""Exact coefficient rings for the genus engine.

Every y-coefficient this package produces lives in one of two rings, both
built on integers and ``fractions.Fraction`` (no floating point anywhere);
E-polynomials are Hodge tables, ``hodge.HodgeDiamond``:

* ``LaurentY`` -- Laurent polynomials in y with rational coefficients.
  The chi_y genus and all y-graded class coefficients live here.
* ``RationalFunctionY`` -- quotients p(y)/(1+y)^k.  A power of (1+y) is the
  only denominator normalized homology classes ever acquire, so the type
  tracks that power instead of a general denominator.

This module alone knows how a value of Q[y, 1/y, 1/(1+y)] is stored: a
numerator in Z[y, 1/y] -- an int when constant in y, else a LaurentY over
1 -- over a positive integer times a power of (1+y).  A LaurentY holds
integer numerators ``{exponent: int}`` over one denominator, in lowest
terms; ``spaces.CohClass`` holds one numerator per monomial over one
class-wide denominator.  The numerator helpers below are the only
arithmetic on that format.

Polynomials are stored as finitely supported dictionaries from exponents to
coefficients with no explicit zeros; values are immutable and arithmetic
never mutates its operands.  ``render_y``/``parse_y`` give a canonical
text form (terms in increasing exponent order) that round-trips exactly;
``hodge`` prints and parses E-polynomials with the same term writer and
polynomial parser.  The parser reads through ``Tokens``, the one scanner
and cursor of every text form in the package (motivic expressions and space
specs use it too); it also accepts the polynomials of custom space
documents.  ``printed`` is the one guarded conversion of numbers to text.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .errors import InvalidParameter, NotPolynomial, ParseError


# -- numerators in Z[y, 1/y] ---------------------------------------------------
# The helpers read a LaurentY operand's terms ``_c`` alone, so a LaurentY over
# any denominator passes as its numerator; they return canonical numerators.


def _ydict(n):
    """The {exponent: int} terms of a numerator; read-only."""
    return {0: n} if n.__class__ is int else n._c


def _raw(c, d=1):
    """The LaurentY with the nonzero int terms c over d, already in lowest terms."""
    out = LaurentY.__new__(LaurentY)
    out._c, out._d = c, d
    return out


def _numerator(p):
    """The numerator with the terms of a {exponent: int} dict (0 when none)."""
    if len(p) == 1 and 0 in p:  # constant in y, the common case
        return p[0]
    p = {y: n for y, n in p.items() if n}
    if len(p) == 1 and 0 in p:
        return p[0]
    return _raw(p) if p else 0


def _negated(n):
    return -n if n.__class__ is int else _raw({y: -m for y, m in n._c.items()})


def _num_scaled(n, s, j):
    """The numerator n * s * (1+y)^j, for an int s."""
    if n.__class__ is int and not j:
        return n * s
    p = {y: m * s for y, m in _ydict(n).items()}
    for _ in range(j):
        q = dict(p)
        for y, m in p.items():
            q[y + 1] = q.get(y + 1, 0) + m
        p = q
    return _numerator(p)


def _num_sum(a, b):
    if a.__class__ is int and b.__class__ is int:
        return a + b
    p = dict(_ydict(a))
    for y, m in _ydict(b).items():
        p[y] = p.get(y, 0) + m
    return _numerator(p)


def _num_product(a, b):
    if a.__class__ is int and b.__class__ is int:
        return a * b
    p = {}
    t2 = _ydict(b).items()
    for y1, m1 in _ydict(a).items():
        for y2, m2 in t2:
            p[y1 + y2] = p.get(y1 + y2, 0) + m1 * m2
    return _numerator(p)


def _y_inverted(n, k):
    """The numerator y^k n(1/y)."""
    return _numerator({k - y: m for y, m in _ydict(n).items()})


def _at_minus_one(n):
    return n if n.__class__ is int else sum(m if y % 2 == 0 else -m for y, m in n._c.items())


def _div_one_plus_y(n):
    """The exact quotient by (1+y) of a numerator that vanishes at y = -1."""
    p = n._c
    q = {}
    carry = 0
    for i in range(max(p), min(p), -1):
        carry = p.get(i, 0) - carry
        if carry:
            q[i - 1] = carry
    return _numerator(q)


def _lowest(nums, d):
    """(nums, d) with the gcd of d and every integer of the numerators
    nums, a dict of canonical numerators, divided out."""
    g = d
    for n in nums.values():
        if g == 1:
            return nums, d
        g = gcd(g, n) if n.__class__ is int else gcd(g, *n._c.values())
    if g == 1:
        return nums, d
    return {e: n // g if n.__class__ is int else _raw({y: m // g for y, m in n._c.items()})
            for e, n in nums.items()}, d // g


def _over(n, d=1):
    """The LaurentY n/d of a numerator n over a positive int d."""
    if not n:
        return _raw({})
    nums, d = _lowest({0: n}, d)
    return _raw(_ydict(nums[0]), d)


def _parts(v):
    """(numerator, denominator, power of (1+y)) of a scalar, or None for a
    value that is not a coefficient."""
    if isinstance(v, LaurentY):
        c = v._c
        if c.keys() <= {0}:
            return c.get(0, 0), v._d, 0
        return (v if v._d == 1 else _raw(c)), v._d, 0
    if isinstance(v, int):
        return v, 1, 0
    if isinstance(v, Fraction):
        return v.numerator, v.denominator, 0
    if isinstance(v, RationalFunctionY):
        n, d, _ = _parts(v.num)
        return n, d, v.den_pow
    return None


def _sum(a, b, ja=0, jb=0):
    """The LaurentY a*(1+y)^ja + b*(1+y)^jb."""
    d = lcm(a._d, b._d)
    return _over(_num_sum(_num_scaled(a, d // a._d, ja), _num_scaled(b, d // b._d, jb)), d)


def _operand(v):
    """A LaurentY, int or Fraction operand as a LaurentY; None for any other
    value, a RationalFunctionY included, whose reflected operation then runs."""
    if isinstance(v, LaurentY):
        return v
    if isinstance(v, (int, Fraction)):
        return _over(v.numerator, v.denominator)
    return None


class LaurentY:
    """Laurent polynomial in y over the rationals: integer numerators
    {exponent: int} in ``_c`` over one positive denominator ``_d``, in lowest
    terms, so that equal values are stored identically."""

    __slots__ = ("_c", "_d")

    def __init__(self, coeffs=None):
        terms = {int(e): Fraction(v) for e, v in (coeffs or {}).items()}
        d = lcm(*(v.denominator for v in terms.values()))
        self._c = {e: v.numerator * (d // v.denominator) for e, v in terms.items() if v}
        self._d = d if self._c else 1

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
        d = self._d
        return [(e, Fraction(n, d)) for e, n in sorted(self._c.items())]

    def coeff(self, e):
        return Fraction(self._c.get(e, 0), self._d)

    def is_zero(self):
        return not self._c

    def is_monomial(self):
        return len(self._c) == 1

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if isinstance(other, LaurentY):
            return self._c == other._c and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return self._d == other.denominator and self._c == ({0: other.numerator}
                                                                if other else {})
        return NotImplemented

    def __hash__(self):
        if self._c.keys() <= {0}:  # equal to the Fraction it holds
            return hash(Fraction(self._c.get(0, 0), self._d))
        return hash((frozenset(self._c.items()), self._d))

    def __neg__(self):
        return _raw(_negated(self)._c, self._d)

    def __add__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else _sum(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else _sum(self, -other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return _over(_num_product(self, other), self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self * (1 / Fraction(other))

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            if not self.is_monomial():
                raise ZeroDivisionError("negative power of a non-monomial Laurent polynomial")
            (e, v), = self.items()
            return LaurentY({e * n: v**n})
        return _power(self, n, LaurentY.one())

    def invert_y(self):
        """Substitute y -> 1/y (negate every exponent)."""
        return _over(_y_inverted(self, 0), self._d)

    def __call__(self, value):
        """Evaluate at a rational value of y; ``InvalidParameter`` at y = 0
        when a negative exponent puts a pole there."""
        value = Fraction(value)
        if not value and min(self._c, default=0) < 0:
            raise InvalidParameter("pole at y = 0: negative powers of y")
        return sum((n * value**e for e, n in self._c.items()), Fraction(0)) / self._d

    def is_integral_polynomial(self):
        """True when the value lies in Z[y] (integer coefficients, exponents >= 0)."""
        return self._d == 1 and min(self._c, default=0) >= 0

    def __str__(self):
        return render_y(self)

    def __repr__(self):
        return f"LaurentY({render_y(self)!r})"


def _power(base, n, one):
    """base**n for an int n >= 0 by repeated squaring, starting from one;
    the base is squared only while higher bits remain."""
    while n:
        if n & 1:
            one = one * base
        n >>= 1
        if n:
            base = base * base
    return one


class RationalFunctionY:
    """A Laurent polynomial in y divided by (1+y)^k, kept normalized so that
    (1+y) does not divide the numerator while k > 0."""

    __slots__ = ("num", "den_pow")

    def __init__(self, num, den_pow=0):
        if not isinstance(num, LaurentY):
            num = LaurentY({0: num})
        den_pow = int(den_pow)
        if den_pow < 0:
            raise ValueError("denominator power must be >= 0")
        n = num
        while den_pow and n and not _at_minus_one(n):
            n = _div_one_plus_y(n)
            den_pow -= 1
        self.num = num if n is num else _over(n, num._d)
        self.den_pow = den_pow if n else 0

    def __bool__(self):
        return bool(self.num)

    def _coerce(self, other):
        if isinstance(other, RationalFunctionY):
            return other
        if isinstance(other, (LaurentY, int, Fraction)):
            return RationalFunctionY(other)
        return None

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
        return RationalFunctionY(_sum(self.num, other.num, k - self.den_pow, k - other.den_pow), k)

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
        return RationalFunctionY(_over(_y_inverted(self.num, self.den_pow), self.num._d),
                                 self.den_pow)

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
        num = self.reduce_unit_denominator()
        return Fraction(_at_minus_one(num), num._d)

    def __str__(self):
        if self.den_pow == 0:
            return render_y(self.num)
        tail = "(1+y)" if self.den_pow == 1 else f"(1+y)^{self.den_pow}"
        return f"({render_y(self.num)})/{tail}"

    def __repr__(self):
        return f"RationalFunctionY({str(self)!r})"


# ---------------------------------------------------------------------------
# canonical rendering and parsing


def printed(render, value):
    """``render(value)``; ``InvalidParameter`` for a number in it with more
    digits than ``str`` converts (``ValueError`` past the digit limit)."""
    try:
        return render(value)
    except ValueError:
        raise InvalidParameter("coefficient too large to print") from None


def _render_terms(terms):
    # terms: list of (coefficient, monomial-string); coefficient Fraction/int
    if not terms:
        return "0"
    pieces = []
    for i, (c, mono) in enumerate(terms):
        neg = c < 0
        c = -c if neg else c
        digits = printed(str, c)
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


def render_y(p):
    """Canonical string for a LaurentY, exponents increasing."""
    return _render_terms([(c, _mono_y(e)) for e, c in p.items()])


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
