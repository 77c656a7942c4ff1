"""Exact coefficient rings for the genus engine.

Every y-coefficient this package produces lies in one ring,
Q[y, 1/y, 1/(1+y)], and has one type, ``LaurentY``, built on integers (no
floating point anywhere): the chi_y genus, all y-graded class coefficients,
and the normalized homology classes, whose only denominators are powers of
(1+y).  E-polynomials are Hodge tables, ``hodge.HodgeDiamond``.
``RationalFunctionY`` is another name for ``LaurentY``.

This module alone knows how such a value is stored: a numerator in
Z[y, 1/y] -- an int when constant in y, else a LaurentY over 1 -- over a
positive integer times a power of (1+y), in the one canonical form of
``_reduced``: (1+y) does not divide the numerator while its power is
positive, and the numerator and the integer are in lowest terms.  A
LaurentY holds one numerator ``{exponent: int}``; ``spaces.CohClass``
holds one numerator per monomial over one class-wide denominator.  The
numerator helpers below are the only arithmetic on that format.

Polynomials are stored as finitely supported dictionaries from exponents to
coefficients with no explicit zeros; values are immutable and arithmetic
never mutates its operands.  ``render_y``/``parse_y`` give a canonical
text form (terms in increasing exponent order) that round-trips exactly;
``hodge`` prints and parses E-polynomials with the same term writer and
polynomial parser.  ``render_monomial`` is the one monomial writer, of
powers of y, of u and v, and of a space model's generators.  The parser
reads through ``Tokens``, the one scanner and cursor of every text form in
the package (motivic expressions and space specs use it too); it also
accepts the polynomials of custom space documents.  ``printed`` is the one
guarded conversion of numbers to text.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .errors import InvalidParameter, NotPolynomial, ParseError


# -- numerators in Z[y, 1/y] ---------------------------------------------------
# The helpers read a LaurentY operand's terms ``_c`` alone, so a LaurentY over
# any denominator d*(1+y)^k passes as its numerator; they return canonical
# numerators.


def _ydict(n):
    """The {exponent: int} terms of a numerator; read-only."""
    return {0: n} if n.__class__ is int else n._c


def _raw(c, d=1, k=0):
    """The LaurentY with the nonzero int terms c over d*(1+y)^k, already canonical."""
    out = LaurentY.__new__(LaurentY)
    out._c, out._d, out._k = c, d, k
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


def _reduced(nums, den, k):
    """Canonical (numerators, denominator, power of (1+y)) of the nonzero
    numerators nums, a dict, over den*(1+y)^k: (1+y) is divided out while it
    divides every numerator, then the gcd of den and all their integers.
    This is the canonical form of a LaurentY and of a ``spaces.CohClass``."""
    if not nums:
        return {}, 1, 0
    while k and not any(_at_minus_one(n) for n in nums.values()):
        nums = {e: _div_one_plus_y(n) for e, n in nums.items()}
        k -= 1
    g = den
    for n in nums.values():
        if g == 1:
            return nums, den, k
        g = gcd(g, n) if n.__class__ is int else gcd(g, *n._c.values())
    if g == 1:
        return nums, den, k
    return {e: n // g if n.__class__ is int else _raw({y: m // g for y, m in n._c.items()})
            for e, n in nums.items()}, den // g, k


def _over(n, d=1, k=0):
    """The LaurentY n/(d*(1+y)^k) of a numerator n over a positive int d."""
    if not n:
        return _raw({})
    nums, d, k = _reduced({0: n}, d, k)
    return _raw(_ydict(nums[0]), d, k)


def _parts(v):
    """(numerator, denominator, power of (1+y)) of a scalar, or None for a
    value that is not a coefficient."""
    if isinstance(v, LaurentY):  # which passes as its numerator
        return v, v._d, v._k
    if isinstance(v, int):
        return v, 1, 0
    if isinstance(v, Fraction):
        return v.numerator, v.denominator, 0
    return None


class LaurentY:
    """An element of Q[y, 1/y, 1/(1+y)]: integer numerators {exponent: int}
    in ``_c`` over a positive integer ``_d`` times (1+y)^``_k``, in the
    canonical form of ``_reduced``, so that equal values are stored
    identically.  With ``_k`` = 0 it is a Laurent polynomial; with ``_k`` > 0
    it has a pole at y = -1, and reading its terms or values raises
    NotPolynomial.

    ``LaurentY(coeffs, den_pow)`` is coeffs/(1+y)^den_pow, for a dict
    {int exponent: int or Fraction} or one int, Fraction or LaurentY
    ``coeffs``; a float or string coefficient, in the dict or alone, raises
    ``InvalidParameter``."""

    __slots__ = ("_c", "_d", "_k")

    def __init__(self, coeffs=None, den_pow=0):
        if _integer(den_pow, "denominator power") < 0:
            raise InvalidParameter("denominator power must be >= 0")
        if coeffs is None or isinstance(coeffs, dict):
            terms = coeffs or {}
            for e, v in terms.items():
                if not isinstance(e, int):
                    raise InvalidParameter(f"y-exponent {e!r} is not an integer")
                if not isinstance(v, (int, Fraction)):
                    raise InvalidParameter(f"y-coefficient {v!r} is not an int or a Fraction")
            d = lcm(*(v.denominator for v in terms.values()))
            # over the lcm of the reduced denominators: in lowest terms already
            self._c = {e: v.numerator * (d // v.denominator) for e, v in terms.items() if v}
            self._d, self._k = d if self._c else 1, 0
            if not den_pow:
                return
            coeffs = self
        part = _parts(coeffs)
        if part is None:
            raise InvalidParameter(f"y-coefficient {coeffs!r} is not an int or a Fraction")
        n, d, k = part
        v = _over(n, d, k + den_pow)
        self._c, self._d, self._k = v._c, v._d, v._k

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def const(cls, v):
        return cls({0: v})

    @classmethod
    def y(cls, exp=1, coeff=1):
        return cls({exp: coeff})

    def items(self):
        """Terms as (exponent, coefficient), exponents increasing;
        NotPolynomial with a pole at y = -1."""
        d = self.reduce_unit_denominator()._d
        return [(e, Fraction(n, d)) for e, n in sorted(self._c.items())]

    def coeff(self, e):
        return Fraction(self._c.get(e, 0), self.reduce_unit_denominator()._d)

    def is_zero(self):
        return not self._c

    def is_monomial(self):
        return len(self._c) == 1 and not self._k

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if isinstance(other, LaurentY):
            return self._c == other._c and self._d == other._d and self._k == other._k
        if isinstance(other, (int, Fraction)):
            return (not self._k and self._d == other.denominator
                    and self._c == ({0: other.numerator} if other else {}))
        return NotImplemented

    def __hash__(self):
        if self._c.keys() <= {0} and not self._k:  # equal to the Fraction it holds
            return hash(Fraction(self._c.get(0, 0), self._d))
        key = (frozenset(self._c.items()), self._d)
        return hash((key, self._k) if self._k else key)

    def __neg__(self):
        return _raw(_negated(self)._c, self._d, self._k)

    def __add__(self, other):
        part = _parts(other)
        if part is None:
            return NotImplemented
        n, d, k = part
        den, j = lcm(self._d, d), max(self._k, k)
        return _over(_num_sum(_num_scaled(self, den // self._d, j - self._k),
                              _num_scaled(n, den // d, j - k)), den, j)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (LaurentY, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        part = _parts(other)
        if part is None:
            return NotImplemented
        n, d, k = part
        return _over(_num_product(self, n), self._d * d, self._k + k)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self * (1 / Fraction(other))

    def __pow__(self, n):
        if _integer(n, "exponent") < 0:
            if not self.is_monomial():
                raise ZeroDivisionError("negative power of a value that is not a monomial")
            (e, v), = self.items()
            return LaurentY({e * n: v**n})
        return _power(self, n, _raw({0: 1}))

    def invert_y(self):
        """Substitute y -> 1/y: as 1 + 1/y = (1+y)/y, the numerator n(y)
        becomes y^k n(1/y) over the same d*(1+y)^k."""
        return _over(_y_inverted(self, self._k), self._d, self._k)

    def __call__(self, value):
        """Evaluate at a rational value of y; NotPolynomial with a pole at
        y = -1, ``InvalidParameter`` at y = 0 when a negative exponent puts a
        pole there."""
        d = self.reduce_unit_denominator()._d
        value = Fraction(value)
        if not value and min(self._c, default=0) < 0:
            raise InvalidParameter("pole at y = 0: negative powers of y")
        return sum((n * value**e for e, n in self._c.items()), Fraction(0)) / d

    def is_integral_polynomial(self):
        """True when the value lies in Z[y] (integer coefficients, exponents >= 0)."""
        return self._d == 1 and not self._k and min(self._c, default=0) >= 0

    def reduce_unit_denominator(self):
        """The value, once every (1+y) factor has cancelled; NotPolynomial
        while a pole at y = -1 remains."""
        if self._k:
            raise NotPolynomial(
                f"({render_y(_raw(self._c, self._d))}) is not divisible by (1+y)^{self._k}")
        return self

    def at_minus_one(self):
        """The value at y = -1; NotPolynomial when it has a pole there."""
        return Fraction(_at_minus_one(self), self.reduce_unit_denominator()._d)

    def __str__(self):
        if not self._k:
            return render_y(self)
        tail = "(1+y)" if self._k == 1 else f"(1+y)^{self._k}"
        return f"({render_y(_raw(self._c, self._d))})/{tail}"

    def __repr__(self):
        return f"LaurentY({str(self)!r})"


RationalFunctionY = LaurentY  # the name of the Laurent polynomials over (1+y)^k


def _integer(n, what):
    """``n`` when it is an int; any other value, a bool included, is an
    ``InvalidParameter``, not truncated."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidParameter(f"{what} {n!r} is not an int")
    return n


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


def render_monomial(names, exps):
    """The monomial with these exponents of these variables: ``name^e``
    (``name`` for e = 1, nothing for e = 0) joined by ``*``; "" for 1."""
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)


def render_y(p):
    """Canonical string for a LaurentY, exponents increasing."""
    return _render_terms([(c, render_monomial("y", (e,))) for e, c in p.items()])


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
