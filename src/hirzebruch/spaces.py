"""Truncated cohomology-ring models of smooth projective varieties.

A ``SpaceModel`` is a finite presentation of the even cohomology (Chow) ring
of a variety: degree-one generators, one rewrite rule per generator (a
Grothendieck-type relation, or a nilpotency cap), truncation at the
dimension, an integration functional on top-degree monomials, and total
Chern data for the tangent bundle.  Models exist for projective spaces,
finite products, projective bundles of split bundles, hypersurfaces inside
projective space (virtual: classes live in the ambient ring and integration
twists by the divisor class), and projective space equipped with a
general-position hyperplane arrangement at infinity (which adds boundary
data: the arrangement divisors and the Chern class of the bundle of forms
with logarithmic poles along them).  A product or projective bundle puts
each factor's or the base's rules and classes on its own slots of the wider
ring through one embedding (``_embedded_rules``, ``_embedded``), and
truncates a factor or base at its own dimension (``_caps``) when its rules
leave monomials above it, as a custom document's may.

``CohClass`` is a sparse cohomology class on a model with coefficients in
Q[y, 1/y, 1/(1+y)].  It stores one numerator in Z[y, 1/y] per monomial
over a single class-wide denominator d*(1+y)^k, in a canonical form: d > 0,
the gcd of d and all integer coefficients of the numerators is 1, and when
k > 0, (1+y) does not divide every numerator, so equal classes are stored
identically.  The numerators, their arithmetic and this canonical form
(``_reduced``) are those of ``rings``, where a ``LaurentY`` is one numerator
over d*(1+y)^k; maps that only re-key monomials move them as they are.
Arithmetic runs on these integers and normalizes once per result.  The
constructors and scalar operations accept ints, Fractions and LaurentYs;
``coeff``, ``items`` and ``map_coeffs`` hand out a Fraction when it is
constant in y, else a LaurentY, and ``integrate`` a LaurentY.

Every product of two classes on a model runs through one multiply-accumulate
kernel, ``CohClass.combine``: the sum of w*a*b over terms (w, a, b), w*a
where b is None, for scalar weights w.  It looks up each pair of monomials
in the model's product table, which maps the pair to the reduced product
left after truncation and rewriting, nothing when it vanishes.  A vanishing
pair is skipped before its coefficients are multiplied; a live pair's go
straight into one sum of integer numerators over the lcm of the terms'
denominators and their largest power of (1+y), put in canonical form once
per call.  The table is filled lazily, one ``_reduce`` per new pair (stored
under both orders), so building a model costs nothing extra.  Its integers
sit over one table-wide denominator, 1 unless a custom document's relations
carry denominators, which the kernel folds into the class denominator; it
depends only on the rules and the dimension, which never change.
``multiply`` is the kernel with one pair; given a degree, the kernel builds
only that degree, each left monomial meeting only the right monomials of
the complementary degree.  The genus is read through this pairing (the top
degree of ch * td), except on a product without variation data, where it is
the product of the factors' genera.  ``+`` and the scalar ``*`` keep their
own short paths.  Every series of a class, Newton's identities both ways,
exp and (1+x)^a, is one ``graded_recurrence``, one kernel call per degree.

A model also keeps the characteristic classes that depend on it alone, in
``_classes``, next to the product table: its tangent bundle, which keeps its
Chern character (on P^n built with its splitting), the relative tangent
bundle of a projective bundle's projection (built with the model) and of
each product projection, which keeps its ch and, for ``transforms.pushforward``,
td(T_rel), the closed K-class ``mhc_y(X)`` (a ``CohClass``, its Chern
character), the classes of the tangent bundle under the built-in genus
series (Todd, and any other a caller asks for) and, except on a product,
the closed genus, each computed on first use by ``transforms``.  A series
entry and td(T_rel) record what they came from, the series object or on a
product the factors' classes, and the genus the closed and Todd classes it
was paired from; each is recomputed when its source changes, as when
``bundles.genus_series`` hands out a different series while it is patched.
Classes that depend on variation data (in either mode) are not kept.

A product's classes are exterior products of its factors' kept classes, so
its product table stays empty until a product is taken on its ring.  Such
a class has up to 2^k terms for k factors, so a product builds its tangent
Chern class and log-cotangent bundle on first read (``_FirstRead``): the
model costs what its factors cost, and its genus is the product of their
kept genera.  ``describe`` and the classes a caller asks for cost 2^k.

A built-in map, a ``SpaceMap``, carries what it does: ``push`` (its Gysin
map), ``pull`` (its ring pullback, or None), ``tangent`` (a function giving
its virtual relative tangent bundle) and ``smooth`` (whether K-classes pull
back along it).  The identity and an open restriction move numerators as
they are, between two models of one ring.

``SpaceModel.key`` is unique, and it is the model's one record of its kind
and arguments: the constructor's kind and arguments as ints and tuples,
which fix everything a caller can see of the model (an arrangement
``("arr", n, k)`` apart from ``("proj", n)``).  A model links only what a
key cannot hold: a product its factor models (``factors``, else empty) and
a projective bundle its base model (``base``, else None).  Each public
constructor computes the key first and hands out the live model with that
key when there is one, so equal models are one instance, with one product
table and one ``_classes``.  The table of live models holds weak references,
but a model that keeps a class sits in a reference cycle (model,
``_classes``, class, model), so it stays live, and is handed out with its
kept classes, until the garbage collector runs.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from itertools import accumulate, product as cartesian
from math import comb, lcm, prod
from operator import add

from .errors import InvalidParameter, NotPolynomial, ParseError, UnsupportedMap
from .rings import (_at_minus_one, _integer, _negated, _num_product, _num_scaled, _num_sum,
                    _numerator, _over, _parts, _power, _reduced, _y_inverted, _ydict, printed,
                    render_monomial)

# The rewrite rule of a generator slot is (r, rel): gen^r rewrites to rel, a
# raw {exp: coefficient} dict of total degree r with gen-exponent < r.  A
# nilpotency cap is the rule with rel empty: the monomial dies.


def _whole(c):
    """A relation coefficient, an int when it is whole, so that products on
    an integral model reduce in integers."""
    return c.numerator if c.denominator == 1 else c


# -- class coefficients over one class denominator ------------------------------
# A class coefficient is a numerator (``rings``: an int when it is constant in
# y, else a LaurentY over 1) over the class denominator d*(1+y)^k.


def _coefficient(n, den, k):
    """The value n / (den*(1+y)^k) of a numerator: a Fraction when it is
    constant in y, else a LaurentY."""
    if n.__class__ is int and not k:
        return Fraction(n, den)
    v = _over(n, den, k)
    return v if v._k or v._c.keys() != {0} else Fraction(v._c[0], v._d)


def _canonical(acc, den, k):
    """Canonical form of {monomial: {exponent: int}} numerators over den*(1+y)^k."""
    nums = {}
    for e, p in acc.items():
        n = _numerator(p)
        if n:
            nums[e] = n
    return _reduced(nums, den, k)


def _from_values(values):
    """Canonical form of {monomial: int | Fraction | LaurentY}; InvalidParameter
    for any other value."""
    parts = {}
    den, k = 1, 0
    for e, v in values.items():
        part = _parts(v)
        if part is None:
            raise InvalidParameter(f"{v!r} is not a class coefficient")
        if part[0]:
            parts[e] = part
            den = lcm(den, part[1])
            k = max(k, part[2])
    return _reduced({e: _num_scaled(n, den // d, k - j) for e, (n, d, j) in parts.items()},
                    den, k)


def _check(space, c):
    if c.space is not space and c.space.key != space.key:
        raise InvalidParameter("classes live on different spaces")


class CohClass:
    """Sparse cohomology class on a model; immutable after construction.
    The constructor refuses a key that is not a monomial of the model, a
    tuple of one non-negative int per generator, and a value that is not an
    int, Fraction or LaurentY."""

    __slots__ = ("space", "_c", "_d", "_k")

    def __init__(self, space, comps=None):
        comps = comps or {}
        n = len(space.gens)
        for e, v in comps.items():
            if not (isinstance(e, tuple) and len(e) == n
                    and all(isinstance(x, int) and x >= 0 for x in e)):
                raise InvalidParameter(f"{e!r} is not a monomial in the {n} generators "
                                       f"of {space.name}")
            if _parts(v) is None:
                raise InvalidParameter(f"{v!r} at {e!r} is not a class coefficient")
        self.space = space
        self._c, self._d, self._k = _from_values(space._reduce(comps))

    @classmethod
    def _raw(cls, space, nums, den=1, k=0):
        """A class from canonical numerators over den*(1+y)^k."""
        out = cls.__new__(cls)
        out.space = space
        out._c = nums
        out._d = den
        out._k = k
        return out

    def items(self):
        """Terms as (monomial, coefficient), by degree, then monomial."""
        return sorted(((e, _coefficient(n, self._d, self._k)) for e, n in self._c.items()),
                      key=lambda t: (sum(t[0]), t[0]))

    def coeff(self, exp):
        n = self._c.get(tuple(exp))
        return Fraction(0) if n is None else _coefficient(n, self._d, self._k)

    def is_zero(self):
        return not self._c

    def __bool__(self):
        return bool(self._c)

    def _constant(self):
        """True when the class is zero or a multiple of the unit."""
        return not self._c or list(self._c) == [self.space._zero_exp]

    def __eq__(self, other):
        if isinstance(other, CohClass):
            return ((self.space is other.space or self.space.key == other.space.key)
                    and (self._d, self._k, self._c) == (other._d, other._k, other._c))
        if self._constant():
            return self.coeff(self.space._zero_exp) == other
        return NotImplemented

    def __hash__(self):
        if self._constant():
            return hash(self.coeff(self.space._zero_exp))
        return hash((self.space.key, self._d, self._k, frozenset(self._c.items())))

    def __neg__(self):
        return CohClass._raw(self.space, {e: _negated(n) for e, n in self._c.items()},
                             self._d, self._k)

    def __add__(self, other):
        if not isinstance(other, CohClass):
            if other == 0:
                return self
            other = self.space.constant(other)
        _check(self.space, other)
        den = lcm(self._d, other._d)
        k = max(self._k, other._k)
        s, j = den // self._d, k - self._k
        nums = {e: _num_scaled(n, s, j) for e, n in self._c.items()}
        s, j = den // other._d, k - other._k
        for e, n in other._c.items():
            n = _num_scaled(n, s, j)
            m = nums.pop(e, 0)
            if m:
                n = _num_sum(m, n)
            if n:
                nums[e] = n
        return CohClass._raw(self.space, *_reduced(nums, den, k))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, CohClass):
            other = self.space.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, CohClass):
            # scalar: int / Fraction / LaurentY
            part = _parts(other)
            if part is None:
                return NotImplemented
            n2, d, k = part
            nums = {e: _num_product(n1, n2) for e, n1 in self._c.items()} if n2 else {}
            return CohClass._raw(self.space, *_reduced(nums, self._d * d, self._k + k))
        return self.multiply(other)

    __rmul__ = __mul__

    def multiply(self, other, degree=None):
        """The product with another class; given ``degree``, only its part in that degree."""
        return CohClass.combine(self.space, ((1, self, other),), degree)

    @staticmethod
    def combine(space, terms, degree=None):
        """The sum of w*a*b over the terms (w, a, b), w*a where b is None, on
        ``space``; a weight is an int, Fraction or LaurentY, a power of (1+y)
        in its denominator included.  Given ``degree``, only the part in that
        degree."""
        terms = tuple(terms)
        q = space._table_den
        work = []
        den, k = 1, 0
        for w, a, b in terms:
            part = _parts(w)
            if part is None:
                raise TypeError(f"not a class coefficient: {w!r}")
            n, d, j = part
            for c in (a,) if b is None else (a, b):
                _check(space, c)
                d, j = d * c._d, j + c._k
            if b is not None:
                d *= q
            if n and a._c and (b is None or b._c):
                work.append((n, d, j, a, b))
                den = lcm(den, d)
                k = max(k, j)
        table = space._products
        out = {}
        for n, d, j, a, b in work:
            w = _num_scaled(n, den // d, k - j)
            if b is None:
                tw = _ydict(w).items()
                for e, n1 in a._c.items():
                    if degree is None or sum(e) == degree:
                        acc = out.setdefault(e, {})
                        for y1, m1 in _ydict(n1).items():
                            for y2, m2 in tw:  # the weight's terms straight into the sum
                                acc[y1 + y2] = acc.get(y1 + y2, 0) + m1 * m2
                continue
            s, w = (w, None) if w.__class__ is int else (1, w)  # an int weight scales each term
            rhs = [(e, _ydict(n2).items()) for e, n2 in b._c.items()]
            if degree is not None:
                groups = {}
                for pair in rhs:
                    groups.setdefault(sum(pair[0]), []).append(pair)
            for e1, n1 in a._c.items():
                partners = rhs if degree is None else groups.get(degree - sum(e1))
                if not partners:
                    continue
                t1 = _ydict(n1 if w is None else _num_product(w, n1)).items()
                row = table.setdefault(e1, {})
                for e2, t2 in partners:
                    prods = row.get(e2)
                    if prods is None:
                        prods = space._monomial_product(e1, e2)
                    for e, c in prods:  # no terms: the product vanishes, no coefficient work
                        acc = out.get(e)
                        if acc is None:
                            acc = out[e] = {}
                        c *= s
                        for y1, m1 in t1:
                            m1 *= c
                            for y2, m2 in t2:
                                y = y1 + y2
                                acc[y] = acc.get(y, 0) + m1 * m2
        if space._table_den != q:
            # a new entry raised the table denominator; all are tabled now
            return CohClass.combine(space, terms, degree)
        return CohClass._raw(space, *_canonical(out, den, k))

    def __pow__(self, n):
        if _integer(n, "exponent") < 0:
            raise InvalidParameter("negative power of a cohomology class")
        return _power(self, n, self.space.one())

    def component(self, degree):
        """The part in cohomological degree ``degree``."""
        return CohClass._raw(self.space, *_reduced(
            {e: n for e, n in self._c.items() if sum(e) == degree}, self._d, self._k))

    def by_degree(self):
        """Map degree -> component, only nonzero degrees."""
        out = {}
        for e, n in self._c.items():
            out.setdefault(sum(e), {})[e] = n
        return {d: CohClass._raw(self.space, *_reduced(c, self._d, self._k))
                for d, c in sorted(out.items())}

    def map_coeffs(self, fn):
        return CohClass._raw(self.space, *_from_values({e: fn(v) for e, v in self.items()}))

    def degree_scaled(self, weights):
        """The degree-j part times the int ``weights[j]``, on the integer numerators."""
        nums = {e: _num_scaled(n, s, 0) for e, n in self._c.items()
                if (s := weights[sum(e)])}
        return CohClass._raw(self.space, *_reduced(nums, self._d, self._k))

    def adams(self, k):
        """The Adams operation psi^k on a Chern character, the degree-j part
        times k^j; ``adams(-1)`` gives the dual bundle's Chern character or class."""
        return self.degree_scaled([k**j for j in range(self.space.dim + 1)])

    def invert_y(self):
        """Substitute y -> 1/y: as 1 + 1/y = (1+y)/y, each numerator n(y)
        becomes y^k n(1/y) over the same denominator d*(1+y)^k."""
        return CohClass._raw(self.space, {e: _y_inverted(n, self._k) for e, n in self._c.items()},
                             self._d, self._k)

    def at_minus_one(self):
        """The class at y = -1.  Raises NotPolynomial when a coefficient has a
        pole there, which in canonical form is when k > 0."""
        if self._k:
            raise NotPolynomial(f"{self} has a pole at y = -1")
        return CohClass._raw(self.space, *_canonical(
            {e: {0: _at_minus_one(n)} for e, n in self._c.items()}, self._d, 0))

    def normalize_cycles(self):
        """Divide the degree-j part by (1+y)^(dim - j), the normalization of
        MHT_y: (1+y)^j times the numerator over dim more factors (1+y)."""
        return CohClass._raw(self.space, *_reduced(
            {e: _num_scaled(n, 1, sum(e)) for e, n in self._c.items()},
            self._d, self._k + self.space.dim))

    def __str__(self):
        return self.space.render_class(self)

    def __repr__(self):
        return f"CohClass({self.space.name}, {self.space.render_class(self)!r})"


def graded_recurrence(space, parts, weight, top):
    """g_1..g_top of g_k = sum of weight(i, k) parts[i] g_(k-i) over the
    degrees i <= k of ``parts``, with g_0 = 1; one ``combine`` per degree."""
    g = [None]  # g_0 = 1 enters as the term (w, parts[k], None)
    for k in range(1, top + 1):
        g.append(CohClass.combine(space, [(weight(i, k), p, g[k - i])
                                          for i, p in parts.items() if i <= k]))
    return g[1:]


def _unit_series(x, weight):
    """1 + g_1 + ... + g_dim of the recurrence on the degree parts of x."""
    space, parts = x.space, x.by_degree()
    if 0 in parts:
        raise InvalidParameter(f"{x} has a constant term")
    gs = graded_recurrence(space, parts, weight, space.dim)
    return CohClass.combine(space, [(1, g, None) for g in [space.one(), *gs]])


def _one_plus_power(x, a):
    """(1 + x)^a for an int a, by J.C.P. Miller's recurrence."""
    return _unit_series(x, lambda j, k: Fraction((a + 1) * j - k, k))


class BundleClass:
    """A vector-bundle class: rank plus total Chern class (constant term 1).

    Virtual classes (rank inconsistent with the Chern data) are allowed;
    every consumer works through Chern classes or power sums only.  A
    bundle may also carry a ``splitting`` (N, c1): it is N*L + O^(rank - N)
    for a line bundle L with c1(L) = c1, so its total Chern class is
    (1 + c1)^N, and ``bundles`` reads its ch and lambda_y in closed form.
    """

    __slots__ = ("rank", "total_chern", "splitting", "_ch", "_td")

    def __init__(self, rank, total_chern, splitting=None):
        if total_chern.coeff(total_chern.space._zero_exp) != 1:
            raise InvalidParameter("total Chern class must have constant term 1")
        self.rank = _integer(rank, "bundle rank")
        self.total_chern = total_chern
        self.splitting = splitting
        self._ch = None  # ch(V) once known, or a function of bundles.chern_character giving it
        self._td = None  # (series, td(V)) once ``transforms.pushforward`` has it

    @property
    def space(self):
        return self.total_chern.space

    def chern(self, i):
        return self.total_chern.component(i)

    def __eq__(self, other):
        if not isinstance(other, BundleClass):
            return NotImplemented
        return self.rank == other.rank and self.total_chern == other.total_chern

    def __add__(self, other):
        """Whitney sum: ranks add, total Chern classes multiply."""
        if not isinstance(other, BundleClass):
            return NotImplemented
        return BundleClass(self.rank + other.rank, self.total_chern * other.total_chern)

    def dual(self):
        """c_i -> (-1)^i c_i; its Chern character is read off this one's."""
        split = self.splitting and (self.splitting[0], -self.splitting[1])
        out = BundleClass(self.rank, self.total_chern.adams(-1), split)
        out._ch = lambda ch: ch(self).adams(-1)
        return out

    def __repr__(self):
        return f"BundleClass(rank={self.rank}, c={self.space.render_class(self.total_chern)!r})"


class _FirstRead:
    """An attribute whose private slot ``_<name>`` holds its value, or a
    function of no arguments that gives it: the function runs on the first
    read and its value replaces it in the slot."""

    def __set_name__(self, owner, name):
        self.slot = vars(owner)["_" + name]

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        v = self.slot.__get__(obj)
        if callable(v):
            v = v()
            self.slot.__set__(obj, v)
        return v

    def __set__(self, obj, v):
        self.slot.__set__(obj, v)


class LogStructure:
    """Boundary data for an open complement inside the model: the classes of
    the normal-crossing divisor components and the logarithmic cotangent
    bundle along them, given as a bundle or a function that builds it."""

    __slots__ = ("divisors", "_log_cotangent")

    log_cotangent = _FirstRead()

    def __init__(self, divisors, log_cotangent):
        self.divisors = tuple(divisors)
        self.log_cotangent = log_cotangent


class SpaceModel:
    """Immutable model; build with the module constructors below."""

    __slots__ = (
        "key", "name", "dim", "gens", "_rules", "_integrals", "_tangent_chern", "log",
        "factors", "base", "_products", "_table_den", "_classes", "_caps", "__weakref__",
    )

    tangent_chern = _FirstRead()  # c(TM), or a function that builds it on first read

    def __init__(self, key, name, dim, gens, rules, integrals, factors=(), base=None):
        self.key = key
        self.name = name
        self.dim = dim
        self.gens = tuple(gens)
        self._rules = tuple(rules)
        self._integrals = dict(integrals)
        self.tangent_chern = None
        self.log = None
        self.factors = tuple(factors)  # a product's factor models
        self.base = base  # a projective bundle's base model
        self._products = {}  # e1 -> {e2: reduced product terms}, filled lazily
        self._table_den = 1  # every table integer is over this denominator
        self._classes = {}  # data-free characteristic classes, filled lazily
        self._caps = ()  # (first slot, end slot, top degree) of each capped block of slots

    @property
    def _zero_exp(self):
        return (0,) * len(self.gens)

    # -- ring plumbing -------------------------------------------------------

    def _reduce(self, raw):
        out = {}
        work = list(raw.items())
        while work:
            exp, coeff = work.pop()
            if not coeff:
                continue
            if sum(exp) > self.dim:
                continue
            for i, (r, rel) in enumerate(self._rules):
                if exp[i] >= r:
                    if rel:
                        base = list(exp)
                        base[i] -= r
                        for rexp, rc in rel.items():
                            work.append((tuple(b + x for b, x in zip(base, rexp)), coeff * rc))
                    break  # monomial was rewritten or is nilpotent
            else:
                w = out.get(exp, 0) + coeff
                if w:
                    out[exp] = w
                else:
                    out.pop(exp, None)
        if self._caps:  # rewriting keeps the degree of each block of slots
            out = {e: c for e, c in out.items()
                   if all(sum(e[i:j]) <= d for i, j, d in self._caps)}
        return out

    def _monomial_product(self, e1, e2):
        """Reduced product of two monomials as ``((exp, int), ...)`` over the
        table denominator, empty when it vanishes; stored in the product table
        under both orders."""
        raw = self._reduce({tuple(map(add, e1, e2)): 1})
        if self._table_den != 1 or any(c.__class__ is not int for c in raw.values()):
            q = lcm(*(c.denominator for c in raw.values()))
            if self._table_den % q:
                # a relation coefficient with a new denominator: put every
                # entry over the common denominator
                new = lcm(self._table_den, q)
                f = new // self._table_den
                for row in self._products.values():
                    for e3, terms in row.items():
                        row[e3] = tuple((x, c * f) for x, c in terms)
                self._table_den = new
            raw = {x: (c * self._table_den).numerator for x, c in raw.items()}
        terms = tuple(raw.items())
        self._products.setdefault(e1, {})[e2] = terms
        self._products.setdefault(e2, {})[e1] = terms
        return terms

    def constant(self, value):
        return CohClass._raw(self, *_from_values({self._zero_exp: value}))

    def zero(self):
        return CohClass._raw(self, {})

    def one(self):
        return CohClass._raw(self, {self._zero_exp: 1})

    def gen_class(self, i=0):
        exp = [0] * len(self.gens)
        exp[i] = 1
        return CohClass(self, {tuple(exp): Fraction(1)})

    def monomial(self, exp, coeff=Fraction(1)):
        return CohClass(self, {tuple(exp): coeff})

    def integrate(self, c):
        """Value of the degree-dim part under the integration functional, as
        a LaurentY, which keeps the class's power of (1+y) when it does not
        cancel."""
        w = lcm(*(x.denominator for x in self._integrals.values()))
        total = 0
        for exp, weight in self._integrals.items():
            n = c._c.get(exp)
            if n is not None:
                total = _num_sum(total, _num_scaled(n, (weight * w).numerator, 0))
        return _over(total, c._d * w, c._k)

    def tangent_bundle(self):
        """TM, one instance kept in ``_classes``, so its Chern character is computed once."""
        if "tangent" not in self._classes:
            self._classes["tangent"] = BundleClass(self.dim, self.tangent_chern)
        return self._classes["tangent"]

    def canonical_chern_root(self):
        """-c1(TM), the Chern root of the canonical bundle; on a product the
        sum of the factors' roots pulled back, so c(TM) is not built."""
        if self.factors:
            return CohClass.combine(self, [
                (1, pull_to_product(self, i, f.canonical_chern_root()), None)
                for i, f in enumerate(self.factors)])
        return -self.tangent_chern.component(1)

    # -- rendering -------------------------------------------------------------

    def render_class(self, c):
        if not c:
            return "0"
        pieces = []
        for exp, v in c.items():
            coeff = printed(str, v)
            if " " in coeff:
                coeff = f"({coeff})"
            mono = render_monomial(self.gens, exp)
            if not mono:
                pieces.append(coeff)
            elif coeff == "1":
                pieces.append(mono)
            else:
                pieces.append(f"{coeff}*{mono}")
        return " + ".join(pieces)

    def describe(self):
        """Structured summary used by the CLI."""
        info = {
            "name": self.name,
            "dim": self.dim,
            "generators": list(self.gens),
            "tangent_chern": self.render_class(self.tangent_chern),
            "integrals": {render_monomial(self.gens, e) or "1": printed(str, w)
                          for e, w in sorted(self._integrals.items())},
        }
        if self.log is not None:
            info["boundary_divisors"] = [self.render_class(d) for d in self.log.divisors]
            info["log_cotangent_rank"] = self.log.log_cotangent.rank
            info["log_cotangent_chern"] = self.render_class(self.log.log_cotangent.total_chern)
        return info

    def __repr__(self):
        return f"SpaceModel({self.name})"


# ---------------------------------------------------------------------------
# constructors

_live = weakref.WeakValueDictionary()  # SpaceModel.key -> the live model with that key


def _model(key, build, *args):
    """The live model with ``key``, else a new one, ``build(key, *args)``."""
    m = _live.get(key)
    if m is None:
        m = _live[key] = build(key, *args)
    return m


def projective(n):
    """P^n: ring Q[h]/(h^(n+1)), integral of h^n is 1, c(T) = (1+h)^(n+1)."""
    if _integer(n, "projective space dimension") < 0:
        raise InvalidParameter("projective space dimension must be >= 0")
    return _model(("proj", n), _projective, n)


def _projective(key, n):
    m = SpaceModel(
        key=key,
        name=f"P{n}",
        dim=n,
        gens=("h",),
        rules=[(n + 1, {})],
        integrals={(n,): Fraction(1)},
    )
    m.tangent_chern = CohClass._raw(m, {(j,): comb(n + 1, j) for j in range(n + 1)})
    # the Euler sequence: T + O = (n+1) O(1)
    m._classes["tangent"] = BundleClass(n, m.tangent_chern, (n + 1, m.gen_class(0)))
    return m


def point():
    return projective(0)


def is_point(space):
    return space.key == ("proj", 0)


def product(*factors):
    """Product model: tensor ring, product integration, Whitney tangent.

    Point factors are dropped; boundary structures combine when every
    surviving factor carries one.
    """
    flat = []
    for f in factors:
        if f.factors:
            flat.extend(f.factors)
        elif not is_point(f):
            flat.append(f)
    if not flat:
        return point()
    if len(flat) == 1:
        return flat[0]
    return _model(("product",) + tuple(f.key for f in flat), _product, flat)


def _product(key, flat):
    offsets = list(accumulate((len(f.gens) for f in flat[:-1]), initial=0))
    width = offsets[-1] + len(flat[-1].gens)
    m = SpaceModel(
        key=key,
        name="x".join(f.name for f in flat),
        dim=sum(f.dim for f in flat),
        gens=[f"{g}{i + 1}" for i, f in enumerate(flat) for g in f.gens],
        rules=[r for f, o in zip(flat, offsets) for r in _embedded_rules(f, o, width)],
        integrals={sum((e for e, _ in t), ()): prod(w for _, w in t)
                   for t in cartesian(*(f._integrals.items() for f in flat))},
        factors=flat,
    )
    m._caps = sum((_block_caps(f, i) for i, f in zip(offsets, flat)), ())
    # the exterior products have 2^k terms for k factors: built on first read
    m.tangent_chern = lambda: exterior_product(*(f.tangent_chern for f in flat), space=m)
    if any(f.log is not None for f in flat):
        # factors without boundary data contribute an empty arrangement,
        # i.e. their plain cotangent bundle
        logs = [f.tangent_bundle().dual() if f.log is None else f.log.log_cotangent for f in flat]
        rank = sum(V.rank for V in logs)
        m.log = LogStructure(
            [pull_to_product(m, i, d) for i, f in enumerate(flat) if f.log is not None
             for d in f.log.divisors],
            lambda: BundleClass(rank, exterior_product(*(V.total_chern for V in logs), space=m)))
    return m


def _block_caps(f, offset):
    """Caps of ``f`` at slots from ``offset``, plus its own if its rules leave higher monomials."""
    own = ((0, len(f.gens), f.dim),) if sum(r - 1 for r, _ in f._rules) > f.dim else ()
    return tuple((offset + i, offset + j, d) for i, j, d in f._caps + own)


def _embedded_rules(f, offset, width):
    """The rewrite rules of ``f``, each relation's monomials put on the slots
    from ``offset`` of a ring with ``width`` slots."""
    lo, hi = (0,) * offset, (0,) * (width - offset - len(f.gens))
    return [(r, rel and {lo + e + hi: v for e, v in rel.items()}) for r, rel in f._rules]


def _embedded(space, offset, c):
    """The class ``c`` with its monomials put on the slots of ``space`` from
    ``offset``: a factor's class pulled back to a product, a base's to a
    projective bundle."""
    lo, hi = (0,) * offset, (0,) * (len(space.gens) - offset - len(c.space.gens))
    return CohClass._raw(space, {lo + e + hi: n for e, n in c._c.items()}, c._d, c._k)


def pull_to_product(space, axis, c):
    """Pull a class on factor ``axis`` back to the product ring of ``space``."""
    return _embedded(space, sum(len(f.gens) for f in space.factors[:axis]), c)


MAX_EXTERIOR_TERMS = 2 ** 14  # (P^1)^14's classes, 2^14 terms, are inside


def exterior_product(*classes, space=None):
    """The exterior product of classes on positive-dimensional models, on
    ``space``, by default the product of the models: a product monomial is
    the concatenation of a monomial of each factor, with the product of
    their numerators over the product of the class denominators.  A product
    of more than ``MAX_EXTERIOR_TERMS`` terms is refused before it is built."""
    terms = prod(len(c._c) for c in classes)
    if terms > MAX_EXTERIOR_TERMS:
        raise InvalidParameter(
            f"the exterior product would have {terms} terms, more than {MAX_EXTERIOR_TERMS}")
    nums, den, k = {(): 1}, 1, 0
    for c in classes:
        nums = {e1 + e2: _num_product(n1, n2) for e1, n1 in nums.items() for e2, n2 in c._c.items()}
        den, k = den * c._d, k + c._k
    if space is None:
        space = product(*(c.space for c in classes))
    return CohClass._raw(space, *_reduced(nums, den, k))


def line_bundle(space, multiple):
    """O(multiple * g) for the first degree-one generator class g."""
    return sum_of_line_bundles(space, [multiple])


def trivial_bundle(space, rank):
    return BundleClass(rank, space.one())


def sum_of_line_bundles(space, multiples):
    """The sum of O(a * g) over the ints a in ``multiples``: its total Chern
    class is the sum of e_j(a) g^j, e_j the j-th elementary symmetric
    function, built as one class, so the rules reduce each g^j once."""
    e = [1]
    for a in multiples:
        a = _integer(a, "line bundle multiple")
        e = [x + a * y for x, y in zip(e + [0], [0] + e)]
    rest = space._zero_exp[1:]
    return BundleClass(len(e) - 1, CohClass(space, {(j,) + rest: x for j, x in enumerate(e)}))


def projective_bundle(base, E):
    """P(E) -> base for a bundle class E of rank r >= 1 on the base.

    The ring adjoins xi with the relation xi^r = -(c1(E) xi^(r-1) + ... + c_r(E));
    integration pairs the base top monomial with xi^(r-1); the tangent class
    is c(T_base) times c(T_rel) = c(E(1)), the sum of c_j(E) (1+xi)^(r-j) by
    the relative Euler sequence, reduced once on the ring.  The base
    carries no boundary data, which the bundle's model would not keep.
    """
    r = E.rank
    if r < 1:
        raise InvalidParameter("projective bundle needs rank >= 1")
    if base.log is not None:
        raise InvalidParameter(f"{base.name} carries boundary data; P(E) needs a closed base")
    if E.space.key != base.key:
        raise InvalidParameter("bundle does not live on the base")
    c = E.total_chern  # keyed by its canonical numerators and denominator
    if c._k or any(n.__class__ is not int for n in c._c.values()):
        raise InvalidParameter("the Chern class of a projectivized bundle must not depend on y")
    return _model(("projbundle", base.key, r, tuple(sorted(c._c.items())), c._d, c._k),
                  _projective_bundle, base, E)


def _projective_bundle(key, base, E):
    r = E.rank
    nb = len(base.gens)
    c = E.total_chern
    f = 1 if c._d == 1 else Fraction(1, c._d)  # an integral c(E) keeps int numerators
    rel, twisted = {}, {}  # xi^r's rewriting, and c(E(1)) = sum of c_j(E) (1+xi)^(r-j)
    for e, n in c._c.items():
        j = sum(e)
        if j <= r:
            if j:
                rel[e + (r - j,)] = _whole(-n * f)
            for i in range(r - j + 1):
                twisted[e + (i,)] = n * comb(r - j, i) * f
    rules = _embedded_rules(base, 0, nb + 1) + [(r, rel)]

    xi_name = "xi" if "xi" not in base.gens else f"xi{sum(1 for g in base.gens if g.startswith('xi')) + 1}"
    integrals = {exp + (r - 1,): w for exp, w in base._integrals.items()}
    m = SpaceModel(
        key=key,
        name=f"P({base.name};r{r})",
        dim=base.dim + r - 1,
        gens=base.gens + (xi_name,),
        rules=rules,
        integrals=integrals,
        base=base,
    )
    m._caps = _block_caps(base, 0)
    rel_chern = CohClass(m, twisted)
    rel = m._classes["relative_tangent"] = BundleClass(r - 1, rel_chern)
    m.tangent_chern = _embedded(m, 0, base.tangent_chern) * rel_chern
    # T(P(E)) is the lifted T(base) plus T_rel, so ch(T_rel) is a difference of kept classes
    rel._ch = lambda ch: ch(m.tangent_bundle()) - _embedded(m, 0, ch(base.tangent_bundle()))
    return m


def hypersurface(n, d):
    """A smooth degree-d hypersurface in P^n, as a virtual model.

    Classes live in the ambient h-ring truncated at dimension n-1; the
    integral of a class is d times its h^(n-1) coefficient, and the tangent
    Chern class is the truncation of (1+h)^(n+1) / (1+d h).
    """
    if _integer(n, "ambient dimension") < 2 or _integer(d, "hypersurface degree") < 1:
        raise InvalidParameter("hypersurface needs n >= 2 and d >= 1")
    return _model(("hyp", n, d), _hypersurface, n, d)


def _hypersurface(key, n, d):
    m = SpaceModel(
        key=key,
        name=f"X({d})inP{n}",
        dim=n - 1,
        gens=("h",),
        rules=[(n, {})],
        integrals={(n - 1,): Fraction(d)},
    )
    h = m.gen_class(0)
    m.tangent_chern = _one_plus_power(h, n + 1) * _one_plus_power(h * d, -1)
    return m


def with_arrangement(space, k):
    """P^n together with k general-position hyperplanes at infinity.

    The boundary data records the k divisor classes and the logarithmic
    cotangent bundle, whose total Chern class (1-h)^(n+1-k) comes from the
    residue sequence relating it to the plain cotangent bundle.
    """
    if space.log is not None:
        raise InvalidParameter(f"{space.name} already carries a boundary arrangement")
    if space.key[0] != "proj":
        raise InvalidParameter("arrangements are modeled on projective space")
    n = space.dim
    if not (0 <= _integer(k, "hyperplane count") <= n + 1):
        raise InvalidParameter("need 0 <= k <= n+1 hyperplanes in general position")
    return _model(("arr", n, k), _arrangement, n, k)


def _arrangement(key, n, k):
    m = _projective(key, n)
    m.name = f"P{n}\\{k}H"
    h = m.gen_class(0)
    # the residue sequence: in K-theory the bundle is (n+1-k) O(-1) + (k-1) O
    m.log = LogStructure([h] * k, BundleClass(n, _one_plus_power(-h, n + 1 - k), (n + 1 - k, -h)))
    return m


def _compactification(m):
    """The model without its boundary data: P^n for an arrangement, the
    product of the factors' compactifications for a product, else ``m``."""
    if m.factors:
        return product(*map(_compactification, m.factors))
    return projective(m.dim) if m.key[0] == "arr" else m


# ---------------------------------------------------------------------------
# built-in maps


class SpaceMap:
    """A built-in proper or smooth map between models and what it does:
    ``push`` is its Gysin map, ``pull`` its ring pullback (None when it has
    none), ``tangent`` a function giving its virtual relative tangent bundle,
    and ``smooth`` says whether K-classes pull back along it."""

    __slots__ = ("kind", "source", "target", "push", "pull", "tangent", "smooth")

    def __init__(self, kind, source, target, push, pull, tangent, smooth):
        self.kind, self.source, self.target = kind, source, target
        self.push, self.pull, self.tangent, self.smooth = push, pull, tangent, smooth

    def __repr__(self):
        return f"SpaceMap({self.kind}: {self.source.name} -> {self.target.name})"


def bundle_projection(total):
    tgt = total.base
    if tgt is None:
        raise UnsupportedMap("bundle_projection needs a projective-bundle model")
    r = total.dim - tgt.dim + 1

    def push(c):
        # the xi^(r-1) monomials, read one-to-one as (reduced) base monomials
        nb = len(tgt.gens)
        nums = {exp[:nb]: n for exp, n in c._c.items() if exp[nb] == r - 1}
        return CohClass._raw(tgt, *_reduced(nums, c._d, c._k))

    return SpaceMap("bundle_projection", total, tgt, push, lambda c: _embedded(total, 0, c),
                    lambda: total._classes["relative_tangent"], True)


def product_projection(prod, axis):
    factors = prod.factors
    if not factors:
        raise UnsupportedMap("product_projection needs a product model")
    if not (0 <= _integer(axis, "factor axis") < len(factors)):
        raise UnsupportedMap("no such factor")
    tgt = factors[axis]
    offs = list(accumulate((len(f.gens) for f in factors[:-1]), initial=0))

    def push(c):
        start = offs[axis]
        stop = start + len(tgt.gens)
        raw = {}
        for exp, v in c.items():
            weight = Fraction(1)
            for i, f in enumerate(factors):
                if i != axis:  # integrate the other factors out
                    weight *= f._integrals.get(exp[offs[i]:offs[i] + len(f.gens)], 0)
            if weight:
                e = exp[start:stop]
                raw[e] = raw.get(e, 0) + v * weight
        return CohClass(tgt, raw)

    def tangent():
        # the other factors' tangent bundles pulled back: its Chern class is
        # the exterior product of theirs, its ch the sum of their kept ch's;
        # one bundle per axis is kept on the product
        out = prod._classes.get(("relative_tangent", axis))
        if out is None:
            others = [(i, f) for i, f in enumerate(factors) if i != axis]
            out = prod._classes["relative_tangent", axis] = BundleClass(
                prod.dim - tgt.dim, exterior_product(
                    *(f.one() if i == axis else f.tangent_chern for i, f in enumerate(factors)),
                    space=prod))
            out._ch = lambda ch: CohClass.combine(prod, [
                (1, pull_to_product(prod, i, ch(f.tangent_bundle())), None) for i, f in others])
        return out

    return SpaceMap("product_projection", prod, tgt, push,
                    lambda c: pull_to_product(prod, axis, c), tangent, True)


def hypersurface_inclusion(hyp):
    if hyp.key[0] != "hyp":
        raise UnsupportedMap("hypersurface_inclusion needs a hypersurface model")
    tgt, d = projective(hyp.key[1]), hyp.key[2]
    return SpaceMap("hypersurface_inclusion", hyp, tgt, lambda c: CohClass._raw(tgt, *_reduced(
        {(e[0] + 1,): _num_scaled(n, d, 0) for e, n in c._c.items()}, c._d, c._k)), None,
        lambda: BundleClass(-1, _one_plus_power(hyp.gen_class(0) * d, -1)), False)


def linear_embedding(k, n):
    if not (0 <= _integer(k, "source dimension") <= _integer(n, "target dimension")):
        raise UnsupportedMap("need 0 <= k <= n for a linear embedding")
    src, tgt = projective(k), projective(n)
    return SpaceMap("linear_embedding", src, tgt, lambda c: CohClass._raw(
        tgt, {(e[0] + n - k,): v for e, v in c._c.items()}, c._d, c._k), None,
        lambda: BundleClass(k - n, _one_plus_power(src.gen_class(0), k - n)), False)


def constant_map(space):
    pt = point()
    return SpaceMap("constant", space, pt, lambda c: pt.constant(space.integrate(c)),
                    lambda c: space.constant(c.coeff(c.space._zero_exp)),
                    space.tangent_bundle, False)


def _same_ring(kind, source, target):
    """A map between two models of one ring: push and pull move the numerators."""
    return SpaceMap(kind, source, target, lambda c: CohClass._raw(target, c._c, c._d, c._k),
                    lambda c: CohClass._raw(source, c._c, c._d, c._k),
                    lambda: trivial_bundle(source, 0), True)


def identity_map(space):
    return _same_ring("identity", space, space)


def open_restriction(space):
    """The map from a model to its compactification, the model without its
    boundary data (see ``_compactification``); both have one ring."""
    return _same_ring("open_restriction", space, _compactification(space))


def gysin_pushforward(m, c):
    """Gysin (wrong-way) map on cohomology classes for a built-in map."""
    if c.space.key != m.source.key:
        raise InvalidParameter("class does not live on the source of the map")
    return m.push(c)


def ring_pullback(m, c):
    """Plain ring pullback along a built-in map that has one (``pull`` set)."""
    if c.space.key != m.target.key:
        raise InvalidParameter("class does not live on the target of the map")
    if m.pull is None:
        raise UnsupportedMap(f"{m.kind} has no ring pullback")
    return m.pull(c)


def relative_tangent(m):
    """The virtual relative tangent bundle of a built-in map, a BundleClass on
    the source (of negative rank for an inclusion)."""
    return m.tangent()


# ---------------------------------------------------------------------------
# custom space documents


def from_document(text):
    """Build a model from a small textual description.

    Lines (blank lines and '#' comments ignored):

        dim N
        gens g1 g2 ...
        relation g^r = <polynomial in the generators>     (or: = 0)
        integral <monomial> = <rational>
        tangent <total Chern polynomial>

    Relations must rewrite a pure generator power g^r to terms of total
    degree exactly r with a smaller power of g, and no chain of relations may
    lead back to a generator it started from (``a^2 = b^2`` with
    ``b^2 = a^2``), since rewriting could then go on forever.  A generator
    has at most one relation and a monomial at most one integral, and
    ``dim``, ``gens`` and ``tangent`` appear once each.  Every malformed
    line raises ``ParseError`` naming the line (both lines for a repeat).
    """
    from graphlib import CycleError, TopologicalSorter

    dim = None
    gens = []
    relations = []
    integrals = []
    tangent_src = None
    once = {}  # directive that may appear once -> its line
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head in ("dim", "gens", "tangent"):
            if head in once:
                raise ParseError(f"second {head!r} line (lines {once[head]}, {lineno})", 0)
            once[head] = lineno
        if head == "dim":
            try:
                dim = int(rest)
            except ValueError:
                raise ParseError(f"dim must be an integer (line {lineno})", 0) from None
        elif head == "gens":
            gens = rest.split()
            if len(set(gens)) < len(gens):
                raise ParseError(f"a generator is listed twice (line {lineno})", 0)
            for g in gens:  # the polynomial scanner reads a name as a run of letters
                if not g.isalpha():
                    raise ParseError(f"generator {g!r} is not letters only (line {lineno})", 0)
        elif head == "relation":
            lhs, eq, rhs = rest.partition("=")
            if not eq:
                raise ParseError(f"relation needs '=' (line {lineno})", 0)
            relations.append((lhs.strip(), rhs.strip(), lineno))
        elif head == "integral":
            lhs, _, rhs = rest.partition("=")
            try:
                value = Fraction(rhs.strip())
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"integral value must be a rational number (line {lineno})",
                                 0) from None
            integrals.append((lhs.strip(), value, lineno))
        elif head == "tangent":
            tangent_src = rest
        else:
            raise ParseError(f"unknown directive {head!r} on line {lineno}", 0)
    if dim is None or not gens:
        raise ParseError("document needs 'dim' and 'gens' lines", 0)

    slots = {g: i for i, g in enumerate(gens)}
    width = len(gens)

    def parse_class_terms(src, lineno):
        from .rings import _parse_poly  # shared term parser
        try:
            terms = _parse_poly(src, set(gens))
        except ParseError as exc:
            raise ParseError(f"{exc.reason} in {src!r} (line {lineno})",
                             exc.position, exc.expected) from None
        raw = {}
        for coeff, expd in terms:
            exp = [0] * width
            for g, e in expd.items():
                if e < 0:
                    raise ParseError(f"negative exponent in {src!r} (line {lineno})", 0)
                exp[slots[g]] += e
            raw[tuple(exp)] = raw.get(tuple(exp), 0) + coeff
        return raw

    rules = [(dim + 1, {})] * width
    relation_line = {}  # generator slot -> line of its relation
    for lhs, rhs, lineno in relations:
        lterm = parse_class_terms(lhs, lineno)
        if len(lterm) != 1:
            raise ParseError(f"relation left side must be a single monomial (line {lineno})", 0)
        (lexp, lc), = lterm.items()
        if lc != 1 or sum(1 for e in lexp if e) != 1:
            raise ParseError(f"relation left side must be a pure generator power (line {lineno})", 0)
        i = next(j for j, e in enumerate(lexp) if e)
        if i in relation_line:
            raise ParseError(f"second relation for {gens[i]} "
                             f"(lines {relation_line[i]}, {lineno})", 0)
        relation_line[i] = lineno
        r = lexp[i]
        rel = {} if rhs == "0" else parse_class_terms(rhs, lineno)
        for rexp in rel:
            if rexp[i] >= r:
                raise ParseError(f"relation does not terminate (line {lineno})", 0)
            if sum(rexp) != r:
                raise ParseError(f"relation is not homogeneous of degree {r} (line {lineno})", 0)
        rules[i] = (r, {e: _whole(c) for e, c in rel.items() if c})  # drop terms that cancel
    # i -> j when generator j has a rewriting relation and occurs on the right of i's
    rewriting = {i for i, (_, rel) in enumerate(rules) if rel}
    try:
        TopologicalSorter({i: {j for rexp in rules[i][1] for j, x in enumerate(rexp)
                               if x and j != i and j in rewriting}
                           for i in rewriting}).prepare()
    except CycleError as exc:
        lines = ", ".join(str(n) for n in sorted({relation_line[i] for i in exc.args[1]}))
        raise ParseError(f"relations rewrite into each other and may not terminate "
                         f"(lines {lines})", 0) from None

    integral_exps = {}
    integral_line = {}
    for mono_src, value, lineno in integrals:
        raw = parse_class_terms(mono_src, lineno)
        if len(raw) != 1:
            raise ParseError(f"integral left side must be a single monomial (line {lineno})", 0)
        (exp, c), = raw.items()
        if c != 1:
            raise ParseError(f"integral left side must be a bare monomial (line {lineno})", 0)
        if sum(exp) != dim:
            raise ParseError(f"integral monomials must have top degree (line {lineno})", 0)
        if exp in integral_line:
            raise ParseError(f"second integral of {mono_src} "
                             f"(lines {integral_line[exp]}, {lineno})", 0)
        integral_line[exp] = lineno
        integral_exps[exp] = value
    if not integral_exps:
        raise ParseError("document needs at least one 'integral' line", 0)

    if tangent_src is None:
        raise ParseError("document needs a 'tangent' line", 0)
    tangent_raw = parse_class_terms(tangent_src, once["tangent"])

    def terms(raw):  # sorted by monomial, as ints
        return tuple(sorted((e, v.numerator, v.denominator) for e, v in raw.items()))

    def build(key):
        m = SpaceModel(key=key, name="custom", dim=dim, gens=gens, rules=rules,
                       integrals=integral_exps)
        m.tangent_chern = CohClass(m, tangent_raw)
        if m.tangent_chern.coeff(m._zero_exp) != 1:
            raise ParseError(f"tangent Chern class must have constant term 1 "
                             f"(line {once['tangent']})", 0)
        return m

    return _model(("custom", dim, tuple(gens), tuple((r, terms(rel)) for r, rel in rules),
                   terms(integral_exps), terms(tangent_raw)), build)
