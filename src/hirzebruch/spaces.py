"""Truncated cohomology-ring models of smooth projective varieties.

A ``SpaceModel`` is a finite presentation of the even cohomology (Chow) ring
of a variety: degree-one generators, rewrite rules (nilpotency caps or a
single Grothendieck-type relation per generator), truncation at the
dimension, an integration functional on top-degree monomials, and total
Chern data for the tangent bundle.  Models exist for projective spaces,
finite products, projective bundles of split bundles, hypersurfaces inside
projective space (virtual: classes live in the ambient ring and integration
twists by the divisor class), and projective space equipped with a
general-position hyperplane arrangement at infinity (which adds boundary
data: the arrangement divisors and the Chern class of the bundle of forms
with logarithmic poles along them).

``CohClass`` is a sparse cohomology class on a model: a dictionary from
exponent tuples (one slot per generator) to coefficients.  Coefficients may
be Fractions, LaurentY, or RationalFunctionY; arithmetic coerces as needed.
Built-in proper/smooth maps between models support Gysin pushforward and
ring pullback.

Multiplying two classes looks up each pair of monomials in the model's
product table, which maps the pair to the reduced product: the monomials
and rational multiples left after truncation and rewriting, nothing when
the product vanishes.  A vanishing pair is skipped before its coefficients
are multiplied; a live pair's coefficient product goes straight into the
reduced result.  The table is filled lazily, one ``_reduce`` per new pair
(stored under both orders), so building a model costs nothing extra.  It
lives on the model instance and depends only on the rewrite rules and the
dimension, which never change after construction; it is never shared
between models or keyed on ``SpaceModel.key``, which is not unique.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidParameter, ParseError, UnsupportedMap

# Rewrite rules attached to a generator slot:
#   ("nilpotent", c)          -- any monomial with exponent >= c dies
#   ("relation", r, rel)      -- gen^r rewrites to rel, a raw {exp: Fraction}
#                                dict of total degree r with gen-exponent < r


def _total(exp):
    return sum(exp)


class CohClass:
    """Sparse cohomology class on a model; immutable after construction."""

    __slots__ = ("space", "_c")

    def __init__(self, space, comps=None):
        self.space = space
        self._c = space._reduce(comps or {})

    @classmethod
    def _raw(cls, space, reduced):
        out = cls.__new__(cls)
        out.space = space
        out._c = reduced
        return out

    def items(self):
        return sorted(self._c.items(), key=lambda t: (_total(t[0]), t[0]))

    def coeff(self, exp):
        zero = Fraction(0)
        return self._c.get(tuple(exp), zero)

    def is_zero(self):
        return not self._c

    def __bool__(self):
        return bool(self._c)

    def _check(self, other):
        if self.space.key != other.space.key:
            raise InvalidParameter("classes live on different spaces")

    def __eq__(self, other):
        if isinstance(other, CohClass):
            if self.space.key != other.space.key:
                return False
            if set(self._c) != set(other._c):
                return False
            return all(other._c[k] == v for k, v in self._c.items())
        if not self._c:
            return other == 0
        if list(self._c) == [self.space._zero_exp]:
            return self._c[self.space._zero_exp] == other
        return NotImplemented

    def __hash__(self):
        return hash((self.space.key, tuple(self.items())))

    def __neg__(self):
        return CohClass._raw(self.space, {e: -v for e, v in self._c.items()})

    def __add__(self, other):
        if not isinstance(other, CohClass):
            if other == 0:
                return self
            other = self.space.constant(other)
        self._check(other)
        c = dict(self._c)
        for e, v in other._c.items():
            w = c.get(e, 0) + v
            if w:
                c[e] = w
            else:
                c.pop(e, None)
        return CohClass._raw(self.space, c)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, CohClass):
            other = self.space.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, CohClass):
            # scalar: Fraction / int / LaurentY / RationalFunctionY
            if other == 0:
                return CohClass._raw(self.space, {})
            return CohClass._raw(self.space, {e: v * other for e, v in self._c.items()})
        self._check(other)
        space = self.space
        table = space._products
        out = {}
        for e1, v1 in self._c.items():
            row = table.setdefault(e1, {})
            for e2, v2 in other._c.items():
                terms = row.get(e2)
                if terms is None:
                    terms = space._monomial_product(e1, e2)
                if not terms:
                    continue  # the product vanishes: no coefficient work
                v = v1 * v2
                for e, c in terms:
                    w = v if c == 1 else v * c
                    out[e] = out[e] + w if e in out else w
        return CohClass._raw(space, {e: w for e, w in out.items() if w})

    __rmul__ = __mul__

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise InvalidParameter("negative power of a cohomology class")
        out = self.space.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def component(self, degree):
        """The part in cohomological degree ``degree``."""
        return CohClass._raw(
            self.space, {e: v for e, v in self._c.items() if _total(e) == degree}
        )

    def by_degree(self):
        """Map degree -> component, only nonzero degrees."""
        out = {}
        for e, v in self._c.items():
            out.setdefault(_total(e), {})[e] = v
        return {d: CohClass._raw(self.space, c) for d, c in sorted(out.items())}

    def map_coeffs(self, fn):
        c = {}
        for e, v in self._c.items():
            w = fn(v)
            if w:
                c[e] = w
        return CohClass._raw(self.space, c)

    def degree_sign(self):
        """Multiply the degree-j part by (-1)^j (Chern classes of a dual)."""
        return CohClass._raw(
            self.space,
            {e: (v if _total(e) % 2 == 0 else -v) for e, v in self._c.items()},
        )

    def __str__(self):
        return self.space.render_class(self)

    def __repr__(self):
        return f"CohClass({self.space.name}, {self.space.render_class(self)!r})"


class BundleClass:
    """A vector-bundle class: rank plus total Chern class (constant term 1).

    Virtual classes (rank inconsistent with the Chern data) are allowed;
    every consumer works through Chern classes or power sums only.
    """

    __slots__ = ("rank", "total_chern")

    def __init__(self, rank, total_chern):
        if total_chern.coeff(total_chern.space._zero_exp) != 1:
            raise InvalidParameter("total Chern class must have constant term 1")
        self.rank = int(rank)
        self.total_chern = total_chern

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
        """c_i -> (-1)^i c_i."""
        return BundleClass(self.rank, self.total_chern.degree_sign())

    def __repr__(self):
        return f"BundleClass(rank={self.rank}, c={self.space.render_class(self.total_chern)!r})"


class LogStructure:
    """Boundary data for an open complement inside the model: the classes of
    the normal-crossing divisor components and the logarithmic cotangent
    bundle along them."""

    __slots__ = ("divisors", "log_cotangent")

    def __init__(self, divisors, log_cotangent):
        self.divisors = tuple(divisors)
        self.log_cotangent = log_cotangent


class SpaceModel:
    """Immutable model; build with the module constructors below."""

    __slots__ = (
        "kind", "key", "name", "dim", "gens", "_rules", "_integrals",
        "tangent_chern", "log", "extra", "_products",
    )

    def __init__(self, kind, key, name, dim, gens, rules, integrals, extra=None):
        self.kind = kind
        self.key = key
        self.name = name
        self.dim = dim
        self.gens = tuple(gens)
        self._rules = tuple(rules)
        self._integrals = dict(integrals)
        self.tangent_chern = None
        self.log = None
        self.extra = extra or {}
        self._products = {}  # e1 -> {e2: reduced product terms}, filled lazily

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
            if _total(exp) > self.dim:
                continue
            for i, rule in enumerate(self._rules):
                if rule is None or exp[i] < rule[1]:
                    continue
                if rule[0] == "relation":
                    _, r, rel = rule
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
        return out

    def _monomial_product(self, e1, e2):
        """Reduced product of two monomials as ``((exp, coeff), ...)``, empty
        when it vanishes; stored in the product table under both orders."""
        e = tuple(a + b for a, b in zip(e1, e2))
        # seeded with int 1: a coefficient stays exactly the int 1 unless a
        # relation rewrote the monomial, so ``c == 1`` in the multiply is cheap
        terms = tuple(self._reduce({e: 1}).items())
        self._products.setdefault(e1, {})[e2] = terms
        self._products.setdefault(e2, {})[e1] = terms
        return terms

    def constant(self, value):
        if value == 0:
            return CohClass._raw(self, {})
        return CohClass._raw(self, {self._zero_exp: value})

    def zero(self):
        return CohClass._raw(self, {})

    def one(self):
        return self.constant(Fraction(1))

    def gen_class(self, i=0):
        exp = [0] * len(self.gens)
        exp[i] = 1
        return CohClass(self, {tuple(exp): Fraction(1)})

    def monomial(self, exp, coeff=Fraction(1)):
        return CohClass(self, {tuple(exp): coeff})

    def integrate(self, c):
        """Value of the degree-dim part under the integration functional."""
        total = 0
        for exp, weight in self._integrals.items():
            v = c._c.get(exp)
            if v is not None:
                total = total + v * weight
        if total == 0:
            return Fraction(0)
        return total

    def tangent_bundle(self):
        return BundleClass(self.dim, self.tangent_chern)

    def canonical_chern_root(self):
        """-c1(TM), the Chern root of the canonical bundle."""
        return -self.tangent_chern.component(1)

    # -- rendering -------------------------------------------------------------

    def render_monomial(self, exp):
        parts = []
        for name, e in zip(self.gens, exp):
            if e == 0:
                continue
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def render_class(self, c):
        if not c._c:
            return "0"
        pieces = []
        for exp, v in c.items():
            coeff = str(v)
            if " " in coeff:
                coeff = f"({coeff})"
            mono = self.render_monomial(exp)
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
            "integrals": {self.render_monomial(e) or "1": str(w)
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


def _binomial(n, k):
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def projective(n):
    """P^n: ring Q[h]/(h^(n+1)), integral of h^n is 1, c(T) = (1+h)^(n+1)."""
    if n < 0:
        raise InvalidParameter("projective space dimension must be >= 0")
    m = SpaceModel(
        kind="proj",
        key=("proj", n),
        name=f"P{n}",
        dim=n,
        gens=("h",),
        rules=[("nilpotent", n + 1)],
        integrals={(n,): Fraction(1)},
    )
    m.tangent_chern = CohClass(m, {(j,): Fraction(_binomial(n + 1, j)) for j in range(n + 1)})
    return m


def point():
    return projective(0)


def is_point(space):
    return space.dim == 0 and space.kind == "proj"


def product(*factors):
    """Product model: tensor ring, product integration, Whitney tangent.

    Point factors are dropped; boundary structures combine when every
    surviving factor carries one.
    """
    flat = []
    for f in factors:
        if f.kind == "product":
            flat.extend(f.extra["factors"])
        elif not is_point(f):
            flat.append(f)
    if not flat:
        return point()
    if len(flat) == 1:
        return flat[0]

    gens, offsets = [], []
    pos = 0
    for i, f in enumerate(flat):
        offsets.append(pos)
        for g in f.gens:
            gens.append(f"{g}{i + 1}")
        pos += len(f.gens)
    total_slots = pos

    rules = []
    pos = 0
    for f in flat:
        for rule in f._rules:
            if rule is None or rule[0] == "nilpotent":
                rules.append(rule)
            else:
                _, r, rel = rule
                rules.append(("relation", r,
                              {_pad_exp(e, pos, total_slots): v for e, v in rel.items()}))
        pos += len(f.gens)

    dim = sum(f.dim for f in flat)
    integrals = _product_integrals(flat)

    key = ("product",) + tuple(f.key for f in flat)
    m = SpaceModel(
        kind="product",
        key=key,
        name="x".join(f.name for f in flat),
        dim=dim,
        gens=gens,
        rules=rules,
        integrals=integrals,
        extra={"factors": flat, "offsets": offsets},
    )
    tc = m.one()
    for i, f in enumerate(flat):
        tc = tc * pull_to_product(m, i, f.tangent_chern)
    m.tangent_chern = tc
    if any(f.log is not None for f in flat):
        # factors without boundary data contribute an empty arrangement,
        # i.e. their plain cotangent bundle
        divisors = []
        log_c = m.one()
        rank = 0
        for i, f in enumerate(flat):
            if f.log is not None:
                divisors.extend(pull_to_product(m, i, d) for d in f.log.divisors)
                log_c = log_c * pull_to_product(m, i, f.log.log_cotangent.total_chern)
                rank += f.log.log_cotangent.rank
            else:
                log_c = log_c * pull_to_product(m, i, f.tangent_chern.degree_sign())
                rank += f.dim
        m.log = LogStructure(divisors, BundleClass(rank, log_c))
    return m


def _pad_exp(exp, offset, width):
    out = [0] * width
    for j, e in enumerate(exp):
        out[offset + j] = e
    return tuple(out)


def _product_integrals(flat):
    integrals = {}

    def rec(i, exp, weight):
        if i == len(flat):
            integrals[tuple(exp)] = weight
            return
        for e, w in flat[i]._integrals.items():
            rec(i + 1, exp + list(e), weight * w)

    rec(0, [], Fraction(1))
    return integrals


def pull_to_product(prod, axis, c):
    """Pull a class on factor ``axis`` back to the product ring."""
    offs = prod.extra["offsets"]
    start = offs[axis]
    width = len(prod.gens)
    raw = {}
    for exp, v in c._c.items():
        raw[_pad_exp(exp, start, width)] = v
    return CohClass(prod, raw)


def line_bundle(space, multiple, gen=0):
    """O(multiple * g) for a degree-one generator class g."""
    c = space.one() + space.gen_class(gen) * Fraction(multiple)
    return BundleClass(1, c)


def trivial_bundle(space, rank):
    return BundleClass(rank, space.one())


def sum_of_line_bundles(space, multiples, gen=0):
    out = trivial_bundle(space, 0)
    for a in multiples:
        out = out + line_bundle(space, a, gen)
    return out


def _twisted_chern(E, t):
    """Total Chern class of E tensor L for a line bundle L with c1 = t.

    c_k(E(x)L) = sum over j of C(rank-j, k-j) c_j(E) t^(k-j).
    """
    space = t.space
    r = E.rank
    total = space.zero()
    for k in range(space.dim + 1):
        part = space.zero()
        for j in range(k + 1):
            b = _binomial(r - j, k - j)
            if b:
                part = part + E.chern(j) * (t ** (k - j)) * Fraction(b)
        total = total + part
    return total


def projective_bundle(base, E):
    """P(E) -> base for a bundle class E of rank r >= 1 on the base.

    The ring adjoins xi with the relation xi^r = -(c1(E) xi^(r-1) + ... + c_r(E));
    integration pairs the base top monomial with xi^(r-1); the tangent class
    is c(T_base) times c(E(1)) via the relative Euler sequence.
    """
    r = E.rank
    if r < 1:
        raise InvalidParameter("projective bundle needs rank >= 1")
    if E.space.key != base.key:
        raise InvalidParameter("bundle does not live on the base")
    nb = len(base.gens)
    width = nb + 1
    rel = {}
    for i in range(1, r + 1):
        ci = E.chern(i)
        for exp, v in ci._c.items():
            rel[tuple(exp) + (r - i,)] = -v
    rules = []
    for rule in base._rules:
        if rule is None or rule[0] == "nilpotent":
            rules.append(rule)
        else:
            _, rr, rrel = rule
            rules.append(("relation", rr, {e + (0,): v for e, v in rrel.items()}))
    rules.append(("relation", r, rel) if rel else ("nilpotent", r))

    xi_name = "xi" if "xi" not in base.gens else f"xi{sum(1 for g in base.gens if g.startswith('xi')) + 1}"
    chern_key = tuple(sorted((exp, str(v)) for exp, v in E.total_chern._c.items()))
    key = ("projbundle", base.key, r, chern_key)
    integrals = {exp + (r - 1,): w for exp, w in base._integrals.items()}
    m = SpaceModel(
        kind="projbundle",
        key=key,
        name=f"P({base.name};r{r})",
        dim=base.dim + r - 1,
        gens=base.gens + (xi_name,),
        rules=rules,
        integrals=integrals,
        extra={"base": base, "rank": r, "E": E},
    )
    xi = m.gen_class(nb)
    E_up = BundleClass(r, _lift_from_base(m, E.total_chern))
    rel_chern = _twisted_chern(E_up, xi)
    m.extra["relative_tangent"] = BundleClass(r - 1, rel_chern)
    m.tangent_chern = _lift_from_base(m, base.tangent_chern) * rel_chern
    return m


def _lift_from_base(total, c):
    raw = {exp + (0,): v for exp, v in c._c.items()}
    return CohClass(total, raw)


def hypersurface(n, d):
    """A smooth degree-d hypersurface in P^n, as a virtual model.

    Classes live in the ambient h-ring truncated at dimension n-1; the
    integral of a class is d times its h^(n-1) coefficient, and the tangent
    Chern class is the truncation of (1+h)^(n+1) / (1+d h).
    """
    if n < 2 or d < 1:
        raise InvalidParameter("hypersurface needs n >= 2 and d >= 1")
    m = SpaceModel(
        kind="hypersurface",
        key=("hyp", n, d),
        name=f"X({d})inP{n}",
        dim=n - 1,
        gens=("h",),
        rules=[("nilpotent", n)],
        integrals={(n - 1,): Fraction(d)},
        extra={"ambient_n": n, "degree": d},
    )
    h = m.gen_class(0)
    numer = (m.one() + h) ** (n + 1)
    inv = m.one()
    term = m.one()
    for _ in range(n - 1):
        term = term * (h * Fraction(-d))
        inv = inv + term
    m.tangent_chern = numer * inv
    m.extra["virtual_rank"] = n - 1
    return m


def with_arrangement(space, k):
    """P^n together with k general-position hyperplanes at infinity.

    The boundary data records the k divisor classes and the logarithmic
    cotangent bundle, whose total Chern class (1-h)^(n+1-k) comes from the
    residue sequence relating it to the plain cotangent bundle.
    """
    if space.kind != "proj":
        raise InvalidParameter("arrangements are modeled on projective space")
    n = space.dim
    if not (0 <= k <= n + 1):
        raise InvalidParameter("need 0 <= k <= n+1 hyperplanes in general position")
    m = projective(n)
    m.name = f"P{n}\\{k}H"
    h = m.gen_class(0)
    log_chern = (m.one() - h) ** (n + 1 - k)
    m.log = LogStructure([h] * k, BundleClass(n, log_chern))
    m.extra = {"arrangement_k": k}
    return m


# ---------------------------------------------------------------------------
# built-in maps


class SpaceMap:
    """A built-in proper or smooth map between models."""

    __slots__ = ("kind", "source", "target", "extra")

    def __init__(self, kind, source, target, **extra):
        self.kind = kind
        self.source = source
        self.target = target
        self.extra = extra

    def __repr__(self):
        return f"SpaceMap({self.kind}: {self.source.name} -> {self.target.name})"


def bundle_projection(total):
    if total.kind != "projbundle":
        raise UnsupportedMap("bundle_projection needs a projective-bundle model")
    return SpaceMap("bundle_projection", total, total.extra["base"])


def product_projection(prod, axis):
    if prod.kind != "product":
        raise UnsupportedMap("product_projection needs a product model")
    factors = prod.extra["factors"]
    if not (0 <= axis < len(factors)):
        raise UnsupportedMap("no such factor")
    return SpaceMap("product_projection", prod, factors[axis], axis=axis)


def hypersurface_inclusion(hyp):
    if hyp.kind != "hypersurface":
        raise UnsupportedMap("hypersurface_inclusion needs a hypersurface model")
    return SpaceMap("hypersurface_inclusion", hyp, projective(hyp.extra["ambient_n"]),
                    degree=hyp.extra["degree"])


def linear_embedding(k, n):
    if not (0 <= k <= n):
        raise UnsupportedMap("need 0 <= k <= n for a linear embedding")
    return SpaceMap("linear_embedding", projective(k), projective(n))


def constant_map(space):
    return SpaceMap("constant", space, point())


def identity_map(space):
    return SpaceMap("identity", space, space)


def open_restriction(compactification):
    """Restriction to the open complement of the boundary arrangement; the
    underlying ring does not change."""
    return SpaceMap("open_restriction", compactification, compactification)


def gysin_pushforward(m, c):
    """Gysin (wrong-way) map on cohomology classes for a built-in map."""
    if c.space.key != m.source.key:
        raise InvalidParameter("class does not live on the source of the map")
    tgt = m.target
    if m.kind in ("identity", "open_restriction"):
        return CohClass._raw(tgt, dict(c._c))
    if m.kind == "constant":
        val = m.source.integrate(c)
        return tgt.constant(val) if val != 0 else tgt.zero()
    if m.kind == "bundle_projection":
        r = m.source.extra["rank"]
        nb = len(tgt.gens)
        raw = {}
        for exp, v in c._c.items():
            if exp[nb] == r - 1:
                raw[exp[:nb]] = raw.get(exp[:nb], 0) + v
        return CohClass(tgt, raw)
    if m.kind == "product_projection":
        axis = m.extra["axis"]
        prod = m.source
        factors = prod.extra["factors"]
        offs = prod.extra["offsets"]
        start = offs[axis]
        stop = start + len(factors[axis].gens)
        raw = {}
        for exp, v in c._c.items():
            weight = Fraction(1)
            for i, f in enumerate(factors):
                if i == axis:
                    continue
                part = exp[offs[i]:offs[i] + len(f.gens)]
                w = f._integrals.get(part)
                if w is None:
                    weight = None
                    break
                weight *= w
            if weight is None:
                continue
            e = exp[start:stop]
            raw[e] = raw.get(e, 0) + v * weight
        return CohClass(tgt, raw)
    if m.kind == "hypersurface_inclusion":
        d = m.extra["degree"]
        raw = {(exp[0] + 1,): v * d for exp, v in c._c.items()}
        return CohClass(tgt, raw)
    if m.kind == "linear_embedding":
        shift = tgt.dim - m.source.dim
        raw = {(exp[0] + shift,): v for exp, v in c._c.items()}
        return CohClass(tgt, raw)
    raise UnsupportedMap(m.kind)


def ring_pullback(m, c):
    """Plain ring pullback along a built-in map with smooth source-over-target
    structure (projections, identity, open restriction)."""
    if c.space.key != m.target.key:
        raise InvalidParameter("class does not live on the target of the map")
    if m.kind in ("identity", "open_restriction"):
        return CohClass._raw(m.source, dict(c._c))
    if m.kind == "constant":
        return m.source.constant(c.coeff(c.space._zero_exp))
    if m.kind == "bundle_projection":
        return _lift_from_base(m.source, c)
    if m.kind == "product_projection":
        return pull_to_product(m.source, m.extra["axis"], c)
    raise UnsupportedMap(f"{m.kind} has no ring pullback")


def relative_tangent(m):
    """The virtual relative tangent bundle of a built-in map, as a
    BundleClass on the source (rank may be negative for inclusions)."""
    src = m.source
    if m.kind in ("identity", "open_restriction"):
        return trivial_bundle(src, 0)
    if m.kind == "constant":
        return src.tangent_bundle()
    if m.kind == "bundle_projection":
        return src.extra["relative_tangent"]
    if m.kind == "product_projection":
        axis = m.extra["axis"]
        factors = src.extra["factors"]
        chern = src.one()
        rank = 0
        for i, f in enumerate(factors):
            if i == axis:
                continue
            chern = chern * pull_to_product(src, i, f.tangent_chern)
            rank += f.dim
        return BundleClass(rank, chern)
    if m.kind == "hypersurface_inclusion":
        d = m.extra["degree"]
        h = src.gen_class(0)
        inv = src.one()
        term = src.one()
        for _ in range(src.dim):
            term = term * (h * Fraction(-d))
            inv = inv + term
        return BundleClass(-1, inv)
    if m.kind == "linear_embedding":
        codim = m.target.dim - src.dim
        h = src.gen_class(0)
        invser = src.one()
        term = src.one()
        for _ in range(src.dim):
            term = term * (-h)
            invser = invser + term
        total = src.one()
        for _ in range(codim):
            total = total * invser
        return BundleClass(-codim, total)
    raise UnsupportedMap(m.kind)


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
    degree exactly r with a smaller power of g.  Every malformed line raises
    ``ParseError`` naming the line.
    """
    dim = None
    gens = []
    relations = []
    integrals = []
    tangent_src = None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "dim":
            try:
                dim = int(rest)
            except ValueError:
                raise ParseError(f"dim must be an integer (line {lineno})", 0) from None
        elif head == "gens":
            gens = rest.split()
        elif head == "relation":
            lhs, _, rhs = rest.partition("=")
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

    def parse_class_terms(src):
        from .rings import _parse_poly  # shared term parser
        raw = {}
        for coeff, expd in _parse_poly(src, set(gens)):
            exp = [0] * width
            for g, e in expd.items():
                if e < 0:
                    raise ParseError("negative exponents are not allowed here", 0)
                exp[slots[g]] += e
            raw[tuple(exp)] = raw.get(tuple(exp), 0) + coeff
        return raw

    rules = [None] * width
    for lhs, rhs, lineno in relations:
        lterm = parse_class_terms(lhs)
        if len(lterm) != 1:
            raise ParseError(f"relation left side must be a single monomial (line {lineno})", 0)
        (lexp, lc), = lterm.items()
        if lc != 1 or sum(1 for e in lexp if e) != 1:
            raise ParseError(f"relation left side must be a pure generator power (line {lineno})", 0)
        i = next(j for j, e in enumerate(lexp) if e)
        r = lexp[i]
        rel = {} if rhs in ("0", "") else parse_class_terms(rhs)
        for rexp in rel:
            if rexp[i] >= r:
                raise ParseError(f"relation does not terminate (line {lineno})", 0)
            if _total(rexp) != r:
                raise ParseError(f"relation is not homogeneous of degree {r} (line {lineno})", 0)
        rules[i] = ("nilpotent", r) if not rel else ("relation", r, rel)
    for i, rule in enumerate(rules):
        if rule is None:
            rules[i] = ("nilpotent", dim + 1)

    integral_exps = {}
    for mono_src, value, lineno in integrals:
        raw = parse_class_terms(mono_src)
        if len(raw) != 1:
            raise ParseError(f"integral left side must be a single monomial (line {lineno})", 0)
        (exp, c), = raw.items()
        if c != 1:
            raise ParseError(f"integral left side must be a bare monomial (line {lineno})", 0)
        if _total(exp) != dim:
            raise ParseError(f"integral monomials must have top degree (line {lineno})", 0)
        integral_exps[exp] = value
    if not integral_exps:
        raise ParseError("document needs at least one 'integral' line", 0)

    if tangent_src is None:
        raise ParseError("document needs a 'tangent' line", 0)
    tangent_raw = parse_class_terms(tangent_src)
    key = ("custom", dim, tuple(gens), tuple(sorted(str(r) for r in rules)),
           tuple(sorted((e, str(v)) for e, v in integral_exps.items())),
           tuple(sorted((e, str(v)) for e, v in tangent_raw.items())))
    m = SpaceModel(
        kind="custom",
        key=key,
        name="custom",
        dim=dim,
        gens=gens,
        rules=rules,
        integrals=integral_exps,
    )
    m.tangent_chern = CohClass(m, tangent_raw)
    if m.tangent_chern.coeff(m._zero_exp) != 1:
        raise ParseError("tangent Chern class must have constant term 1", 0)
    return m
