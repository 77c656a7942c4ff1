"""The class-by-class loops of ``hirzebruch.bundles`` that the
multiply-accumulate kernel ``CohClass.combine`` replaced, kept verbatim (each
``+`` and ``*`` a separate canonical class) as the reference for the tests
in ``test_bundles.py``, among them ``class_exp`` and ``_inverse_one_plus``,
the powers of a class that the graded recurrence replaced; ``lambda_y_adams``,
the Newton's-identities route over all rank Adams operations that the
reduced roots e^x - 1 replaced, kept verbatim; and the product-ring route to
a product model's classes that the exterior products of its factors' classes
replaced: the tangent and log-cotangent Chern classes as products of the
pulled-back factor classes, and the closed, open and Todd classes from those
bundles on the product ring; and the genus series and their logs expanded
from scratch at each order, by the series reciprocal and product, that the
one in-place expansion per kind replaced; and the split bundles and the
twisted Chern class of a projective bundle built by Whitney sums and Horner's
rule, one class multiply per summand or rank, that the closed forms of
``spaces.sum_of_line_bundles`` and ``spaces._projective_bundle`` replaced."""

from fractions import Fraction
from math import factorial

from hirzebruch import bundles
from hirzebruch.errors import InvalidParameter
from hirzebruch.rings import LaurentY, _integer
from hirzebruch.spaces import BundleClass, CohClass, pull_to_product, trivial_bundle


def _series_mul(a, b, order):
    out = []
    for k in range(order + 1):
        acc = LaurentY()
        for i in range(k + 1):
            if i < len(a) and k - i < len(b):
                acc = acc + a[i] * b[k - i]
        out.append(acc)
    return out


def _series_recip(a, order):
    if a[0] != 1:
        raise InvalidParameter("series reciprocal needs constant term 1")
    out = [LaurentY.one()]
    for k in range(1, order + 1):
        acc = LaurentY()
        for i in range(1, k + 1):
            if i < len(a):
                acc = acc + a[i] * out[k - i]
        out.append(-acc)
    return out


def series_log(a, order):
    """log(a) to x^order, from scratch."""
    if a[0] != 1:
        raise InvalidParameter("series log needs constant term 1")
    out = [LaurentY()]
    for k in range(1, order + 1):
        acc = (a[k] if k < len(a) else LaurentY()) * k
        for j in range(1, k):
            if k - j < len(a):
                acc = acc - out[j] * a[k - j] * j
        out.append(acc / k)
    return out


def genus_series_coeffs(kind, order):
    """The coefficients of x^0..x^order of a built-in genus series, each
    kind expanded from its own closed form."""
    if kind == "chern":
        coeffs = [LaurentY.one(), LaurentY.one()] + [LaurentY()] * (order - 1)
    elif kind == "todd":
        # (1 - exp(-x))/x, then reciprocal
        g = [LaurentY.const(Fraction((-1) ** k, factorial(k + 1))) for k in range(order + 1)]
        coeffs = _series_recip(g, order)
    elif kind == "lclass":
        # cosh(x) / (sinh(x)/x)
        sh = [LaurentY.const(Fraction(1, factorial(k + 1))) if k % 2 == 0 else LaurentY()
              for k in range(order + 1)]
        co = [LaurentY.const(Fraction(1, factorial(k))) if k % 2 == 0 else LaurentY()
              for k in range(order + 1)]
        coeffs = _series_mul(co, _series_recip(sh, order), order)
    elif kind == "hirzebruch":
        # x(1+y)/(1 - exp(-x(1+y))) = 1/g with g_k = (-1)^k (1+y)^k / (k+1)!
        one_y = LaurentY({0: 1, 1: 1})
        g = [one_y**k * Fraction((-1) ** k, factorial(k + 1)) for k in range(order + 1)]
        coeffs = _series_recip(g, order)
        coeffs[1] = coeffs[1] - LaurentY.y()
    else:
        raise InvalidParameter(f"unknown genus series kind {kind!r}")
    return coeffs


def power_sums(V, order=None):
    """Power sums p_1..p_order of the Chern roots, from the Chern classes."""
    space = V.space
    if order is None:
        order = space.dim
    e = [V.chern(i) for i in range(order + 1)]
    p = [None]
    for k in range(1, order + 1):
        acc = e[k] * Fraction((-1) ** (k - 1) * k)
        for i in range(1, k):
            term = e[i] * p[k - i]
            acc = acc + (term if i % 2 == 1 else -term)
        p.append(acc)
    return p[1:]


def _elementary_from_power_sums(space, psums, upto):
    """e_0..e_upto from power sums (Newton's identities, exact division)."""
    e = [space.one()]
    for k in range(1, upto + 1):
        acc = space.zero()
        for i in range(1, k + 1):
            if i - 1 < len(psums):
                term = e[k - i] * psums[i - 1]
                acc = acc + (term if i % 2 == 1 else -term)
        e.append(acc * Fraction(1, k))
    return e


def chern_character(V, order=None):
    """ch(V) = rank + sum of p_m / m!."""
    space = V.space
    if order is None:
        order = space.dim
    total = space.constant(Fraction(V.rank))
    for m, p in enumerate(power_sums(V, order), start=1):
        total = total + p * Fraction(1, factorial(m))
    return total


def class_exp(X):
    """exp of a cohomology class with zero constant term (finite sum)."""
    space = X.space
    out = space.one()
    term = space.one()
    for j in range(1, space.dim + 1):
        term = term * X * Fraction(1, j)
        out = out + term
    return out


def _inverse_one_plus(x):
    """1/(1 + x) = 1 - x + x^2 - ... for a class x with no constant term."""
    out = term = x.space.one()
    for _ in range(x.space.dim):
        term = term * -x
        out = out + term
    return out


def apply_series(series, V, space=None):
    """Product of series(root) over the Chern roots of V.

    Computed as exp(sum of log-series coefficients times power sums), which
    is exact to the truncation order and multiplicative over Whitney sums.
    """
    if space is None:
        space = V.space
    if series.order < space.dim:
        raise InvalidParameter(
            f"series order {series.order} is below the space dimension {space.dim}"
        )
    lcoeffs = series.log()
    X = space.zero()
    for m, p in enumerate(power_sums(V, space.dim), start=1):
        if lcoeffs[m]:
            X = X + p * lcoeffs[m]
    return class_exp(X)


def lambda_y(V):
    """The total exterior-power class of a bundle, sum of y^i [Lambda^i V].

    Its Chern character is sum of y^i e_i, the elementary symmetric
    functions of the root exponentials.  Their power sums are the Adams
    operations q_k = ch(psi^k V) = rank + sum of k^m p_m / m!, each read off
    ch(V) by ``CohClass.adams``, and Newton's identities turn them into the
    e_i; all coefficients stay in Q[y].
    """
    if V.rank < 0:
        raise InvalidParameter("lambda_y needs an honest (non-virtual) rank")
    space = V.space
    ch_v = chern_character(V)
    e = _elementary_from_power_sums(
        space, [ch_v.adams(k) for k in range(1, V.rank + 1)], V.rank)
    ch = space.zero()
    for i, c in enumerate(e):
        ch = ch + c * LaurentY.y(i)
    return ch


def lambda_y_adams(V):
    """The total exterior-power class of a bundle, sum of y^i [Lambda^i V].

    Its Chern character is sum of y^i e_i, the elementary symmetric
    functions of the root exponentials.  Their power sums are the Adams
    operations q_k = ch(psi^k V) = rank + sum of k^m p_m / m!, each read off
    ch(V) by ``CohClass.adams``, and Newton's identities turn them into the
    e_i; all coefficients stay in Q[y].
    """
    if V.rank < 0:
        raise InvalidParameter("lambda_y needs an honest (non-virtual) rank")
    space = V.space
    ch_v = bundles.chern_character(V)
    e = bundles._elementary_from_power_sums(
        space, [ch_v.adams(k) for k in range(1, V.rank + 1)], V.rank)
    return CohClass.combine(space, [(LaurentY.y(i), c, None) for i, c in enumerate(e)])


def k_dual(k):
    """Grothendieck duality on K-classes of a smooth model of dimension m:
    each term [F] y^i goes to (-1)^m [F* (x) omega] (1/y)^i."""
    space = k.space
    m = space.dim
    sign = Fraction((-1) ** m)
    omega_ch = class_exp(space.canonical_chern_root())
    return k.adams(-1).invert_y() * omega_ch * sign


def _pulled_product(prod, classes):
    """The product on the product ring of one class per factor, each pulled back."""
    out = prod.one()
    for i, c in enumerate(classes):
        out = out * pull_to_product(prod, i, c)
    return out


def product_tangent_bundle(prod):
    """T(X1 x ... x Xn), its Chern class the product of the pulled-back
    factor tangent Chern classes."""
    factors = prod.factors
    return BundleClass(prod.dim, _pulled_product(prod, [f.tangent_chern for f in factors]))


def product_log_cotangent(prod):
    """The log-cotangent bundle of a product with boundary data: a factor
    without boundary data contributes its plain cotangent bundle."""
    logs = [f.tangent_bundle().dual() if f.divisors is None else f.log_cotangent()
            for f in prod.factors]
    return BundleClass(sum(V.rank for V in logs),
                       _pulled_product(prod, [V.total_chern for V in logs]))


def product_closed_class(prod):
    """lambda_y(T*X) on the product ring."""
    return bundles.lambda_y(product_tangent_bundle(prod).dual())


def product_open_class(prod):
    """lambda_y of the log-cotangent bundle on the product ring."""
    return bundles.lambda_y(product_log_cotangent(prod))


def product_todd_class(prod):
    """td(TX) on the product ring, from the series at the product's dimension."""
    return bundles.apply_series(bundles.genus_series("todd", prod.dim),
                                product_tangent_bundle(prod))


def line_bundle(space, multiple):
    """O(multiple * g) for the first degree-one generator class g."""
    c = space.one() + space.gen_class(0) * _integer(multiple, "line bundle multiple")
    return BundleClass(1, c)


def sum_of_line_bundles(space, multiples):
    out = trivial_bundle(space, 0)
    for a in multiples:
        out = out + line_bundle(space, a)
    return out


def _twisted_chern(E, t):
    """Total Chern class of E tensor L for a line bundle L with c1 = t.

    A root x of E becomes x + t, so c(E(x)L) = sum over j <= rank of
    c_j(E) (1+t)^(rank-j), summed by Horner's rule in rank multiplies.
    """
    one_t = t.space.one() + t
    total = E.chern(0)
    for j in range(1, E.rank + 1):
        total = total * one_t + E.chern(j)
    return total
