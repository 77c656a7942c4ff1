"""Characteristic classes from Chern roots, and genera as their integrals.

The engine expands a multiplicative genus series exactly, applies it to a
bundle through power sums of its Chern roots, and integrates.  The
interpolating series specializes to the total Chern class, the Todd class,
and the L class at y = -1, 0, 1, and its integral over a smooth model is
the chi_y genus.
"""

from fractions import Fraction

from hirzebruch import spaces as sp
from hirzebruch.bundles import apply_series, genus_series, lambda_y
from hirzebruch.rings import render_y
from hirzebruch.transforms import chi_y_genus

print("== The four genus series, expanded to order 3 ==")
for kind in ("chern", "todd", "lclass", "hirzebruch"):
    s = genus_series(kind, 3)
    terms = " + ".join(f"({render_y(c)}) x^{j}" for j, c in enumerate(s.coeffs) if c)
    print(f"{kind:>10}: {terms}")

print()
print("== Classes of the projective plane ==")
p2 = sp.projective(2)
for kind in ("chern", "todd", "hirzebruch"):
    cls = apply_series(genus_series(kind, 2), p2.tangent_bundle())
    print(f"{kind:>10}: {p2.render_class(cls)}")
td = apply_series(genus_series("todd", 2), p2.tangent_bundle())
print("integral of the Todd class (= chi of the structure sheaf):",
      p2.integrate(td.component(2)))

print()
print("== chi_y genera by integration ==")
for n in range(1, 5):
    print(f"P{n}: chi_y = {render_y(chi_y_genus(sp.projective(n)))}")
quartic = sp.hypersurface(3, 4)
chi = chi_y_genus(quartic)
print(f"quartic surface in P3: chi_y = {render_y(chi)}")
print("  Euler number:", chi(Fraction(-1)), "  signature:", chi(Fraction(1)))

print()
print("== Projective bundles ==")
base = sp.projective(1)
E = sp.sum_of_line_bundles(base, [0, 1])
tot = sp.projective_bundle(base, E)
print("P(O + O(1)) over P1:", tot.name, " dim", tot.dim)
print("  chi_y =", render_y(chi_y_genus(tot)), " (fiber times base)")
xi = tot.gen_class(1)
print("  integral of xi^2 =", tot.integrate(xi * xi), " (a Segre number)")

print()
print("== Exterior-power classes ==")
lam = lambda_y(p2.tangent_bundle().dual())
print("lambda_y of the cotangent bundle of P2:")
print("  rank (the degree-0 part):", p2.render_class(lam.component(0)))
print("  character:", p2.render_class(lam))
