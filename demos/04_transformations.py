"""The transformation pipeline and its functorial identities.

K-classes of spaces and open complements are pushed through the
Todd-twisted character into cycle-dimension-graded homology ledgers.  At
y = -1 the normalized ledger of an arrangement complement recovers the
Chern class computed independently by inclusion-exclusion; pushforward,
smooth pullback, exterior products and duality all commute with the
pipeline, and the verification registry re-checks all of it.
"""

from hirzebruch import spaces as sp
from hirzebruch import verify
from hirzebruch.bundles import k_dual
from hirzebruch.rings import LaurentY, render_y
from hirzebruch.transforms import (
    chi_y_genus, csm_arrangement, homology_dual, mhc_y, mht,
    pullback_smooth, pushforward, render_homology_on_projective,
    specialize_minus_one,
)

print("== From K-theory to homology ==")
p1 = sp.projective(1)
c = mhc_y(p1)
print("K-class of P1: rank (the degree-0 part)", p1.render_class(c.component(0)))
print("normalized ledger:  ", render_homology_on_projective(mht(c)))
print("unnormalized ledger:", render_homology_on_projective(mht(c, normalized=False)))

print()
print("== Open complements and the y = -1 limit ==")
for n, k in ((2, 0), (2, 2), (2, 3)):
    arr = sp.with_arrangement(sp.projective(n), k)
    ledger = mht(mhc_y(arr, "open_complement"))
    spec = sp.gysin_pushforward(sp.open_restriction(arr), specialize_minus_one(ledger))  # on P^n
    oracle = csm_arrangement(n, k)
    print(f"P{n} minus {k} lines: genus {render_y(chi_y_genus(arr, 'open_complement')):<14}"
          f" y=-1 class {render_homology_on_projective(spec):<20}"
          f" oracle match: {spec == oracle}")

print()
print("== Functoriality ==")
base = sp.projective(1)
E = sp.sum_of_line_bundles(base, [0, 1])
tot = sp.projective_bundle(base, E)
pi = sp.bundle_projection(tot)
print("going down: push of the total-space class equals (1 - y) times the base class:",
      pushforward(pi, mhc_y(tot)) == mhc_y(base) * LaurentY({0: 1, 1: -1}))
print("going up: smooth pullback rebuilds the total-space class:",
      pullback_smooth(pi, mhc_y(base)) == mhc_y(tot))

print()
print("== Duality ==")
p2 = sp.projective(2)
c2 = mhc_y(p2)
print("K-duality scales by (-y)^(-dim):",
      k_dual(c2) == c2 * LaurentY({-2: 1}))
print("homology duality intertwines:",
      homology_dual(mht(c2, normalized=False)) == mht(k_dual(c2), normalized=False))

print()
print("== The verification registry ==")
results = verify.run_suites("all")
for name, checks in results.items():
    passed = sum(1 for ck in checks if ck.ok)
    print(f"  {name:>16}: {passed}/{len(checks)}")
print("all identities verified:", verify.all_passed(results))
