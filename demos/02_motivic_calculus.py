"""Cut-and-paste calculus in the Grothendieck ring of varieties.

Classes of varieties obey the scissor relation [X] = [Y] + [X \\ Y] for a
closed subvariety Y.  A class is its Hodge
realization, so these classes support exact genus computations for
everything we can cut out of projective spaces, tori, and curves.  Each
expression below is read as the command line reads it: parsed, folded into
its Hodge table, and labelled by the text of its parse tree.
"""

from hirzebruch import exprlang
from hirzebruch import motivic as mo
from hirzebruch import render_uv, render_y


def read(text):
    """The class an expression names, and the canonical text of it."""
    tree = exprlang.parse_expr(text)
    return exprlang.evaluate(tree), exprlang.render(tree)


print("== Atoms ==")
for text in ("pt", "L", "Gm", "P2", "C2"):
    cls, label = read(text)
    print(f"{label:>4}:  E = {render_uv(cls.e_polynomial())}")

print()
print("== Scissor relations ==")
print("P1 - pt == L:", mo.projective(1) - mo.point() == mo.lefschetz())
print("A1 - pt == Gm:", mo.affine(1) - mo.point() == mo.torus())
pn = mo.point()
for n in range(1, 4):
    pn = mo.affine(n) + pn
    print(f"A^{n} + P^{n-1} == P^{n}:", pn == mo.projective(n))

print()
print("== Hyperplane arrangement complements ==")
for k, text in enumerate(("P2", "P2 - P1", "P2 - 2 P1 + pt", "P2 - 3 P1 + 3 pt")):
    u, label = read(text)
    e = render_uv(u.e_polynomial())
    print(f"P2 minus {k} general lines: {label:<18} E = {e:<22} "
          f"matches arrangement_complement: {u == mo.arrangement_complement(2, k)}")

print()
print("== Duality ==")
p1 = mo.projective(1)
print("dual of [P1]:", p1.dual().triples(), " (this is L^(-1) [P1])")
print("involution:", p1.dual().dual() == p1)
c2 = mo.curve(2)
print("product compatibility:", (p1 * c2).dual() == p1.dual() * c2.dual())

print()
print("== Compactly supported genus of torus powers ==")
for n in range(1, 4):
    t = mo.torus() ** n
    print(f"Gm^{n}: chi^c_y = {render_y(t.chi_y())}")
