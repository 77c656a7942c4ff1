"""Surface syntax for the command line.

Two small languages live here:

* Motivic expressions over the atoms P<n>, A<n>, Gm, C<g>, L, pt with
  ``+ - *``, parentheses, integer scalar multiples (juxtaposition or
  ``*``, e.g. ``P2 - 2 P1 + pt``), powers ``X^n`` with a nonnegative
  integer literal n, the duality involution ``D(X)``, and signed integer
  literals ``-n`` where a factor starts (a binary ``-`` is read first, so
  ``P2 -1`` is ``P2 - 1``).  ``parse_expr`` returns a parse tree
  (``("atom", "P2")``, ``("mul", left, right)``, ...), ``evaluate`` folds
  it into the ``HodgeDiamond`` table of the class it names, and ``render``
  writes it back, so every tree the renderer writes parses back to itself:
  ``parse_expr(render(t)) == t``.
* Space specs: ``P<n>``, products ``<spec>x<spec>``, split projective
  bundles ``Proj(<base>; c1,...,cr)``, hypersurfaces ``Hyp(n,d)``, and
  arrangement complements ``Arr(n,k)``.

Both read their input through ``rings.Tokens``.  Parsers report a
``ParseError`` carrying the offset and the set of token kinds acceptable at
that point.  Nesting deeper than ``MAX_DEPTH`` is a ``ParseError`` where the
tree is built, so evaluation and rendering never recurse deeper: each
parenthesis, ``D(``, ``Proj(`` and juxtaposed scalar opens one level, each
``+ - *`` node counts one, and a power counts as the product it stands for:
``X^n`` counts n - 1 (at least one), ``(X^a)^b`` counts ab - 1.
"""

from __future__ import annotations

import operator
import re

from .errors import ParseError
from .rings import Tokens, read_int

MAX_DEPTH = 100


def _check_depth(depth, position):
    if depth > MAX_DEPTH:
        raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", position)


# -- motivic expressions ------------------------------------------------------


# Parse trees are nested tuples, one kind per production of the grammar:
#   ("atom", label), ("int", n), ("add"|"sub"|"mul", left, right),
#   ("pow", tree, n) with n >= 0, ("dual", tree)
# An integer factor on either side, and unary minus, make
# ("mul", ("int", n), tree).

_EXPR_TOKEN = re.compile(r"(?P<int>\d+)|(?P<op>[-+*()^]|D\()")
_ATOM_RE = re.compile(r"(P|A|C)(\d+)$|^(Gm|L|pt)$")
_ATOM_NAMES = {"P<n>", "A<n>", "C<g>", "Gm", "L", "pt"}
_FACTOR_START = {"atom", "int", "(", "D("}
_BINARY = {"+": "add", "-": "sub", "*": "mul"}


def _atom_kind(word, offset):
    m = _ATOM_RE.match(word)
    if not m:
        raise ParseError(f"unknown atom {word!r}", offset, _ATOM_NAMES)
    if m.group(2):  # an index int() cannot read is refused here, not in evaluate
        read_int(m.group(2), offset)
    return "atom"


def parse_expr(src):
    """Parse a motivic expression into a parse tree."""
    toks = Tokens(src, _EXPR_TOKEN, str.isalnum, _atom_kind)

    # each parser returns (tree, depth): depth counts the +, -, * and ^
    # levels, `level` the open parentheses, D( and juxtapositions
    def binary(kind, left, right, position):
        depth = 1 + max(left[1], right[1])
        _check_depth(depth, position)
        return (kind, left[0], right[0]), depth

    def parse_factor(level):
        kind, value, at = toks.peek()
        _check_depth(level, at)
        after = toks.peek(1)
        if kind == "-" and after[0] == "int" and after[2] == at + 1:  # signed literal
            toks.take()
            kind, value = "int", -after[1]
        if kind == "int":
            toks.take()
            lit = (("int", value), 0)
            # integer juxtaposition: "2 P1" or "2(...)" is a scalar multiple
            if toks.peek()[0] in _FACTOR_START:
                return binary("mul", lit, parse_factor(level + 1), at)
            node = lit
        elif kind == "atom":
            toks.take()
            node = (("atom", value), 0)
        elif kind in ("(", "D("):
            toks.take()
            inner, depth = parse_sum(level + 1)
            toks.take(")")
            node = (inner if kind == "(" else ("dual", inner)), depth
        else:
            raise ParseError("expected an atom, integer, '(' or 'D('", at, _FACTOR_START)
        while toks.peek()[0] == "^":
            at = toks.take()[2]
            n = toks.take("int")[1]
            depth = (node[1] + 1) * max(n, 2) - 1
            _check_depth(depth, at)
            node = ("pow", node[0], n), depth
        return node

    def parse_term(level):
        node = parse_factor(level)
        while toks.peek()[0] == "*":
            at = toks.take()[2]
            node = binary("mul", node, parse_factor(level), at)
        return node

    def parse_sum(level):
        node = parse_term(level)
        while toks.peek()[0] in ("+", "-"):
            op, _, at = toks.take()
            node = binary(_BINARY[op], node, parse_term(level), at)
        return node

    tree = parse_sum(0)[0]
    kind, value, at = toks.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {value!r}", at, {"+", "-", "*", "^", "end"})
    return tree


_PREC = {"add": 1, "sub": 1, "mul": 2, "pow": 3}
_OPS = {"add": " + ", "sub": " - ", "mul": "*"}


def render(tree):
    """The text of a parse tree.  A right operand of equal precedence is
    parenthesized, so ``parse_expr(render(t)) == t``."""

    def write(node, parent_prec=0):
        kind = node[0]
        if kind == "atom":
            return node[1]
        if kind == "int":
            return str(node[1])
        if kind == "dual":
            return f"D({write(node[1])})"
        prec = _PREC[kind]
        if kind == "pow":
            body = f"{write(node[1], prec)}^{node[2]}"
        else:
            body = f"{write(node[1], prec)}{_OPS[kind]}{write(node[2], prec + 1)}"
        return f"({body})" if prec < parent_prec else body

    return write(tree)


_ATOMS = {"pt": "point", "L": "lefschetz", "Gm": "torus",
          "P": "projective", "A": "affine", "C": "curve"}  # the motivic constructors
_APPLY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def evaluate(tree):
    """Fold a parse tree into the ``HodgeDiamond`` of the class it names."""
    from . import motivic
    from .hodge import HodgeDiamond

    def build(node):
        kind = node[0]
        if kind == "atom":
            name = node[1]
            if name in _ATOMS:
                return getattr(motivic, _ATOMS[name])()
            return getattr(motivic, _ATOMS[name[0]])(int(name[1:]))
        if kind == "int":
            return HodgeDiamond.point() * node[1]
        if kind == "pow":
            return build(node[1]) ** node[2]
        if kind == "dual":
            return build(node[1]).dual()
        return _APPLY[kind](build(node[1]), build(node[2]))

    return build(tree)


# -- space specs ---------------------------------------------------------------


_SPEC_TOKEN = re.compile(r"(?P<op>Proj|Hyp|Arr|x|[();,])|(?P<P>P\d+)|(?P<int>-?\d+)")


def parse_space(src):
    """Parse a space spec into a SpaceModel."""
    from . import spaces as sp
    toks = Tokens(src, _SPEC_TOKEN, where=" in space spec")
    take = toks.take

    def parse_atom(level):
        kind, value, at = toks.peek()
        _check_depth(level, at)
        if kind == "P":
            take()
            return sp.projective(read_int(value[1:], at))
        if kind == "(":
            take()
            inner = parse_product(level + 1)
            take(")")
            return inner
        if kind == "Proj":
            take()
            take("(")
            base = parse_product(level + 1)
            take(";")
            twists = [take("int")[1]]
            while toks.peek()[0] == ",":
                take()
                twists.append(take("int")[1])
            take(")")
            return sp.projective_bundle(base, sp.sum_of_line_bundles(base, twists))
        if kind in ("Hyp", "Arr"):
            take()
            take("(")
            n = take("int")[1]
            take(",")
            m = take("int")[1]
            take(")")
            return sp.hypersurface(n, m) if kind == "Hyp" else \
                sp.with_arrangement(sp.projective(n), m)
        raise ParseError("expected a space atom", at, {"P<n>", "Proj", "Hyp", "Arr", "("})

    def parse_product(level):
        factors = [parse_atom(level)]
        while toks.peek()[0] == "x":
            take()
            factors.append(parse_atom(level))
        return sp.product(*factors) if len(factors) > 1 else factors[0]

    space = parse_product(0)
    kind, value, at = toks.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {value!r} in space spec", at, {"x", "end"})
    return space


def load_space(spec):
    """Resolve a --space argument: either a spec string or @path to a custom
    space document in UTF-8, decoded whole (ParseError at a byte that is not)."""
    if spec.startswith("@"):
        from .spaces import from_document
        try:
            with open(spec[1:], "r", encoding="utf-8") as fh:
                return from_document(fh.read())
        except UnicodeDecodeError as exc:
            raise ParseError(f"byte {exc.object[exc.start]:#04x} is not UTF-8", exc.start) from None
    return parse_space(spec)
