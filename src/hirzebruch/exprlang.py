"""Surface syntax for the command line.

Two small languages live here:

* Motivic expressions over the atoms P<n>, A<n>, Gm, C<g>, L, pt with
  ``+ - *``, parentheses and integer scalar multiples (juxtaposition or
  ``*``), e.g. ``P2 - 2 P1 + pt``.
* Space specs: ``P<n>``, products ``<spec>x<spec>``, split projective
  bundles ``Proj(<base>; c1,...,cr)``, hypersurfaces ``Hyp(n,d)``, and
  arrangement complements ``Arr(n,k)``.

Parsers report a ``ParseError`` carrying the offset and the set of token
kinds acceptable at that point.  Nesting (parentheses, ``Proj(``, juxtaposed
scalars, chains of ``+ - *``) deeper than ``MAX_DEPTH`` is a ``ParseError``
where the tree is built, so evaluation and rendering never recurse deeper.
"""

from __future__ import annotations

import re

from .errors import ParseError
from . import motivic
from . import spaces as sp

MAX_DEPTH = 100


def _check_depth(depth, position):
    if depth > MAX_DEPTH:
        raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", position)


# -- motivic expressions ------------------------------------------------------


class Atom:
    __slots__ = ("name",)
    depth = 0

    def __init__(self, name):
        self.name = name

    def __eq__(self, other):
        return isinstance(other, Atom) and self.name == other.name

    def __repr__(self):
        return f"Atom({self.name})"


class IntLit:
    __slots__ = ("value",)
    depth = 0

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, IntLit) and self.value == other.value

    def __repr__(self):
        return f"IntLit({self.value})"


class BinOp:
    __slots__ = ("op", "left", "right", "depth")

    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right
        self.depth = 1 + max(left.depth, right.depth)

    def __eq__(self, other):
        return (isinstance(other, BinOp) and self.op == other.op
                and self.left == other.left and self.right == other.right)

    def __repr__(self):
        return f"BinOp({self.op}, {self.left!r}, {self.right!r})"


_ATOM_RE = re.compile(r"(P|A|C)(\d+)$|^(Gm|L|pt)$")


def _tokenize_expr(src):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            tokens.append(("int", src[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and src[j].isalnum():
                j += 1
            word = src[i:j]
            if not (_ATOM_RE.match(word)):
                raise ParseError(f"unknown atom {word!r}", i,
                                 {"P<n>", "A<n>", "C<g>", "Gm", "L", "pt"})
            tokens.append(("atom", word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


def parse_expr(src):
    """Parse a motivic expression into an AST of Atom/IntLit/BinOp nodes."""
    tokens = _tokenize_expr(src)
    pos = 0
    factor_start = {"atom", "int", "("}

    def peek():
        return tokens[pos] if pos < len(tokens) else ("end", "", len(src))

    def advance():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def binop(op, left, right, position):
        tree = BinOp(op, left, right)
        _check_depth(tree.depth, position)
        return tree

    def parse_factor(level):
        tok = peek()
        _check_depth(level, tok[2])
        if tok[0] == "atom":
            advance()
            return Atom(tok[1])
        if tok[0] == "int":
            advance()
            lit = IntLit(int(tok[1]))
            # integer juxtaposition: "2 P1" or "2(...)" is a scalar multiple
            if peek()[0] in factor_start:
                return binop("*", lit, parse_factor(level + 1), tok[2])
            return lit
        if tok[0] == "(":
            advance()
            inner = parse_sum(level + 1)
            closing = peek()
            if closing[0] != ")":
                raise ParseError("expected ')'", closing[2], {")"})
            advance()
            return inner
        raise ParseError(f"expected an atom, integer or '('", tok[2], factor_start)

    def parse_term(level):
        node = parse_factor(level)
        while peek()[0] == "*":
            op = advance()
            node = binop("*", node, parse_factor(level), op[2])
        return node

    def parse_sum(level):
        node = parse_term(level)
        while peek()[0] in ("+", "-"):
            op = advance()
            node = binop(op[0], node, parse_term(level), op[2])
        return node

    tree = parse_sum(0)
    tok = peek()
    if tok[0] != "end":
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2], {"+", "-", "*", "end"})
    return tree


def render(tree, parent_prec=0):
    """Deterministic rendering; parse(render(t)) == t."""
    if isinstance(tree, Atom):
        return tree.name
    if isinstance(tree, IntLit):
        return str(tree.value)
    prec = 1 if tree.op in "+-" else 2
    left = render(tree.left, prec)
    right = render(tree.right, prec + 1)
    sep = tree.op if tree.op == "*" else f" {tree.op} "
    body = f"{left}{sep}{right}"
    return f"({body})" if prec < parent_prec else body


def evaluate(tree):
    """Evaluate an AST to a MotivicClass."""
    if isinstance(tree, Atom):
        name = tree.name
        if name == "pt":
            return motivic.point()
        if name == "L":
            return motivic.lefschetz()
        if name == "Gm":
            return motivic.torus()
        kind, arg = name[0], int(name[1:])
        if kind == "P":
            return motivic.projective(arg)
        if kind == "A":
            return motivic.affine(arg)
        return motivic.curve(arg)
    if isinstance(tree, IntLit):
        return motivic.point() * tree.value
    left, right = evaluate(tree.left), evaluate(tree.right)
    if tree.op == "+":
        return left + right
    if tree.op == "-":
        return left - right
    return left * right


# -- space specs ---------------------------------------------------------------


_SPEC_TOKEN = re.compile(r"\s*(Proj|Hyp|Arr|P\d+|x|-?\d+|[();,])")


def _tokenize_spec(src):
    tokens = []
    i = 0
    while i < len(src):
        if src[i].isspace():
            i += 1
            continue
        m = _SPEC_TOKEN.match(src, i)
        if not m:
            raise ParseError(f"unexpected character {src[i]!r} in space spec", i)
        text = m.group(1)
        if text in ("Proj", "Hyp", "Arr", "x", "(", ")", ";", ","):
            kind = text
        elif text.startswith("P"):
            kind = "P"
        else:
            kind = "int"
        tokens.append((kind, text, i))
        i = m.end()
    return tokens


def parse_space(src):
    """Parse a space spec into a SpaceModel."""
    tokens = _tokenize_spec(src)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else ("end", "", len(src))

    def expect(kind):
        nonlocal pos
        tok = peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2], {kind})
        pos += 1
        return tok

    def parse_int():
        return int(expect("int")[1])

    def parse_atom(level):
        tok = peek()
        _check_depth(level, tok[2])
        if tok[0] == "P":
            expect("P")
            return sp.projective(int(tok[1][1:]))
        if tok[0] == "Proj":
            expect("Proj")
            expect("(")
            base = parse_product(level + 1)
            expect(";")
            twists = [parse_int()]
            while peek()[0] == ",":
                expect(",")
                twists.append(parse_int())
            expect(")")
            return sp.projective_bundle(base, sp.sum_of_line_bundles(base, twists))
        if tok[0] == "Hyp":
            expect("Hyp")
            expect("(")
            n = parse_int()
            expect(",")
            d = parse_int()
            expect(")")
            return sp.hypersurface(n, d)
        if tok[0] == "Arr":
            expect("Arr")
            expect("(")
            n = parse_int()
            expect(",")
            k = parse_int()
            expect(")")
            return sp.with_arrangement(sp.projective(n), k)
        if tok[0] == "(":
            expect("(")
            inner = parse_product(level + 1)
            expect(")")
            return inner
        raise ParseError("expected a space atom", tok[2], {"P<n>", "Proj", "Hyp", "Arr", "("})

    def parse_product(level):
        factors = [parse_atom(level)]
        while peek()[0] == "x":
            expect("x")
            factors.append(parse_atom(level))
        return sp.product(*factors) if len(factors) > 1 else factors[0]

    space = parse_product(0)
    tok = peek()
    if tok[0] != "end":
        raise ParseError(f"unexpected token {tok[1]!r} in space spec", tok[2], {"x", "end"})
    return space


def load_space(spec, read_file=None):
    """Resolve a --space argument: either a spec string or @path to a
    custom space document."""
    if spec.startswith("@"):
        path = spec[1:]
        if read_file is not None:
            text = read_file(path)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        return sp.from_document(text)
    return parse_space(spec)
