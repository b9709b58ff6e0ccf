"""Test-only oracle: the recursive parser, mask compiler, evaluator and renderer.

These are the formula layer's earlier implementations, kept verbatim so
that property tests can check the explicit-stack versions in
bayent.formula against them: same AST, or the same error class, message
and position, and the same truth mask, truth value and text.
"""

import re

from bayent.formula import (
    _PREC,
    _RIGHT_ASSOC,
    _TOKEN_OF,
    ATOM_RE,
    And,
    Atom,
    Bottom,
    FormulaError,
    Iff,
    Implies,
    Not,
    Or,
    SyntaxError_,
    Top,
    UnknownAtomError,
    _atom_mask,
)


def old_truth_mask(f, table):
    """Bitmask of satisfying valuation indices, by recursion over f."""
    full = (1 << table.num_valuations) - 1
    if isinstance(f, Atom):
        return _atom_mask(len(table), len(table) - 1 - table.position(f.name))
    if isinstance(f, Top):
        return full
    if isinstance(f, Bottom):
        return 0
    if isinstance(f, Not):
        return full ^ old_truth_mask(f.arg, table)
    if isinstance(f, And):
        return old_truth_mask(f.left, table) & old_truth_mask(f.right, table)
    if isinstance(f, Or):
        return old_truth_mask(f.left, table) | old_truth_mask(f.right, table)
    if isinstance(f, Implies):
        return (full ^ old_truth_mask(f.left, table)) | old_truth_mask(f.right, table)
    if isinstance(f, Iff):
        return full ^ old_truth_mask(f.left, table) ^ old_truth_mask(f.right, table)
    raise TypeError(f"not a formula: {f!r}")


def old_evaluate(f, v):
    """Truth value of f under valuation v, in {0, 1}.

    Implication and biconditional reduce to their definitions over
    negation, conjunction and disjunction.
    """
    if isinstance(f, Atom):
        return v.value(f.name)
    if isinstance(f, Top):
        return 1
    if isinstance(f, Bottom):
        return 0
    if isinstance(f, Not):
        return 1 - old_evaluate(f.arg, v)
    if isinstance(f, And):
        return old_evaluate(f.left, v) & old_evaluate(f.right, v)
    if isinstance(f, Or):
        return old_evaluate(f.left, v) | old_evaluate(f.right, v)
    if isinstance(f, Implies):
        return (1 - old_evaluate(f.left, v)) | old_evaluate(f.right, v)
    if isinstance(f, Iff):
        return 1 - (old_evaluate(f.left, v) ^ old_evaluate(f.right, v))
    raise TypeError(f"not a formula: {f!r}")


def _prec(f):
    return _PREC.get(type(f), 6)


def old_render(f):
    """Concrete syntax for f with minimal parentheses; parse(render(f)) == f."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Not):
        inner = old_render(f.arg)
        if _prec(f.arg) < _PREC[Not]:
            inner = f"({inner})"
        return f"~{inner}"
    p = _PREC[type(f)]
    op = _TOKEN_OF[type(f)]
    left, right = old_render(f.left), old_render(f.right)
    if isinstance(f, _RIGHT_ASSOC):
        if _prec(f.left) <= p:
            left = f"({left})"
        if _prec(f.right) < p:
            right = f"({right})"
    else:
        if _prec(f.left) < p:
            left = f"({left})"
        if _prec(f.right) <= p:
            right = f"({right})"
    return f"{left} {op} {right}"


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[a-z][a-z0-9_]*)|(?P<op><->|->|[~!&|()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            where = len(text) - len(stripped)
            raise SyntaxError_(f"unexpected character {text[where]!r}", where)
        if m.group("name"):
            tokens.append((m.group("name"), m.start("name")))
        else:
            tokens.append((m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("<end>", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, table):
        self.tokens = tokens
        self.table = table
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def pos(self):
        return self.tokens[self.i][1]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, token):
        if self.peek() != token:
            raise SyntaxError_(f"expected {token!r}, found {self.peek()!r}", self.pos())
        return self.advance()

    def parse_iff(self):
        left = self.parse_implies()
        if self.peek() == "<->":
            self.advance()
            return Iff(left, self.parse_iff())
        return left

    def parse_implies(self):
        left = self.parse_or()
        if self.peek() == "->":
            self.advance()
            return Implies(left, self.parse_implies())
        return left

    def parse_or(self):
        node = self.parse_and()
        while self.peek() == "|":
            self.advance()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_unary()
        while self.peek() == "&":
            self.advance()
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self):
        tok, pos = self.tokens[self.i]
        if tok in ("~", "!"):
            self.advance()
            return Not(self.parse_unary())
        if tok == "(":
            self.advance()
            node = self.parse_iff()
            self.expect(")")
            return node
        if tok == "true":
            self.advance()
            return Top()
        if tok == "false":
            self.advance()
            return Bottom()
        if ATOM_RE.fullmatch(tok):
            self.advance()
            if self.table is not None and tok not in self.table:
                raise UnknownAtomError(tok)
            return Atom(tok)
        raise SyntaxError_(f"unexpected token {tok!r}", pos)


def old_parse_formula(text, table=None):
    """Parse text into a Formula by recursive descent, validating atoms against table."""
    if text and not isinstance(text, str):
        raise FormulaError(f"formula must be a string, not {type(text).__name__}")
    if not text or not text.strip():
        raise SyntaxError_("empty formula", 0)
    parser = _Parser(_tokenize(text), table)
    node = parser.parse_iff()
    if parser.peek() != "<end>":
        raise SyntaxError_(f"unexpected token {parser.peek()!r}", parser.pos())
    return node
