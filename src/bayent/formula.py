"""Propositional formulas: symbol tables, ASTs, parsing, rendering, evaluation.

Concrete syntax
---------------
atoms       [a-z][a-z0-9_]*
constants   true, false
operators   ~ or ! (not), & (and), | (or), -> (implies), <-> (iff)
precedence  ~  >  &  >  |  >  ->  >  <->
`->` and `<->` are right-associative; `&` and `|` are left-associative.
Parentheses group as usual.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

ATOM_RE = re.compile(r"[a-z][a-z0-9_]*")

MAX_SYMBOLS = 20


class FormulaError(Exception):
    """Base for all formula-layer errors."""


class SyntaxError_(FormulaError):
    """Malformed formula text. Carries the 0-based offset of the offending token."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownAtomError(FormulaError):
    """An atom not present in the governing symbol table."""

    def __init__(self, name):
        super().__init__(f"unknown atom {name!r}")
        self.name = name


class SymbolTable:
    """Ordered, immutable list of distinct atom names.

    The order is fixed at construction and determines the valuation
    encoding: symbols[0] is the most significant bit of a valuation
    index, so index order matches conventional truth-table row order
    (all-false first, all-true last).
    """

    __slots__ = ("symbols", "_positions")

    def __init__(self, symbols):
        syms = tuple(symbols)
        if not syms:
            raise ValueError("symbol table must not be empty")
        seen = set()
        for name in syms:
            if not isinstance(name, str) or not ATOM_RE.fullmatch(name):
                raise ValueError(f"invalid atom name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate atom name {name!r}")
            seen.add(name)
        self.symbols = syms
        self._positions = {name: i for i, name in enumerate(syms)}

    def __len__(self):
        return len(self.symbols)

    def __contains__(self, name):
        return name in self._positions

    def __iter__(self):
        return iter(self.symbols)

    def __eq__(self, other):
        return isinstance(other, SymbolTable) and self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __repr__(self):
        return f"SymbolTable({list(self.symbols)!r})"

    def position(self, name):
        try:
            return self._positions[name]
        except KeyError:
            raise UnknownAtomError(name) from None

    @property
    def num_valuations(self):
        return 1 << len(self.symbols)

    def valuation(self, index):
        return Valuation(self, index)

    def valuations(self):
        """All valuations in index order."""
        return [Valuation(self, i) for i in range(self.num_valuations)]

    def valuation_from_assignment(self, assignment):
        """Build a valuation from a {name: 0/1} mapping covering every symbol."""
        missing = [s for s in self.symbols if s not in assignment]
        if missing:
            raise ValueError(f"assignment missing symbols {missing}")
        extra = [s for s in assignment if s not in self._positions]
        if extra:
            raise UnknownAtomError(extra[0])
        index = 0
        for name in self.symbols:
            bit = assignment[name]
            if bit not in (0, 1, True, False):
                raise ValueError(f"truth value for {name!r} must be 0 or 1")
            index = (index << 1) | int(bit)
        return Valuation(self, index)


@dataclass(frozen=True)
class Valuation:
    """One truth assignment, encoded as an integer in [0, 2^n).

    symbols[0] maps to the most significant bit, so enumerating indices
    0..2^n-1 walks the truth table top to bottom.
    """

    table: SymbolTable
    index: int

    def __post_init__(self):
        if not 0 <= self.index < self.table.num_valuations:
            raise ValueError(f"valuation index {self.index} out of range")

    @property
    def bits(self):
        n = len(self.table)
        return tuple((self.index >> (n - 1 - i)) & 1 for i in range(n))

    def value(self, name):
        n = len(self.table)
        return (self.index >> (n - 1 - self.table.position(name))) & 1

    def assignment(self):
        return dict(zip(self.table.symbols, self.bits))

    def __repr__(self):
        inner = ",".join(f"{k}={v}" for k, v in self.assignment().items())
        return f"Valuation({inner})"


# --- AST ---------------------------------------------------------------


class Formula:
    """Base class; concrete nodes are the frozen dataclasses below."""

    __slots__ = ()

    def __str__(self):
        return render(self)

    def __and__(self, other):
        return And(self, other)

    def __or__(self, other):
        return Or(self, other)

    def __invert__(self):
        return Not(self)


@dataclass(frozen=True, repr=False)
class Atom(Formula):
    name: str

    def __repr__(self):
        return f"Atom({self.name!r})"


@dataclass(frozen=True, repr=False)
class Top(Formula):
    def __repr__(self):
        return "Top()"


@dataclass(frozen=True, repr=False)
class Bottom(Formula):
    def __repr__(self):
        return "Bottom()"


@dataclass(frozen=True, repr=False)
class Not(Formula):
    arg: Formula

    def __repr__(self):
        return f"Not({self.arg!r})"


@dataclass(frozen=True, repr=False)
class And(Formula):
    left: Formula
    right: Formula

    def __repr__(self):
        return f"And({self.left!r}, {self.right!r})"


@dataclass(frozen=True, repr=False)
class Or(Formula):
    left: Formula
    right: Formula

    def __repr__(self):
        return f"Or({self.left!r}, {self.right!r})"


@dataclass(frozen=True, repr=False)
class Implies(Formula):
    left: Formula
    right: Formula

    def __repr__(self):
        return f"Implies({self.left!r}, {self.right!r})"


@dataclass(frozen=True, repr=False)
class Iff(Formula):
    left: Formula
    right: Formula

    def __repr__(self):
        return f"Iff({self.left!r}, {self.right!r})"


def atoms(f):
    """Set of atom names occurring in f."""
    found = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            found.add(node.name)
        elif isinstance(node, Not):
            stack.append(node.arg)
        elif isinstance(node, (And, Or, Implies, Iff)):
            stack.append(node.left)
            stack.append(node.right)
    return found


def evaluate(f, v):
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
        return 1 - evaluate(f.arg, v)
    if isinstance(f, And):
        return evaluate(f.left, v) & evaluate(f.right, v)
    if isinstance(f, Or):
        return evaluate(f.left, v) | evaluate(f.right, v)
    if isinstance(f, Implies):
        return (1 - evaluate(f.left, v)) | evaluate(f.right, v)
    if isinstance(f, Iff):
        return 1 - (evaluate(f.left, v) ^ evaluate(f.right, v))
    raise TypeError(f"not a formula: {f!r}")


@lru_cache(maxsize=None)
def _atom_mask(n, bit):
    """Mask of the indices in [0, 2^n) whose bit `bit` is set.

    Built by doubling one period of the pattern. Cached per (n, bit), so
    at most n entries per table size.
    """
    half = 1 << bit
    mask = ((1 << half) - 1) << half
    for k in range(bit + 1, n):
        mask |= mask << (1 << k)
    return mask


def truth_mask(f, table):
    """Bitmask of satisfying valuation indices: bit i set iff f holds at index i.

    Only atom masks are cached; a composite costs a few big-int
    operations per node.
    """
    full = (1 << table.num_valuations) - 1
    if isinstance(f, Atom):
        return _atom_mask(len(table), len(table) - 1 - table.position(f.name))
    if isinstance(f, Top):
        return full
    if isinstance(f, Bottom):
        return 0
    if isinstance(f, Not):
        return full ^ truth_mask(f.arg, table)
    if isinstance(f, And):
        return truth_mask(f.left, table) & truth_mask(f.right, table)
    if isinstance(f, Or):
        return truth_mask(f.left, table) | truth_mask(f.right, table)
    if isinstance(f, Implies):
        return (full ^ truth_mask(f.left, table)) | truth_mask(f.right, table)
    if isinstance(f, Iff):
        return full ^ truth_mask(f.left, table) ^ truth_mask(f.right, table)
    raise TypeError(f"not a formula: {f!r}")


# --- Rendering ---------------------------------------------------------

_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5}
_TOKEN_OF = {Iff: "<->", Implies: "->", Or: "|", And: "&"}
_RIGHT_ASSOC = (Implies, Iff)


def _prec(f):
    return _PREC.get(type(f), 6)


def render(f):
    """Concrete syntax for f with minimal parentheses; parse(render(f)) == f."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Not):
        inner = render(f.arg)
        if _prec(f.arg) < _PREC[Not]:
            inner = f"({inner})"
        return f"~{inner}"
    p = _PREC[type(f)]
    op = _TOKEN_OF[type(f)]
    left, right = render(f.left), render(f.right)
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


# --- Parsing -----------------------------------------------------------

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


def parse_formula(text, table=None):
    """Parse text into a Formula, validating atoms against table when given."""
    if not text or not text.strip():
        raise SyntaxError_("empty formula", 0)
    parser = _Parser(_tokenize(text), table)
    node = parser.parse_iff()
    if parser.peek() != "<end>":
        raise SyntaxError_(f"unexpected token {parser.peek()!r}", parser.pos())
    return node
