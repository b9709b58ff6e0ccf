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

# Maps the ASCII digits b"0" and b"1" to the bytes 0 and 1.
_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")


def _quoted(value):
    """repr(value) for a one-line message; past 100 characters, the value's length
    and type, and past 100 digits an int's size in bits (repr() may refuse it)."""
    if type(value) is int and abs(value) >= 10**100:
        return f"a {value.bit_length()}-bit int"
    shown = repr(value)
    if len(shown) > 100:
        return f"a {len(str(value))}-character {type(value).__name__}"
    return shown


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
        super().__init__(f"unknown atom {_quoted(name)}")
        self.name = name


class SymbolTable:
    """Ordered, immutable list of distinct atom names.

    The order is fixed at construction and determines the valuation
    encoding: symbols[0] is the most significant bit of a valuation
    index, so index order matches conventional truth-table row order
    (all-false first, all-true last). At most MAX_SYMBOLS names, so every
    2^n-bit mask, full_mask first, is built within the cap.
    """

    __slots__ = ("symbols", "_positions", "num_valuations", "full_mask")

    def __init__(self, symbols):
        syms = tuple(symbols)
        if not syms:
            raise ValueError("symbol table must not be empty")
        seen = set()
        for name in syms:
            if not isinstance(name, str) or not ATOM_RE.fullmatch(name):
                raise ValueError(f"invalid atom name {_quoted(name)}")
            if name in seen:
                raise ValueError(f"duplicate atom name {_quoted(name)}")
            seen.add(name)
        if len(syms) > MAX_SYMBOLS:
            raise ValueError(f"{len(syms)} symbols exceeds the enumeration cap of {MAX_SYMBOLS}")
        self.symbols = syms
        self._positions = {name: i for i, name in enumerate(syms)}
        self.num_valuations = 1 << len(syms)
        self.full_mask = (1 << self.num_valuations) - 1

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

    def valuation(self, index):
        return Valuation(self, index)

    def assignment(self, index):
        """{name: 0/1} of the valuation with this index, built without a Valuation."""
        if not 0 <= index < self.num_valuations:
            raise ValueError(f"valuation index {index} out of range")
        # the bit above the top one pads the digits to exactly n
        digits = bin(index | self.num_valuations)[3:].encode()
        return dict(zip(self.symbols, digits.translate(_DIGIT_BITS)))

    def valuations(self):
        """All valuations in index order."""
        return [Valuation(self, i) for i in range(self.num_valuations)]

    def index_of(self, assignment):
        """Valuation index of a {name: 0/1} mapping covering every symbol."""
        missing = [s for s in self.symbols if s not in assignment]
        if missing:
            raise ValueError(f"assignment missing symbols {_quoted(missing)}")
        extra = [s for s in assignment if s not in self._positions]
        if extra:
            raise UnknownAtomError(extra[0])
        index = 0
        for name in self.symbols:
            bit = assignment[name]
            if type(bit) not in (int, bool) or bit not in (0, 1):  # 1.0 == 1
                raise ValueError(f"truth value for {_quoted(name)} must be 0 or 1")
            index = (index << 1) | int(bit)
        return index


@dataclass(frozen=True, slots=True, repr=False)
class Valuation:
    """One truth assignment, encoded as an integer in [0, 2^n).

    symbols[0] maps to the most significant bit, so enumerating indices
    0..2^n-1 walks the truth table top to bottom. A frozen value, equal
    and hashed on (table, index).
    """

    table: SymbolTable
    index: int

    def __post_init__(self):
        if not 0 <= self.index < self.table.num_valuations:
            raise ValueError(f"valuation index {self.index} out of range")

    def __reduce__(self):
        return Valuation, (self.table, self.index)

    def value(self, name):
        n = len(self.table)
        return (self.index >> (n - 1 - self.table.position(name))) & 1

    def assignment(self):
        return self.table.assignment(self.index)

    def __repr__(self):
        inner = ",".join(f"{k}={v}" for k, v in self.assignment().items())
        return f"Valuation({inner})"


# --- AST ---------------------------------------------------------------


class Formula:
    """Base class; concrete nodes are the frozen dataclasses below."""

    __slots__ = ()

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, vars(self).values()))})"

    def __and__(self, other):
        return And(self, other)

    def __or__(self, other):
        return Or(self, other)

    def __invert__(self):
        return Not(self)


@dataclass(frozen=True, repr=False)
class Atom(Formula):
    name: str


@dataclass(frozen=True, repr=False)
class Top(Formula):
    pass


@dataclass(frozen=True, repr=False)
class Bottom(Formula):
    pass


@dataclass(frozen=True, repr=False)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True, repr=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class Iff(Formula):
    left: Formula
    right: Formula


# The grammar, for render and the parser (atoms and constants bind at 6).
_TOKEN_OF = {Iff: "<->", Implies: "->", Or: "|", And: "&"}
_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5}
_RIGHT_ASSOC = (Implies, Iff)


def _postorder(f):
    """The nodes of f, each after its operands, left operand first.

    An explicit-stack walk, so any depth is taken: the pre-order that
    visits right operands first, reversed.
    """
    order = []
    stack = [f]
    while stack:
        node = stack.pop()
        order.append(node)
        if node.__class__ is Not:
            stack.append(node.arg)
        elif node.__class__ in _TOKEN_OF:
            stack += node.left, node.right
    return reversed(order)


def atoms(f):
    """Set of atom names occurring in f."""
    return {node.name for node in _postorder(f) if node.__class__ is Atom}


@lru_cache(maxsize=None)
def _atom_mask(n, bit):
    """Mask of the indices in [0, 2^n) whose bit `bit` is set.

    Built by doubling one period of the pattern. Cached per (n, bit): n
    entries per table size, so at most 210 under the cap of 20 symbols.
    """
    half = 1 << bit
    mask = ((1 << half) - 1) << half
    for k in range(bit + 1, n):
        mask |= mask << (1 << k)
    return mask


def _fold(f, atom_value, full):
    """f's value from atom_value(name) at each atom: ~x is full ^ x, true is full.

    Over _postorder(f), so any depth is taken; a binary node pops its
    right operand first.
    """
    values = []
    push, pop = values.append, values.pop
    for node in _postorder(f):
        cls = node.__class__
        if cls is Atom:
            push(atom_value(node.name))
        elif cls is And:
            push(pop() & pop())
        elif cls is Or:
            push(pop() | pop())
        elif cls is Not:
            push(full ^ pop())
        elif cls is Implies:
            push(pop() | (full ^ pop()))
        elif cls is Iff:
            push(full ^ pop() ^ pop())
        elif cls is Top:
            push(full)
        elif cls is Bottom:
            push(0)
        else:
            raise TypeError(f"not a formula: {node!r}")
    return values[0]


def evaluate(f, v):
    """Truth value of f under valuation v, in {0, 1}: f folded over one-bit values."""
    return _fold(f, v.value, 1)


def truth_mask(f, table):
    """Bitmask of satisfying valuation indices: bit i set iff f holds at index i.

    _fold over masks, so any depth compiles. Only atom masks are cached;
    a composite costs one big-int operation per node (two for -> and <->).
    """
    n = len(table)
    return _fold(f, lambda name: _atom_mask(n, n - 1 - table.position(name)), table.full_mask)


# --- Rendering ---------------------------------------------------------


def _bracketed(rope, operand, floor):
    """rope, the rendering of operand, in parentheses if operand binds below floor."""
    return rope if _PREC.get(operand.__class__, 6) >= floor else ("(", rope, ")")


def render(f):
    """Concrete syntax for f with minimal parentheses; parse(render(f)) == f.

    Walks _postorder(f), keeping each operand's text as a rope of nested
    tuples, joined once at the end: a deep chain is not copied per level.
    """
    ropes = []
    push, pop = ropes.append, ropes.pop
    for node in _postorder(f):
        cls = node.__class__
        if cls is Atom:
            push(node.name)
        elif cls is Top:
            push("true")
        elif cls is Bottom:
            push("false")
        elif cls is Not:
            push(("~", _bracketed(pop(), node.arg, _PREC[Not])))
        elif cls in _TOKEN_OF:
            # an operand of the same precedence is bracketed on the side the
            # operator does not group to: the left for -> and <->, else the right
            p, right_assoc = _PREC[cls], cls in _RIGHT_ASSOC
            right = _bracketed(pop(), node.right, p + (not right_assoc))
            left = _bracketed(pop(), node.left, p + right_assoc)
            push((left, f" {_TOKEN_OF[cls]} ", right))
        else:
            raise TypeError(f"not a formula: {node!r}")
    pieces = []
    while ropes:
        rope = pop()
        if rope.__class__ is str:
            pieces.append(rope)
        else:
            ropes += reversed(rope)
    return "".join(pieces)


# --- Parsing -----------------------------------------------------------

# Names, operators, and any other non-space character as a token of its
# own: a stray character, reported only when the parse fails.
_TOKEN_RE = re.compile(ATOM_RE.pattern + r"|<->|->|[~!&|()]|\S")
_END = "<end>"
_PREFIX = {"~": Not, "!": Not, "(": None}  # None marks an open parenthesis
_BINARY = {tok: cls for cls, tok in _TOKEN_OF.items()}
_OPERATORS = frozenset(("~", "!", "(", ")", *_BINARY))
# Stacked operators whose _PREC is at least the entry of the incoming one
# are reduced first; right-associative operators enter one above their
# own _PREC, and ")" and the end of text (None) reduce every operator.
_ENTRY = {cls: _PREC[cls] + (cls in _RIGHT_ASSOC) for cls in _TOKEN_OF} | {None: 1}


def _positions(text):
    """Offsets of the tokens of text, then len(text); raises at a stray character."""
    positions = []
    for m in _TOKEN_RE.finditer(text):
        tok = m.group()
        if tok not in _OPERATORS and not ATOM_RE.fullmatch(tok):
            raise SyntaxError_(f"unexpected character {tok!r}", m.start())
        positions.append(m.start())
    return positions + [len(text)]


def parse_formula(text, table=None):
    """Parse text into a Formula, validating atoms against table when given.

    Operator precedence over an operand stack and an operator stack, so
    any nesting depth parses. A stray character anywhere is reported
    first; otherwise the first token, left to right, that cannot continue
    the formula or names an atom missing from table.
    """
    if text and not isinstance(text, str):
        raise FormulaError(f"formula must be a string, not {type(text).__name__}")
    if not text or not text.strip():
        raise SyntaxError_("empty formula", 0)
    tokens = _TOKEN_RE.findall(text) + [_END]
    leaves = {"true": Top(), "false": Bottom()}
    operands = []
    ops = []  # Not, binary node classes and open parentheses (None)
    depth = 0
    want_operand = True
    for i, tok in enumerate(tokens):
        if want_operand:
            if tok in _PREFIX:
                ops.append(_PREFIX[tok])
                depth += tok == "("
                continue
            node = leaves.get(tok)
            if node is None:
                if not ATOM_RE.fullmatch(tok):
                    raise SyntaxError_(f"unexpected token {_quoted(tok)}", _positions(text)[i])
                if table is not None and tok not in table:
                    _positions(text)  # a stray character outranks the atom
                    raise UnknownAtomError(tok)
                node = leaves[tok] = Atom(tok)
        else:
            cls = _BINARY.get(tok)
            if cls is None and tok != (")" if depth else _END):
                expected = "expected ')', found" if depth else "unexpected token"
                raise SyntaxError_(f"{expected} {_quoted(tok)}", _positions(text)[i])
            entry = _ENTRY[cls]
            while ops and ops[-1] is not None and _PREC[ops[-1]] >= entry:
                right = operands.pop()
                operands[-1] = ops.pop()(operands[-1], right)
            if cls is not None:
                ops.append(cls)
                want_operand = True
                continue
            if not depth:
                return operands[0]
            ops.pop()
            depth -= 1
            node = operands.pop()
        while ops and ops[-1] is Not:
            ops.pop()
            node = Not(node)
        operands.append(node)
        want_operand = False
