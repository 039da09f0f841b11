"""Modal formula AST, parser, printer, and subformula closures.

The core language has exactly four node kinds: atoms, falsum, implication
and box.  Negation, diamond, conjunction and disjunction are surface syntax
only and desugar at parse time:

    !a      a -> bot
    <>a     !([]!a)
    a & b   !(a -> !b)
    a | b   !a -> b

ASCII grammar (precedence: prefix > '&' > '|' > '->', '->' right-assoc)::

    formula := imp
    imp     := or ('->' imp)?
    or      := and ('|' and)*
    and     := unary ('&' unary)*
    unary   := '!' unary | '[]' unary | '<>' unary | 'bot' | atom | '(' formula ')'
    atom    := [a-z][A-Za-z0-9_]*
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

ATOM_RE = re.compile(r"[a-z][A-Za-z0-9_]*")
RESERVED = frozenset({"bot"})


class FormulaError(ValueError):
    """Malformed formula construction (bad atom name, unbound metavariable...)."""


class ParseError(FormulaError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Formula:
    """Base class for the four core node kinds.

    Each node caches its hash, computed at construction from its children's
    cached hashes, so hashing never walks a subtree.  Equality walks both
    trees together over an explicit stack, so it never recurses, and it
    compares each pair of nodes once, so shared subtrees cost no more than
    their distinct nodes.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return print_formula(self)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        stack, seen = [(self, other)], set()
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            t = type(a)
            if t is not type(b) or a._hash != b._hash:
                return False
            if t is Implies:
                pair = (id(a), id(b))
                if pair not in seen:
                    seen.add(pair)
                    stack += ((a.right, b.right), (a.left, b.left))
            elif t is Box:
                stack.append((a.operand, b.operand))
            elif t is Atom and a.name != b.name:
                return False
        return True


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    name: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not ATOM_RE.fullmatch(self.name):
            raise FormulaError(f"invalid atom name {self.name!r}")
        if self.name in RESERVED:
            raise FormulaError(f"atom name {self.name!r} is a reserved word")
        object.__setattr__(self, "_hash", hash((0, self.name)))

    __hash__ = Formula.__hash__


@dataclass(frozen=True, slots=True)
class Falsum(Formula):
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((1,)))

    __hash__ = Formula.__hash__


@dataclass(frozen=True, slots=True, eq=False)
class Implies(Formula):
    left: Formula
    right: Formula
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((2, self.left._hash, self.right._hash)))

    __hash__ = Formula.__hash__


@dataclass(frozen=True, slots=True, eq=False)
class Box(Formula):
    operand: Formula
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((3, self.operand._hash)))

    __hash__ = Formula.__hash__


BOT = Falsum()


# Desugaring constructors.  These are the single source of truth for what the
# surface connectives mean; the parser and every convenience builder go
# through them.

def lnot(a: Formula) -> Formula:
    return Implies(a, BOT)


def ldia(a: Formula) -> Formula:
    return lnot(Box(lnot(a)))


def land(a: Formula, b: Formula) -> Formula:
    return lnot(Implies(a, lnot(b)))


def lor(a: Formula, b: Formula) -> Formula:
    return Implies(lnot(a), b)


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, Implies):
        return (f.left, f.right)
    if isinstance(f, Box):
        return (f.operand,)
    return ()


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(->|\[\]|<>|[!|&()]|[a-z][A-Za-z0-9_]*)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, value, position) triples, terminated by an EOF marker."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(text) - len(stripped))
        value = m.group(1)
        start = m.end(1) - len(value)
        if value == "bot":
            tokens.append(("bot", value, start))
        elif value[0].isalpha():
            tokens.append(("atom", value, start))
        else:
            tokens.append((value, value, start))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


_PREFIX = {"!": lnot, "[]": Box, "<>": ldia}
# binding strength and constructor of each binary connective
_BINARY = {"->": (0, Implies), "|": (1, lor), "&": (2, land)}


def parse(text: str) -> Formula:
    """Parse ASCII syntax into the desugared core AST.

    One pass over the tokens with an explicit stack of pending prefix
    operators, open parentheses and binary connectives (each with its left
    operand), so any depth parses.  A complete operand takes the prefix
    operators before it at once.  A binary connective first closes the
    pending ones that bind at least as tightly ('->' only those that bind
    tighter: it is right-associative); any other token closes all of them
    back to the innermost open parenthesis, which it must then close, or
    back to the start, where it must be the end of input.
    """
    stack: list[tuple[str, Formula | None]] = []
    operand: Formula | None = None
    for kind, value, pos in _tokenize(text):
        if operand is None:
            if kind in _PREFIX or kind == "(":
                stack.append((kind, None))
                continue
            if kind == "atom":
                operand = Atom(value)
            elif kind == "bot":
                operand = BOT
            else:
                raise ParseError(f"expected a formula, found {value or 'end of input'!r}", pos)
        else:
            floor = max(_BINARY[kind][0], 1) if kind in _BINARY else 0
            while stack and stack[-1][0] in _BINARY and _BINARY[stack[-1][0]][0] >= floor:
                op, left = stack.pop()
                operand = _BINARY[op][1](left, operand)
            if kind in _BINARY:
                stack.append((kind, operand))
                operand = None
                continue
            expected = ")" if stack else "eof"
            if kind != expected:
                raise ParseError(f"expected {expected!r}, found {value or 'end of input'!r}",
                                 pos)
            if not stack:
                return operand
            stack.pop()
        while stack and stack[-1][0] in _PREFIX:
            operand = _PREFIX[stack.pop()[0]](operand)


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

# Precedence levels used when deciding parentheses: implication binds loosest.
_IMP, _OR, _AND, _UNARY = 0, 1, 2, 3


def _is_not(x: Formula) -> bool:
    return isinstance(x, Implies) and isinstance(x.right, Falsum)


def _is_dia(x: Formula) -> bool:
    return _is_not(x) and isinstance(x.left, Box) and _is_not(x.left.operand)


def _printed(subs, resugar: bool = False) -> dict[Formula, tuple[str, int]]:
    """(text, precedence) of each formula of the children-first list `subs`.

    One pass, no recursion.  A formula prints the same wherever it occurs,
    and it is wrapped in parentheses exactly when its own precedence is
    below its context's, so each text is built once from its children's.
    Every text is kept until the pass ends: a chain of n nodes keeps
    texts of total length quadratic in n.

    Resugaring checks diamond before negation (it is the special case
    !([]!a)) and conjunction before negation (it is !(a -> !b)); otherwise
    every a -> bot prints as a negation.  An implication whose antecedent is
    a diamond is kept as an implication; reading the diamond's outer
    negation as the '!' of '!a -> b' would print it as a disjunction.
    """
    out: dict[Formula, tuple[str, int]] = {}

    def arg(x: Formula, context: int) -> str:
        text, mine = out[x]
        return f"({text})" if mine < context else text

    for x in subs:
        t = type(x)
        if t is Atom:
            out[x] = (x.name, _UNARY)
        elif t is Falsum:
            out[x] = ("bot", _UNARY)
        elif t is Box:
            out[x] = ("[]" + arg(x.operand, _UNARY), _UNARY)
        elif resugar and _is_dia(x):
            out[x] = ("<>" + arg(x.left.operand.left, _UNARY), _UNARY)
        elif resugar and _is_not(x) and isinstance(x.left, Implies) and _is_not(x.left.right):
            out[x] = (arg(x.left.left, _AND) + " & " + arg(x.left.right.left, _UNARY), _AND)
        elif resugar and _is_not(x):
            out[x] = ("!" + arg(x.left, _UNARY), _UNARY)
        elif resugar and _is_not(x.left) and not _is_dia(x.left):
            out[x] = (arg(x.left.left, _OR) + " | " + arg(x.right, _AND), _OR)
        else:
            out[x] = (arg(x.left, _OR) + " -> " + arg(x.right, _IMP), _IMP)
    return out


def print_formula(f: Formula, resugar: bool = False) -> str:
    """Render a formula; parse(print_formula(f, ...)) is structurally f."""
    return _printed(subformulas([f]), resugar)[f][0]


# ---------------------------------------------------------------------------
# Subformula closures
# ---------------------------------------------------------------------------

_KINDS = {Atom: "atom", Falsum: "bot", Implies: "imp", Box: "box"}


@dataclass(frozen=True)
class Closure:
    """An ordered, subformula-closed sequence of distinct formulas.

    Every formula appears after all of its subformulas.  Instances built via
    closure() are additionally in canonical order (size, then core print);
    extending a model appends new formulas at the end instead.
    """

    formulas: tuple[Formula, ...]

    def __post_init__(self):
        index, structure = {}, []
        for i, f in enumerate(self.formulas):
            if f in index:
                raise FormulaError(f"duplicate closure member {f}")
            t = type(f)
            if t is Implies:
                entry = ("imp", index.get(f.left), index.get(f.right))
            elif t is Box:
                entry = ("box", index.get(f.operand), -1)
            else:
                entry = (_KINDS[t], -1, -1)
            if None in entry:
                sub = next(g for g in children(f) if g not in index)
                raise FormulaError(
                    f"closure member {f} precedes its subformula {print_formula(sub)}")
            structure.append(entry)
            index[f] = i
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_structure", tuple(structure))

    def __eq__(self, other) -> bool:
        """Equal structure and atom names: members come after their children,
        so by induction every position holds equal formulas.  Linear in the
        closure's length, where comparing members would walk each chain."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._structure == other._structure
                and self.atom_positions() == other.atom_positions())

    def __hash__(self) -> int:
        # formula hashes are structural, so equal closures hash alike
        return hash(self.formulas)

    def __len__(self) -> int:
        return len(self.formulas)

    def __contains__(self, f: Formula) -> bool:
        return f in self._index

    def position(self, f: Formula) -> int:
        return self._index[f]

    def extended(self, f: Formula) -> "Closure":
        return Closure(self.formulas + (f,))

    def atom_positions(self) -> dict[str, int]:
        return {g.name: i for i, g in enumerate(self.formulas) if isinstance(g, Atom)}

    def texts(self) -> list[str]:
        """`print_formula(f, resugar=True)` of each member, in one pass."""
        printed = _printed(self.formulas, True)
        return [printed[f][0] for f in self.formulas]

    def structure(self) -> tuple[tuple[str, int, int], ...]:
        """Per position: (kind, arg1, arg2) with positions of the arguments.

        kind is one of "atom", "bot", "imp", "box"; unused argument slots
        are -1.
        """
        return self._structure


def subformulas(roots) -> list[Formula]:
    """Each distinct subformula of `roots` once, after its children.

    One pass over an explicit stack: a node is listed once all its children
    are, so it never recurses, and a subtree shared by several parents is
    walked once.  Anything but the four node kinds raises `FormulaError`.
    """
    out: list[Formula] = []
    seen: set[Formula] = set()
    stack = list(roots)
    while stack:
        f = stack[-1]
        if f in seen:
            stack.pop()
            continue
        t = type(f)
        if t is Implies:
            if f.left not in seen or f.right not in seen:
                stack += (f.right, f.left)
                continue
        elif t is Box:
            if f.operand not in seen:
                stack.append(f.operand)
                continue
        elif t is not Atom and t is not Falsum:
            raise FormulaError(f"not a formula: {f!r}")
        stack.pop()
        seen.add(f)
        out.append(f)
    return out


# The largest tree size of a closure member that `closure` prints for its
# sort key.  Shared subtrees let a formula of a few hundred distinct
# subformulas print as a tree of 2**60 nodes.
CLOSURE_TREE_LIMIT = 1 << 20


def closure(roots) -> Closure:
    """Smallest subformula-closed set containing `roots`, canonically ordered.

    Raises `FormulaError` on reaching a member of more than
    `CLOSURE_TREE_LIMIT` nodes as a tree, before printing any member.
    """
    subs = subformulas(roots)
    if not subs:
        raise FormulaError("closure of an empty set")
    sizes: dict[Formula, int] = {}
    for f in subs:
        t = type(f)
        if t is Implies:
            s = 1 + sizes[f.left] + sizes[f.right]
        elif t is Box:
            s = 1 + sizes[f.operand]
        else:
            s = 1
        if s > CLOSURE_TREE_LIMIT:
            raise FormulaError(f"closure member of {s} nodes as a tree exceeds the bound of "
                               f"{CLOSURE_TREE_LIMIT}: the canonical order prints each member")
        sizes[f] = s
    printed = _printed(subs)
    return Closure(tuple(sorted(subs, key=lambda f: (sizes[f], printed[f][0]))))


def instantiate(schema: Formula, binding: dict[str, Formula]) -> Formula:
    """Uniform substitution of atoms; every schema atom must be bound to a
    formula.  Built bottom-up over the schema's subformulas."""
    out: dict[Formula, Formula] = {}
    for f in subformulas([schema]):
        t = type(f)
        if t is Atom:
            if f.name not in binding:
                raise FormulaError(f"unbound metavariable {f.name!r}")
            g = binding[f.name]
            if not isinstance(g, Formula):
                raise FormulaError(f"metavariable {f.name!r} is bound to {g!r}, not a formula")
            out[f] = g
        elif t is Falsum:
            out[f] = f
        elif t is Box:
            out[f] = Box(out[f.operand])
        else:
            out[f] = Implies(out[f.left], out[f.right])
    return out[schema]
