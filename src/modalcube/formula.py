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
    cached hashes, so hashing never walks a subtree.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return print_formula(self)

    def __hash__(self) -> int:
        return self._hash


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


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((2, self.left._hash, self.right._hash)))

    __hash__ = Formula.__hash__


@dataclass(frozen=True, slots=True)
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


def size(f: Formula) -> int:
    """Node count of the core tree."""
    if isinstance(f, (Atom, Falsum)):
        return 1
    if isinstance(f, Box):
        return 1 + size(f.operand)
    return 1 + size(f.left) + size(f.right)


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, Implies):
        return (f.left, f.right)
    if isinstance(f, Box):
        return (f.operand,)
    return ()


def atom_names(f: Formula) -> set[str]:
    out: set[str] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            out.add(g.name)
        else:
            stack.extend(children(g))
    return out


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


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}",
                             tok[2])
        return tok

    def parse_formula(self) -> Formula:
        left = self.parse_or()
        if self.peek()[0] == "->":
            self.advance()
            return Implies(left, self.parse_formula())
        return left

    def parse_or(self) -> Formula:
        out = self.parse_and()
        while self.peek()[0] == "|":
            self.advance()
            out = lor(out, self.parse_and())
        return out

    def parse_and(self) -> Formula:
        out = self.parse_unary()
        while self.peek()[0] == "&":
            self.advance()
            out = land(out, self.parse_unary())
        return out

    def parse_unary(self) -> Formula:
        kind, value, pos = self.advance()
        if kind == "!":
            return lnot(self.parse_unary())
        if kind == "[]":
            return Box(self.parse_unary())
        if kind == "<>":
            return ldia(self.parse_unary())
        if kind == "bot":
            return BOT
        if kind == "atom":
            return Atom(value)
        if kind == "(":
            inner = self.parse_formula()
            self.expect(")")
            return inner
        raise ParseError(f"expected a formula, found {value or 'end of input'!r}", pos)


def parse(text: str) -> Formula:
    """Parse ASCII syntax into the desugared core AST."""
    p = _Parser(text)
    try:
        out = p.parse_formula()
    except RecursionError:
        # the parser recurses once per nesting level
        raise ParseError("formula nested too deeply", p.peek()[2]) from None
    p.expect("eof")
    return out


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

# Precedence levels used when deciding parentheses: implication binds loosest.
_IMP, _OR, _AND, _UNARY = 0, 1, 2, 3


def _is_dia(x: Formula) -> bool:
    return (isinstance(x, Implies) and isinstance(x.right, Falsum)
            and isinstance(x.left, Box) and isinstance(x.left.operand, Implies)
            and isinstance(x.left.operand.right, Falsum))


def _sugar_view(x: Formula):
    """Recognize a desugared connective pattern.

    Diamond is checked before negation (it is the special case !([]!a)) and
    conjunction before negation (it is !(a -> !b)); otherwise every a -> bot
    prints as a negation.  An implication whose antecedent is a diamond is
    kept as an implication; reading the diamond's outer negation as the
    '!' of '!a -> b' would print it as a disjunction.
    """
    if not isinstance(x, Implies):
        return None
    l, r = x.left, x.right
    if isinstance(r, Falsum):
        if _is_dia(x):
            return ("dia", l.operand.left)
        if (isinstance(l, Implies) and isinstance(l.right, Implies)
                and isinstance(l.right.right, Falsum)):
            return ("and", l.left, l.right.left)
        return ("not", l)
    if isinstance(l, Implies) and isinstance(l.right, Falsum) and not _is_dia(l):
        return ("or", l.left, r)
    return None


def print_formula(f: Formula, resugar: bool = False) -> str:
    """Render a formula; parse(print_formula(f, ...)) is structurally f."""

    def go(x: Formula, level: int) -> str:
        if isinstance(x, Atom):
            return x.name
        if isinstance(x, Falsum):
            return "bot"
        if isinstance(x, Box):
            return "[]" + go(x.operand, _UNARY)
        if resugar:
            view = _sugar_view(x)
            if view is not None:
                if view[0] == "not":
                    return _wrap("!" + go(view[1], _UNARY), _UNARY, level)
                if view[0] == "dia":
                    return _wrap("<>" + go(view[1], _UNARY), _UNARY, level)
                if view[0] == "and":
                    s = go(view[1], _AND) + " & " + go(view[2], _UNARY)
                    return _wrap(s, _AND, level)
                s = go(view[1], _OR) + " | " + go(view[2], _AND)
                return _wrap(s, _OR, level)
        s = go(x.left, _OR) + " -> " + go(x.right, _IMP)
        return _wrap(s, _IMP, level)

    def _wrap(s: str, mine: int, context: int) -> str:
        return f"({s})" if mine < context else s

    return go(f, _IMP)


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
    try:
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
    except RecursionError:
        # equal subformulas built apart compare once per nesting level
        raise FormulaError("formula nested too deeply") from None
    return out


# The largest tree size of a closure member that `closure` prints for its
# sort key.  Shared subtrees let a formula of a few hundred distinct
# subformulas print as a tree of 2**60 nodes.
CLOSURE_TREE_LIMIT = 1 << 20


def closure(roots) -> Closure:
    """Smallest subformula-closed set containing `roots`, canonically ordered.

    Raises `FormulaError` on reaching a member of more than
    `CLOSURE_TREE_LIMIT` nodes as a tree, before printing it.
    """
    subs = subformulas(roots)
    if not subs:
        raise FormulaError("closure of an empty set")
    # (size, core print) of each member, built from its children's keys
    key: dict[Formula, tuple[int, str]] = {}
    for f in subs:
        t = type(f)
        if t is Implies:
            (ls, lt), (rs, rt) = key[f.left], key[f.right]
            s = 1 + ls + rs
            if s > CLOSURE_TREE_LIMIT:
                _too_large(s)
            key[f] = (s, _operand(f.left, lt) + " -> " + rt)
        elif t is Box:
            s, text = key[f.operand]
            if 1 + s > CLOSURE_TREE_LIMIT:
                _too_large(1 + s)
            key[f] = (1 + s, "[]" + _operand(f.operand, text))
        else:
            key[f] = (1, f.name if t is Atom else "bot")
    return Closure(tuple(sorted(subs, key=key.__getitem__)))


def _too_large(nodes: int):
    raise FormulaError(f"closure member of {nodes} nodes as a tree exceeds the bound of "
                       f"{CLOSURE_TREE_LIMIT}: the canonical order prints each member")


def _operand(f: Formula, text: str) -> str:
    """The core print of `f` as a box operand or an antecedent."""
    return f"({text})" if isinstance(f, Implies) else text


def instantiate(schema: Formula, binding: dict[str, Formula]) -> Formula:
    """Uniform substitution of atoms; every schema atom must be bound."""
    if isinstance(schema, Atom):
        if schema.name not in binding:
            raise FormulaError(f"unbound metavariable {schema.name!r}")
        return binding[schema.name]
    if isinstance(schema, Falsum):
        return schema
    if isinstance(schema, Box):
        return Box(instantiate(schema.operand, binding))
    return Implies(instantiate(schema.left, binding),
                   instantiate(schema.right, binding))
