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
from dataclasses import dataclass

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

    Nodes are hash-consed: a constructor returns the node of its kind with
    those children (an atom: that name) if the process built one, else it
    builds and records it.  So equal formulas are one object, and equality
    and hashing are identity.  The tables keep every node for the life of
    the process, about 124 bytes per distinct node.  Nodes refuse
    assignment, a pickle rebuilds through the constructors, a copy is itself.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return print_formula(self)

    def __repr__(self) -> str:
        """The constructor form, cut after `_REPR_LIMIT` characters with
        '...': written from the root down, so in bounded time at any size."""
        out, length, stack = [], 0, [self]
        while stack and length <= _REPR_LIMIT:
            f = stack.pop()
            t = type(f)
            if t is Implies:
                text = "Implies("
                stack += (")", f.right, ", ", f.left)
            elif t is Box:
                text = "Box("
                stack += (")", f.operand)
            else:  # a piece of text, an atom or falsum
                text = f if t is str else f"Atom({f.name!r})" if t is Atom else "Falsum()"
            out.append(text)
            length += len(text)
        text = "".join(out)
        return text[:_REPR_LIMIT] + "..." if stack else text

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        """A formula at most `_PICKLE_DEPTH` levels tall rebuilds through its
        constructor, so a pickle holds each node once, however many of the
        formulas pickled with it share it.  A taller one sends the
        children-first list of its subformulas (`_flat`), so a pickle of
        any depth needs no recursion; taller formulas pickled side by side
        each send their own list, while a `Closure` sends one for all its
        members."""
        level = {self}
        for _ in range(_PICKLE_DEPTH):
            level = {c for f in level for c in children(f)}
            if not level:
                return type(self), (self.name,) if type(self) is Atom else children(self)
        return _last_built, (_flat(subformulas([self])),)

    def __copy__(self) -> Formula:
        return self

    def __deepcopy__(self, memo) -> Formula:
        return self


_REPR_LIMIT = 1000
# a constructor-form pickle recurses a few frames per level: 100 levels stay
# well inside the default recursion limit
_PICKLE_DEPTH = 100

# The node of each atom name, (left, right) pair and box operand; recorded
# with `dict.setdefault`, so two threads building one formula get one node.
_ATOMS: dict[str, Atom] = {}
_IMPLICATIONS: dict[tuple[Formula, Formula], Implies] = {}
_BOXES: dict[Formula, Box] = {}


def _node(cls: type, **children: Formula) -> Formula:
    """A new node of `cls` with these children, each a formula."""
    node = object.__new__(cls)
    for field, child in children.items():
        if not isinstance(child, Formula):
            raise FormulaError(f"not a formula: {child!r}")
        object.__setattr__(node, field, child)
    return node


class Atom(Formula):
    __slots__ = ("name",)

    def __new__(cls, name: str) -> Atom:
        node = _ATOMS.get(name)
        if node is None:
            if not ATOM_RE.fullmatch(name):
                raise FormulaError(f"invalid atom name {name!r}")
            if name in RESERVED:
                raise FormulaError(f"atom name {name!r} is a reserved word")
            node = object.__new__(cls)
            object.__setattr__(node, "name", name)
            node = _ATOMS.setdefault(name, node)
        return node


class Falsum(Formula):
    __slots__ = ()

    def __new__(cls) -> Falsum:
        return BOT


class Implies(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula) -> Implies:
        node = _IMPLICATIONS.get((left, right))
        if node is None:
            node = _IMPLICATIONS.setdefault((left, right), _node(cls, left=left, right=right))
        return node


class Box(Formula):
    __slots__ = ("operand",)

    def __new__(cls, operand: Formula) -> Box:
        node = _BOXES.get(operand)
        if node is None:
            node = _BOXES.setdefault(operand, _node(cls, operand=operand))
        return node


BOT = object.__new__(Falsum)


def _flat(subs) -> list:
    """`subs`, each after its children, as its atom's name, None for
    falsum, or the positions of its children in the list."""
    at = {f: i for i, f in enumerate(subs)}
    return [f.name if type(f) is Atom else None if f is BOT else
            (at[f.operand],) if type(f) is Box else (at[f.left], at[f.right])
            for f in subs]


def _built(nodes) -> list[Formula]:
    """The formulas that `_flat` listed as `nodes`."""
    built: list[Formula] = []
    for node in nodes:
        if node is None:
            built.append(BOT)
        elif type(node) is str:
            built.append(Atom(node))
        elif len(node) == 1:
            built.append(Box(built[node[0]]))
        else:
            built.append(Implies(built[node[0]], built[node[1]]))
    return built


def _last_built(nodes) -> Formula:
    return _built(nodes)[-1]


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

# a symbol, a name, or any other character, which is an error
_TOKEN_RE = re.compile(r"\s*(?:(->|\[\]|<>|[!|&()])|([a-z][A-Za-z0-9_]*)|(\S))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, value, position) triples, terminated by an EOF marker."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        symbol, name, other = m.groups()
        if other:
            raise ParseError(f"unexpected character {other!r}", m.start(3))
        if symbol:
            tokens.append((symbol, symbol, m.start(1)))
        else:
            tokens.append(("bot" if name == "bot" else "atom", name, m.start(2)))
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
    extending a model appends new formulas at the end instead.  Closures
    are equal, and hash alike, when their members are the same formulas in
    the same order: formulas are hash-consed, so that compares identities.
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

    def __reduce__(self):
        """The members are children-first, so one `_flat` list sends them
        all, each node once, at any depth."""
        return _closure_built, (_flat(self.formulas),)

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


def _closure_built(nodes) -> Closure:
    return Closure(tuple(_built(nodes)))


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
