"""Brute-force reference semantics used as an independent oracle in tests.

Everything here is deliberately naive: plain python sets, rows grown one
value at a time with each cell checked as the value is added, no masks, no
vectorization.  It reads its truth tables from the JSON transcription in
tests/data and derives the successor constraints from the per-axiom
relational conditions with its own code instead of calling the library's,
so a slip on either side shows up as a mismatch.  The frame stage's atom
and missing-edge ints are built by doubling bit patterns instead of by
packing the shared valuation arrays.  Forcing, likewise, is
checked world by world with plain loops instead of the library's relation
products, parsing by recursive descent, one call per grammar rule,
instead of the library's one pass over an explicit stack, and random
formulas by one call per node instead of the CLI generator's stack.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from modalcube.cli import _GEN_WEIGHTS, _LEAF_WEIGHTS
from modalcube.formula import (BOT, Atom, Box, Falsum, Formula, Implies, ParseError, land,
                               ldia, lnot, lor)
from modalcube.logics import _frame_relations

_DATA = json.loads((Path(__file__).parent / "data" / "tables.json").read_text())

ALL_VALUES = tuple(_DATA["values"])
D = frozenset({"T", "t", "tt", "ttt"})
DC = frozenset(ALL_VALUES) - D
N = frozenset({"T", "tt", "fff", "ff"})
I = frozenset({"F", "ff", "ttt", "tt"})
P = frozenset({"T", "t", "fff", "f"})
PN = frozenset({"F", "f", "ttt", "t"})
STABLE = frozenset({"tt", "ff"})

FAMILY_OF = _DATA["family_of"]
FAMILY_VALUES = {fam: frozenset(vs) for fam, vs in _DATA["family_values"].items()}
FRAME_PROPS = {name: frozenset(ps) for name, ps in _DATA["frame_props"].items()}


def all_relations(n: int) -> np.ndarray:
    """Every (n, n) relation, ascending by bitmask (bit i*n + j is the edge
    (i, j))."""
    masks = np.arange(1 << n * n)
    return (masks[:, None] >> np.arange(n * n) & 1 == 1).reshape(len(masks), n, n)


def logic_values(name: str) -> frozenset[str]:
    return FAMILY_VALUES[FAMILY_OF[name]]


def imp_cell(name: str, a: str, b: str) -> frozenset[str]:
    return frozenset(_DATA["imp"][a][b]) & logic_values(name)


def box_cell(name: str, a: str) -> frozenset[str]:
    return frozenset(_DATA["box"][name][a])


def bot_cell(name: str) -> frozenset[str]:
    return frozenset(_DATA["bot"]) & logic_values(name)


def allowed_successors(name: str, v: str) -> frozenset[str]:
    """Successor constraint derived from the per-axiom relational conditions.

    Independent route: the library computes its successor masks from the
    same conditions, this rebuilds them with plain sets from the conditions
    attached to necessitation and to the axioms b, 4 and 5 (d and t
    constrain values, not successors).
    """
    out = set(logic_values(name))
    props = FRAME_PROPS[name]
    if v in N:
        out &= D
    if v in I:
        out &= DC
    if "B" in props:
        out &= P if v in D else PN
    if "4" in props:
        if v in N:
            out &= N
        if v in I:
            out &= I
    if "5" in props:
        if v in P:
            out &= P
        if v in PN:
            out &= PN
    return frozenset(out)


def requirements(name: str, v: str) -> list[frozenset[str]]:
    out = []
    if v in P:
        out.append(allowed_successors(name, v) & D)
    if v in PN:
        out.append(allowed_successors(name, v) & DC)
    return out


def _admits(name: str, f, row: dict, v: str) -> bool:
    """Whether v is in the table cell of f under the values already in row."""
    if isinstance(f, Falsum):
        return v in bot_cell(name)
    if isinstance(f, Implies):
        return v in imp_cell(name, row[f.left], row[f.right])
    if isinstance(f, Box):
        return v in box_cell(name, row[f.operand])
    return True


def enumerate_rows(name: str, formulas) -> list[tuple[str, ...]]:
    """All table-compatible, stability-respecting rows.

    Rows grow one formula at a time, and a prefix is dropped as soon as its
    newest value leaves the table cell or mixes stable with non-stable
    values.  The formulas must come after their subformulas (closure order),
    so every cell's arguments are assigned before the cell is checked.
    """
    formulas = list(formulas)
    vals = sorted(logic_values(name), key=ALL_VALUES.index)
    rows = [()]
    for k, f in enumerate(formulas):
        grown = []
        for row in rows:
            assign = dict(zip(formulas, row))
            for v in vals:
                if k and (v in STABLE) != (row[0] in STABLE):
                    continue
                if _admits(name, f, assign, v):
                    grown.append(row + (v,))
        rows = grown
    rows.sort(key=lambda row: tuple(ALL_VALUES.index(v) for v in row))
    return rows


def admits_row(name: str, formulas, codes) -> bool:
    """Whether a row of value codes is one `enumerate_rows` builds, checked
    value by value: each code names a value of the logic that is in its
    formula's cell and is stable exactly when the first value is."""
    if not all(0 <= c < len(ALL_VALUES) for c in codes):
        return False
    row = [ALL_VALUES[c] for c in codes]
    assign = dict(zip(formulas, row))
    return all(v in logic_values(name) and (v in STABLE) == (row[0] in STABLE)
               and _admits(name, f, assign, v) for f, v in zip(formulas, row))


def related(name: str, v: tuple[str, ...], w: tuple[str, ...]) -> bool:
    return all(wv in allowed_successors(name, vv) for vv, wv in zip(v, w))


def filter_rows(name: str, rows) -> list[tuple[str, ...]]:
    """Greatest fixpoint of simultaneous unsupported-row deletion."""
    alive = list(rows)
    while True:
        survivors = []
        for v in alive:
            ok = True
            succs = [w for w in alive if related(name, v, w)]
            for i, val in enumerate(v):
                for req in requirements(name, val):
                    if not any(w[i] in req for w in succs):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                survivors.append(v)
        if len(survivors) == len(alive):
            return survivors
        alive = survivors


def decide(name: str, formulas, assumptions, goal) -> bool:
    """formulas must be the closure, in the same order used for the rows."""
    formulas = list(formulas)
    rows = filter_rows(name, enumerate_rows(name, formulas))
    gi = formulas.index(goal)
    ai = [formulas.index(a) for a in assumptions]
    for row in rows:
        if all(row[i] in D for i in ai) and row[gi] not in D:
            return False
    return True


def forced(rel, valuation: dict, f, memo: dict | None = None) -> list[bool]:
    """Whether each world forces f, by the clauses of relational semantics
    applied one world at a time.  An atom with no valuation is false
    everywhere.  `memo` (formula -> truth per world) may be shared between
    calls on the same model."""
    rows = np.asarray(rel, dtype=bool).tolist()
    memo = {} if memo is None else memo

    def truth(g) -> list[bool]:
        if g not in memo:
            if isinstance(g, Falsum):
                out = [False] * len(rows)
            elif isinstance(g, Implies):
                left, right = truth(g.left), truth(g.right)
                out = [not left[w] or right[w] for w in range(len(rows))]
            elif isinstance(g, Box):
                sub = truth(g.operand)
                out = [all(sub[v] for v, edge in enumerate(row) if edge) for row in rows]
            else:
                out = [bool(valuation[g.name][w]) if g.name in valuation else False
                       for w in range(len(rows))]
            memo[g] = out
        return memo[g]

    return truth(f)


def printed(f, resugar: bool = False) -> str:
    """The text of f, one recursive call per node printed.  Precedences are
    0 for '->', 1 for '|', 2 for '&' and 3 for the prefixes; a formula is
    parenthesized where it binds looser than its place.  Resugared, a -> bot
    prints as !a, !([]!a) as <>a, !(a -> !b) as a & b, and !a -> b as a | b
    unless !a is a diamond."""

    def negated(g):
        """a, when g is a -> bot."""
        return g.left if isinstance(g, Implies) and isinstance(g.right, Falsum) else None

    def dia(g):
        """a, when g is !([]!a)."""
        a = negated(g)
        return negated(a.operand) if isinstance(a, Box) else None

    def go(g, place: int) -> str:
        if isinstance(g, Falsum):
            return "bot"
        if isinstance(g, Box):
            return "[]" + go(g.operand, 3)
        if not isinstance(g, Implies):
            return g.name
        a = negated(g) if resugar else None
        if a is not None and dia(g) is not None:
            text, mine = "<>" + go(dia(g), 3), 3
        elif isinstance(a, Implies) and negated(a.right) is not None:
            text, mine = go(a.left, 2) + " & " + go(negated(a.right), 3), 2
        elif a is not None:
            text, mine = "!" + go(a, 3), 3
        elif resugar and negated(g.left) is not None and dia(g.left) is None:
            text, mine = go(negated(g.left), 1) + " | " + go(g.right, 2), 1
        else:
            text, mine = go(g.left, 1) + " -> " + go(g.right, 0), 0
        return f"({text})" if mine < place else text

    return go(f, 0)


# The recursive-descent parser `formula.parse` replaced, kept verbatim as
# the reference its one-pass loop is compared with; it raises ParseError
# past the recursion limit, one call per nesting level.  It reads the
# tokens of the loop over `re.match` calls that `formula._tokenize`'s one
# `finditer` replaced.

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


def random_formula(rng, max_depth: int, atoms: list[str]) -> Formula:
    """The recursive generator `cli.random_formula` replaced, kept as the
    reference its explicit stack is compared with: one call per node, so
    it raises RecursionError on a branch deeper than the recursion limit."""
    table = _LEAF_WEIGHTS if max_depth <= 0 else _GEN_WEIGHTS
    kinds = [k for k, _ in table]
    weights = [w for _, w in table]
    kind = rng.choices(kinds, weights)[0]
    if kind == "atom":
        return Atom(rng.choice(atoms))
    if kind == "bot":
        return BOT
    if kind == "box":
        return Box(random_formula(rng, max_depth - 1, atoms))
    if kind == "dia":
        return ldia(random_formula(rng, max_depth - 1, atoms))
    if kind == "not":
        return lnot(random_formula(rng, max_depth - 1, atoms))
    a = random_formula(rng, max_depth - 1, atoms)
    b = random_formula(rng, max_depth - 1, atoms)
    if kind == "imp":
        return Implies(a, b)
    if kind == "and":
        return land(a, b)
    return lor(a, b)


def equal(f, g) -> bool:
    """Structural equality, one recursive call per pair of nodes, by kind,
    atom name and children: the tests' independent reference for the
    identity that hash-consing gives equal formulas."""
    if type(f) is not type(g):
        return False
    if isinstance(f, Atom):
        return f.name == g.name
    if isinstance(f, Box):
        return equal(f.operand, g.operand)
    if isinstance(f, Implies):
        return equal(f.left, g.left) and equal(f.right, g.right)
    return True


def size(f) -> int:
    """Node count of the core tree, one recursive call per node: the
    tests' independent reference for the canonical order."""
    if isinstance(f, (Atom, Falsum)):
        return 1
    if isinstance(f, Box):
        return 1 + size(f.operand)
    return 1 + size(f.left) + size(f.right)


# The int construction `decision._frame_bits` replaced, kept as the
# reference its packed arrays are compared with.

def atom_patterns(a: int) -> tuple[int, ...]:
    """Atom k's truth over the 2**a valuations, as one int: bit v is
    set iff bit k of v is, so blocks of 2**k clear and 2**k set bits
    alternate.  Each pattern doubles one period until it spans 2**a bits."""
    n = 1 << a
    patterns = []
    for k in range(a):
        half = 1 << k
        pattern, width = ((1 << half) - 1) << half, 2 * half
        while width < n:
            pattern |= pattern << width
            width *= 2
        patterns.append(pattern)
    return tuple(patterns)


def frame_bits(k: int, props, a: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The atoms and missing edges of the frames `_frame_relations(k, props)`
    over `a` atoms: a block of F * V bits per world, F frames of
    V = 2**(a*k) valuation bits each.  Atom i at world w is
    `atom_patterns(a*k)[i*k + w]` in every frame of world w's block;
    `lacks[u]` sets the V bits of frame j in world w's block iff frame j has
    no edge from w to u."""
    rels = _frame_relations(k, props)
    n = 1 << a * k
    B = len(rels) * n
    frames = sum(1 << j * n for j in range(len(rels)))   # one bit per frame
    patterns = atom_patterns(a * k)
    atoms = tuple(sum(patterns[i * k + w] * frames << w * B for w in range(k))
                  for i in range(a))
    lacks = tuple(sum(((1 << n) - 1) << w * B + j * n
                      for j, rel in enumerate(rels) for w in range(k) if not rel[w, u])
                  for u in range(k))
    return atoms, lacks
