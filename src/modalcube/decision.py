"""Truth-table models: row enumeration, support filtering, and consequence.

A model over a subformula closure is a set of rows (one admissible value per
closure member) together with the successor relation between rows.  Rows are
generated bottom-up, branching only at genuinely non-deterministic table
cells, and then filtered to the greatest set in which every "possible" /
"possibly false" value is witnessed by an admissible successor row.  A goal
follows from assumptions when every surviving row that designates all the
assumptions also designates the goal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from . import values
from ._accel import WorkLimitError, compat_matrix, signatures, support_filter_round
from .formula import (Atom, Box, Closure, Formula, FormulaError, Implies, children,
                      closure, print_formula, subformulas)
from .logics import _VALUE_OF, Logic, _compose, _frame_relations, _valuations, frame_tables
from .nmatrix import BOT_VALUE_OF, _check_admissible, nmatrix
from .values import in_mask, mask_of

ROW_CAP_DEFAULT = 2_000_000

# N-designated values: what a tautology must take at the next level.
_NT_MASK = mask_of("T tt")


class RowLimitError(RuntimeError):
    """Enumeration passed the row cap.

    `estimate` is the row count once `column` of `columns` closure columns
    are filled.  Later columns never drop the count, so the table has at
    least that many rows; it is the table's row count when `column` is the
    last one.
    """

    def __init__(self, estimate: int, cap: int, column: int, columns: int):
        super().__init__(f"at least {estimate} rows (counted after column {column} "
                         f"of {columns}) exceed the cap of {cap}")
        self.estimate = estimate
        self.cap = cap
        self.column = column
        self.columns = columns


class MissingSubformulaError(ValueError):
    pass


class ClosureImpossibleError(RuntimeError):
    """A frame property cannot be satisfied within the admissible edge set."""


# ---------------------------------------------------------------------------
# Successor constraints
# ---------------------------------------------------------------------------

def _allowed_masks(logic: Logic) -> np.ndarray:
    """uint8[8]: allowed-successor mask per value (0 outside the logic), the
    values an atom takes after a world where it takes the value, read off
    the logic's frames.  A stable value admits no successors at all."""
    return frame_tables(logic.frame_props).successors


def allowed_successors(logic: Logic, v: int) -> int:
    _check_admissible(logic, v)
    return int(_allowed_masks(logic)[v])


@cache
def _requirement_masks(logic: Logic) -> tuple[np.ndarray, np.ndarray]:
    """Per value: the designated-side and non-designated-side witness masks,
    its allowed successors split by designation."""
    allowed = _allowed_masks(logic)
    return allowed & logic.designated_mask, allowed & logic.nondesignated_mask


def support_requirements(logic: Logic, v: int) -> list[int]:
    """Witness sets the value demands of its successors, designated side first.

    A value that claims possibility needs a successor designating the
    formula; one that claims refutability needs a successor that does not.
    Necessitation makes these the nonempty sides of its allowed successors:
    N needs D and I needs Dc, so a value has a designated (undesignated)
    allowed successor exactly when it is in P (PN).
    """
    _check_admissible(logic, v)
    return [int(r[v]) for r in _requirement_masks(logic) if r[v]]


# ---------------------------------------------------------------------------
# Row enumeration
# ---------------------------------------------------------------------------

class _Cells(NamedTuple):
    """One logic's Nmatrix as `enumerate_rows`, `validate_rows` and
    `extend_column` read it.  Falsum's one value is `BOT_VALUE_OF`."""
    neg: np.ndarray               # uint8[8]: the one value of x -> bot, by x
    box: np.ndarray               # bool[8, 8] cell bits, by the operand's value
    imp: np.ndarray               # bool[64, 8] cell bits, by 8 * a + b
    leaf: dict[str, np.ndarray]   # atom, bot: bool[8, 8], by the row's first value
    first: dict[str, np.ndarray]  # atom, bot: bool[1, 8], column 0's cell


@cache
def _cell_table(logic: Logic) -> _Cells:
    """Atoms and falsum keep the fragment (stable or not) of the row's first
    value.  Column 0 holds the first value, so its cell is the values v
    whose own leaf cell holds v, over both fragments."""
    mat = nmatrix(logic)

    def bits(masks) -> np.ndarray:
        return np.unpackbits(masks[..., None], axis=-1, bitorder="little").view(bool)

    imp = bits(mat.imp_masks.reshape(64))
    neg = imp[np.arange(8) << 3 | BOT_VALUE_OF].argmax(axis=1).astype(np.uint8)
    inside = in_mask(logic.values_mask, np.arange(8))
    stable = in_mask(values.STABLE_MASK, np.arange(8))
    leaf = {"atom": (stable[:, None] == stable) & inside,
            "bot": (BOT_VALUE_OF[:, None] == np.arange(8)) & inside}
    first = {kind: np.diagonal(cell)[None] for kind, cell in leaf.items()}
    return _Cells(neg, bits(mat.box_masks), imp, leaf, first)


def _cell_bits(cells: _Cells, rows: np.ndarray, kind: str, i: int, j: int) -> np.ndarray:
    """bool[rows, 8]: each row's cell of a column of `kind` whose arguments
    sit at positions i and j.  Atoms and falsum read the fragment of the
    row's first value."""
    # `take` along axis 0 is several times cheaper than fancy indexing
    if kind == "imp":
        return cells.imp.take(rows[:, i] << 3 | rows[:, j], axis=0)
    if kind == "box":
        return cells.box.take(rows[:, i], axis=0)
    return cells.leaf[kind].take(rows[:, 0], axis=0)


def enumerate_rows(logic: Logic, clo: Closure, row_cap: int = ROW_CAP_DEFAULT) -> np.ndarray:
    """All table-compatible rows over the closure, lexicographically sorted.

    One pass over the closure builds the non-stable and the stable (tt/ff)
    fragment at once.  Column 0, an atom or falsum, takes the values of both;
    every later atom or falsum column takes its fragment's values, read off
    the row's first value.  Box and implication cells stay inside their
    fragment, so rows mixing stable with non-stable values are never
    generated.  A later falsum and a negation (x -> bot) hold one value per
    row, written in place; every other column branches each row over the
    bits of its cell (`_cell_bits`).  `np.nonzero` lists (row, value) pairs
    in row-major order, so branching lex-sorted, distinct rows in ascending
    value order keeps them lex-sorted and distinct without a final sort.
    No reachable cell is empty, so the row count never drops from one
    column to the next, and the cap check at each branching column raises
    exactly when the final count exceeds the cap.
    """
    cells = _cell_table(logic)
    structure = clo.structure()
    rows = np.zeros((1, len(structure)), dtype=np.uint8)
    for k, (kind, i, j) in enumerate(structure):
        if not k:
            bits = cells.first[kind]
        elif kind == "bot":
            rows[:, k] = BOT_VALUE_OF.take(rows[:, 0])
            continue
        elif kind == "imp" and structure[j][0] == "bot":
            rows[:, k] = cells.neg.take(rows[:, i])
            continue
        else:
            bits = _cell_bits(cells, rows, kind, i, j)
        total = np.count_nonzero(bits)
        if total > row_cap:
            raise RowLimitError(total, row_cap, k + 1, len(structure))
        src, v = bits.nonzero()
        rows = rows.take(src, axis=0)
        rows[:, k] = v
    return rows


def validate_rows(logic: Logic, clo: Closure, rows: np.ndarray) -> np.ndarray:
    """Per row: every value is admissible and in its column's cell
    (`_cell_bits`).  Atoms and falsum read the fragment of the row's first
    value, and box and implication cells over one fragment stay in it, so
    no accepted row mixes stable with non-stable values."""
    cells = _cell_table(logic)
    ok = in_mask(logic.values_mask, rows).all(axis=1)
    rows = np.where(ok[:, None], rows, 0)  # rejected rows read no cell past code 7
    index = np.arange(len(rows))
    for k, (kind, i, j) in enumerate(clo.structure()):
        ok &= _cell_bits(cells, rows, kind, i, j)[index, rows[:, k]]
    return ok


# ---------------------------------------------------------------------------
# Filtering
# ---------------------------------------------------------------------------

def _kernel_inputs(logic: Logic, rows: np.ndarray):
    """Per row and position: successor mask, one-hot value and witness masks.
    Only the row-by-row references (perfbench, tests) read these."""
    allowed = _allowed_masks(logic)
    preq, pnreq = _requirement_masks(logic)
    return allowed[rows], np.uint8(1) << rows, preq[rows], pnreq[rows]


def build_relation(logic: Logic, rows: np.ndarray) -> np.ndarray:
    """Maximal successor relation: (v, w) related iff every position of w is
    allowed after the corresponding position of v."""
    return compat_matrix(rows, _allowed_masks(logic))


def filter_rows(logic: Logic, rows: np.ndarray) -> tuple[np.ndarray, int]:
    """Greatest-fixpoint deletion of unsupported rows.

    Each round removes, simultaneously, every row with a witness set no
    surviving successor can hit; returns the survivors and the number of
    rounds that deleted something.
    """
    sigs = signatures(rows, _allowed_masks(logic))
    alive = np.ones(sigs.compat.shape[0], dtype=bool)
    iterations = 0
    while True:
        keep = support_filter_round(sigs, alive)
        if keep.sum() == alive.sum():
            break
        alive = keep
        iterations += 1
    return rows[alive[sigs.inverse]], iterations


@dataclass
class TableModel:
    logic: Logic
    closure: Closure
    rows: np.ndarray
    iterations: int = 0
    _relation: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def row_count(self) -> int:
        return int(self.rows.shape[0])

    def relation_matrix(self) -> np.ndarray:
        if self._relation is None:
            self._relation = build_relation(self.logic, self.rows)
        return self._relation

    def stable_flags(self) -> np.ndarray:
        return in_mask(values.STABLE_MASK, self.rows[:, 0])


def _filtered(logic: Logic, clo: Closure, rows: np.ndarray) -> TableModel:
    """The model that filtering the enumerated `rows` leaves."""
    kept, iterations = filter_rows(logic, rows)
    return TableModel(logic, clo, kept, iterations)


def filter_model(logic: Logic, clo: Closure, row_cap: int = ROW_CAP_DEFAULT) -> TableModel:
    """Enumerate and filter; the result is the union of all models over the
    closure, so membership in it decides membership in some model."""
    return _filtered(logic, clo, enumerate_rows(logic, clo, row_cap))


def frame_relation(model: TableModel) -> np.ndarray:
    """The successors of each row, for extraction and column extension alike.

    Without euclidean frames (axiom 5) this is the maximal relation, which
    in a filtered table already has the logic's frame properties.  With them
    the maximal relation need not be euclidean, and in a euclidean frame the
    successors of a world form a cluster.  So the rows that may follow
    themselves split into cliques of mutually admissible rows, which are the
    classes of looped rows that agree on N and on I at every position.  A
    clique whose rows support each other relates all of them, and every
    other row with an obligation points into the first such clique (by its
    first row) that meets it, as far as the row admits.  The cliques are
    tried in turn, each against all rows still left at once.
    """
    maximal = model.relation_matrix()
    if "euclidean" not in model.logic.frame_props:
        return maximal
    # what each row needs (the filter's obligations: a value in P, then in
    # PN) and what it offers as a witness, designated half first
    rows = model.rows
    need = np.hstack([in_mask(values.P_MASK, rows), in_mask(values.PN_MASK, rows)])
    d = in_mask(model.logic.designated_mask, rows)
    offer = np.hstack([d, ~d])
    # the cliques: looped rows grouped on N/I profile, in order of first row
    looped = np.flatnonzero(maximal.diagonal())
    code = in_mask(values.N_MASK, rows[looped]) << 1 | in_mask(values.I_MASK, rows[looped])
    key = code.astype(np.uint8).view(f"V{rows.shape[1]}").reshape(-1)
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    member = np.argsort(first)[:, None] == group   # bool[cliques, looped rows]
    # keep the cliques whose rows' offers meet all that their rows need
    offered = _compose(member.T, _compose(member, offer[looped]))
    member = member[~_compose(member, (need[looped] & ~offered).any(axis=1))]
    rel = np.zeros_like(maximal)
    rel[np.ix_(looped, looped)] = (group[:, None] == group) & member.any(axis=0)
    left = np.flatnonzero(~rel.any(axis=1) & need.any(axis=1))
    for mem in (looped[m] for m in member):
        if not left.size:
            break
        # every row left at once: what its admissible clique rows offer
        sub = maximal[np.ix_(left, mem)]
        avail = _compose(sub, offer[mem])
        ok = ~(need[left] & ~avail).any(axis=1)
        rel[np.ix_(left[ok], mem)] = sub[ok]
        left = left[~ok]
    if left.size:
        raise ClosureImpossibleError(f"row {left[0]} has no euclidean support clique")
    return rel


# ---------------------------------------------------------------------------
# Consequence
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    """A consequence verdict over the closure of the assumptions and goal.

    `stage` names the stage of `decide` that answered: "1-world",
    "early-valid", "2-world", "3-world" or "filter".  `closure` is the
    canonical closure of the assumptions and the goal, built on its first
    read; `rows` is its enumerated table, built on its first read with the
    verdict's `row_cap`; `model` is the filtered table, built on its first
    read; and `witness_index` is the first row of `model` that refutes the
    goal (None for a VALID verdict), found on its first read.  `decide`
    works on the subformula list and keeps none of these.  At stage
    "filter" it keeps its survivors, and `model` puts their columns in
    closure order and sorts the rows, which is the canonical table filtered;
    at any other stage `model` filters `rows`.  So reading `rows`, `model`,
    `witness_index` or `witness()` may raise `RowLimitError` or
    `WorkLimitError`, and reading `closure` may raise `FormulaError`
    (`formula.closure`).
    """
    valid: bool
    logic: Logic = field(repr=False)
    goal: Formula
    assumptions: tuple[Formula, ...]
    row_cap: int = field(default=ROW_CAP_DEFAULT, repr=False, compare=False)
    stage: str | None = field(default=None, compare=False)
    # the filter stage's survivors over the children-first subformula list
    _survivors: TableModel | None = field(default=None, repr=False, compare=False)

    @cached_property
    def closure(self) -> Closure:
        return closure(self.assumptions + (self.goal,))

    @cached_property
    def rows(self) -> np.ndarray:
        return enumerate_rows(self.logic, self.closure, self.row_cap)

    @cached_property
    def model(self) -> TableModel:
        if self._survivors is None:
            return _filtered(self.logic, self.closure, self.rows)
        # the same rows as filtering the canonical table, by other columns
        kept = self._survivors
        rows = kept.rows[:, [kept.closure.position(f) for f in self.closure.formulas]]
        rows = rows[np.lexsort(rows.T[::-1])]
        return TableModel(self.logic, self.closure, rows, kept.iterations)

    @cached_property
    def witness_index(self) -> int | None:
        if self.valid:
            return None
        refuting = _refuting(self.closure, self.model.rows, self.assumptions, self.goal)
        return int(np.flatnonzero(refuting)[0])

    def witness(self) -> dict[str, str] | None:
        if self.witness_index is None:
            return None
        row = self.model.rows[self.witness_index]
        return {text: values.VALUE_NAMES[v]
                for text, v in zip(self.closure.texts(), row)}

    def __str__(self) -> str:
        return "VALID" if self.valid else "INVALID"


# bool[8] per value: designated.  Rows hold only their logic's values, so
# on them this is the logic's designated set.
_DESIGNATED = in_mask(values.D_MASK, np.arange(8))


def _refuting(clo: Closure, rows: np.ndarray,
              assumptions: tuple[Formula, ...], goal: Formula) -> np.ndarray:
    """Per row: it designates every assumption and not the goal."""
    bad = ~_DESIGNATED.take(rows[:, clo.position(goal)])
    for a in assumptions:
        bad &= _DESIGNATED.take(rows[:, clo.position(a)])
    return bad


@cache
def _frame_bits(k: int, props: frozenset[str],
                a: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The atoms and missing edges of the frames `_frame_relations(k, props)`
    over `a` atoms, in `_frames_refute`'s layout [world][frame][valuation]
    of k * F * V bits, V = 2**(a*k): atom i is its `_valuations(k, a)`
    truth copied to every frame, and `lacks[u]` sets the V bits of frame j
    in world w's block iff frame j has no edge from w to u.  Each int is
    packed from one bool[k, F, V] at a time, bit 0 first.
    """
    missing = ~_frame_relations(k, props)
    bits = np.empty((k, len(missing), 1 << a * k), dtype=bool)

    def packed(layout: np.ndarray) -> int:
        bits[:] = layout
        return int.from_bytes(np.packbits(bits, bitorder="little"), "little")

    atoms = tuple(packed(truth[:, None]) for truth in _valuations(k, a))
    lacks = tuple(packed(edges[..., None]) for edges in missing.transpose(2, 1, 0))
    return atoms, lacks


def _frames_refute(logic: Logic, subs: list[Formula], assumptions: tuple[Formula, ...],
                   goal: Formula, k: int, row_cap: int) -> int:
    """The worlds of k-world frames of the logic where every assumption holds
    and the goal does not: non-zero iff such a frame refutes the goal.

    One pass over `subs`, each subformula of the assumptions and goal after
    its children (`subformulas`), checks every frame of
    `_frame_relations(k, props)` at once.  Each subformula's truth is one
    int laid out as [world][frame][valuation]: world w's block of B bits
    holds F frames of 2**(a*k) valuations of the a atoms.  Implication is
    bitwise; []f at w is the AND over successors u of f's block at u,
    copied to every world, or-ed with `lacks[u]`, the worlds of the frames
    without an edge to u (`_frame_bits`).  The bit of world w, frame j and
    valuation v is bit (w * F + j) * 2**(a*k) + v.

    A refuting world's row, by `logics.value_at`, is a table row, and the k
    rows of its frame support each other, so they survive every filter: the
    verdict is INVALID.  There are k * F * 2**(a*k) such world rows; past
    `row_cap` the check is skipped (0), so a large input falls through to
    enumeration, which raises `RowLimitError` as it would without it.
    """
    a = sum(type(f) is Atom for f in subs)
    frames = len(_frame_relations(k, logic.frame_props))
    B = frames << a * k
    if k * B > row_cap:
        return 0
    atoms, lacks = _frame_bits(k, logic.frame_props, a)
    full = (1 << k * B) - 1
    block = (1 << B) - 1
    worlds = range(B, k * B, B)
    truth: dict[Formula, int] = {}
    atom = iter(atoms)
    for f in subs:
        t = type(f)
        if t is Implies:
            truth[f] = (full ^ truth[f.left]) | truth[f.right]
        elif t is Box:
            g = truth[f.operand]
            box = full
            for u, lack in enumerate(lacks):
                col = g >> u * B & block
                copies = col
                for shift in worlds:
                    copies |= col << shift
                box &= copies | lack
            truth[f] = box
        elif t is Atom:
            truth[f] = next(atom)
        else:  # falsum: `subformulas` admits only the four node kinds
            truth[f] = 0
    bad = full ^ truth[goal]
    for f in assumptions:
        bad &= truth[f]
    return bad


def decide(logic: Logic, assumptions, goal: Formula,
           row_cap: int = ROW_CAP_DEFAULT) -> Verdict:
    """Consequence check over the filtered model of the combined closure.

    An assumption or goal that is not a `Formula` raises `FormulaError`
    before any work.  Then the first of these stages that answers sets the
    verdict's `stage`:

    - "1-world": a one-world frame refutes the goal (`_frames_refute`).
    - "early-valid": no row of the table refutes the goal.  The table is
      enumerated over the subformula list in children-first order, which
      holds the same rows as the canonical closure's, by other columns.
      Filtering only deletes rows, so the verdict is VALID.
    - "2-world", "3-world": a frame of two or three worlds refutes it.
    - "filter": the filtered model of those same rows decides.

    A refuting world of a frame gives a row that survives every filter, so
    each frame stage is exact.  No stage builds the canonical closure.  An
    INVALID verdict's `witness_index` is the first (in row order) refuting
    row of the canonical filtered model, found when it is read; at stage
    "filter" that model is the survivors, reordered, not a second filter.
    """
    assumptions = tuple(assumptions)
    for f in assumptions + (goal,):
        if not isinstance(f, Formula):
            raise FormulaError(f"not a formula: {f!r}")
    subs = subformulas(assumptions + (goal,))
    verdict = Verdict(False, logic, goal, assumptions, row_cap, "1-world")
    if _frames_refute(logic, subs, assumptions, goal, 1, row_cap):
        return verdict
    clo = Closure(tuple(subs))
    rows = enumerate_rows(logic, clo, row_cap)
    if not _refuting(clo, rows, assumptions, goal).any():
        verdict.valid, verdict.stage = True, "early-valid"
        return verdict
    for k in (2, 3):
        if _frames_refute(logic, subs, assumptions, goal, k, row_cap):
            verdict.stage = f"{k}-world"
            return verdict
    survivors = _filtered(logic, clo, rows)
    verdict.valid = not _refuting(clo, survivors.rows, assumptions, goal).any()
    verdict.stage, verdict._survivors = "filter", survivors
    return verdict


# ---------------------------------------------------------------------------
# Level filtering
# ---------------------------------------------------------------------------

def level_filter(logic: Logic, clo: Closure, depth: int,
                 row_cap: int = ROW_CAP_DEFAULT) -> list[np.ndarray]:
    """Iterated tautology filtering restricted to the closure.

    Level 0 is the plain enumeration.  Each next level keeps the rows that
    assign an N-designated value (T or tt) to every closure member designated
    by all rows of the previous level.  This reproduces the finite staged
    tables; it is a pedagogical approximation, not the support-based filter.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    levels = [enumerate_rows(logic, clo, row_cap)]
    for _ in range(depth):
        cur = levels[-1]
        taut = in_mask(logic.designated_mask, cur).all(axis=0)
        keep = in_mask(_NT_MASK, cur[:, taut]).all(axis=1)
        levels.append(cur[keep])
    return levels


# ---------------------------------------------------------------------------
# Column extension
# ---------------------------------------------------------------------------

def extend_column(model: TableModel, f: Formula) -> TableModel:
    """Extend every row with exactly one admissible value for `f`.

    An atom copies the first column.  Box, implication and falsum read each
    row's cell of `f` as `enumerate_rows` does past column 0 (`_cell_bits`),
    and a single-value cell is taken as it is.  The values of a multi-value cell
    agree on designation, so each successor's own cell says whether it
    designates `f`.  The row then takes the cell value that is in N iff
    every successor in `frame_relation` designates `f`, and in I iff none
    does: the value `logics.value_at` reads off that designation and N/I
    profile.

    The rule expects a filtered model.  There every non-stable value carries
    a P or PN obligation, so every non-stable row has a successor: falsum's
    cell, F on those rows and ff on stable rows, which have no successors,
    is the value the successors give.  The choice preserves the row count
    (an empty model extends to an empty model over the extended closure),
    and re-filtering the result deletes nothing.  A multi-value cell
    without the value its row's successors give raises ValueError naming
    the first such row: the model is not filtered.
    """
    logic = model.logic
    rows = model.rows
    for sub in children(f):
        if sub not in model.closure:
            raise MissingSubformulaError(
                f"cannot extend with {print_formula(f)}: {print_formula(sub)} missing")

    clo = model.closure.extended(f)
    kind, i, j = clo.structure()[-1]
    if kind == "atom":
        newcol = rows[:, 0].copy()
    else:
        bits = _cell_bits(_cell_table(logic), rows, kind, i, j)
        multi = np.count_nonzero(bits, axis=1) > 1
        if multi.any():
            rel = frame_relation(model)
            designates = (bits & _DESIGNATED).any(axis=1)
            every = ~(rel & ~designates).any(axis=1)
            some = (rel & designates).any(axis=1)
            value = _VALUE_OF[designates * 4 + every * 2 + ~some]
            bits[multi] &= np.arange(8) == value[multi, None]
            lacking = np.flatnonzero(~bits.any(axis=1))
            if lacking.size:
                raise ValueError(f"row {lacking[0]} has no value of {print_formula(f)} that "
                                 "its successors give: the model is not filtered")
        newcol = bits.argmax(axis=1).astype(np.uint8)

    new_rows = np.hstack([rows, newcol.reshape(-1, 1)])
    return TableModel(logic, clo, new_rows, model.iterations)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _json_spliced(payload: dict, lists: dict[str, list[str]]) -> str:
    """`json.dumps(payload, indent=2)` where each top-level key of `lists`,
    None in `payload`, holds a list with the given item texts.

    The item texts are written straight from arrays instead of through the
    pure-Python indent encoder.  They replace the `"key": null` that json
    prints, in payload order, by splitting the short text json prints and
    joining it with the items once: no string value can contain that
    literal, because json escapes its quotes.
    """
    parts, rest = [], json.dumps(payload, indent=2)
    for key, items in lists.items():
        before, rest = rest.split(f'"{key}": null', 1)
        if items:
            parts += [before, f'"{key}": [\n', ",\n".join(items), "\n  ]"]
        else:
            parts += [before, f'"{key}": []']
    parts.append(rest)
    return "".join(parts)


def _edge_items(rel: np.ndarray) -> list[str]:
    """The indent=2 texts of the edges of the bool matrix `rel`, one string
    per source row, joined over per-target strings."""
    targets = np.array([f"{j}\n    ]" for j in range(rel.shape[1])], dtype=object)
    items = []
    for i in np.flatnonzero(rel.any(axis=1)):
        head = f"    [\n      {i},\n      "
        items.append(head + (",\n" + head).join(targets.compress(rel[i]).tolist()))
    return items


_CELLS = [f"      {json.dumps(name)}" for name in values.VALUE_NAMES]


def _row_items(rows: np.ndarray) -> list[str]:
    """The indent=2 texts of the value names of `rows`, one string per row,
    joined over per-value strings (a closure is never empty, so no row is)."""
    return ["    [\n" + ",\n".join(map(_CELLS.__getitem__, row)) + "\n    ]"
            for row in rows.tolist()]


def _model_payload(model: TableModel, rows, relation) -> dict:
    return {
        "logic": model.logic.name,
        "closure": model.closure.texts(),
        "rows": rows,
        "relation": relation,
    }


def model_to_json_dict(model: TableModel) -> dict:
    rows = [[values.VALUE_NAMES[v] for v in row] for row in model.rows]
    return _model_payload(model, rows, np.argwhere(model.relation_matrix()).tolist())


def model_to_json(model: TableModel) -> str:
    """`json.dumps(model_to_json_dict(model), indent=2)`, byte for byte."""
    return _json_spliced(_model_payload(model, None, None),
                         {"rows": _row_items(model.rows),
                          "relation": _edge_items(model.relation_matrix())})


def model_to_csv(model: TableModel) -> str:
    lines = [",".join(model.closure.texts())]
    for row in model.rows:
        lines.append(",".join(values.VALUE_NAMES[v] for v in row))
    return "\n".join(lines) + "\n"


def levels_to_json_dict(clo: Closure, levels: list[np.ndarray]) -> dict:
    return {
        "closure": clo.texts(),
        "levels": [[[values.VALUE_NAMES[v] for v in row] for row in level]
                   for level in levels],
    }


def levels_to_csv(clo: Closure, levels: list[np.ndarray]) -> str:
    header = ["level"] + clo.texts()
    lines = [",".join(header)]
    for k, level in enumerate(levels):
        for row in level:
            lines.append(",".join([str(k)] + [values.VALUE_NAMES[v] for v in row]))
    return "\n".join(lines) + "\n"
