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
from functools import cache

import numpy as np

from . import values
from ._accel import compat_matrix, signatures, support_filter_round, supported
from .formula import Atom, Closure, Formula, children, closure, print_formula
from .logics import Logic, frame_tables
from .nmatrix import Nmatrix, _check_admissible, nmatrix
from .values import in_mask, mask_of

ROW_CAP_DEFAULT = 2_000_000

_POPCOUNT = np.array([bin(x).count("1") for x in range(256)], dtype=np.int64)
_BITS = np.arange(8, dtype=np.uint8)
_SINGLE_VALUE = np.full(256, 255, dtype=np.uint8)
for _v in range(8):
    _SINGLE_VALUE[1 << _v] = _v

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
    """Per value: the designated-side and non-designated-side witness masks."""
    allowed = _allowed_masks(logic)
    return ((allowed & logic.designated_mask) * in_mask(values.P_MASK, _BITS),
            (allowed & logic.nondesignated_mask) * in_mask(values.PN_MASK, _BITS))


def support_requirements(logic: Logic, v: int) -> list[int]:
    """Witness sets the value demands of its successors, designated side first.

    A value that claims possibility needs a successor designating the
    formula; one that claims refutability needs a successor that does not.
    Both sets are already intersected with the allowed-successor mask.
    """
    _check_admissible(logic, v)
    preq, pnreq = _requirement_masks(logic)
    out = []
    if values.member(v, "P"):
        out.append(int(preq[v]))
    if values.member(v, "PN"):
        out.append(int(pnreq[v]))
    return out


# ---------------------------------------------------------------------------
# Row enumeration
# ---------------------------------------------------------------------------

def _expand(rows: np.ndarray, cells: np.ndarray, k: int, row_cap: int) -> np.ndarray:
    """Fill column k, branching each row over the bits of its cell mask.

    `np.nonzero` lists (row, value) pairs in row-major order, so branching
    lex-sorted, distinct rows in ascending value order keeps them lex-sorted
    and distinct.
    """
    bits = np.unpackbits(cells[:, None], axis=1, bitorder="little")
    total = np.count_nonzero(bits)
    if total > row_cap:
        raise RowLimitError(total, row_cap, k + 1, rows.shape[1])
    src, v = bits.nonzero()
    out = rows.take(src, axis=0)
    out[:, k] = v
    return out


def _cells(mat: Nmatrix, rows: np.ndarray, kind: str, i: int, j: int,
           atoms: np.ndarray, bot: np.ndarray) -> np.ndarray:
    """Per row, the admissible-value mask of one closure position.

    Atoms and falsum read the uint8[8] tables `atoms` and `bot` at the row's
    first value; box and implication read the Nmatrix at the row's values of
    their arguments.
    """
    if kind == "box":
        return mat.box_masks[rows[:, i]]
    if kind == "imp":
        return mat.imp_masks[rows[:, i], rows[:, j]]
    return (atoms if kind == "atom" else bot)[rows[:, 0]]


@cache
def _fragment_tables(logic: Logic) -> tuple[np.ndarray, np.ndarray]:
    """Atom and falsum masks indexed by a row's first value: the stable atoms
    and ff when it is tt or ff, the non-stable atoms and F otherwise."""
    stable = in_mask(values.STABLE_MASK, np.arange(8))
    atoms = np.where(stable, values.STABLE_MASK, ~values.STABLE_MASK) & logic.values_mask
    bot = np.where(stable, 1 << values.ff, 1 << values.F) & logic.values_mask
    return atoms.astype(np.uint8), bot.astype(np.uint8)


@cache
def _union_tables(logic: Logic) -> tuple[np.ndarray, np.ndarray]:
    """Atom and falsum masks over both fragments, whatever the first value."""
    return (np.full(8, logic.values_mask, dtype=np.uint8),
            np.full(8, nmatrix(logic).bot_mask, dtype=np.uint8))


def enumerate_rows(logic: Logic, clo: Closure, row_cap: int = ROW_CAP_DEFAULT) -> np.ndarray:
    """All table-compatible rows over the closure, lexicographically sorted.

    One pass over the closure builds the non-stable and the stable (tt/ff)
    fragment at once.  Column 0, an atom or falsum, takes the values of both;
    every later atom or falsum column takes its fragment's values, read off
    the row's first value.  Box and implication cells stay inside their
    fragment, so rows mixing stable with non-stable values are never
    generated.  Each column branches in ascending value order, which leaves
    the rows sorted without a final sort.  No reachable cell is empty, so
    the row count never drops from one column to the next, and the cap check
    at each column raises exactly when the final count exceeds the cap.
    """
    mat = nmatrix(logic)
    structure = clo.structure()
    rows = np.zeros((1, len(structure)), dtype=np.uint8)
    tables, fragment = _union_tables(logic), _fragment_tables(logic)
    for k, (kind, i, j) in enumerate(structure):
        rows = _expand(rows, _cells(mat, rows, kind, i, j, *tables), k, row_cap)
        tables = fragment
    return rows


def validate_rows(logic: Logic, clo: Closure, rows: np.ndarray) -> np.ndarray:
    """Table-compatibility plus the stability rule, per row."""
    mat = nmatrix(logic)
    ok = in_mask(logic.values_mask, rows).all(axis=1)
    rows = np.where(ok[:, None], rows, 0)  # rejected rows read no cell past code 7
    for k, (kind, i, j) in enumerate(clo.structure()):
        cells = _cells(mat, rows, kind, i, j, *_union_tables(logic))
        ok &= (cells >> rows[:, k]) & 1 == 1
    stable = in_mask(values.STABLE_MASK, rows)
    ok &= ~stable.any(axis=1) | stable.all(axis=1)
    return ok


# ---------------------------------------------------------------------------
# Filtering
# ---------------------------------------------------------------------------

def _kernel_inputs(logic: Logic, rows: np.ndarray):
    allowed = _allowed_masks(logic)
    preq, pnreq = _requirement_masks(logic)
    return allowed[rows], np.uint8(1) << rows, preq[rows], pnreq[rows]


def build_relation(logic: Logic, rows: np.ndarray) -> np.ndarray:
    """Maximal successor relation: (v, w) related iff every position of w is
    allowed after the corresponding position of v."""
    if rows.shape[0] == 0:
        return np.zeros((0, 0), dtype=bool)
    allowed = _allowed_masks(logic)
    return compat_matrix(allowed[rows], np.uint8(1) << rows)


def filter_rows(logic: Logic, rows: np.ndarray) -> tuple[np.ndarray, int]:
    """Greatest-fixpoint deletion of unsupported rows.

    Each round removes, simultaneously, every row with a witness set no
    surviving successor can hit; returns the survivors and the number of
    rounds that deleted something.
    """
    if rows.shape[0] == 0:
        return rows, 0
    arow, bits, preq, pnreq = _kernel_inputs(logic, rows)
    sigs = signatures(arow, bits)
    alive = np.ones(rows.shape[0], dtype=bool)
    iterations = 0
    while True:
        keep = support_filter_round(sigs, alive, preq, pnreq)
        if keep.sum() == alive.sum():
            break
        alive = keep
        iterations += 1
    return rows[alive], iterations


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

    def relation_pairs(self) -> list[list[int]]:
        return np.argwhere(self.relation_matrix()).tolist()

    def stable_flags(self) -> np.ndarray:
        if self.rows.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        return in_mask(values.STABLE_MASK, self.rows[:, 0])


def filter_model(logic: Logic, clo: Closure, row_cap: int = ROW_CAP_DEFAULT) -> TableModel:
    """Enumerate and filter; the result is the union of all models over the
    closure, so membership in it decides membership in some model."""
    rows = enumerate_rows(logic, clo, row_cap)
    kept, iterations = filter_rows(logic, rows)
    return TableModel(logic, clo, kept, iterations)


def frame_relation(model: TableModel) -> np.ndarray:
    """The successors of each row, for extraction and column extension alike.

    Without euclidean frames (axiom 5) this is the maximal relation, which
    in a filtered table already has the logic's frame properties.  With them
    the maximal relation need not be euclidean, and in a euclidean frame the
    successors of a world form a cluster.  So the rows that may follow themselves split into
    cliques of mutually admissible rows; a clique whose rows support each
    other relates all of them, and every other row with an obligation points
    into the first such clique that meets it, as far as the row admits.
    """
    maximal = model.relation_matrix()
    if "euclidean" not in model.logic.frame_props:
        return maximal
    _, bits, preq, pnreq = _kernel_inputs(model.logic, model.rows)
    looped = maximal.diagonal()
    mutual = maximal & maximal.T & looped & looped[:, None]
    rel = np.zeros_like(maximal)
    cliques, seen = [], np.zeros(model.row_count, dtype=bool)
    for v in np.flatnonzero(looped):
        if seen[v]:
            continue
        mem = np.flatnonzero(mutual[v])
        seen[mem] = True
        if supported(np.bitwise_or.reduce(bits[mem]), preq[mem], pnreq[mem]).all():
            rel[np.ix_(mem, mem)] = True
            cliques.append(mem)
    for v in np.flatnonzero(~rel.any(axis=1) & (preq | pnreq).any(axis=1)):
        for mem in cliques:
            sub = mem[maximal[v, mem]]
            if sub.size and supported(np.bitwise_or.reduce(bits[sub]), preq[v], pnreq[v]):
                rel[v, sub] = True
                break
        else:
            raise ClosureImpossibleError(f"row {v} has no euclidean support clique")
    return rel


# ---------------------------------------------------------------------------
# Consequence
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    valid: bool
    model: TableModel
    goal: Formula
    assumptions: tuple[Formula, ...]
    witness_index: int | None = None

    def witness(self) -> dict[str, str] | None:
        if self.witness_index is None:
            return None
        clo = self.model.closure
        row = self.model.rows[self.witness_index]
        return {print_formula(f, resugar=True): values.VALUE_NAMES[v]
                for f, v in zip(clo.formulas, row)}

    def __str__(self) -> str:
        return "VALID" if self.valid else "INVALID"


def decide(logic: Logic, assumptions, goal: Formula,
           row_cap: int = ROW_CAP_DEFAULT) -> Verdict:
    """Consequence check over the filtered model of the combined closure.

    INVALID verdicts carry the first (in row order) surviving row that
    designates every assumption but not the goal.
    """
    assumptions = tuple(assumptions)
    clo = closure(assumptions + (goal,))
    model = filter_model(logic, clo, row_cap)
    dmask = logic.designated_mask
    bad = ~in_mask(dmask, model.rows[:, clo.position(goal)])
    for a in assumptions:
        bad &= in_mask(dmask, model.rows[:, clo.position(a)])
    hits = np.flatnonzero(bad)
    if hits.size:
        return Verdict(False, model, goal, assumptions, int(hits[0]))
    return Verdict(True, model, goal, assumptions)


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
        if cur.shape[0] == 0:
            levels.append(cur)
            continue
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
    row's cell of `f` through the Nmatrix cell rule, and a single-value cell
    is taken as it is.  The values of a multi-value cell agree on
    designation, so each successor's own cell says whether it designates
    `f`.  The row then takes the cell value that is in N iff every successor
    in `frame_relation` designates `f`, and in I iff none does.

    The rule expects a filtered model.  There every non-stable value carries
    a P or PN obligation, so every non-stable row has a successor: falsum,
    designated by no successor, gets F on those rows and ff on stable rows,
    which have no successors.  The choice preserves the row count, and
    re-filtering the result deletes nothing.  Extending the empty model is
    only defined for atoms and yields the one-column model over all
    admissible values.
    """
    logic = model.logic
    rows = model.rows
    for sub in children(f):
        if sub not in model.closure:
            raise MissingSubformulaError(
                f"cannot extend with {print_formula(f)}: {print_formula(sub)} missing")

    if isinstance(f, Atom) and rows.shape[0] == 0:
        vals = np.array(values.values_in(logic.values_mask), dtype=np.uint8)
        return TableModel(logic, Closure((f,)), vals.reshape(-1, 1))

    clo = model.closure.extended(f)
    kind, i, j = clo.structure()[-1]
    if kind == "atom":
        newcol = rows[:, 0].copy()
    else:
        mat = nmatrix(logic)
        cells = _cells(mat, rows, kind, i, j, *_union_tables(logic))
        multi = _POPCOUNT[cells] > 1
        if multi.any():
            rel = frame_relation(model)
            designates = cells & values.D_MASK != 0
            every = ~(rel & ~designates).any(axis=1)
            some = (rel & designates).any(axis=1)
            exact = (cells & np.where(every, values.N_MASK, ~values.N_MASK & values.ALL_MASK)
                     & np.where(some, ~values.I_MASK & values.ALL_MASK, values.I_MASK))
            cells = np.where(multi, exact, cells)
        newcol = _SINGLE_VALUE[cells]

    new_rows = np.hstack([rows, newcol.reshape(-1, 1)])
    return TableModel(logic, clo, new_rows, model.iterations)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _json_with_relation(payload: dict, rel: np.ndarray) -> str:
    """`json.dumps(payload, indent=2)` where the top-level `"relation"`,
    None in `payload`, is the edge list of the bool matrix `rel`.

    The list text is written straight from the matrix, one join per source
    row over per-target strings, instead of through the pure-Python indent
    encoder.  It replaces the `"relation": null` that json prints: no string
    value can contain that literal, because json escapes its quotes.
    """
    targets = np.array([f"{j}\n    ]" for j in range(rel.shape[1])], dtype=object)
    sources = []
    for i in np.flatnonzero(rel.any(axis=1)):
        head = f"    [\n      {i},\n      "
        sources.append(head + (",\n" + head).join(targets.compress(rel[i]).tolist()))
    before, after = json.dumps(payload, indent=2).split('"relation": null', 1)
    if not sources:
        return before + '"relation": []' + after
    return "".join([before, '"relation": [\n', ",\n".join(sources), "\n  ]", after])


def _model_payload(model: TableModel, relation) -> dict:
    return {
        "logic": model.logic.name,
        "closure": [print_formula(f, resugar=True) for f in model.closure.formulas],
        "rows": [[values.VALUE_NAMES[v] for v in row] for row in model.rows],
        "relation": relation,
    }


def model_to_json_dict(model: TableModel) -> dict:
    return _model_payload(model, model.relation_pairs())


def model_to_json(model: TableModel) -> str:
    """`json.dumps(model_to_json_dict(model), indent=2)`, byte for byte."""
    return _json_with_relation(_model_payload(model, None), model.relation_matrix())


def model_to_csv(model: TableModel) -> str:
    lines = [",".join(print_formula(f, resugar=True) for f in model.closure.formulas)]
    for row in model.rows:
        lines.append(",".join(values.VALUE_NAMES[v] for v in row))
    return "\n".join(lines) + "\n"


def levels_to_json_dict(clo: Closure, levels: list[np.ndarray]) -> dict:
    return {
        "closure": [print_formula(f, resugar=True) for f in clo.formulas],
        "levels": [[[values.VALUE_NAMES[v] for v in row] for row in level]
                   for level in levels],
    }


def levels_to_csv(clo: Closure, levels: list[np.ndarray]) -> str:
    header = ["level"] + [print_formula(f, resugar=True) for f in clo.formulas]
    lines = [",".join(header)]
    for k, level in enumerate(levels):
        for row in level:
            lines.append(",".join([str(k)] + [values.VALUE_NAMES[v] for v in row]))
    return "\n".join(lines) + "\n"
