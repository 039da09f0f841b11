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
from ._accel import compat_matrix, signatures, support_filter_round
from .formula import Atom, Box, Closure, Falsum, Formula, children, closure, print_formula
from .logics import Logic
from .nmatrix import Nmatrix, nmatrix
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
    def __init__(self, estimate: int, cap: int):
        super().__init__(f"row count {estimate} exceeds the cap of {cap}")
        self.estimate = estimate
        self.cap = cap


class MissingSubformulaError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Successor constraints
# ---------------------------------------------------------------------------

# A value in the first set allows only successors with a value in the
# second, in every logic with the axiom (None: necessitation, in all of them).
# D and T constrain the values, not the successors.  A stable value is both
# necessary and impossible, so it admits no successors at all.
_SUCCESSOR_CONDITIONS = (
    (None, "N", "D"), (None, "I", "Dc"),
    ("B", "D", "P"), ("B", "Dc", "PN"),
    ("4", "N", "N"), ("4", "I", "I"),
    ("5", "P", "P"), ("5", "PN", "PN"),
)


@cache
def _allowed_masks(logic: Logic) -> np.ndarray:
    """uint8[8]: allowed-successor mask per value (0 outside the logic)."""
    arr = np.zeros(8, dtype=np.uint8)
    for v in values.values_in(logic.values_mask):
        out = logic.values_mask
        for axiom, held, needed in _SUCCESSOR_CONDITIONS:
            if (axiom is None or axiom in logic.frame_props) and values.member(v, held):
                out &= values.NAMED_SETS[needed]
        arr[v] = out
    return arr


def allowed_successors(logic: Logic, v: int) -> int:
    if not (logic.values_mask >> v & 1):
        raise ValueError(f"value {values.VALUE_NAMES[v]} not admissible in {logic.name}")
    return int(_allowed_masks(logic)[v])


@cache
def _requirement_masks(logic: Logic) -> tuple[np.ndarray, np.ndarray]:
    """Per value: the designated-side and non-designated-side witness masks."""
    allowed = _allowed_masks(logic)
    preq = np.zeros(8, dtype=np.uint8)
    pnreq = np.zeros(8, dtype=np.uint8)
    for v in values.values_in(logic.values_mask):
        if values.member(v, "P"):
            preq[v] = allowed[v] & logic.designated_mask
        if values.member(v, "PN"):
            pnreq[v] = allowed[v] & logic.nondesignated_mask
    return preq, pnreq


def support_requirements(logic: Logic, v: int) -> list[int]:
    """Witness sets the value demands of its successors, designated side first.

    A value that claims possibility needs a successor designating the
    formula; one that claims refutability needs a successor that does not.
    Both sets are already intersected with the allowed-successor mask.
    """
    if not (logic.values_mask >> v & 1):
        raise ValueError(f"value {values.VALUE_NAMES[v]} not admissible in {logic.name}")
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

def _expand(rows: np.ndarray, cell_masks: np.ndarray, row_cap: int) -> np.ndarray:
    """Append one column, branching each row over the bits of its cell mask."""
    total = int(_POPCOUNT[cell_masks].sum())
    if total > row_cap:
        raise RowLimitError(total, row_cap)
    src, v = np.nonzero((cell_masks[:, None] >> _BITS) & 1)
    return np.hstack([rows[src], v.astype(np.uint8)[:, None]])


def _lexsorted(rows: np.ndarray) -> np.ndarray:
    if rows.shape[0] <= 1:
        return rows
    return rows[np.lexsort(rows.T[::-1])]


def _cells(mat: Nmatrix, rows: np.ndarray, kind: str, i: int, j: int,
           atoms: int, bot: int) -> np.ndarray:
    """Per row, the admissible-value mask of one closure position.

    Atoms and falsum take the given masks; box and implication read the
    Nmatrix at the row's values of their arguments.
    """
    if kind == "box":
        return mat.box_masks[rows[:, i]]
    if kind == "imp":
        return mat.imp_masks[rows[:, i], rows[:, j]]
    return np.full(rows.shape[0], atoms if kind == "atom" else bot, dtype=np.uint8)


def enumerate_rows(logic: Logic, clo: Closure, row_cap: int = ROW_CAP_DEFAULT) -> np.ndarray:
    """All table-compatible rows over the closure, lexicographically sorted.

    Rows mixing stable (tt/ff) with non-stable values are never generated.
    The same Nmatrix loop runs once per fragment: with non-stable atoms and
    falsum F, whose compound cells then stay non-stable on their own, and,
    when the logic has tt/ff, with stable atoms and falsum ff, whose cells
    form the two-valued stable fragment of the same Nmatrix.
    """
    mat = nmatrix(logic)
    vmask = logic.values_mask
    fragments = [(vmask & ~values.STABLE_MASK, 1 << values.F)]
    if vmask & values.STABLE_MASK == values.STABLE_MASK:
        fragments.append((values.STABLE_MASK, 1 << values.ff))
    parts = []
    for atoms, bot in fragments:
        rows = np.zeros((1, 0), dtype=np.uint8)
        for kind, i, j in clo.structure():
            rows = _expand(rows, _cells(mat, rows, kind, i, j, atoms, bot), row_cap)
        parts.append(rows)
    total = sum(part.shape[0] for part in parts)
    if total > row_cap:
        raise RowLimitError(total, row_cap)
    return _lexsorted(np.vstack(parts))


def validate_rows(logic: Logic, clo: Closure, rows: np.ndarray) -> np.ndarray:
    """Table-compatibility plus the stability rule, per row."""
    mat = nmatrix(logic)
    ok = in_mask(logic.values_mask, rows).all(axis=1)
    for k, (kind, i, j) in enumerate(clo.structure()):
        cells = _cells(mat, rows, kind, i, j, logic.values_mask, mat.bot_mask)
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

_CELL_T3 = mask_of("T t ttt")
_CELL_F3 = mask_of("F f fff")
_CELL_TT = mask_of("T t")
_CELL_FF = mask_of("F f")
_CELL_T_TTT = mask_of("T ttt")


def _succ_profile(rel: np.ndarray, flag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(has, all): per row, whether some / every successor satisfies flag."""
    return (rel & flag).any(axis=1), ~(rel & ~flag).any(axis=1)


def _box_extension(model: TableModel, col: np.ndarray, opts: np.ndarray) -> np.ndarray:
    """One box value per row, chosen by the row's non-deterministic cell."""
    out = _SINGLE_VALUE[opts].copy()
    multi = _POPCOUNT[opts] > 1
    if not multi.any():
        return out
    rel = model.relation_matrix()

    pair = multi & ((opts == _CELL_TT) | (opts == _CELL_FF))
    if pair.any():
        # reflexive logics: a T at some successor and a non-T at another make
        # the box value contingent (the row itself is one of its successors)
        has_up, _ = _succ_profile(rel, col == values.T)
        has_dn, _ = _succ_profile(rel, col != values.T)
        mixed = has_up & has_dn
        choice = np.where(opts == _CELL_TT,
                          np.where(mixed, values.t, values.T),
                          np.where(mixed, values.f, values.F))
        out[pair] = choice[pair]
    triple = multi & ((opts == _CELL_T3) | (opts == _CELL_F3))
    if triple.any():
        has_n, all_n = _succ_profile(rel, in_mask(values.N_MASK, col))
        up = np.where(opts == _CELL_T3, values.T, values.fff)
        dn = np.where(opts == _CELL_T3, values.ttt, values.F)
        mid = np.where(opts == _CELL_T3, values.t, values.f)
        choice = np.where(all_n, up, np.where(~has_n, dn, mid))
        out[triple] = choice[triple]
    euclid = multi & (opts == _CELL_T_TTT)
    if euclid.any():
        has_non_n, _ = _succ_profile(rel, ~in_mask(values.N_MASK, col))
        out[euclid] = np.where(has_non_n, values.ttt, values.T)[euclid]
    if (multi & ~(pair | triple | euclid)).any():
        raise AssertionError("unexpected non-deterministic box cell")
    return out


def _imp_extension(model: TableModel, left: np.ndarray, right: np.ndarray,
                   opts: np.ndarray) -> np.ndarray:
    out = _SINGLE_VALUE[opts].copy()
    multi = _POPCOUNT[opts] > 1
    if not multi.any():
        return out
    rel = model.relation_matrix()
    falsifies = in_mask(values.D_MASK, left) & ~in_mask(values.D_MASK, right)
    has_fals, _ = _succ_profile(rel, falsifies)
    choice = np.where(opts == _CELL_TT,
                      np.where(has_fals, values.t, values.T),
                      np.where(has_fals, values.f, values.fff)).astype(np.uint8)
    out[multi] = choice[multi]
    return out


def extend_column(model: TableModel, f: Formula) -> TableModel:
    """Extend every row with exactly one admissible value for `f`.

    The choice is uniform over each row's successors so that row count is
    preserved and re-filtering the result deletes nothing.  Extending the
    empty model is only defined for atoms and yields the one-column model
    over all admissible values.
    """
    logic = model.logic
    clo = model.closure
    rows = model.rows
    for sub in children(f):
        if sub not in clo:
            raise MissingSubformulaError(
                f"cannot extend with {print_formula(f)}: {print_formula(sub)} missing")

    if isinstance(f, Atom) and rows.shape[0] == 0:
        vals = np.array(values.values_in(logic.values_mask), dtype=np.uint8)
        return TableModel(logic, Closure((f,)), vals.reshape(-1, 1))

    mat = nmatrix(logic)
    if isinstance(f, Atom):
        newcol = rows[:, 0].copy()
    elif isinstance(f, Falsum):
        stable = model.stable_flags()
        newcol = np.where(stable, values.ff, values.F).astype(np.uint8)
    elif isinstance(f, Box):
        col = rows[:, clo.position(f.operand)]
        newcol = _box_extension(model, col, mat.box_masks[col])
    else:
        left = rows[:, clo.position(f.left)]
        right = rows[:, clo.position(f.right)]
        newcol = _imp_extension(model, left, right, mat.imp_masks[left, right])

    new_rows = np.hstack([rows, newcol.reshape(-1, 1)])
    return TableModel(logic, clo.extended(f), new_rows, model.iterations)


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
