"""Exact reference computations the benchmark checks outputs against.

Nothing here calls `modalcube._accel`.  The support filter counts compatible
witnesses in float64 matrix products, which are exact for any row count below
2**53, so no count can wrap the way a uint8 accumulator does.  The successor
constraints and the row enumeration are the library's own (`_kernel_inputs`,
`enumerate_rows`): the reference differs from the library only in the
arithmetic of the fixpoint and of the compatibility relation.

Frame predicates and forcing are re-implemented on plain boolean arrays, so a
model extracted by the library is judged by code that does not share the
library's frame-closure or forcing routines.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from modalcube import values
from modalcube.decision import _allowed_masks, _kernel_inputs
from modalcube.formula import Atom, Box, Falsum, Implies, print_formula
from modalcube.values import in_mask

_CHUNK_CELLS = 1 << 24   # rows x rows x positions per temporary, ~16 MB of bool


def _chunks(n: int, k: int, m: int):
    step = max(1, _CHUNK_CELLS // max(1, k * m))
    for c0 in range(0, n, step):
        yield c0, min(n, c0 + step)


def _compat(arow_sel: np.ndarray, bits: np.ndarray) -> np.ndarray:
    return ((arow_sel[:, None, :] & bits[None, :, :]) != 0).all(axis=2)


def exact_filter(logic, rows: np.ndarray, wrap: int | None = None) -> tuple[np.ndarray, int]:
    """Alive mask of the greatest supported subset, and the deleting rounds.

    With `wrap`, witness counts are taken modulo `wrap` before they are
    compared with zero, as an accumulator of that range would: `wrap=256`
    gives what a uint8 count computes, to find the inputs it gets wrong.
    """
    n = rows.shape[0]
    alive = np.ones(n, dtype=bool)
    if n == 0:
        return alive, 0
    arow, bits, preq, pnreq = _kernel_inputs(logic, rows)
    rounds = 0
    while True:
        idx = np.flatnonzero(alive)
        b = bits[idx]
        planes = [((b >> v) & 1).astype(np.float64) for v in range(8)]
        keep = np.zeros(n, dtype=bool)
        for c0, c1 in _chunks(idx.size, idx.size, rows.shape[1]):
            sel = idx[c0:c1]
            compat = _compat(arow[sel], b).astype(np.float64)
            avail = np.zeros((sel.size, rows.shape[1]), dtype=np.int64)
            for v in range(8):
                count = compat @ planes[v]
                if wrap is not None:
                    count = np.mod(count, wrap)
                avail |= (count > 0.5).astype(np.int64) << v
            p = preq[sel].astype(np.int64)
            q = pnreq[sel].astype(np.int64)
            ok = ((p == 0) | ((avail & p) != 0)) & ((q == 0) | ((avail & q) != 0))
            keep[sel] = ok.all(axis=1)
        if keep.sum() == alive.sum():
            return alive, rounds
        alive = keep
        rounds += 1


def maximal_relation(logic, rows: np.ndarray) -> np.ndarray:
    """Edge (v, w) iff every value of w is allowed after v's value there."""
    n = rows.shape[0]
    out = np.zeros((n, n), dtype=bool)
    if n == 0:
        return out
    arow = _allowed_masks(logic)[rows]
    bits = np.uint8(1) << rows
    for c0, c1 in _chunks(n, n, rows.shape[1]):
        out[c0:c1] = _compat(arow[c0:c1], bits)
    return out


def verdict_of(logic, clo, rows: np.ndarray, assumptions, goal) -> bool:
    """VALID iff no surviving row designates every assumption but not the goal."""
    dmask = logic.designated_mask
    bad = ~in_mask(dmask, rows[:, clo.position(goal)])
    for a in assumptions:
        bad &= in_mask(dmask, rows[:, clo.position(a)])
    return not bad.any()


# ---------------------------------------------------------------------------
# Relational models
# ---------------------------------------------------------------------------

def _reach(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a.astype(np.float64) @ b.astype(np.float64)) > 0.5


def frame_ok(rel: np.ndarray, props) -> bool:
    """The frame properties, each checked on the boolean relation directly."""
    n = rel.shape[0]
    if n == 0:
        return True
    checks = {
        "serial": lambda: rel.any(axis=1).all(),
        "reflexive": lambda: rel[np.arange(n), np.arange(n)].all(),
        "symmetric": lambda: (rel == rel.T).all(),
        "transitive": lambda: not (_reach(rel, rel) & ~rel).any(),
        "euclidean": lambda: not (_reach(rel.T, rel) & ~rel).any(),
    }
    return all(bool(checks[p]()) for p in props)


def truth_values(rel: np.ndarray, valuation: dict, formulas) -> dict:
    """Truth of each formula at every world, formulas subformula-ordered."""
    n = rel.shape[0]
    out: dict = {}
    for f in formulas:
        if isinstance(f, Atom):
            out[f] = np.asarray(valuation.get(f.name, np.zeros(n, dtype=bool)), dtype=bool)
        elif isinstance(f, Falsum):
            out[f] = np.zeros(n, dtype=bool)
        elif isinstance(f, Implies):
            out[f] = ~out[f.left] | out[f.right]
        elif isinstance(f, Box):
            out[f] = ~_reach(rel, ~out[f.operand])
        else:
            raise TypeError(f"unknown formula node {f!r}")
    return out


def truth_lemma_ok(logic, clo, rows: np.ndarray, rel: np.ndarray, valuation: dict) -> bool:
    """Every world forces exactly the closure members its row designates."""
    truth = truth_values(rel, valuation, clo.formulas)
    for pos, f in enumerate(clo.formulas):
        if (truth[f] != in_mask(logic.designated_mask, rows[:, pos])).any():
            return False
    return True


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

def rows_digest(rows: np.ndarray) -> str:
    """Order-independent digest of a row set."""
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    if rows.shape[0] > 1:
        rows = rows[np.lexsort(rows.T[::-1])]
    h = hashlib.sha256(f"{rows.shape[0]}x{rows.shape[1]}:".encode())
    h.update(rows.tobytes())
    return h.hexdigest()[:16]


def relation_digest(rel: np.ndarray) -> str:
    h = hashlib.sha256(f"{rel.shape[0]}:".encode())
    h.update(np.packbits(rel.astype(bool)).tobytes())
    return h.hexdigest()[:16]


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def model_json_text(logic, clo, rows: np.ndarray, rel: np.ndarray) -> str:
    """The documented `table --format json` layout, built from exact data."""
    payload = {
        "logic": logic.name,
        "closure": [print_formula(f, resugar=True) for f in clo.formulas],
        "rows": [[values.VALUE_NAMES[v] for v in row] for row in rows],
        "relation": [[int(i), int(j)] for i, j in np.argwhere(rel)],
    }
    return json.dumps(payload, indent=2)
