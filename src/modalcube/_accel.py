"""The row-filtering kernels: one support-filter round and the compatibility matrix.

Row w may follow row v when, at every closure position, w's value is allowed
after v's.  That depends on v only through its signature `arow[v]`, and on w
only through its target class: per position, which of the table's distinct
successor masks hold w's value (the values allowed before w's value, as far
as the table's signatures tell them apart).  Both are often far fewer than
rows: K on 194408 rows has 24301 signatures and 512 classes, K on 7928 rows
991 and 48.  Only in KB and KDB is nearly every row a signature and a class
of its own.  So compatibility is a relation between S signatures and T
classes (`Signatures`), packed to S * ceil(T / 8) bytes.  With P the
unpacked signature masks and Q the one-hot values of one row per class,
`compat[s, t]` is `(P @ Q.T)[s, t] == m` for m positions.

A support-filter round marks `held[t, 8i + v]`, whether some alive row of
class t takes value v at position i, with one scatter.  A signature's
available values are `compat @ held > 0`, S * T * 8m multiply-adds; each row
then checks its obligations against its signature's.  Both products run in
blocks of signatures and classes whose float32 operands and results each fit
`_CHUNK_BYTES`, so a block stays in cache whether T is 16 or n.  The
compatibility matrix reads `compat[sig(v), class(w)]`, through an S x n table
no larger than its n x n result.

Both products are exact, and nothing is counted that could overflow.  An
entry of `P @ Q.T` sums m terms that are each 0 or 1, so every partial sum is
an integer of at most m, exact in float32 while m < 2**24, and `== m`
compares exactly.  An entry of `compat @ held` sums terms that are each 0 or
1 too; adding a non-negative float never makes a sum smaller, so the sum is
positive exactly when some term is 1, however it rounds, and `> 0` is exact.

Kernel inputs are plain arrays derived from a row table:

    arow[v, i]  mask of values admissible at successors of row v, position i
    bits[v, i]  1 << value of row v at position i
    preq[v, i]  mask a successor value must hit for the "possible" half of
                the support obligation (0 when the position imposes none)
    pnreq[v, i] same for the "possibly false" half
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# perfbench/worker.py reads these to report the kernel; only the numpy one exists.
HAVE_NUMBA = USING_NUMBA = False

_CHUNK_BYTES = 1 << 18   # per temporary: 1 MB raised cube-queries' peak RSS by 1.5 MB
_VALUES = np.arange(8, dtype=np.uint8)
_VALUE_OF = np.zeros(256, dtype=np.intp)   # the value v of the one-hot byte 1 << v
_VALUE_OF[1 << _VALUES] = _VALUES


def _chunks(n: int, item_bytes: int):
    """Slices of range(n), each spanning at most _CHUNK_BYTES of items."""
    step = max(1, _CHUNK_BYTES // max(1, item_bytes))
    for c0 in range(0, n, step):
        yield slice(c0, min(n, c0 + step))


def _block_sizes(classes: int, width: int) -> tuple[int, int]:
    """Signatures and classes per block of a float32 product whose operands
    are `width` wide: each operand and the product stay within _CHUNK_BYTES,
    and a block of classes spans whole bytes of the packed relation."""
    cells = max(1, _CHUNK_BYTES // 4)
    per_block = min(-(-classes // 8) * 8, max(8, math.isqrt(cells) // 8 * 8))
    return max(1, cells // max(per_block, width)), per_block


def _distinct_rows(a: np.ndarray):
    """The distinct rows of a 2-d uint8 array, and each row's index among them."""
    n, k = a.shape
    keyed = np.ascontiguousarray(a).view(f"V{k}").reshape(n)
    distinct, inverse = np.unique(keyed, return_inverse=True)
    return distinct.view(np.uint8).reshape(-1, k), inverse.reshape(n)


class Signatures(NamedTuple):
    compat: np.ndarray   # uint8[S, ceil(T / 8)]: bit t % 8 of byte t // 8 says class t may follow s
    inverse: np.ndarray  # intp[n]: the signature of each row
    target: np.ndarray   # intp[n]: the target class of each row
    slots: np.ndarray    # intp[n, m]: (m * target + i) * 8 + value, the row's cell of `held`
    classes: int         # T


def signatures(arow: np.ndarray, bits: np.ndarray) -> Signatures:
    """Signatures, target classes and their packed compatibility relation."""
    n, m = arow.shape
    sig, inverse = _distinct_rows(arow)
    # the target key: per position, which distinct successor masks hold the
    # row's value (np.unique of a plain array would import numpy.ma, 10 ms)
    values = _VALUE_OF[bits]
    masks = np.flatnonzero(np.bincount(sig.reshape(-1), minlength=256))
    holds = np.packbits(masks >> _VALUES[:, None] & 1, axis=1)
    key, target = _distinct_rows(holds[values].reshape(n, -1))
    classes = key.shape[0]
    rep = np.empty(classes, dtype=np.intp)   # any row of each class
    rep[target] = np.arange(n)
    compat = np.empty((sig.shape[0], -(-classes // 8)), dtype=np.uint8)
    per_sig, per_class = _block_sizes(classes, 8 * m)
    for t0 in range(0, classes, per_class):
        t1 = min(classes, t0 + per_class)
        # q[8i + v, t]: class t takes value v at position i (Q transposed)
        q = np.unpackbits(bits[rep[t0:t1]].T, axis=0, bitorder="little").astype(np.float32)
        for s0 in range(0, sig.shape[0], per_sig):
            # p[s, 8i + v]: v is allowed at position i after signature s
            p = np.unpackbits(sig[s0:s0 + per_sig], axis=1, bitorder="little").astype(np.float32)
            compat[s0:s0 + per_sig, t0 // 8:-(-t1 // 8)] = np.packbits(
                p @ q == m, axis=1, bitorder="little")
    slots = (m * target[:, None] + np.arange(m)) * 8 + values
    return Signatures(compat, inverse, target, slots, classes)


def supported(avail, preq, pnreq):
    """Whether `avail` hits every nonzero `preq`/`pnreq` mask, over the last axis."""
    return (((preq == 0) | ((avail & preq) != 0))
            & ((pnreq == 0) | ((avail & pnreq) != 0))).all(axis=-1)


def support_filter_round(sigs: Signatures, alive, preq, pnreq):
    """One deletion round: rows of `alive` whose obligations stay supported.

    A signature's available values at a position are those held there by some
    alive row of a class compatible with it.
    """
    m = sigs.slots.shape[1]
    held = np.zeros((sigs.classes, 8 * m), dtype=np.float32)
    held.reshape(-1)[sigs.slots[alive]] = 1
    # a signature without alive rows keeps avail 0: its rows stay deleted
    live = np.flatnonzero(np.bincount(sigs.inverse[alive], minlength=sigs.compat.shape[0]))
    avail = np.zeros((sigs.compat.shape[0], m), dtype=np.uint8)
    per_sig, per_class = _block_sizes(sigs.classes, 8 * m)
    for s0 in range(0, live.size, per_sig):
        block = sigs.compat[live[s0:s0 + per_sig]]
        reached = np.zeros((block.shape[0], 8 * m), dtype=np.float32)
        for t0 in range(0, sigs.classes, per_class):
            t1 = min(sigs.classes, t0 + per_class)
            reach = np.unpackbits(block[:, t0 // 8:-(-t1 // 8)], axis=1, count=t1 - t0,
                                  bitorder="little").astype(np.float32)
            reached += reach @ held[t0:t1]
        # each signature's 8m bits pack to its m bytes of available values
        avail[live[s0:s0 + per_sig]] = np.packbits(reached > 0, bitorder="little").reshape(-1, m)
    return alive & supported(avail[sigs.inverse], preq, pnreq)


def compat_matrix(arow, bits):
    """Maximal successor relation: edge (v, w) iff w is admissible after v."""
    n = arow.shape[0]
    sigs = signatures(arow, bits)
    table = np.unpackbits(sigs.compat, axis=1, count=sigs.classes,
                          bitorder="little").view(bool)
    # take, not fancy indexing: `table[:, target]` comes out column-major,
    # and gathering its rows ran 10x slower
    cols = np.take(table, sigs.target, axis=1)   # the rows allowed after each signature
    out = np.empty((n, n), dtype=bool)
    for s in _chunks(n, n):
        out[s] = np.take(cols, sigs.inverse[s], axis=0)
    return out
