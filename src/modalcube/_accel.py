"""The row-filtering kernels: one support-filter round and the compatibility matrix.

Row w may follow row v when, at every closure position, w's value is allowed
after v's.  The support-filter fixpoint checks every surviving row against
every other surviving row at every position, an O(n^2 * m) loop that
dominates runtime on non-trivial closures.  Both kernels run that comparison
through the same `_compat`, vectorized in numpy over row chunks.

Kernel inputs are plain arrays derived from a row table:

    arow[v, i]  mask of values admissible at successors of row v, position i
    bits[v, i]  1 << value of row v at position i
    preq[v, i]  mask a successor value must hit for the "possible" half of
                the support obligation (0 when the position imposes none)
    pnreq[v, i] same for the "possibly false" half
"""

from __future__ import annotations

import numpy as np

# perfbench/worker.py reads these to report the kernel; only the numpy one exists.
HAVE_NUMBA = USING_NUMBA = False

_CHUNK_CELLS = 1 << 25   # rows x rows x positions per temporary, ~32 MB of uint8


def _chunks(n: int, m: int):
    """Slices of range(n) small enough for a (slice, n, m) temporary."""
    step = max(1, _CHUNK_CELLS // max(1, n * m))
    for c0 in range(0, n, step):
        yield slice(c0, min(n, c0 + step))


def _compat(arow_sel: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """compat[a, w]: row w is allowed at every position after row a."""
    return ((arow_sel[:, None, :] & bits[None, :, :]) != 0).all(axis=2)


def support_filter_round(arow, bits, alive, preq, pnreq):
    """One deletion round: rows of `alive` whose obligations stay supported.

    A row's available values at a position are the OR of that position's bits
    over its compatible alive rows, so no witness count exists to overflow.
    """
    n, m = arow.shape
    keep = np.zeros(n, dtype=bool)
    idx = np.flatnonzero(alive)
    b = bits[idx]
    for s in _chunks(idx.size, m):
        sel = idx[s]
        compat = _compat(arow[sel], b)
        avail = np.bitwise_or.reduce(np.where(compat[:, :, None], b[None], 0), axis=1)
        p = preq[sel]
        q = pnreq[sel]
        ok = ((p == 0) | ((avail & p) != 0)) & ((q == 0) | ((avail & q) != 0))
        keep[sel] = ok.all(axis=1)
    return keep


def compat_matrix(arow, bits):
    """Maximal successor relation: edge (v, w) iff w is admissible after v."""
    n, m = arow.shape
    out = np.zeros((n, n), dtype=bool)
    for s in _chunks(n, m):
        out[s] = _compat(arow[s], bits)
    return out
