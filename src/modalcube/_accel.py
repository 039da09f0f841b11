"""The row-filtering kernels: one support-filter round and the compatibility matrix.

Row w may follow row v when, at every closure position, w's value is allowed
after v's.  That depends on v only through its signature `arow[v]`, and
distinct signatures are often far fewer than rows, so compatibility is
computed once per table, as one packed uint64 bitset over the rows for each
signature (`Signatures`).  A support-filter round then ANDs those bitsets
with the alive rows and with the value planes, m * 8 * S * ceil(n / 64) words
for S signatures, n rows and m positions; every temporary is chunked to
`_CHUNK_BYTES`.  The compatibility matrix unpacks the same bitsets.

Kernel inputs are plain arrays derived from a row table:

    arow[v, i]  mask of values admissible at successors of row v, position i
    bits[v, i]  1 << value of row v at position i
    preq[v, i]  mask a successor value must hit for the "possible" half of
                the support obligation (0 when the position imposes none)
    pnreq[v, i] same for the "possibly false" half
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# perfbench/worker.py reads these to report the kernel; only the numpy one exists.
HAVE_NUMBA = USING_NUMBA = False

_CHUNK_BYTES = 1 << 20   # per temporary: 1 MB stays in cache, and ran faster than 32 MB
_ONE_HOT = np.uint8(1) << np.arange(8, dtype=np.uint8)


def _chunks(n: int, item_bytes: int):
    """Slices of range(n), each spanning at most _CHUNK_BYTES of items."""
    step = max(1, _CHUNK_BYTES // max(1, item_bytes))
    for c0 in range(0, n, step):
        yield slice(c0, min(n, c0 + step))


def _pack(flags: np.ndarray) -> np.ndarray:
    """uint64[k, ceil(n / 64)]: bit r % 64 of word r // 64 is flags[k, r]."""
    k, n = flags.shape
    out = np.zeros((k, -(-n // 64) * 8), dtype=np.uint8)
    out[:, :-(-n // 8)] = np.packbits(flags, axis=1, bitorder="little")
    return out.view("<u8")


class Signatures(NamedTuple):
    planes: np.ndarray   # uint64[m, 8, words]: rows holding value v at position i
    compat: np.ndarray   # uint64[S, words]: rows allowed after signature s
    inverse: np.ndarray  # intp[n]: the signature of each row


def signatures(arow: np.ndarray, bits: np.ndarray) -> Signatures:
    """Value planes and per-signature compatibility bitsets of a row table."""
    n, m = arow.shape
    words = -(-n // 64)
    keyed = np.ascontiguousarray(arow).view(f"V{m}").reshape(n)
    sig, inverse = np.unique(keyed, return_inverse=True)
    sig = sig.view(np.uint8).reshape(-1, m)
    # rows hitting each one-hot mask (the value planes) and each distinct
    # signature mask (at most 8, one per value), position by position
    masks, code = np.unique(sig, return_inverse=True)
    mask = np.concatenate([_ONE_HOT, masks])
    hits = np.empty((m, mask.size, words), dtype="<u8")
    for s in _chunks(m, mask.size * n):
        hit = (bits.T[s, None, :] & mask[:, None]) != 0
        hits[s] = _pack(hit.reshape(-1, n)).reshape(-1, mask.size, words)
    code = 8 + code.reshape(sig.shape)
    compat = np.empty((sig.shape[0], words), dtype="<u8")
    for s in _chunks(sig.shape[0], m * words * 8):
        compat[s] = np.bitwise_and.reduce(hits[np.arange(m), code[s]], axis=1)
    return Signatures(np.ascontiguousarray(hits[:, :8]), compat, inverse.reshape(n))


def supported(avail, preq, pnreq):
    """Whether `avail` hits every nonzero `preq`/`pnreq` mask, over the last axis."""
    return (((preq == 0) | ((avail & preq) != 0))
            & ((pnreq == 0) | ((avail & pnreq) != 0))).all(axis=-1)


def support_filter_round(sigs: Signatures, alive, preq, pnreq):
    """One deletion round: rows of `alive` whose obligations stay supported.

    A signature's available values at a position are those held there by some
    alive row compatible with it, so no witness count exists to overflow.
    """
    m, _, words = sigs.planes.shape
    # a signature without alive rows keeps avail 0: its rows stay deleted
    live = np.flatnonzero(np.bincount(sigs.inverse[alive], minlength=sigs.compat.shape[0]))
    reach = sigs.compat[live] & _pack(alive[None])
    avail = np.zeros((sigs.compat.shape[0], m), dtype=np.uint8)
    for s in _chunks(live.size, m * 8 * words * 8):
        hit = np.bitwise_or.reduce(reach[s, None, None, :] & sigs.planes, axis=3) != 0
        avail[live[s]] = np.packbits(hit, axis=2, bitorder="little")[:, :, 0]
    return alive & supported(avail[sigs.inverse], preq, pnreq)


def compat_matrix(arow, bits):
    """Maximal successor relation: edge (v, w) iff w is admissible after v."""
    n = arow.shape[0]
    sigs = signatures(arow, bits)
    out = np.empty((n, n), dtype=bool)
    for s in _chunks(n, sigs.compat.shape[1] * 64):
        packed = sigs.compat[sigs.inverse[s]].view(np.uint8)
        out[s] = np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)
    return out
