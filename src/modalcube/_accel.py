"""The row-filtering kernels: one support-filter round and the compatibility matrix.

Kernels read the uint8[n, m] table `rows` of value ids and `allowed`, the
eight-entry mask of values an atom may take after a world where it takes
each value.  Designation is the fixed value sets D and Dc of `values`.

Row w may follow row v when, at every closure position, w's value is allowed
after v's.  That depends on v only through its signature `allowed[rows[v]]`,
and on w only through its target class: per position, the set of values
after which w's value is allowed, `before[rows[w]]`, one of at most eight
masks that the logic's table fixes.  Both are often far fewer than rows: K
on 194408 rows has 24301 signatures and 512 classes, K on 7928 rows 991 and
48.  Only in KB and KDB is nearly every row a signature and a class of its
own.  So compatibility is a relation between S signatures and T classes
(`Signatures`), one bitset of ceil(T / 64) words per signature.
`signatures` builds a table indexed by value and position: the bitset of
classes whose value at the position is allowed after the value.  A
signature's row of `compat` is the AND of the m bitsets of its successor
masks, each read at a value with that mask, S * m * ceil(T / 64) word ANDs.

A row's obligations depend on it only through its signature too: `need`,
bool[S, 2m], says in column i that the mask at position i holds a
designated value, in column m + i an undesignated one.  So rows of a
signature live or die together, and the fixpoint is a boolean over the S
signatures.  A round packs 2m bitsets over classes: per position, the
classes where a row of an alive signature holds a designated value, and
those where one holds an undesignated value.  Nothing per row and position
is stored for it: `Signatures` has five fields, `compat`, `need`, each
row's signature `inverse` and class `target`, and the caller's `rows`.  A
round sets, a chunk of rows at a time, the flat bits `i * width +
target[v]` of each row v of an alive signature, plus m * width (width = 64
* ceil(T / 64)) where its value is undesignated, in intp.  A signature
meets column j of `need` (its `met`, bool[S, 2m], the same shape) when its
`compat` row ANDed with bitset j is nonzero, and stays alive when it meets
every column it needs.  The compatibility matrix reads
`compat[sig(v), class(w)]`, through an S x n table no larger than its n x n
result.  Bitsets over classes are packed bytes viewed as uint64 words, so
every test is a word AND and nothing is counted that could overflow.

Why this is exact.  A value x in P needs a successor whose value lies in
`allowed[x]` and is designated; a value in PN needs one whose value lies in
`allowed[x]` and is undesignated.  A compatible successor's value always
lies in `allowed[x]`, so the designated and undesignated bitsets answer
that question row for row, with no arithmetic.  Every `allowed[x]` lies
inside the logic's values, whose designated ones are those in D and whose
undesignated ones those in Dc, so D and Dc stand for the logic's sets (a
test pins this in all 15 logics).  By necessitation the obligations are
read off the mask: P is the complement of I and PN that of N, and N needs D
while I needs Dc, so a value outside P (PN) allows no designated
(undesignated) successor; and a test pins in all 15 logics that every
admissible value in P (PN) allows one.  So `need` holds exactly the
columns of the paper's witness sets, none of them empty, which is what the
row-by-row references check.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .values import D_MASK, DC_MASK

# perfbench/worker.py reads these to report the kernel; only the numpy one exists.
HAVE_NUMBA = USING_NUMBA = False

# Largest array the kernels build: the S x ceil(T / 64) words of `compat`, or
# the n x n bool relation.  Past it a decision fails early with WorkLimitError.
WORK_LIMIT_BYTES = 1 << 30

_CHUNK_BYTES = 1 << 18   # per temporary: 1 MB raised cube-queries' peak RSS by 1.5 MB
_VALUES = np.arange(8, dtype=np.uint8)
# per value, 1 when it is undesignated: the half of a round's bits it sets
_UNDESIGNATED = (DC_MASK >> _VALUES & 1).astype(np.intp)


class WorkLimitError(RuntimeError):
    """An array the decision needs would pass WORK_LIMIT_BYTES.

    Raised before the array is allocated; `estimate` is its size in bytes.
    """

    def __init__(self, what: str, estimate: int, limit: int):
        super().__init__(f"{what} needs {estimate} bytes, over the work limit "
                         f"of {limit} bytes")
        self.estimate = estimate
        self.limit = limit


def _check_work(what: str, estimate: int) -> None:
    if estimate > WORK_LIMIT_BYTES:
        raise WorkLimitError(what, estimate, WORK_LIMIT_BYTES)


def _chunks(n: int, item_bytes: int):
    """Slices of range(n), each spanning at most _CHUNK_BYTES of items."""
    step = max(1, _CHUNK_BYTES // max(1, item_bytes))
    for c0 in range(0, n, step):
        yield slice(c0, min(n, c0 + step))


def _words(flags: np.ndarray) -> np.ndarray:
    """uint64[k, w / 64]: each row of the bool array `flags`, w wide with w a
    multiple of 64, packed with flag j at bit j of the packed bytes."""
    return np.packbits(flags, axis=1, bitorder="little").view(np.uint64)


def _groups(a: np.ndarray):
    """Rows of a 2-d uint8 array grouped by content: one row per group, and
    each row's group.  A table of at most 64 rows fits one word of classes
    either way, so there each row is a group of its own and nothing is sorted."""
    n, k = a.shape
    if n <= 64:
        return a, np.arange(n)
    keyed = np.ascontiguousarray(a).view(f"V{k}").reshape(n)
    distinct, inverse = np.unique(keyed, return_inverse=True)
    return distinct.view(np.uint8).reshape(-1, k), inverse.reshape(n)


class Signatures(NamedTuple):
    compat: np.ndarray   # uint64[S, ceil(T / 64)]: bit t says class t may follow s
    need: np.ndarray     # bool[S, 2m]: the round bits s must meet, designated half first
    inverse: np.ndarray  # intp[n]: the signature of each row
    target: np.ndarray   # intp[n]: the class of each row
    rows: np.ndarray     # uint8[n, m]: the caller's table, not a copy


def signatures(rows: np.ndarray, allowed: np.ndarray) -> Signatures:
    """Signatures, target classes and their packed compatibility relation."""
    n, m = rows.shape
    sig, inverse = _groups(allowed[rows])
    # bit x of before[y]: y is allowed after x, so a class is keyed by the
    # values after which its row's value is allowed, per position
    before = np.packbits(allowed[:, None] >> _VALUES & 1, axis=0, bitorder="little")[0]
    key, target = _groups(before[rows])
    classes, words = key.shape[0], -(-key.shape[0] // 64)
    _check_work(f"compatibility of {sig.shape[0]} signatures and {classes} classes",
                sig.shape[0] * words * 8)
    need = np.hstack([sig & D_MASK != 0, sig & DC_MASK != 0])
    # table[x * m + i]: the classes whose value at position i is allowed after x
    per_class = np.unpackbits(key, axis=1, bitorder="little").reshape(classes, m, 8)
    flags = np.zeros((8 * m, 64 * words), dtype=bool)
    flags[:, :classes] = per_class.transpose(2, 1, 0).reshape(8 * m, classes)
    table = _words(flags)
    # a signature's mask reads the table at some value with that mask (stable
    # values and those outside the logic have mask 0, and empty table rows)
    rank = np.empty(256, dtype=np.intp)
    rank[allowed] = np.arange(0, 8 * m, m)
    index = rank[sig] + np.arange(m)
    compat = np.empty((sig.shape[0], words), dtype=np.uint64)
    for s in _chunks(sig.shape[0], m * words * 8):
        compat[s] = np.bitwise_and.reduce(table[index[s]], axis=1)
    return Signatures(compat, need, inverse, target, rows)


def support_filter_round(sigs: Signatures, alive):
    """One deletion round over signatures: those of `alive` whose `need`
    bits stay met.

    A signature meets a bit when some row of an alive signature, of a class
    compatible with it, holds a value of that position and designation.
    """
    n, m = sigs.rows.shape
    width = 64 * sigs.compat.shape[1]
    held = np.zeros((2 * m, width), dtype=bool)
    offset = _UNDESIGNATED * (m * width)
    base = np.arange(m, dtype=np.intp) * width
    for c in _chunks(n, 8 * m):
        v = np.flatnonzero(alive[sigs.inverse[c]]) + c.start
        bit = offset[sigs.rows[v]]
        bit += base
        bit += sigs.target[v, None]
        held.reshape(-1)[bit] = True
    held = _words(held)
    live = np.flatnonzero(alive)
    met = np.zeros_like(sigs.need)
    for s in _chunks(live.size, held.nbytes):
        met[live[s]] = np.bitwise_or.reduce(sigs.compat[live[s], None, :] & held,
                                            axis=2) != 0
    return alive & ~(sigs.need & ~met).any(axis=1)


def compat_matrix(rows, allowed):
    """Maximal successor relation: edge (v, w) iff w is admissible after v."""
    n = rows.shape[0]
    _check_work(f"relation of {n} rows", n * n)
    sigs = signatures(rows, allowed)
    table = np.unpackbits(sigs.compat.view(np.uint8), axis=1, bitorder="little").view(bool)
    # take, not fancy indexing: `table[:, target]` comes out column-major,
    # and gathering its rows ran 10x slower
    cols = np.take(table, sigs.target, axis=1)   # the rows allowed after each signature
    return np.take(cols, sigs.inverse, axis=0)
