"""Registry of the fifteen normal modal logics of the cube.

Each axiom is stated once, by the condition its frames meet, and each
condition has one name, the property in `_PROP_OF_AXIOM`.  A logic's
values, the values that may follow each value along an edge and its box
column are read off the relations on three worlds that meet all of the
logic's conditions (`frame_tables`), one per isomorphism class
(`_frame_relations`, which the oracle searches too).  The valuations of
atoms on n worlds have one layout, which the tables, the oracle and
`decide`'s frame stages read (`_valuations`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import values
from .formula import Formula, parse

# Axiom schemata over the metavariable atoms a and b.  (The atom lexer is
# lowercase-only, so the conventional uppercase metavariables are written in
# lowercase.)
AXIOM_SCHEMAS: dict[str, str] = {
    "k": "[](a -> b) -> ([]a -> []b)",
    "d": "[]a -> <>a",
    "t": "[]a -> a",
    "b": "a -> []<>a",
    "4": "[]a -> [][]a",
    "5": "<>a -> []<>a",
}

# the frame property of each axiom but k: the only names of frame conditions
_PROP_OF_AXIOM = {
    "d": "serial",
    "t": "reflexive",
    "b": "symmetric",
    "4": "transitive",
    "5": "euclidean",
}


# ---------------------------------------------------------------------------
# Frame conditions, on one (n, n) relation or a batch (..., n, n)
# ---------------------------------------------------------------------------

def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean product of relations: (a;b)[x, z] iff a[x, y] and b[y, z]
    for some y (`b` may also be a set of worlds, one bool per world).

    The float32 matmul is exact as a boolean product: each entry sums
    non-negative 0/1 terms, so no positive count can round to zero.
    """
    return np.matmul(a, b, dtype=np.float32) > 0


def _missing(rel: np.ndarray, props) -> np.ndarray:
    """Edges that the reflexive, symmetric, transitive and euclidean
    conditions among `props` require and `rel` lacks."""
    conv = np.swapaxes(rel, -1, -2)
    need = np.zeros_like(rel, dtype=bool)
    if "reflexive" in props:
        need |= np.eye(rel.shape[-1], dtype=bool)
    if "symmetric" in props:
        need |= conv                          # xRy -> yRx
    if "transitive" in props:
        need |= _compose(rel, rel)            # xRy, yRz -> xRz
    if "euclidean" in props:
        need |= _compose(conv, rel)           # xRy, xRz -> yRz
    return need & ~rel


def _check_names(props) -> None:
    """Raise ValueError unless every name in `props` is a frame property."""
    unknown = sorted(set(props) - set(_PROP_OF_AXIOM.values()))
    if unknown:
        raise ValueError(f"unknown frame property {', '.join(map(repr, unknown))}; "
                         f"known: {', '.join(_PROP_OF_AXIOM.values())}")


def _holds(rel: np.ndarray, props) -> np.ndarray:
    """Whether each relation has every property in `props`."""
    ok = ~_missing(rel, props).any(axis=(-2, -1))
    if "serial" in props:
        ok &= rel.any(axis=-1).all(axis=-1)
    return ok


_MAX_RELATION_BITS = 16   # n * n: frames are enumerated on at most 4 worlds


@functools.cache
def _orbit_representatives(n: int) -> np.ndarray:
    """The (n, n) relations that are the least bitmask of their orbit under
    permutations of the worlds, one per isomorphism class, ascending by
    bitmask (bit i*n + j is the edge (i, j)).

    Each permutation but the identity maps a candidate mask to its image
    through one lookup table per byte of the mask, built from where the
    permutation sends each bit; a candidate greater than some image is
    dropped before the next permutation.  On 4 worlds the first six of the
    23 permutations leave 4501 of the 65536 masks, and only the 3044 final
    survivors become relations.  Raises ValueError above _MAX_RELATION_BITS,
    before allocating anything.
    """
    bits = n * n
    if bits > _MAX_RELATION_BITS:
        raise ValueError(f"{n} worlds: {bits} relation bits exceed the bound of "
                         f"{_MAX_RELATION_BITS}")
    nbytes = -(-bits // 8)
    byte_bits = np.arange(256)[:, None] >> np.arange(8) & 1
    edge = np.arange(bits).reshape(n, n)
    masks = np.arange(1 << bits, dtype=np.int64)
    for perm in itertools.islice(itertools.permutations(range(n)), 1, None):
        # bit i*n + j of the image is the edge (perm[i], perm[j])
        dest = np.zeros(nbytes * 8, dtype=np.int64)
        dest[edge[np.ix_(perm, perm)].ravel()] = 1 << np.arange(bits)
        tables = byte_bits @ dest.reshape(nbytes, 8).T   # (256, nbytes)
        image = tables[masks & 0xFF, 0]
        for b in range(1, nbytes):
            image |= tables[masks >> 8 * b & 0xFF, b]
        masks = masks[masks <= image]
    return (masks[:, None] >> np.arange(bits) & 1).astype(bool).reshape(len(masks), n, n)


@functools.cache
def _property_holds(n: int, prop: str) -> np.ndarray:
    """Whether each of `_orbit_representatives(n)` has the property `prop`."""
    return _holds(_orbit_representatives(n), {prop})


@functools.cache
def _frame_relations(n: int, props: frozenset[str]) -> np.ndarray:
    """One (n, n) relation with the properties per isomorphism class, the
    least by bitmask, ascending.

    A relation has `props` when it has each of them (`_holds` unions the
    conditions' missing edges), so the per-property masks over the
    representatives, cached, are ANDed per set of properties.  Raises
    ValueError above _MAX_RELATION_BITS, as `_orbit_representatives` does.
    """
    reps = _orbit_representatives(n)
    keep = np.ones(len(reps), dtype=bool)
    for prop in props:
        keep &= _property_holds(n, prop)
    return reps[keep]


_CLEAR_THEN_SET = np.array([[False], [True]])


def _valuations(n: int, atoms: int):
    """The valuations of `atoms` atoms on `n` worlds: one bool[n, V] per
    atom, V = 2**(atoms*n), each built when it is reached.  Atom i holds at
    world w under valuation v iff bit i*n + w of v is set.  `frame_tables`,
    the oracle and `decide`'s frame stages all read this one layout.

    Bit b over the ascending valuations is 2**b clear values, then 2**b
    set ones, repeated, so each world's row is written through a
    (V / 2**(b+1), 2, 2**b) view of it.
    """
    for i in range(atoms):
        truth = np.empty((n, 1 << atoms * n), dtype=bool)
        for w in range(n):
            truth[w].reshape(-1, 2, 1 << i * n + w)[:] = _CLEAR_THEN_SET
        yield truth


# ---------------------------------------------------------------------------
# Values read off frames
# ---------------------------------------------------------------------------

# A formula's value at a world is fixed by whether it is true there (D), at
# every successor (N) and at no successor (I); a world without successors
# gives a stable value.
_VALUE_OF = np.zeros(8, dtype=np.uint8)
_VALUE_OF[[values.member(v, "D") * 4 + values.member(v, "N") * 2 + values.member(v, "I")
           for v in range(8)]] = range(8)


def value_at(rel: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """The value of a formula at each world from its truth at each world:
    (..., n, V) for relations (..., n, n) and V valuations."""
    return _VALUE_OF[truth * 4 + ~_compose(rel, ~truth) * 2 + ~_compose(rel, truth)]


class FrameTables(NamedTuple):
    values_mask: int          # values p takes at some world
    successors: np.ndarray    # uint8[8]: values p takes after a world where it takes x
    box: np.ndarray           # uint8[8]: values []p takes where p takes x


@functools.cache
def frame_tables(props: frozenset[str], worlds: int = 3) -> FrameTables:
    """The tables of the relations on `worlds` worlds with every frame
    property in `props`, over every valuation of one atom p.  One relation
    per isomorphism class is enough: the tables collect values over all
    worlds and edges, which a permutation of the worlds only relabels.
    Three worlds give the tables exactly; two do not.  One world gives the
    values of the one-world frames: a dead end where the logic allows one,
    and a reflexive point.  Every world gives []p a value, so p takes the
    values with a box cell.
    """
    _check_names(props)
    rels = _frame_relations(worlds, props)
    (p,) = _valuations(worlds, 1)
    at = value_at(rels, p)
    boxed = np.zeros((8, 8), dtype=bool)
    boxed[at, value_at(rels, ~_compose(rels, ~p))] = True
    follows = np.zeros_like(boxed)
    r, w, u = np.nonzero(rels)
    follows[at[r, w], at[r, u]] = True
    box = np.packbits(boxed, axis=-1, bitorder="little")[:, 0]
    return FrameTables(int(np.packbits(box != 0, bitorder="little")[0]),
                       np.packbits(follows, axis=-1, bitorder="little")[:, 0], box)


class LogicError(ValueError):
    """Unknown logic name."""


@dataclass(frozen=True)
class Logic:
    name: str
    axiom_labels: tuple[str, ...]   # always starts with "k"
    frame_props: frozenset[str]     # property names, closed under derivability
    values_mask: int
    designated_mask: int
    nondesignated_mask: int

    def __str__(self) -> str:
        return self.name


def _logic(name: str, axioms: str) -> Logic:
    """A logic from its axiom labels alone: each label but k names a frame
    property, reflexive frames are serial, and the values are those its
    frames give."""
    labels = tuple(axioms.split())
    props = {_PROP_OF_AXIOM[label] for label in labels if label != "k"}
    if "reflexive" in props:
        props.add("serial")
    mask = frame_tables(frozenset(props)).values_mask
    return Logic(name, labels, frozenset(props), mask,
                 mask & values.D_MASK, mask & values.DC_MASK)


_REGISTRY = {
    logic.name: logic
    for logic in [
        _logic("K", "k"),
        _logic("KB", "k b"),
        _logic("K4", "k 4"),
        _logic("K5", "k 5"),
        _logic("K45", "k 4 5"),
        _logic("KB5", "k b 4 5"),
        _logic("KD", "k d"),
        _logic("KDB", "k d b"),
        _logic("KD4", "k d 4"),
        _logic("KD5", "k d 5"),
        _logic("KD45", "k d 4 5"),
        _logic("KT", "k t"),
        _logic("KTB", "k t b"),
        _logic("KT4", "k t 4"),
        _logic("KT45", "k t b 4 5"),
    ]
}

ALIASES = {
    "D": "KD",
    "T": "KT",
    "B": "KTB",
    "S4": "KT4",
    "S5": "KT45",
    "DB": "KDB",
    "D4": "KD4",
    "D5": "KD5",
    "D45": "KD45",
    "KB45": "KB5",
    "KTB45": "KT45",
}

LOGIC_NAMES = tuple(_REGISTRY)

_BY_UPPER = {key.upper(): ALIASES.get(key, key) for key in [*_REGISTRY, *ALIASES]}


def lookup(name: str) -> Logic:
    """Resolve a logic name or alias (case-insensitive)."""
    canonical = _BY_UPPER.get(name.upper())
    if canonical is None:
        known = ", ".join(list(LOGIC_NAMES) + sorted(ALIASES))
        raise LogicError(f"unknown logic {name!r}; known names: {known}")
    return _REGISTRY[canonical]


def all_logics() -> tuple[Logic, ...]:
    return tuple(_REGISTRY.values())


_PARSED_SCHEMAS = {label: parse(text) for label, text in AXIOM_SCHEMAS.items()}


def axioms(logic: Logic) -> list[tuple[str, Formula]]:
    """(label, schema) pairs for the logic, k first."""
    return [(label, _PARSED_SCHEMAS[label]) for label in logic.axiom_labels]
