"""Registry of the fifteen normal modal logics of the cube.

Each axiom is stated once, by the condition its frames meet.  A logic's
values, the values that may follow each value along an edge and its box
column are read off the relations on three worlds that meet all of the
logic's conditions (`frame_tables`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import values
from .formula import Formula, parse

# frame property per axiom that holds in the logic
_PROP_OF_AXIOM = {
    "D": "serial",
    "T": "reflexive",
    "B": "symmetric",
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


def _holds(rel: np.ndarray, props) -> np.ndarray:
    """Whether each relation has every property in `props`."""
    ok = ~_missing(rel, props).any(axis=(-2, -1))
    if "serial" in props:
        ok &= rel.any(axis=-1).all(axis=-1)
    return ok


def _relations(n: int) -> np.ndarray:
    """All (n, n) relations, ascending by bitmask."""
    bits = (np.arange(1 << n * n, dtype=np.int64)[:, None] >> np.arange(n * n)) & 1
    return bits.astype(bool).reshape(len(bits), n, n)


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


@functools.cache
def _frames(n: int) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """Per axiom, which relations on n worlds meet its frame condition, and
    per relation, over every valuation of one atom p: per value x, the values
    p takes at u over the edges wRu where it takes x at w, and the values []p
    takes where p takes x, as masks."""
    rels = _relations(n)
    meets = {axiom: _holds(rels, {prop}) for axiom, prop in _PROP_OF_AXIOM.items()}
    p = (np.arange(1 << n) >> np.arange(n)[:, None]) & 1 == 1
    at = value_at(rels, p)
    boxed = np.zeros((len(rels), 8, 8), dtype=bool)
    boxed[np.arange(len(rels))[:, None, None], at, value_at(rels, ~_compose(rels, ~p))] = True
    follows = np.zeros_like(boxed)
    r, w, u = np.nonzero(rels)
    follows[r[:, None], at[r, w], at[r, u]] = True
    return meets, *(np.packbits(seen, axis=-1, bitorder="little")[..., 0] for seen in (follows, boxed))


class FrameTables(NamedTuple):
    values_mask: int          # values p takes at some world
    successors: np.ndarray    # uint8[8]: values p takes after a world where it takes x
    box: np.ndarray           # uint8[8]: values []p takes where p takes x


@functools.cache
def frame_tables(props: frozenset[str], worlds: int = 3) -> FrameTables:
    """The tables of the relations on `worlds` worlds that meet the frame
    condition of every axiom in `props` (upper-case labels, as in
    `Logic.frame_props`).  Three worlds give the tables exactly; two do not.
    Every world gives []p a value, so p takes the values with a box cell.
    """
    meets, follows, boxed = _frames(worlds)
    held = np.ones(len(boxed), dtype=bool)
    for axiom in props:
        held &= meets[axiom]
    box = np.bitwise_or.reduce(boxed[held])
    return FrameTables(int(np.packbits(box != 0, bitorder="little")[0]),
                       np.bitwise_or.reduce(follows[held]), box)


class LogicError(ValueError):
    """Unknown logic name."""


@dataclass(frozen=True)
class Logic:
    name: str
    axiom_labels: tuple[str, ...]   # always starts with "k"
    frame_props: frozenset[str]     # closed under derivability, subset of D T B 4 5
    values_mask: int
    designated_mask: int
    nondesignated_mask: int

    def __str__(self) -> str:
        return self.name


def _logic(name: str, axioms: str) -> Logic:
    """A logic from its axiom labels alone: each label but k names a frame
    property, T also gives D, and the values are those its frames give."""
    labels = tuple(axioms.split())
    props = {label.upper() for label in labels if label != "k"}
    if "T" in props:
        props.add("D")
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

_PARSED_SCHEMAS = {label: parse(text) for label, text in AXIOM_SCHEMAS.items()}


def axioms(logic: Logic) -> list[tuple[str, Formula]]:
    """(label, schema) pairs for the logic, k first."""
    return [(label, _PARSED_SCHEMAS[label]) for label in logic.axiom_labels]
