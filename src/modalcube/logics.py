"""Registry of the fifteen normal modal logics of the cube."""

from __future__ import annotations

from dataclasses import dataclass

from . import values
from .formula import Formula, parse

# Admissible values, one condition per axiom: D (no dead ends) drops the
# stable tt/ff, which only dead ends take; T drops fff (false but necessary)
# and ttt (true but impossible), which no world seeing itself can take; so do
# B and 5 together, since there every world with a successor sees itself.
_VALUE_CONDITIONS = (
    ({"D"}, values.STABLE_MASK),
    ({"T"}, values.mask_of("fff ttt")),
    ({"B", "5"}, values.mask_of("fff ttt")),
)


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
    property, T also gives D, and each value condition that holds applies."""
    labels = tuple(axioms.split())
    props = {label.upper() for label in labels if label != "k"}
    if "T" in props:
        props.add("D")
    mask = values.ALL_MASK
    for needed, excluded in _VALUE_CONDITIONS:
        if needed <= props:
            mask &= ~excluded
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
