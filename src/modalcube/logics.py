"""Registry of the fifteen normal modal logics of the cube."""

from __future__ import annotations

from dataclasses import dataclass

from . import values
from .formula import Formula, parse

# Admissible values per family.  Seriality removes the stable values tt/ff;
# reflexivity additionally removes fff/ttt; the KB45 family keeps the stable
# values but drops fff/ttt.
FAMILY_VALUES = {
    "K*": values.mask_of("F f ff fff ttt tt t T"),
    "KD*": values.mask_of("F f fff ttt t T"),
    "KT*": values.mask_of("F f t T"),
    "KB45": values.mask_of("F f ff tt t T"),
}


class LogicError(ValueError):
    """Unknown logic name."""


@dataclass(frozen=True)
class Logic:
    name: str
    family: str
    frame_props: frozenset[str]     # closed under derivability, subset of D T B 4 5
    axiom_labels: tuple[str, ...]   # always starts with "k"

    @property
    def values_mask(self) -> int:
        return FAMILY_VALUES[self.family]

    @property
    def designated_mask(self) -> int:
        return self.values_mask & values.D_MASK

    @property
    def nondesignated_mask(self) -> int:
        return self.values_mask & values.DC_MASK

    def __str__(self) -> str:
        return self.name


def _logic(name, family, props, axioms):
    return Logic(name, family, frozenset(props.split()), tuple(axioms.split()))


_REGISTRY = {
    logic.name: logic
    for logic in [
        _logic("K", "K*", "", "k"),
        _logic("KB", "K*", "B", "k b"),
        _logic("K4", "K*", "4", "k 4"),
        _logic("K5", "K*", "5", "k 5"),
        _logic("K45", "K*", "4 5", "k 4 5"),
        _logic("KB5", "KB45", "B 4 5", "k b 4 5"),
        _logic("KD", "KD*", "D", "k d"),
        _logic("KDB", "KD*", "D B", "k d b"),
        _logic("KD4", "KD*", "D 4", "k d 4"),
        _logic("KD5", "KD*", "D 5", "k d 5"),
        _logic("KD45", "KD*", "D 4 5", "k d 4 5"),
        _logic("KT", "KT*", "T D", "k t"),
        _logic("KTB", "KT*", "T D B", "k t b"),
        _logic("KT4", "KT*", "T D 4", "k t 4"),
        _logic("KT45", "KT*", "T D B 4 5", "k t b 4 5"),
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

_BY_UPPER = {name.upper(): name for name in _REGISTRY}
_BY_UPPER.update({alias.upper(): target for alias, target in ALIASES.items()})


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
