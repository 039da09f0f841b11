"""Per-logic non-deterministic truth functions for bot, -> and [].

The box column is read off the logic's frames (`logics.frame_tables`).
Falsum and implication are literal data shared by all logics and restricted
to each logic's values; implication keeps the cells that mix a stable with a
non-stable argument, which no frame realizes.  Derived connectives are never
hand-tabulated: negation is the bot column of the implication table and
diamond is computed by composing negation and box over every choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import values
from .logics import Logic, frame_tables, lookup
from .values import mask_of

__all__ = [
    "Nmatrix", "nmatrix", "ValueNotInLogicError",
    "IMP_TABLE", "BOT_VALUES", "BOT_VALUE_OF",
]


class ValueNotInLogicError(ValueError):
    def __init__(self, v: int, logic: Logic):
        name = values.VALUE_NAMES[v] if 0 <= v < 8 else f"code {v} (codes are 0-7)"
        super().__init__(f"value {name} is not admissible in {logic.name} "
                         f"(admissible: {' '.join(values.names_in(logic.values_mask))})")


def _check_admissible(logic: Logic, v: int) -> None:
    """Raise ValueNotInLogicError unless v codes a value the logic admits."""
    if not (0 <= v < 8 and logic.values_mask >> v & 1):
        raise ValueNotInLogicError(v, logic)


# Implication: rows are the antecedent value, columns the consequent value.
# Cells are space-separated value names; the table is shared by all logics
# and restricted to each logic's admissible values on use.
IMP_TABLE = {
    "F":   {"F": "T",   "f": "T",     "ff": "T",   "fff": "T",   "ttt": "T",   "tt": "T",  "t": "T",   "T": "T"},
    "f":   {"F": "t",   "f": "T t",   "ff": "tt",  "fff": "T",   "ttt": "t",   "tt": "T",  "t": "T t", "T": "T"},
    "ff":  {"F": "ttt", "f": "t",     "ff": "tt",  "fff": "T",   "ttt": "ttt", "tt": "tt", "t": "t",   "T": "T"},
    "fff": {"F": "ttt", "f": "t",     "ff": "tt",  "fff": "T",   "ttt": "ttt", "tt": "tt", "t": "t",   "T": "T"},
    "ttt": {"F": "fff", "f": "fff",   "ff": "fff", "fff": "fff", "ttt": "T",   "tt": "T",  "t": "T",   "T": "T"},
    "tt":  {"F": "F",   "f": "f",     "ff": "ff",  "fff": "fff", "ttt": "ttt", "tt": "tt", "t": "ttt", "T": "T"},
    "t":   {"F": "f",   "f": "f fff", "ff": "fff", "fff": "fff", "ttt": "t",   "tt": "T",  "t": "T t", "T": "T"},
    "T":   {"F": "F",   "f": "f",     "ff": "ff",  "fff": "fff", "ttt": "ttt", "tt": "tt", "t": "t",   "T": "T"},
}

BOT_VALUES = "F ff"

# uint8[8]: falsum's value in the fragment of each value, ff for a stable
# one (tt, ff) and F for the others, as the two kinds of rows evaluate bot.
BOT_VALUE_OF = np.where(values.in_mask(values.STABLE_MASK, np.arange(8)),
                        values.ff, values.F).astype(np.uint8)

_IMP_MASKS = np.zeros((8, 8), dtype=np.uint8)
for _a, _row in IMP_TABLE.items():
    for _b, _cell in _row.items():
        _IMP_MASKS[values.value_id(_a), values.value_id(_b)] = mask_of(_cell)

_BOT_MASK = mask_of(BOT_VALUES)


@dataclass(frozen=True)
class Nmatrix:
    logic: Logic
    bot_mask: int
    imp_masks: np.ndarray   # (8, 8) uint8, already intersected with V(L)
    box_masks: np.ndarray   # (8,) uint8, zero for values outside V(L)

    def imp(self, a: int, b: int) -> int:
        """Admissible values of an implication, as a mask.

        Outputs are the shared table intersected with the logic's value set.
        For KB5 a handful of cells mixing a stable with a non-stable argument
        intersect to the empty mask; such argument pairs never occur inside a
        valuation (stable values only ever appear alongside stable values).
        """
        _check_admissible(self.logic, a)
        _check_admissible(self.logic, b)
        return int(self.imp_masks[a, b])

    def box(self, a: int) -> int:
        _check_admissible(self.logic, a)
        return int(self.box_masks[a])

    def neg(self, a: int) -> int:
        """Negation is the implication into falsum, read in the argument's
        fragment (`BOT_VALUE_OF`)."""
        _check_admissible(self.logic, a)
        return self.imp(a, int(BOT_VALUE_OF[a]))

    def dia(self, a: int) -> int:
        """Diamond by composition: union of neg(box(neg(a))) over all choices."""
        out = 0
        for b in values.values_in(self.neg(a)):
            for c in values.values_in(self.box(b)):
                out |= self.neg(c)
        return out


@cache
def _nmatrix_of(logic: Logic) -> Nmatrix:
    vmask = logic.values_mask
    inside = values.in_mask(vmask, np.arange(8))
    # cells restricted to V(L); rows and columns of values outside it zeroed
    imp = (_IMP_MASKS & vmask) * np.outer(inside, inside)
    return Nmatrix(logic, _BOT_MASK & vmask, imp, frame_tables(logic.frame_props).box)


def nmatrix(logic: Logic | str) -> Nmatrix:
    return _nmatrix_of(lookup(logic) if isinstance(logic, str) else logic)
