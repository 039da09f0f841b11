"""Relational models: extraction from table models, frame checks, forcing,
and a bounded brute-force decision oracle.  The frame properties, their
names and the frames that have them all come from `logics`; this module
checks them and searches them.

Extraction turns every surviving row into a world (an atom holds where the
row designates it) and relates the worlds by the table's frame relation,
the one `decision.frame_relation` that column extension also reads, after
checking that it has the logic's frame properties.
The oracle searches relational models up to a world bound, one frame per
isomorphism class (`logics._frame_relations`), and reports the first world
satisfying the assumptions but not the goal: the same one a search over
every labelled frame reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decision import ClosureImpossibleError, TableModel, _json_with_relation, frame_relation
from .formula import Atom, Falsum, Formula, Implies, atom_names
from .logics import Logic, _check_names, _compose, _frame_relations, _holds, _missing
from .values import in_mask

_ORACLE_MAX_RELATION_BITS = 16   # relations enumerable per world count
_ORACLE_MAX_MODELS = 1 << 26


class OracleBudgetError(RuntimeError):
    pass


def frame_props(logic: Logic) -> frozenset[str]:
    """`logic.frame_props`, kept as a function because the benchmark
    harness and the tests call it."""
    return logic.frame_props


# ---------------------------------------------------------------------------
# Frame checks, by the conditions `logics` states per axiom
# ---------------------------------------------------------------------------

def check_frame(rel: np.ndarray, props) -> bool:
    _check_names(props)
    return bool(_holds(rel, props))


# ---------------------------------------------------------------------------
# Frame closure within a candidate set
# ---------------------------------------------------------------------------

def frame_closure(rel: np.ndarray, props, candidates: np.ndarray) -> np.ndarray:
    """Least superset of `rel` inside `candidates` with the given properties.

    Reflexive/symmetric/transitive/euclidean steps iterate to a fixpoint;
    seriality is repaired last by adding the first admissible successor of
    any dead-end world.  Raises ClosureImpossibleError when a required edge
    is not admissible.
    """
    _check_names(props)
    props = set(props)
    rel = rel.astype(bool).copy()

    def close_core():
        while (need := _missing(rel, props)).any():
            if (need & ~candidates).any():
                i, j = np.argwhere(need & ~candidates)[0]
                raise ClosureImpossibleError(
                    f"required edge ({i}, {j}) is not admissible")
            rel[need] = True

    close_core()
    if "serial" in props:
        while True:
            lonely = np.flatnonzero(~rel.any(axis=1))
            if lonely.size == 0:
                break
            w = int(lonely[0])
            targets = np.flatnonzero(candidates[w])
            if targets.size == 0:
                raise ClosureImpossibleError(f"world {w} has no admissible successor")
            rel[w, int(targets[0])] = True
            close_core()
    return rel


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

@dataclass
class KripkeModel:
    relation: np.ndarray                 # (n, n) bool
    valuation: dict[str, np.ndarray]     # atom -> bool per world
    world_labels: tuple[str, ...] | None = None

    @property
    def world_count(self) -> int:
        return int(self.relation.shape[0])


def to_kripke(model: TableModel) -> KripkeModel:
    """One world per row; an atom holds where its value is designated."""
    logic = model.logic
    rel = frame_relation(model).copy()
    if not check_frame(rel, frame_props(logic)):
        raise ClosureImpossibleError(f"{logic.name} frame relation lacks a frame property")
    atoms = model.closure.atom_positions()
    valuation = {
        name: in_mask(logic.designated_mask, model.rows[:, pos])
        for name, pos in sorted(atoms.items())
    }
    labels = tuple(f"r{i}" for i in range(model.row_count))
    return KripkeModel(rel, valuation, labels)


# ---------------------------------------------------------------------------
# Forcing
# ---------------------------------------------------------------------------

def _truth(f: Formula, rel: np.ndarray, vals: dict[str, np.ndarray],
           false: np.ndarray, cache: dict) -> np.ndarray:
    """Truth of f at every world, worlds before valuations: (n,) for one
    relation and valuation, (..., n, V) for a batch of relations (..., n, n)
    and of valuations (n, V).

    Atoms and falsum keep the valuation shape `false` has (an atom with no
    valuation is false everywhere); a box broadcasts them against `rel`.
    """
    if f in cache:
        return cache[f]
    if isinstance(f, Atom):
        out = vals.get(f.name, false)
    elif isinstance(f, Falsum):
        out = false
    elif isinstance(f, Implies):
        out = ~_truth(f.left, rel, vals, false, cache) | _truth(f.right, rel, vals, false, cache)
    else:
        sub = _truth(f.operand, rel, vals, false, cache)
        # true at w iff no successor falsifies the operand
        out = ~_compose(rel, ~sub)
    cache[f] = out
    return out


def forces(k: KripkeModel, world: int, f: Formula) -> bool:
    if not (0 <= world < k.world_count):
        raise IndexError(f"world {world} out of range")
    false = np.zeros(k.world_count, dtype=bool)
    return bool(_truth(f, k.relation, k.valuation, false, {})[world])


# ---------------------------------------------------------------------------
# Bounded oracle
# ---------------------------------------------------------------------------

@dataclass
class OracleVerdict:
    countermodel: KripkeModel | None
    world: int | None
    max_worlds: int

    @property
    def found(self) -> bool:
        return self.countermodel is not None

    def __str__(self) -> str:
        if self.found:
            return f"COUNTERMODEL({self.countermodel.world_count} worlds, world {self.world})"
        return f"NO_COUNTERMODEL_UPTO({self.max_worlds})"


def oracle_decide(logic: Logic, assumptions, goal: Formula,
                  max_worlds: int = 3) -> OracleVerdict:
    """Exhaustive search for a world refuting the consequence, by model size.

    Deterministic order: world count, then relation bitmask, then valuation
    bitmask, then world index.  Only the least relation of each isomorphism
    class is searched, and the answer is the one the search over every
    labelled relation gives: isomorphism preserves forcing and the frame
    properties, so the first relation with a refuting world is the least of
    its class.  The bound is a budget, not a completeness claim: a miss only
    says no countermodel exists up to `max_worlds` worlds.
    """
    if max_worlds < 1:
        raise ValueError("max_worlds must be at least 1")
    assumptions = tuple(assumptions)
    atoms = sorted(set().union(*(atom_names(f) for f in assumptions + (goal,))))
    for n in range(1, max_worlds + 1):
        if n * n > _ORACLE_MAX_RELATION_BITS:
            raise OracleBudgetError(f"{n} worlds: relation space too large")
        # counts every labelled relation, though one per class is searched
        if (1 << (n * n)) * (1 << (len(atoms) * n)) > _ORACLE_MAX_MODELS:
            raise OracleBudgetError(f"{n} worlds x {len(atoms)} atoms over budget")

        nval = 1 << (len(atoms) * n)
        vmasks = np.arange(nval, dtype=np.int64)
        vals = {
            name: ((vmasks >> (k * n + np.arange(n))[:, None]) & 1).astype(bool)
            for k, name in enumerate(atoms)
        }
        false = np.zeros((n, nval), dtype=bool)

        rels = _frame_relations(n, logic.frame_props)
        chunk = max(1, (1 << 24) // max(1, nval * n))
        for c0 in range(0, rels.shape[0], chunk):
            sub = rels[c0:c0 + chunk]
            cache: dict = {}
            hit = ~_truth(goal, sub, vals, false, cache)
            for a in assumptions:
                hit = hit & _truth(a, sub, vals, false, cache)
            # search order (relation, valuation, world)
            hit = np.broadcast_to(hit, (sub.shape[0], n, nval)).transpose(0, 2, 1)
            if hit.any():
                ci, vi, wi = np.unravel_index(np.argmax(hit), hit.shape)
                valuation = {name: vals[name][:, vi].copy() for name in atoms}
                model = KripkeModel(sub[ci].copy(), valuation)
                return OracleVerdict(model, int(wi), max_worlds)
    return OracleVerdict(None, None, max_worlds)


# ---------------------------------------------------------------------------
# Output formats
# ---------------------------------------------------------------------------

def _kripke_payload(k: KripkeModel, relation) -> dict:
    return {
        "worlds": k.world_count,
        "relation": relation,
        "valuation": {name: arr.tolist() for name, arr in k.valuation.items()},
    }


def kripke_to_json_dict(k: KripkeModel) -> dict:
    return _kripke_payload(k, np.argwhere(k.relation).tolist())


def kripke_to_json(k: KripkeModel) -> str:
    """`json.dumps(kripke_to_json_dict(k), indent=2)`, byte for byte."""
    return _json_with_relation(_kripke_payload(k, None), k.relation)


def to_dot(k: KripkeModel) -> str:
    lines = ["digraph model {", "  rankdir=LR;"]
    for w in range(k.world_count):
        true_atoms = " ".join(name for name in sorted(k.valuation) if k.valuation[name][w])
        tag = k.world_labels[w] if k.world_labels else f"w{w}"
        label = f"{tag}: {true_atoms}" if true_atoms else tag
        lines.append(f'  w{w} [label="{label}"];')
    for i, j in np.argwhere(k.relation):
        lines.append(f"  w{int(i)} -> w{int(j)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
