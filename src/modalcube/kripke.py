"""Relational models: extraction from table models, frame closure, forcing,
and a bounded brute-force decision oracle.

Extraction turns every surviving row into a world (an atom holds where the
row designates it) and equips the worlds with a relation drawn from the
maximal successor relation, closed under the logic's frame properties.
The oracle enumerates every labelled relational model up to a world bound
and reports the first world satisfying the assumptions but not the goal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import values
from .decision import TableModel, _json_with_relation, _requirement_masks
from .formula import Atom, Falsum, Formula, Implies, atom_names
from .logics import Logic
from .values import in_mask

# frame property per axiom that holds in the logic
_PROP_OF_AXIOM = {
    "D": "serial",
    "T": "reflexive",
    "B": "symmetric",
    "4": "transitive",
    "5": "euclidean",
}

_ORACLE_MAX_RELATION_BITS = 16   # relations enumerable per world count
_ORACLE_MAX_MODELS = 1 << 26


class ClosureImpossibleError(RuntimeError):
    """A frame property cannot be satisfied within the admissible edge set."""


class OracleBudgetError(RuntimeError):
    pass


def frame_props(logic: Logic) -> frozenset[str]:
    return frozenset(_PROP_OF_AXIOM[p] for p in logic.frame_props)


# ---------------------------------------------------------------------------
# Frame properties, on one (n, n) relation or a batch (..., n, n)
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


def check_frame(rel: np.ndarray, props) -> bool:
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


def _euclidean_support_relation(logic: Logic, model: TableModel,
                                maximal: np.ndarray) -> np.ndarray:
    """Euclidean support relation for the logics with 5 but not 4 (K5 and
    KD5), whose maximal relation need not be euclidean.

    Successor rows must be self-admissible, which restricts their values to
    T, F, t, f.  Rows sharing the T/F/contingent signature are mutually
    admissible, so each signature class whose members support each other can
    serve as a successor clique: class members adopt the whole class, every
    other row points into the first supporting class, and euclideanness
    holds by construction.
    """
    rows = model.rows
    n = rows.shape[0]
    rel = np.zeros((n, n), dtype=bool)
    if n == 0:
        return rel
    preq, pnreq = _requirement_masks(logic)
    preq_rows, pnreq_rows = preq[rows], pnreq[rows]
    bits = np.uint8(1) << rows

    def covered(avail: np.ndarray, v: int) -> bool:
        p, q = preq_rows[v], pnreq_rows[v]
        return (((p == 0) | (avail & p != 0)) & ((q == 0) | (avail & q != 0))).all()

    classes: dict[tuple, list[int]] = {}
    for v in np.flatnonzero(maximal.diagonal()):
        sig = tuple("T" if x == values.T else "F" if x == values.F else "c"
                    for x in rows[v])
        classes.setdefault(sig, []).append(int(v))

    kept: list[np.ndarray] = []
    for _, members in sorted(classes.items(), key=lambda kv: min(kv[1])):
        mem = np.array(members)
        avail = np.bitwise_or.reduce(bits[mem], axis=0)
        if all(covered(avail, v) for v in members):
            kept.append(mem)

    in_kept = np.zeros(n, dtype=bool)
    for mem in kept:
        rel[np.ix_(mem, mem)] = True
        in_kept[mem] = True

    for v in range(n):
        if in_kept[v]:
            continue
        if (preq_rows[v] == 0).all() and (pnreq_rows[v] == 0).all():
            continue  # stable rows: no obligations, no successors
        for mem in kept:
            sub = mem[maximal[v, mem]]
            if sub.size and covered(np.bitwise_or.reduce(bits[sub], axis=0), v):
                rel[v, sub] = True
                break
        else:
            raise ClosureImpossibleError(
                f"row {v} has no euclidean-compatible support clique")
    return rel


def to_kripke(model: TableModel) -> KripkeModel:
    """One world per row; an atom holds where its value is designated."""
    logic = model.logic
    maximal = model.relation_matrix()
    if "5" in logic.frame_props and "4" not in logic.frame_props:
        rel = _euclidean_support_relation(logic, model, maximal)
    else:
        rel = frame_closure(maximal, frame_props(logic), maximal)
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

def _eval_worlds(k: KripkeModel, f: Formula, cache: dict) -> np.ndarray:
    if f in cache:
        return cache[f]
    if isinstance(f, Atom):
        out = k.valuation.get(f.name, np.zeros(k.world_count, dtype=bool))
    elif isinstance(f, Falsum):
        out = np.zeros(k.world_count, dtype=bool)
    elif isinstance(f, Implies):
        out = ~_eval_worlds(k, f.left, cache) | _eval_worlds(k, f.right, cache)
    else:
        sub = _eval_worlds(k, f.operand, cache)
        # true at w iff no successor falsifies the operand
        out = ~_compose(k.relation, ~sub)
    cache[f] = out
    return out


def forces(k: KripkeModel, world: int, f: Formula) -> bool:
    if not (0 <= world < k.world_count):
        raise IndexError(f"world {world} out of range")
    return bool(_eval_worlds(k, f, {})[world])


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


@functools.cache
def _frame_relations(n: int, props: frozenset[str]) -> np.ndarray:
    """All (n, n) relations with the properties, ascending by bitmask."""
    count = 1 << (n * n)
    masks = np.arange(count, dtype=np.int64)
    rels = ((masks[:, None] >> np.arange(n * n)) & 1).astype(bool)
    rels = rels.reshape(count, n, n)
    return rels[_holds(rels, props)]


def _eval_batch(f: Formula, rels: np.ndarray, vals: dict[str, np.ndarray],
                cache: dict) -> np.ndarray:
    """Value of f at every (relation, valuation, world), shape (C, V, n)."""
    if f in cache:
        return cache[f]
    c, n = rels.shape[0], rels.shape[1]
    if isinstance(f, Atom):
        arr = vals[f.name]
        out = np.broadcast_to(arr[None, :, :], (c, arr.shape[0], n))
    elif isinstance(f, Falsum):
        out = np.zeros((c, next(iter(vals.values())).shape[0] if vals else 1, n), dtype=bool)
    elif isinstance(f, Implies):
        out = ~_eval_batch(f.left, rels, vals, cache) | _eval_batch(f.right, rels, vals, cache)
    else:
        sub = _eval_batch(f.operand, rels, vals, cache)
        out = ~_compose(~sub, rels.transpose(0, 2, 1))
    cache[f] = out
    return out


def oracle_decide(logic: Logic, assumptions, goal: Formula,
                  max_worlds: int = 3) -> OracleVerdict:
    """Exhaustive search for a world refuting the consequence, by model size.

    Deterministic order: world count, then relation bitmask, then valuation
    bitmask, then world index.  The bound is a budget, not a completeness
    claim: a miss only says no countermodel exists up to `max_worlds` worlds.
    """
    if max_worlds < 1:
        raise ValueError("max_worlds must be at least 1")
    assumptions = tuple(assumptions)
    atoms = sorted(set().union(*(atom_names(f) for f in assumptions + (goal,))))
    props = frame_props(logic)
    for n in range(1, max_worlds + 1):
        if n * n > _ORACLE_MAX_RELATION_BITS:
            raise OracleBudgetError(f"{n} worlds: relation space too large")
        if (1 << (n * n)) * (1 << (len(atoms) * n)) > _ORACLE_MAX_MODELS:
            raise OracleBudgetError(f"{n} worlds x {len(atoms)} atoms over budget")

        nval = 1 << (len(atoms) * n)
        vmasks = np.arange(nval, dtype=np.int64)
        vals = {
            name: ((vmasks[:, None] >> (k * n + np.arange(n))) & 1).astype(bool)
            for k, name in enumerate(atoms)
        }
        if not atoms:
            vals = {}

        rels = _frame_relations(n, props)
        chunk = max(1, (1 << 24) // max(1, nval * n))
        for c0 in range(0, rels.shape[0], chunk):
            sub = rels[c0:c0 + chunk]
            cache: dict = {}
            target = np.ones((sub.shape[0], nval, n), dtype=bool)
            for a in assumptions:
                target &= _eval_batch(a, sub, vals, cache)
            target &= ~_eval_batch(goal, sub, vals, cache)
            if target.any():
                flat = int(np.argmax(target.reshape(-1)))
                ci, rest = divmod(flat, nval * n)
                vi, wi = divmod(rest, n)
                valuation = {name: vals[name][vi].copy() for name in atoms}
                model = KripkeModel(sub[ci].copy(), valuation)
                return OracleVerdict(model, wi, max_worlds)
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
