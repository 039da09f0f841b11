"""Cross-cutting randomized invariants tying the modules together."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modalcube import values
from modalcube.cli import random_formula
from modalcube.decision import (
    decide, enumerate_rows, filter_model, filter_rows, level_filter, support_requirements,
    validate_rows,
)
from modalcube.formula import Box, children, closure, instantiate, parse
from modalcube.kripke import oracle_decide
from modalcube.logics import axioms, lookup

from conftest import ALL_LOGIC_NAMES


def _random_goals(seed, count, depth=2):
    rng = random.Random(seed)
    return [random_formula(rng, depth, ["p", "q"]) for _ in range(count)]


@pytest.mark.parametrize("seed", [3, 7])
def test_enumerated_and_filtered_rows_revalidate(logic_name, seed):
    logic = lookup(logic_name)
    for goal in _random_goals(seed, 4):
        clo = closure([goal])
        rows = enumerate_rows(logic, clo)
        assert validate_rows(logic, clo, rows).all()
        model = filter_model(logic, clo)
        assert validate_rows(logic, model.closure, model.rows).all()


def test_filtering_is_monotone_and_idempotent(logic_name):
    logic = lookup(logic_name)
    for goal in _random_goals(19, 4):
        clo = closure([goal])
        rows = enumerate_rows(logic, clo)
        kept, _ = filter_rows(logic, rows)
        as_set = {tuple(r) for r in kept}
        assert as_set <= {tuple(r) for r in rows}
        again, iters = filter_rows(logic, kept)
        assert iters == 0 and again.shape == kept.shape


def test_union_of_fixpoints_is_a_fixpoint(logic_name):
    """Support obligations are per-row over pairwise-admissible successors,
    so two self-supporting row sets stay self-supporting together."""
    logic = lookup(logic_name)
    rng = random.Random(5)
    goal = parse("[]p -> q")
    rows = enumerate_rows(logic, closure([goal]))
    n = rows.shape[0]
    for _ in range(5):
        pick1 = np.array([rng.random() < 0.5 for _ in range(n)])
        pick2 = np.array([rng.random() < 0.5 for _ in range(n)])
        s1, _ = filter_rows(logic, rows[pick1])
        s2, _ = filter_rows(logic, rows[pick2])
        union = np.unique(np.vstack([s1, s2]), axis=0)
        survivors, iters = filter_rows(logic, union)
        assert iters == 0
        assert survivors.shape[0] == union.shape[0]


def test_axiom_instances_stay_designated_in_filtered_models(logic_name):
    """Every surviving row designates every axiom instance in its closure."""
    logic = lookup(logic_name)
    p, q = parse("p"), parse("<>q")
    for label, schema in axioms(logic):
        inst = instantiate(schema, {"a": p, "b": q})
        model = filter_model(logic, closure([inst]))
        col = model.rows[:, model.closure.position(inst)]
        assert values.in_mask(logic.designated_mask, col).all(), label


def test_decide_verdicts_agree_with_oracle(logic_name):
    logic = lookup(logic_name)
    for goal in _random_goals(23, 12):
        verdict = decide(logic, [], goal)
        oracle = oracle_decide(logic, [], goal, 3)
        if verdict.valid:
            assert not oracle.found
        if oracle.found:
            assert not verdict.valid


def test_requirements_are_satisfied_in_filtered_models(logic_name):
    """Re-check the support conditions directly against the definition,
    without the kernel: every P/PN value has a witness successor."""
    logic = lookup(logic_name)
    model = filter_model(logic, closure([parse("<>p | []q")]))
    rows = model.rows
    rel = model.relation_matrix()
    for v in range(model.row_count):
        succ = np.flatnonzero(rel[v])
        for i in range(rows.shape[1]):
            for req in support_requirements(logic, int(rows[v, i])):
                assert any(req >> rows[w, i] & 1 for w in succ)


def test_relation_respects_allowed_successors(logic_name):
    from modalcube.decision import allowed_successors
    logic = lookup(logic_name)
    model = filter_model(logic, closure([parse("[]p")]))
    rows, rel = model.rows, model.relation_matrix()
    for v, w in np.argwhere(rel):
        for i in range(rows.shape[1]):
            assert allowed_successors(logic, int(rows[v, i])) >> rows[w, i] & 1


def test_validity_is_closed_under_necessitation(logic_name):
    """Whatever the filter validates stays valid under a box: the staged
    tautology discipline is exactly what makes this rule admissible."""
    from modalcube.formula import Box
    logic = lookup(logic_name)
    checked = 0
    for goal in _random_goals(99, 60):
        if decide(logic, [], goal).valid:
            checked += 1
            assert decide(logic, [], Box(goal)).valid, str(goal)
    assert checked > 0


def test_validity_is_closed_under_substitution(logic_name):
    from modalcube.formula import Atom, subformulas
    logic = lookup(logic_name)
    replacement = parse("[]q | !p")
    checked = 0
    for goal in _random_goals(101, 60):
        names = {f.name for f in subformulas([goal]) if isinstance(f, Atom)}
        if not names or not decide(logic, [], goal).valid:
            continue
        checked += 1
        inst = instantiate(goal, {a: replacement for a in names})
        assert decide(logic, [], inst).valid, str(goal)
    assert checked > 0


def test_decide_matches_bruteforce_reference_on_random_goals(logic_name):
    import reference as ref
    logic = lookup(logic_name)
    for goal in _random_goals(55, 8, depth=1):
        clo = closure([goal])
        if len(clo) > 6:
            continue  # keep the naive reference enumeration affordable
        got = decide(logic, [], goal).valid
        want = ref.decide(logic_name, clo.formulas, [], goal)
        assert got == want, str(goal)


def test_reference_fixpoint_keeps_or_drops_whole_signatures(logic_name):
    """Rows with the same successor masks have the same obligations and the
    same compatible successors, so the greatest fixpoint keeps or drops them
    together.  Checked with the naive reference alone: its enumeration, its
    filter and its successor sets."""
    import reference as ref
    checked = dropped = 0
    for goal in _random_goals(31, 30):
        rows = ref.enumerate_rows(logic_name, closure([goal]).formulas)
        if len(rows) > 300:
            continue
        kept = set(ref.filter_rows(logic_name, rows))
        fate = {}
        for row in rows:
            sig = tuple(ref.allowed_successors(logic_name, v) for v in row)
            assert fate.setdefault(sig, row in kept) == (row in kept), (str(goal), row)
        checked += 1
        dropped += len(rows) - len(kept)
    assert checked >= 20 and dropped > 0


def _modal_depth(f):
    if isinstance(f, Box):
        return 1 + _modal_depth(f.operand)
    return max(map(_modal_depth, children(f)), default=0)


def test_filtered_rows_lie_in_every_level(logic_name):
    """Levels only approximate the greatest fixpoint from above: every row
    the support filter keeps lies in each tautology level up to the modal
    depth plus one (compared as row bytes, outside the kernels)."""
    logic = lookup(logic_name)
    for goal in _random_goals(11, 100, depth=3):   # at most 3568 rows
        levels = level_filter(logic, closure([goal]), _modal_depth(goal) + 1)
        kept = {row.tobytes() for row in filter_rows(logic, levels[0])[0]}
        for level in levels:
            assert kept <= {row.tobytes() for row in level}, str(goal)


# VALID, yet levels md and md + 1 still hold these many rows refuting the goal
@pytest.mark.parametrize("name,text,refuting", [
    ("K4", "[](p -> q) -> ([][]p -> [][]q)", 72),
    ("K5", "[]<>q -> [][]<>q", 6),
])
def test_levels_are_strictly_weaker_than_the_filter(name, text, refuting):
    logic, goal = lookup(name), parse(text)
    clo = closure([goal])
    levels = level_filter(logic, clo, _modal_depth(goal) + 1)
    col = clo.position(goal)
    assert decide(logic, [], goal).valid
    assert [int((~values.in_mask(logic.designated_mask, level[:, col])).sum())
            for level in levels[-2:]] == [refuting, refuting]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(ALL_LOGIC_NAMES))
def test_random_formulas_decide_without_error(seed, name):
    goal = _random_goals(seed, 1)[0]
    verdict = decide(lookup(name), [], goal)
    assert verdict.valid in (True, False)
    if not verdict.valid:
        witness = verdict.witness()
        assert witness is not None and len(witness) == len(verdict.model.closure)
