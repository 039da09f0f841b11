"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import itertools
import random
import time
from contextlib import contextmanager

import numpy as np

import reference as ref
from modalcube import values
from modalcube.cli import main as cli_main, random_formula
from modalcube.decision import (
    decide, extend_column, filter_model, filter_rows, level_filter,
    validate_rows,
)
from modalcube.formula import Box, Implies, closure, instantiate, parse
from modalcube.kripke import check_frame, forces, frame_props, oracle_decide, to_kripke
from modalcube.logics import AXIOM_SCHEMAS, all_logics, axioms, lookup
from modalcube.nmatrix import nmatrix
from modalcube.values import characterization, land, lnot, names_in

from conftest import ALL_LOGIC_NAMES

P, Q = parse("p"), parse("q")

_AXIOM_PROP = {"d": "serial", "t": "reflexive", "b": "symmetric", "4": "transitive",
               "5": "euclidean"}


@contextmanager
def criterion(cid, description):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {cid} [{description}]: FAIL ({time.time() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {cid} [{description}]: PASS ({time.time() - start:.1f}s)")


def test_c1_axiom_validity_matrix():
    with criterion("C1", "axiom validity matrix"):
        total_start = time.time()
        for logic in all_logics():
            for label, schema in axioms(logic):
                inst = instantiate(schema, {"a": P, "b": Q})
                start = time.time()
                verdict = decide(logic, [], inst)
                elapsed = time.time() - start
                assert verdict.valid, (logic.name, label)
                assert elapsed < 5.0, (logic.name, label, elapsed)
        assert time.time() - total_start < 120.0


def test_c2_separation_matrix():
    with criterion("C2", "separation matrix with oracle confirmation"):
        start = time.time()
        checked = 0
        for label, prop in _AXIOM_PROP.items():
            inst = instantiate(parse(AXIOM_SCHEMAS[label]), {"a": P, "b": Q})
            for logic in all_logics():
                if prop in logic.frame_props:
                    continue
                verdict = decide(logic, [], inst)
                assert not verdict.valid, (logic.name, label)
                oracle = oracle_decide(logic, [], inst, 3)
                assert oracle.found, (logic.name, label)
                assert oracle.countermodel.world_count <= 3
                assert not forces(oracle.countermodel, oracle.world, inst)
                cm = oracle.countermodel
                assert not ref.forced(cm.relation, cm.valuation, inst)[oracle.world]
                checked += 1
        # the documented sample of the matrix
        t_lacking = {l.name for l in all_logics() if "reflexive" not in l.frame_props}
        assert {"K", "KD", "K4", "K45", "KB", "KB5", "KD45"} <= t_lacking
        four_lacking = {l.name for l in all_logics() if "transitive" not in l.frame_props}
        assert {"KT", "KTB"} <= four_lacking
        assert "KT4" in {l.name for l in all_logics() if "symmetric" not in l.frame_props}
        assert checked == 44
        assert time.time() - start < 300.0


def test_c3_staged_filtering_reproduction():
    with criterion("C3", "staged filtering over [][](p -> p) in KT"):
        kt = lookup("KT")
        clo = closure([parse("[][](p -> p)")])
        imp_col = clo.position(parse("p -> p"))
        box_col = clo.position(parse("[](p -> p)"))
        boxbox_col = clo.position(parse("[][](p -> p)"))
        levels = level_filter(kt, clo, 2)

        # stage 1 eliminates exactly the rows whose inner implication is
        # contingently true; stage 2 exactly those whose boxed formula is
        removed1 = {tuple(r) for r in levels[0]} - {tuple(r) for r in levels[1]}
        assert removed1 == {tuple(r) for r in levels[0] if r[imp_col] == values.t}
        assert removed1
        removed2 = {tuple(r) for r in levels[1]} - {tuple(r) for r in levels[2]}
        assert removed2 == {tuple(r) for r in levels[1] if r[box_col] == values.t}
        assert removed2

        model = filter_model(kt, clo)
        assert model.iterations <= 3
        for col in (imp_col, box_col, boxbox_col):
            assert (model.rows[:, col] == values.T).all()
        assert model.row_count == 4


def test_c4_table_golden_and_totality():
    with criterion("C4", "table transcription and restricted totality"):
        failures = 0
        for name in ALL_LOGIC_NAMES:
            mat = nmatrix(name)
            vals = ref.logic_values(name)
            for a in vals:
                va = values.value_id(a)
                if set(names_in(mat.box(va))) != set(ref.box_cell(name, a)):
                    failures += 1
                for b in vals:
                    got = set(names_in(mat.imp(va, values.value_id(b))))
                    if got != set(ref.imp_cell(name, a, b)):
                        failures += 1
            if set(names_in(mat.bot_mask)) != set(ref.bot_cell(name)):
                failures += 1
            # nonemptiness of every output a valuation can query: pairs
            # mixing a stable and a non-stable argument cannot co-occur
            # inside a row and are exempt (see KB5)
            stable = {"tt", "ff"}
            for a in vals:
                if mat.box(values.value_id(a)) == 0:
                    failures += 1
                for b in vals:
                    if (a in stable) != (b in stable):
                        continue
                    if mat.imp(values.value_id(a), values.value_id(b)) == 0:
                        failures += 1
        assert failures == 0


def test_c5_dead_end_discrimination():
    with criterion("C5", "dead-end discrimination"):
        taut_possible = parse("<>(p -> p)")
        assert not decide(lookup("K"), [], taut_possible).valid
        assert decide(lookup("KD"), [], taut_possible).valid
        assert decide(lookup("KD"), [], parse("[]p -> <>p")).valid


def test_c6_value_consistency_suite():
    with criterion("C6", "pairwise value-description consistency"):
        start = time.time()
        for name in ("K", "KD", "KT", "S4", "S5", "KB5"):
            logic = lookup(name)
            vals = values.values_in(logic.values_mask)
            for i, k in itertools.combinations(vals, 2):
                goal = lnot(land(characterization(i, P), characterization(k, P)))
                verdict = decide(logic, [], goal)
                assert verdict.valid, (name, values.VALUE_NAMES[i], values.VALUE_NAMES[k])
        assert time.time() - start < 600.0


def test_c7_differential_fuzzing():
    with criterion("C7", "differential fuzzing decide vs oracle"):
        start = time.time()
        for name in ALL_LOGIC_NAMES:
            code = cli_main(["xcheck", "--logic", name, "--count", "200",
                             "--max-depth", "2", "--atoms", "2", "--seed", "42",
                             "--max-worlds", "3"],
                            out=_DevNull(), err=_DevNull())
            assert code == 0, name
        assert time.time() - start < 900.0


class _DevNull:
    def write(self, *_):
        pass

    def flush(self):
        pass


_FAMILY_MEMBERS = {
    "K*": ("K", "KB", "K4", "K5", "K45"),
    "KD*": ("KD", "KDB", "KD4", "KD5", "KD45"),
    "KT*": ("KT", "KTB", "KT4", "KT45"),
    "KB45": ("KB5",),
}


def _random_models(members, count, seed, max_rows=4000):
    rng = random.Random(seed)
    made = 0
    while made < count:
        name = members[made % len(members)]
        goal = random_formula(rng, 2, ["p", "q"])
        logic = lookup(name)
        clo = closure([goal])
        model = filter_model(logic, clo)
        if model.row_count == 0 or model.row_count > max_rows:
            continue
        made += 1
        yield logic, model


def test_c8_extension_and_restriction_suites():
    with criterion("C8", "column extension and restriction stability"):
        for family, members in _FAMILY_MEMBERS.items():
            for logic, model in _random_models(members, 50, seed=42):
                top = model.closure.formulas[-1]
                for new in (Box(top), Implies(top, model.closure.formulas[0])):
                    if new in model.closure:
                        continue
                    ext = extend_column(model, new)
                    assert ext.row_count == model.row_count, (logic.name, str(new))
                    assert validate_rows(logic, ext.closure, ext.rows).all()
                    kept, _ = filter_rows(logic, ext.rows)
                    assert kept.shape[0] == ext.row_count, (logic.name, str(new))
                # restriction: dropping the last column keeps every row valid
                if len(model.closure) >= 2:
                    rest = np.unique(model.rows[:, :-1], axis=0)
                    kept, _ = filter_rows(logic, rest)
                    assert kept.shape[0] == rest.shape[0], logic.name


def test_c9_frame_property_suite():
    with criterion("C9", "frame properties of extracted models"):
        for name in ALL_LOGIC_NAMES:
            logic = lookup(name)
            props = frame_props(logic)
            seed = sum(ord(c) for c in name)
            for _, model in _random_models((name,), 50, seed=seed, max_rows=1500):
                k = to_kripke(model)
                assert check_frame(k.relation, props), name
                if "serial" in props:
                    assert k.relation.any(axis=1).all(), name
