import collections
import functools
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import reference as ref
from conftest import ALL_LOGIC_NAMES
from modalcube import _accel, decision, values
from modalcube._accel import WorkLimitError, compat_matrix, signatures, support_filter_round
from modalcube.cli import random_formula
from modalcube.decision import (
    ClosureImpossibleError, RowLimitError, MissingSubformulaError, _allowed_masks,
    _kernel_inputs, _requirement_masks, allowed_successors,
    build_relation, decide, enumerate_rows, extend_column, filter_model, frame_relation,
    TableModel, filter_rows, level_filter, model_to_csv, model_to_json,
    model_to_json_dict, support_requirements, validate_rows,
)
from modalcube.formula import (
    Atom, Box, Closure, Falsum, FormulaError, Implies, children, closure, instantiate, land,
    lnot, parse, print_formula, subformulas,
)
from modalcube.kripke import (
    KripkeModel, _truth, check_frame, forces, frame_props, oracle_decide, to_kripke,
)
from modalcube.logics import (
    AXIOM_SCHEMAS, _frame_relations, _valuations, all_logics, frame_tables, lookup, value_at,
)
from modalcube.nmatrix import _IMP_MASKS, BOT_VALUE_OF, ValueNotInLogicError, nmatrix
from modalcube.values import in_mask, names_in, value_id

p, q = Atom("p"), Atom("q")


def rows_as_names(rows):
    return [tuple(values.VALUE_NAMES[v] for v in row) for row in rows]


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_atom_closure_kt():
    rows = enumerate_rows(lookup("KT"), closure([p]))
    assert rows_as_names(rows) == [("F",), ("f",), ("t",), ("T",)]


def test_enumerate_diagonal_kt():
    rows = enumerate_rows(lookup("KT"), closure([parse("p -> p")]))
    assert len(rows) == 6
    got = set(rows_as_names(rows))
    assert got == {("F", "T"), ("f", "T"), ("f", "t"), ("t", "T"), ("t", "t"), ("T", "T")}


def test_enumerate_stable_rows_k():
    # closure order is (bot, p): "bot" sorts before "p" on the size tie
    rows = enumerate_rows(lookup("K"), closure([p, parse("bot")]))
    assert len(rows) == 8
    names = rows_as_names(rows)
    assert ("ff", "ff") in names and ("ff", "tt") in names
    nonstable = [r for r in names if r[1] not in ("ff", "tt")]
    assert all(r[0] == "F" for r in nonstable) and len(nonstable) == 6


def test_enumerate_matches_reference(logic_name):
    """The reference's rows in its order, over the canonical closure and the
    children-first subformula list alike."""
    for roots in (["p -> p"], ["[]p"], ["<>p"], ["p -> q"],
                  # mostly negations, whose columns are written in place
                  ["!!p"], ["!(p & !q)"], ["<>!<>p"], ["!bot"], ["!p", "<>!q", "!(p -> q)"]):
        formulas = [parse(text) for text in roots]
        for clo in (closure(formulas), Closure(tuple(subformulas(formulas)))):
            rows = rows_as_names(enumerate_rows(lookup(logic_name), clo))
            assert rows == ref.enumerate_rows(logic_name, clo.formulas), roots


# Closures whose enumeration is pinned: the axiom schemas over p and q,
# closures whose position 0 is falsum, and closures of several roots
# (assumptions plus goal).
PINNED_CLOSURES = (
    [closure([instantiate(parse(s), {"a": p, "b": q})]) for s in AXIOM_SCHEMAS.values()]
    + [closure([parse(text)]) for text in ("!p -> q", "<>p -> []q")]
    + [closure([parse(text) for text in roots]) for roots in (
        ("[](p -> q)", "[]p", "[]q"),
        ("p -> []q", "!q", "<>!p"),
        ("[]p", "<>q", "<>(p & q)"),
    )]
)

# sha256 over (shape, bytes) of enumerate_rows on PINNED_CLOSURES, computed
# at commit 8aa40ad, whose enumeration built the non-stable and the stable
# fragment apart and then stacked and sorted them
PINNED_DIGESTS = {
    "K": "b0db9c6a45404f34220c0a08eac47481bf7f2b6b5bd3e6e37b002841d4fb860a",
    "KB": "0f6cd0160227f10d9d618f820d6bf8276a6bba2321bcb4666fcdfd6735dd36c7",
    "K4": "ee182857e9764a219320d5a0c266594d6bfabed25bc46bc297dfe8cdc040f335",
    "K5": "04c46501cd643bcd13edd29b69d47628f3a18521a61e26ee80c51507f0179017",
    "K45": "b8c624228f8ddfe0b5c54d42ebefebabc97424d7ef7287899e054ddc2acb53e3",
    "KB5": "61a9d01f66f9c2c3dfa16acb158a80e466eea4cf5c8aa3bf213961458d425220",
    "KD": "a164875b28591ef0207b11e134696e9139e558e721913cfd6abc65b056c11851",
    "KDB": "f4da9cee7f3c4f95e027959af8391c60f2bad4b63eafd81d6e2aafd04d73a805",
    "KD4": "46237e2aabcd340c3490ecde9d8190bf4222e56d82f3ac57119a8d4614add0f6",
    "KD5": "670949a4202df734a84bcb28269a310ae38716a9d6edc3eab2648706f1d608de",
    "KD45": "dad2b24334930b828268aaf463670ffb7faabc2b6dcf831f024bcc4cfd38bb09",
    "KT": "2700f5d593b7a4d92ee36365e6a90712272d5a2b41082ff19b9765b5561f670c",
    "KTB": "a1b1dd31ec23cedc75cf9a1a930879d18c01eb04f9c401b327e2a9857808e5c9",
    "KT4": "a982744cc3227ae73a5f35dee9874a8ddcd74f42147a6e32df58caa786b13632",
    "KT45": "e8b4e2fb654b9f032445a8ac5193e25a3fca4a1602bac1f0cbf4f193f5b5a387",
}


def test_rows_are_sorted_and_distinct(logic_name):
    assert any(clo.formulas[0] == Falsum() for clo in PINNED_CLOSURES)
    for clo in [closure([parse("[]p -> q")])] + PINNED_CLOSURES:
        rows = enumerate_rows(lookup(logic_name), clo)
        as_tuples = [tuple(r) for r in rows]
        assert as_tuples == sorted(set(as_tuples)), clo.formulas


def test_enumeration_is_pinned_byte_for_byte(logic_name):
    digest = hashlib.sha256()
    for clo in PINNED_CLOSURES:
        rows = enumerate_rows(lookup(logic_name), clo)
        digest.update(repr(rows.shape).encode())
        digest.update(rows.tobytes())
    assert digest.hexdigest() == PINNED_DIGESTS[logic_name]


def test_largest_closure_enumerates_sorted_valid_rows():
    """K on the closure of 194408 rows, enumerated but not filtered, and
    pinned byte for byte: sha256 over (shape, bytes) computed at commit
    55eab07, which branched every column over the bits of its cell."""
    logic, clo = lookup("K"), closure([parse("[][][]p -> <><>(q -> []r)")])
    rows = enumerate_rows(logic, clo)
    assert rows.shape == (194408, len(clo))
    digest = hashlib.sha256(repr(rows.shape).encode() + rows.tobytes()).hexdigest()
    assert digest == "d3444138d30c0b99c022a7688851a06f1e0e3ea596c9e106bf81bc5f5a968bf4"
    # sorted and distinct: the first nonzero step from each row to the next is up
    step = rows[1:].astype(np.int16) - rows[:-1]
    assert (step[np.arange(len(step)), (step != 0).argmax(axis=1)] > 0).all()
    assert validate_rows(logic, clo, rows).all()


def test_row_cap():
    clo = closure([parse("[]p -> ([]q -> []r)")])
    with pytest.raises(RowLimitError) as e:
        enumerate_rows(lookup("K"), clo, row_cap=50)
    # raised at the first column past the cap, with a lower bound of the 7136 rows
    assert (e.value.estimate, e.value.column, e.value.columns) == (224, 3, len(clo))
    assert str(e.value) == "at least 224 rows (counted after column 3 of 8) exceed the cap of 50"


@pytest.mark.parametrize("order", ["canonical", "children-first"])
def test_row_cap_before_trailing_negations(order):
    """Negations write their column in place and never add rows, so the cap
    raises at the last branching column, not at the negations after it."""
    f = parse("!!!!([]p -> []q)")
    clo = closure([f]) if order == "canonical" else Closure(tuple(subformulas([f])))
    column = {"canonical": 6, "children-first": 5}[order]
    assert all(kind == "imp" and clo.structure()[j][0] == "bot"
               for kind, _, j in clo.structure()[-4:])
    with pytest.raises(RowLimitError) as e:
        enumerate_rows(lookup("K"), clo, row_cap=363)
    assert (e.value.estimate, e.value.column, e.value.columns) == (364, column, 10)
    assert str(e.value) == \
        f"at least 364 rows (counted after column {column} of 10) exceed the cap of 363"
    assert len(enumerate_rows(lookup("K"), clo, row_cap=364)) == 364


def test_negation_and_falsum_cells_hold_one_value(logic_name):
    """What `enumerate_rows` writes in place: each fragment's falsum cell
    holds one value, and so does the cell of x -> bot for every admissible
    x, with bot the falsum of x's fragment."""
    logic, every = lookup(logic_name), frozenset(ref.ALL_VALUES)
    cells = decision._cell_table(logic)
    for x in ref.logic_values(logic_name):
        fragment = ref.STABLE if x in ref.STABLE else every - ref.STABLE
        (bot,) = ref.bot_cell(logic_name) & fragment
        (neg,) = ref.imp_cell(logic_name, x, bot)
        assert names_in(nmatrix(logic).imp_masks[value_id(x), value_id(bot)]) == (neg,)
        assert (BOT_VALUE_OF[value_id(x)], cells.neg[value_id(x)]) == (value_id(bot), value_id(neg))


@pytest.mark.parametrize("name", ALL_LOGIC_NAMES)
@pytest.mark.parametrize("text", ["p -> p", "[]p", "<>p", "p -> q", "bot"])
def test_validate_rows_accepts_exactly_the_enumerated_rows(name, text):
    logic, clo = lookup(name), closure([parse(text)])
    m = len(clo)
    assert m <= 5
    product = np.indices((8,) * m).reshape(m, -1).T.astype(np.uint8)  # lex order
    ok = validate_rows(logic, clo, product)
    assert np.array_equal(product[ok], enumerate_rows(logic, clo))
    assert not ok.all()


def test_validate_rows_agrees_with_the_reference_cells(logic_name):
    """validate_rows against the reference's row-by-row check on seeded
    random rows of codes 0-255 and 0-7, and on enumerated rows with one
    position redrawn, over closures in both orders."""
    logic, rng = lookup(logic_name), np.random.default_rng(35)
    for text in ("[]p -> <>q", "!(p -> []bot)", "<>[]p & q", "bot -> []!p"):
        for clo in (closure([parse(text)]), Closure(tuple(subformulas([parse(text)])))):
            m = len(clo)
            rows = enumerate_rows(logic, clo)
            near = rows[rng.integers(0, len(rows), 1000)]
            near[np.arange(1000), rng.integers(0, m, 1000)] = rng.integers(0, 8, 1000)
            for batch in (rng.integers(0, 256, (1000, m)), rng.integers(0, 8, (1000, m)), near):
                batch = batch.astype(np.uint8)
                want = [ref.admits_row(logic_name, clo.formulas, row) for row in batch.tolist()]
                assert validate_rows(logic, clo, batch).tolist() == want, (text, clo.texts())


@pytest.mark.parametrize("text,row", [
    ("[]p", [9, 0]), ("[]p", [200, 7]), ("p -> q", [7, 9, 0]),
])
def test_validate_rows_rejects_codes_past_the_tables(text, row):
    """A code of 8 or more where a box or implication reads it is an invalid
    row, not an index past the 8-value tables."""
    rows = np.array([row], dtype=np.uint8)
    assert not validate_rows(lookup("K"), closure([parse(text)]), rows).any()


def test_row_cap_boundary_counts_stable_rows(logic_name):
    logic, clo = lookup(logic_name), closure([parse("[]p -> q")])
    rows = enumerate_rows(logic, clo)
    has_stable = logic.values_mask & values.STABLE_MASK != 0
    assert in_mask(values.STABLE_MASK, rows[:, 0]).any() == has_stable
    assert np.array_equal(enumerate_rows(logic, clo, row_cap=len(rows)), rows)
    with pytest.raises(RowLimitError) as e:
        enumerate_rows(logic, clo, row_cap=len(rows) - 1)
    assert e.value.estimate == len(rows)
    assert e.value.column <= e.value.columns == len(clo)


# ---------------------------------------------------------------------------
# successor constraints
# ---------------------------------------------------------------------------

def test_allowed_successor_examples():
    assert set(names_in(allowed_successors(lookup("KT4"), values.T))) == {"T"}
    assert set(names_in(allowed_successors(lookup("K"), values.t))) == set(values.VALUE_NAMES)
    assert set(names_in(allowed_successors(lookup("KB"), values.t))) == {"T", "t", "f", "fff"}
    assert allowed_successors(lookup("K"), values.tt) == 0
    assert allowed_successors(lookup("K"), values.ff) == 0


def test_allowed_successors_match_relational_conditions(logic_name):
    """The library's successor masks equal the sets the reference derives on
    its own from the per-axiom relational conditions."""
    logic = lookup(logic_name)
    for name in ref.logic_values(logic_name):
        got = set(names_in(allowed_successors(logic, value_id(name))))
        assert got == set(ref.allowed_successors(logic_name, name)), name


def test_support_requirement_examples():
    kt = lookup("KT")
    reqs = support_requirements(kt, values.t)
    assert [set(names_in(r)) for r in reqs] == [{"T", "t"}, {"F", "f"}]
    k = lookup("K")
    assert [set(names_in(r)) for r in support_requirements(k, values.T)] == \
        [{"T", "t", "tt", "ttt"}]
    assert support_requirements(k, values.tt) == []
    assert support_requirements(k, values.ff) == []


def test_support_requirements_match_reference(logic_name):
    logic = lookup(logic_name)
    for name in ref.logic_values(logic_name):
        got = [set(names_in(r)) for r in support_requirements(logic, value_id(name))]
        want = [set(r) for r in ref.requirements(logic_name, name)]
        assert got == want, name


def test_witness_masks_are_nonempty_on_exactly_p_and_pn_values(logic_name):
    """An admissible value allows a designated successor exactly when it is
    in P, and an undesignated one exactly when it is in PN: the witness masks
    are the allowed successors split by designation, and both directions
    hold.  So the filter's obligation bits, read off a signature's successor
    masks, are membership of the row's value in P and in PN.  Every
    successor mask lies inside the logic's values, whose designated and
    undesignated ones are those in D and in Dc, so the filter reads
    designation off D and Dc alone."""
    logic = lookup(logic_name)
    assert all(int(a) | logic.values_mask == logic.values_mask for a in _allowed_masks(logic))
    assert logic.designated_mask == logic.values_mask & values.D_MASK
    assert logic.nondesignated_mask == logic.values_mask & values.DC_MASK
    preq, pnreq = _requirement_masks(logic)
    assert set(np.flatnonzero(preq)) == set(values.values_in(logic.values_mask & values.P_MASK))
    assert set(np.flatnonzero(pnreq)) == set(values.values_in(logic.values_mask & values.PN_MASK))


@pytest.mark.parametrize("v,named", [(-1, "code -1"), (8, "code 8"), (values.ff, "ff")])
def test_inadmissible_value_raises_one_error(v, named):
    """Every entry point taking a value code rejects the same codes with the
    same error, naming an out-of-range code by number."""
    kd = lookup("KD")
    mat = nmatrix(kd)
    calls = [lambda: allowed_successors(kd, v), lambda: support_requirements(kd, v),
             lambda: mat.box(v), lambda: mat.imp(v, values.T), lambda: mat.imp(values.T, v),
             lambda: mat.neg(v), lambda: mat.dia(v)]
    for call in calls:
        with pytest.raises(ValueNotInLogicError, match=f"^value {named} .*not admissible in KD"):
            call()


def test_build_relation_examples():
    kt4 = lookup("KT4")
    rows = np.array([[values.T]], dtype=np.uint8)
    assert build_relation(kt4, rows)[0, 0]

    k = lookup("K")
    clo = closure([p, parse("bot")])
    rows = enumerate_rows(k, clo)
    rel = build_relation(k, rows)
    stable = [i for i, r in enumerate(rows_as_names(rows)) if r[0] in ("tt", "ff")]
    for i in stable:
        assert not rel[i].any()

    kt = lookup("KT")
    rows = np.array([[values.T], [values.f]], dtype=np.uint8)
    rel = build_relation(kt, rows)
    assert not rel[0, 1]   # f is not allowed after T in KT
    assert rel[1, 0]


# ---------------------------------------------------------------------------
# filtering
# ---------------------------------------------------------------------------

def test_filter_forces_designated_tautology_columns():
    kt = lookup("KT")
    clo = closure([parse("[](p -> p)")])
    model = filter_model(kt, clo)
    names = rows_as_names(model.rows)
    assert all(r[1] == "T" and r[2] == "T" for r in names)
    assert sorted(r[0] for r in names) == ["F", "T", "f", "t"]


def test_filter_atom_closure_deletes_nothing(logic_name):
    logic = lookup(logic_name)
    model = filter_model(logic, closure([p]))
    assert model.row_count == len(values.values_in(logic.values_mask))
    assert model.iterations == 0


def test_stable_row_survives_and_kills_diamond_taut():
    k = lookup("K")
    goal = parse("<>(p -> p)")
    model = filter_model(k, closure([goal]))
    gi = model.closure.position(goal)
    stable = model.rows[model.stable_flags()]
    assert stable.shape[0] > 0
    assert all(values.VALUE_NAMES[r[gi]] == "ff" for r in stable)


def test_filter_matches_reference(logic_name):
    for text in ("[]p -> p", "<>p", "[](p -> q)", "p | !p"):
        clo = closure([parse(text)])
        model = filter_model(lookup(logic_name), clo)
        want = ref.filter_rows(logic_name,
                               ref.enumerate_rows(logic_name, clo.formulas))
        assert rows_as_names(model.rows) == want, text


# Closures of more than 32 positions, so a signature's 2m obligations pass
# 64: long box chains, whose tables stay small enough for the reference.  A
# round that reads only the first 64 obligations keeps 8 rows of the KT4
# chain and 67 of the KTB one.
@pytest.mark.parametrize("name,text,enumerated,survivors", [
    ("KT4", "(" + "[]" * 31 + "p) -> p", 68, 6),
    ("KTB", "<>" + "[]" * 30 + "p", 126, 66),
    ("K5", "[]" * 32 + "p", 72, 10),
    ("KD5", "[]" * 32 + "p", 70, 8),
    ("KD4", "[]" * 32 + "p", 134, 72),
], ids=["KT4-33", "KTB-35", "K5-33", "KD5-33", "KD4-33"])
def test_filter_matches_reference_past_32_positions(name, text, enumerated, survivors):
    logic, clo = lookup(name), closure([parse(text)])
    assert len(clo.formulas) > 32
    rows = enumerate_rows(logic, clo)
    model = filter_model(logic, clo)
    assert (rows.shape[0], model.row_count) == (enumerated, survivors)
    assert rows_as_names(model.rows) == ref.filter_rows(name, ref.enumerate_rows(name, clo.formulas))
    if "euclidean" in logic.frame_props:
        assert check_frame(to_kripke(model).relation, frame_props(logic))


def test_filter_is_idempotent(logic_name):
    model = filter_model(lookup(logic_name), closure([parse("[]p -> <>p")]))
    again, iters = filter_rows(lookup(logic_name), model.rows)
    assert iters == 0
    assert again.shape == model.rows.shape


# Rows here have 256 or more compatible witnesses, so a witness count kept in
# uint8 wraps to 0 and deletes supported rows (952 and 1312 survivors for KD4
# and K4).  The larger closures give the survivors of the exact reference
# fixpoint (perfbench/reference.py), which takes seconds on each.
@pytest.mark.parametrize("name,text,enumerated,survivors,rounds", [
    ("KD4", "([]p & []q) -> [](p | r)", 1408, 960, 1),
    ("K4", "([]p & []q) -> [](p | r)", 3160, 1320, 1),
    ("K", "([]p & []q) -> [](p | r)", 7928, 4808, 1),
    ("KB", "([]p & []q) -> [](p | r)", 3008, 2048, 1),
    ("KDB", "([]p & []q) -> [](p | r)", 3000, 2040, 1),
    ("K", "([]p & []q) -> [](p | (q & r))", 8720, 5288, 1),
    ("KD", "[][]p -> <>(q -> []r)", 21600, 21600, 0),
], ids=["KD4-960", "K4-1320", "K-4808", "KB-2048", "KDB-2040", "K-5288", "KD-21600"])
def test_filter_rows_exact_with_many_witnesses(name, text, enumerated, survivors, rounds):
    logic = lookup(name)
    rows = enumerate_rows(logic, closure([parse(text)]))
    kept, iterations = filter_rows(logic, rows)
    assert (rows.shape[0], kept.shape[0], iterations) == (enumerated, survivors, rounds)


def _signature_count(logic, rows):
    return signatures(rows, _allowed_masks(logic)).compat.shape[0]


def _kernel_round(logic, rows, alive):
    """A kernel round from the alive signatures `alive`, checked against the
    row-by-row loop on the rows of those signatures."""
    sigs = signatures(rows, _allowed_masks(logic))
    arow, bits, preq, pnreq = _kernel_inputs(logic, rows)
    got = support_filter_round(sigs, alive)[sigs.inverse]
    assert np.array_equal(got, _exact_round(arow, bits, alive[sigs.inverse], preq, pnreq))


def _exact_round(arow, bits, alive, preq, pnreq):
    """Row by row: each obligation needs one compatible alive witness."""
    keep = np.zeros(alive.size, dtype=bool)
    live = bits[alive]
    for v in np.flatnonzero(alive):
        succ = live[((arow[v] & live) != 0).all(axis=1)]
        witnessed = [(req == 0) | ((succ & req) != 0).any(axis=0)
                     for req in (preq[v], pnreq[v])]
        keep[v] = (witnessed[0] & witnessed[1]).all()
    return keep


# one logic per family, each closure over 256 rows; K has 16 target classes
# for 1324 rows, and in KB and KDB nearly every row is a class of its own
@pytest.mark.parametrize("name,text", [
    ("K", "[]p -> ([]q -> [](p & q))"),
    ("KD4", "([]p & []q) -> [](p | r)"),
    ("KT4", "[](p | q | r) -> s"),
    ("KB5", "([]p & []q & []r & []s) -> t"),
    ("KB", "[](p -> q) -> ([]p -> []q)"),
    ("KDB", "[](p -> q) -> ([]p -> []q)"),
])
def test_kernels_match_row_by_row_loop(name, text):
    logic = lookup(name)
    rows = enumerate_rows(logic, closure([parse(text)]))
    assert rows.shape[0] > 256
    arow, bits, _, _ = _kernel_inputs(logic, rows)
    s = _signature_count(logic, rows)
    rng = np.random.default_rng(0)
    for alive in (np.ones(s, dtype=bool), rng.random(s) < 0.8, rng.random(s) < 0.95):
        _kernel_round(logic, rows, alive)
    want = np.array([((arow[v] & bits) != 0).all(axis=1) for v in range(rows.shape[0])])
    assert np.array_equal(compat_matrix(rows, _allowed_masks(logic)), want)


def _before_classes(logic, rows):
    """How many distinct rows remain once each value is replaced by the mask
    of values allowed before it: the target classes, computed outside the kernel."""
    allowed = _allowed_masks(logic)
    before = np.array([sum(1 << x for x in range(8) if allowed[x] >> y & 1) for y in range(8)],
                      dtype=np.uint8)
    return np.unique(before[rows], axis=0).shape[0]


# sizes (n, S, T): every row its own signature and class in KDB, against 331
# signatures and 16 classes for 1324 rows in K
@pytest.mark.parametrize("name,text,sizes", [
    ("KDB", "[](p -> q) -> ([]p -> []q)", (480, 480, 480)),
    ("KB", "[](p -> q) -> ([]p -> []q)", (484, 481, 481)),
    ("K", "[]p -> ([]q -> [](p & q))", (1324, 331, 16)),
])
def test_compatibility_is_stored_per_signature_and_target_class(name, text, sizes):
    logic = lookup(name)
    rows = enumerate_rows(logic, closure([parse(text)]))
    arow, bits, _, _ = _kernel_inputs(logic, rows)
    sigs = signatures(rows, _allowed_masks(logic))
    n, s, t = sizes
    assert rows.shape[0] == n and np.unique(arow, axis=0).shape[0] == s
    assert sigs.target.max() + 1 == _before_classes(logic, rows) == t
    # S * ceil(T / 64) words, and per row only its signature and class: past
    # the words (in KDB as many as the table's 480 x 8 entries) and the
    # caller's table, no field holds more than n entries
    assert sigs.compat.shape == (s, -(-t // 64)) and sigs.compat.dtype == np.uint64
    assert sigs.need.shape == (s, 2 * rows.shape[1]) and sigs.need.dtype == bool
    assert sigs.target.shape == sigs.inverse.shape == (n,)
    assert sigs.rows is rows and all(np.size(v) <= n for k, v in sigs._asdict().items()
                                     if k not in ("compat", "need", "rows"))
    want = np.array([((arow[v] & bits) != 0).all(axis=1) for v in range(n)])
    assert np.array_equal(compat_matrix(rows, _allowed_masks(logic)), want)
    assert np.array_equal(build_relation(logic, rows), want)


def test_largest_closure_keeps_every_row_over_packed_classes():
    """K on the closure of 194408 rows: every row survives, and compatibility
    takes a bit per signature and target class, not a bit per signature and row,
    in S * ceil(T / 64) words."""
    logic = lookup("K")
    rows = enumerate_rows(logic, closure([parse("[][][]p -> <><>(q -> []r)")]))
    kept, rounds = filter_rows(logic, rows)
    assert rounds == 0 and np.array_equal(kept, rows) and rows.shape[0] == 194408
    allowed = _allowed_masks(logic)
    s, t = np.unique(allowed[rows], axis=0).shape[0], _before_classes(logic, rows)
    assert (s, t) == (24301, 512)
    assert signatures(rows, allowed).compat.nbytes == s * -(-t // 64) * 8


def test_filter_memory_is_bounded_per_row():
    """K on the closure of 194408 rows and 16 positions: everything the
    filter allocates at once stays under 6 bytes per row and position
    (numpy reports its buffers to tracemalloc)."""
    logic = lookup("K")
    rows = enumerate_rows(logic, closure([parse("[][][]p -> <><>(q -> []r)")]))
    n, m = rows.shape
    assert (n, m) == (194408, 16)
    tracemalloc.start()
    try:
        filter_rows(logic, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * n * m


def _k_table():
    """K over a 1324-row closure: 331 signatures and 16 target classes."""
    logic = lookup("K")
    rows = enumerate_rows(logic, closure([parse("[]p -> ([]q -> [](p & q))")]))
    return logic, rows


def _check_kernels_on_subtable(logic, rows, count):
    rng = np.random.default_rng(count)
    sub = np.sort(rng.choice(rows.shape[0], count, replace=False))
    s = _signature_count(logic, rows)
    alive = np.zeros(s, dtype=bool)
    alive[rng.choice(s, min(count, s), replace=False)] = True
    _kernel_round(logic, rows, alive)
    # a table of `count` rows, all alive
    rows = rows[sub]
    _kernel_round(logic, rows, np.ones(_signature_count(logic, rows), dtype=bool))
    arow, bits, _, _ = _kernel_inputs(logic, rows)
    want = np.array([((arow[v] & bits) != 0).all(axis=1) for v in range(count)])
    assert np.array_equal(compat_matrix(rows, _allowed_masks(logic)), want)


# alive sets and sub-tables of the K table on each side of 64 and 128 rows
@pytest.mark.parametrize("count", [1, 63, 64, 65, 128, 129])
def test_kernels_at_word_boundaries(count):
    _check_kernels_on_subtable(*_k_table(), count)


# KDB: every row is a class of its own, so these counts of alive rows and of
# sub-table rows fall on each side of the bytes that pack 8 classes
@pytest.mark.parametrize("count", [1, 7, 8, 9, 16, 17])
def test_kernels_at_class_byte_boundaries(count):
    logic = lookup("KDB")
    rows = enumerate_rows(logic, closure([parse("[](p -> q) -> ([]p -> []q)")]))
    _check_kernels_on_subtable(logic, rows, count)


def test_kernels_same_under_tiny_chunks(monkeypatch):
    logic, rows = _k_table()
    kept, rounds = filter_rows(logic, rows)
    relation = build_relation(logic, kept)
    assert rounds == 1 and kept.shape[0] < rows.shape[0]
    # 32 bytes per temporary: one signature per block of compatibility words
    # and of round tests, one row per block of round bits
    monkeypatch.setattr(_accel, "_CHUNK_BYTES", 32)
    again, again_rounds = filter_rows(logic, rows)
    assert again_rounds == rounds and np.array_equal(again, kept)
    assert np.array_equal(build_relation(logic, kept), relation)


# no enumerated closure is empty, so only a caller's own table can be
@pytest.mark.parametrize("m", [1, 3, 40])
def test_kernels_accept_an_empty_table(logic_name, m):
    logic = lookup(logic_name)
    rows = np.zeros((0, m), dtype=np.uint8)
    kept, rounds = filter_rows(logic, rows)
    assert kept.shape == (0, m) and rounds == 0
    relation = build_relation(logic, rows)
    assert relation.shape == (0, 0) and relation.dtype == bool


def test_swapped_obligation_halves_are_caught():
    """`need` holds the designated half, then the undesignated one: read the
    other way round, a round keeps other rows than the row-by-row loop."""
    for logic, rows in (_k_table(), (lookup("KDB"), enumerate_rows(
            lookup("KDB"), closure([parse("[](p -> q) -> ([]p -> []q)")])))):
        arow, bits, preq, pnreq = _kernel_inputs(logic, rows)
        sigs = signatures(rows, _allowed_masks(logic))
        alive = np.ones(sigs.compat.shape[0], dtype=bool)
        want = _exact_round(arow, bits, alive[sigs.inverse], preq, pnreq)
        assert np.array_equal(support_filter_round(sigs, alive)[sigs.inverse], want)
        need = np.roll(sigs.need, rows.shape[1], axis=1)
        swapped = support_filter_round(sigs._replace(need=need), alive)[sigs.inverse]
        assert not np.array_equal(swapped, want)


def test_work_limit_refuses_compatibility_before_building_it(monkeypatch):
    logic, rows = _k_table()   # 331 signatures x one word for 16 classes
    monkeypatch.setattr(_accel, "WORK_LIMIT_BYTES", 331 * 8 - 1)
    with pytest.raises(WorkLimitError) as info:
        filter_rows(logic, rows)
    assert (info.value.estimate, info.value.limit) == (331 * 8, 331 * 8 - 1)
    assert "331 signatures and 16 classes needs 2648 bytes" in str(info.value)
    monkeypatch.setattr(_accel, "WORK_LIMIT_BYTES", 331 * 8)
    assert filter_rows(logic, rows)[1] == 1


def test_work_limit_refuses_the_dense_relation(monkeypatch):
    logic, rows = _k_table()
    n = rows.shape[0]
    monkeypatch.setattr(_accel, "WORK_LIMIT_BYTES", n * n - 1)
    with pytest.raises(WorkLimitError) as info:
        build_relation(logic, rows)
    assert info.value.estimate == n * n
    assert f"relation of {n} rows needs {n * n} bytes" in str(info.value)
    monkeypatch.setattr(_accel, "WORK_LIMIT_BYTES", n * n)
    assert build_relation(logic, rows).shape == (n, n)


# ---------------------------------------------------------------------------
# consequence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,text,valid", [
    ("K", "[](p -> q) -> ([]p -> []q)", True),
    ("K", "[]p -> p", False),
    ("KT", "[]p -> p", True),
    ("K", "<>(p -> p)", False),
    ("KD", "<>(p -> p)", True),
    ("KD", "[]p -> <>p", True),
    ("K", "p -> p", True),
])
def test_decide_examples(name, text, valid):
    verdict = decide(lookup(name), [], parse(text))
    assert verdict.valid == valid


def test_decide_tautology_everywhere(logic_name):
    assert decide(lookup(logic_name), [], parse("p -> p")).valid


def test_decide_with_assumptions():
    verdict = decide(lookup("K"), [parse("[]p"), parse("[](p -> q)")], parse("[]q"))
    assert verdict.valid


def test_decide_witness_is_first_and_consistent():
    verdict = decide(lookup("K"), [], parse("[]p -> p"))
    assert not verdict.valid
    w = verdict.witness()
    assert w is not None
    assert w["[]p -> p"] in ("F", "f", "ff", "fff")
    model = verdict.model
    gi = model.closure.position(parse("[]p -> p"))
    bad = np.flatnonzero(~values.in_mask(model.logic.designated_mask, model.rows[:, gi]))
    assert verdict.witness_index == bad[0]


def _never_filter(logic, rows):
    raise AssertionError("filter_rows called")


def test_decide_never_filters_without_a_refuting_row(monkeypatch, logic_name):
    """Nor when a frame of one or two worlds refutes the goal: `p` has a
    one-world countermodel in every logic, K `[]p -> p` a dead end, and
    `p -> []p` two worlds.  `[](p -> p)` has refuting rows in every logic
    and no countermodel, so it is filtered, as is KD `<>[]bot` |-
    `!(p -> p) | !!bot` (`perfbench/expected.json` entry cube/pool/00002)."""
    logic = lookup(logic_name)
    monkeypatch.setattr(decision, "filter_rows", _never_filter)
    for text in ("p -> p", "[](p -> q) -> ([]p -> []q)"):
        assert decide(logic, [], parse(text)).valid, text
    assert decide(logic, [parse("[]p"), parse("[](p -> q)")], parse("[]q")).valid
    assert not decide(logic, [], parse("p")).valid
    if logic_name == "K":
        assert not decide(logic, [], parse("[]p -> p")).valid
    verdict = decide(logic, [], parse("p -> []p"))
    assert not verdict.valid and verdict.stage == "2-world"
    filtered = [([], parse("[](p -> p)"))]
    if logic_name == "KD":
        filtered.append(([parse("<>[]bot")], parse("!(p -> p) | !!bot")))
    for query in filtered:
        with pytest.raises(AssertionError, match="filter_rows called"):
            decide(logic, *query)
    monkeypatch.undo()
    for query in filtered:
        verdict = decide(logic, *query)
        assert verdict.valid and verdict.stage == "filter"


_STAGES = {("1-world", False), ("early-valid", True), ("2-world", False),
           ("3-world", False), ("filter", True), ("filter", False)}


def test_decide_matches_the_filtered_model():
    """Verdict, witness and model are those read off `filter_model`,
    whichever stage of `decide` answered.  Random queries, and one pinned
    query for the stages they may miss: KT `[]p -> [][]p` needs three
    worlds, KD4 `[]([][]p -> []p)` four, and `[](p -> p)` is filtered."""
    pinned = [(lookup("KT"), [], parse("[]p -> [][]p")),
              (lookup("KD4"), [], parse("[]([][]p -> []p)")),
              (lookup("K"), [], parse("[](p -> p)"))]
    queries = []
    for logic in all_logics():
        rng = random.Random(logic.name)
        for k in range(20):
            goal = random_formula(rng, rng.randint(2, 4), ["p", "q"])
            assumptions = [random_formula(rng, rng.randint(1, 2), ["p", "q"])
                           for _ in range(k % 2)]
            queries.append((logic, assumptions, goal))
    paths = {stage: 0 for stage in _STAGES}
    for logic, assumptions, goal in queries + pinned:
        verdict = decide(logic, assumptions, goal)
        model = filter_model(logic, closure(tuple(assumptions) + (goal,)))
        dmask = logic.designated_mask
        bad = ~in_mask(dmask, model.rows[:, model.closure.position(goal)])
        for a in assumptions:
            bad &= in_mask(dmask, model.rows[:, model.closure.position(a)])
        hits = np.flatnonzero(bad)
        want = int(hits[0]) if hits.size else None
        assert (verdict.valid, verdict.witness_index) == (want is None, want)
        assert np.array_equal(verdict.model.rows, model.rows)
        assert verdict.model.iterations == model.iterations
        assert verdict.model.closure == model.closure
        assert verdict.witness() == (None if want is None else dict(zip(
            (print_formula(f, resugar=True) for f in model.closure.formulas),
            (values.VALUE_NAMES[v] for v in model.rows[want]))))
        paths[verdict.stage, verdict.valid] += 1
    assert min(paths.values()) > 0 and len(paths) == len(_STAGES), paths


def _formulas_of_size(n):
    """Every formula over p, q and falsum built with -> and [] that has n
    nodes: 3, 3, 12, 30 and 111 of them for n = 1 to 5."""
    if n == 1:
        return [p, q, Falsum()]
    return [Box(a) for a in _formulas_of_size(n - 1)] + [
        Implies(a, b) for k in range(1, n - 1)
        for a in _formulas_of_size(k) for b in _formulas_of_size(n - 1 - k)]


def _formulas_up_to(n):
    return [f for k in range(1, n + 1) for f in _formulas_of_size(k)]


def _one_world(logic):
    """bool[8] per value: the values of the logic's one-world frames, tt
    and ff at a dead end where the logic allows one, T and F at a reflexive
    point."""
    return in_mask(frame_tables(logic.frame_props, worlds=1).values_mask, np.arange(8))


def test_one_world_rows_lie_in_the_reference_fixpoint(logic_name):
    """Every enumerated row of one-world values survives the naive
    reference filter, on the closures of every formula up to size 4."""
    one_world = _one_world(lookup(logic_name))
    checked = 0
    for clo in {closure([f]) for f in _formulas_up_to(4)}:
        rows = ref.enumerate_rows(logic_name, clo.formulas)
        kept = set(ref.filter_rows(logic_name, rows))
        for row in rows:
            if all(one_world[value_id(v)] for v in row):
                assert row in kept, (str(clo.formulas[-1]), row)
                checked += 1
    assert checked > 0


def test_one_world_values_are_the_self_supporting_values(logic_name):
    """The values of the one-world frames are the logic's values
    that are stable, or allowed after themselves and designated if in P and
    undesignated if in PN: T and F, plus tt and ff without seriality."""
    logic = lookup(logic_name)
    allowed = _allowed_masks(logic)
    want = {v for v in values.values_in(logic.values_mask)
            if values.STABLE_MASK >> v & 1
            or (allowed[v] >> v & 1
                and (logic.designated_mask >> v & 1 or not values.member(v, "P"))
                and (logic.nondesignated_mask >> v & 1 or not values.member(v, "PN")))}
    assert set(np.flatnonzero(_one_world(logic)).tolist()) == want
    stable = set() if "serial" in logic.frame_props else {values.ff, values.tt}
    assert want == {values.F, values.T} | stable


def test_early_invalid_rows_are_one_world_countermodels(logic_name):
    """Each refuting row of one-world values, read as one world (looped
    unless the row is stable, an atom true where its value is designated),
    is a frame of the logic that forces exactly the designated closure
    members: so the assumptions but not the goal.  Checked for every early
    INVALID over the formulas up to size 5, and for consequences with one
    assumption up to size 3."""
    logic = lookup(logic_name)
    one_world = _one_world(logic)
    small = _formulas_up_to(3)
    queries = [([], g) for g in _formulas_up_to(5)] + [([a], g) for a in small for g in small]
    early = 0
    for assumptions, goal in queries:
        verdict = decide(logic, assumptions, goal)
        if verdict.stage != "1-world":
            continue
        assert not verdict.valid
        refuting = decision._refuting(verdict.closure, verdict.rows, verdict.assumptions, goal)
        certified = verdict.rows[refuting & one_world[verdict.rows].all(axis=1)]
        assert certified.shape[0] > 0
        atoms = verdict.closure.atom_positions()
        for row in certified:
            designated = in_mask(logic.designated_mask, row)
            km = KripkeModel(np.array([[not in_mask(values.STABLE_MASK, row[0])]]),
                             {name: designated[[pos]] for name, pos in atoms.items()})
            assert check_frame(km.relation, frame_props(logic))
            for f, want in zip(verdict.closure.formulas, designated):
                assert forces(km, 0, f) == want, (str(goal), str(f), row)
        early += 1
    assert early > 0


def test_one_world_cells_are_single_values(logic_name):
    """Every falsum, box and implication cell over the values of one
    one-world frame meets them in one value: the Nmatrix restricted to a
    frame's pair of values is a two-valued table."""
    logic = lookup(logic_name)
    mat = nmatrix(logic)
    one = _one_world(logic)
    stable = in_mask(values.STABLE_MASK, np.arange(8))
    pairs = [np.flatnonzero(one & part) for part in (~stable, stable)]
    pairs = [pair for pair in pairs if pair.size]
    assert [len(pair) for pair in pairs] == [2] * len(_frame_relations(1, logic.frame_props))
    for pair in pairs:
        mask = sum(1 << int(v) for v in pair)
        cells = [mat.bot_mask] + [mat.box(x) for x in pair] + [
            mat.imp(x, y) for x in pair for y in pair]
        assert all(len(values.values_in(c & mask)) == 1 for c in cells), pair


def test_one_world_check_matches_the_enumerated_rows(logic_name):
    """`_frames_refute` at one world holds exactly when some enumerated
    refuting row holds only one-world values, and exactly when the oracle
    finds a one-world countermodel, for every formula up to size 5 and every
    consequence with one assumption up to size 3."""
    logic = lookup(logic_name)
    one_world = _one_world(logic)
    small = _formulas_up_to(3)
    queries = [((), g) for g in _formulas_up_to(5)] + [((a,), g) for a in small for g in small]
    hits = 0
    for assumptions, goal in queries:
        clo = closure(assumptions + (goal,))
        rows = enumerate_rows(logic, clo)
        refuting = decision._refuting(clo, rows, assumptions, goal)
        want = bool(one_world.take(rows.compress(refuting, axis=0)).all(axis=1).any())
        got = bool(decision._frames_refute(logic, subformulas(assumptions + (goal,)),
                                           assumptions, goal, 1, decision.ROW_CAP_DEFAULT))
        assert got == want, (assumptions, goal)
        assert got == oracle_decide(logic, assumptions, goal, 1).found, (assumptions, goal)
        hits += want
    assert 0 < hits < len(queries)


def _small_queries():
    """Every formula up to size 6, and every consequence with one
    assumption up to size 3."""
    small = _formulas_up_to(3)
    return [((), g) for g in _formulas_up_to(6)] + [((a,), g) for a in small for g in small]


def test_frames_refute_matches_the_oracle(monkeypatch, logic_name):
    """`_frames_refute` at k worlds holds exactly when the oracle finds a
    countermodel of at most k worlds, for k = 1, 2 and 3: a frame joined
    with a reflexive point keeps every frame property and every truth.  So
    `decide` answers at the stage of the oracle's least world count, and
    filters none of those inputs."""
    logic = lookup(logic_name)
    monkeypatch.setattr(decision, "filter_rows", _never_filter)
    found = 0
    for assumptions, goal in _small_queries():
        oracle = oracle_decide(logic, assumptions, goal, 3)
        least = oracle.countermodel.world_count if oracle.found else 4
        subs = subformulas(assumptions + (goal,))
        for k in (1, 2, 3):
            bad = decision._frames_refute(logic, subs, assumptions, goal, k,
                                          decision.ROW_CAP_DEFAULT)
            assert bool(bad) == (least <= k), (assumptions, goal, k)
        if least <= 3:
            verdict = decide(logic, assumptions, goal)
            assert not verdict.valid and verdict.stage == f"{least}-world"
            found += least > 1
    assert found > 0


def _certificate(logic, subs, assumptions, goal, k):
    """The frame, the world rows and the refuting world that the lowest set
    bit of `_frames_refute` names.  Bit (w * F + j) * 2**(a*k) + v is world
    w of frame j under valuation v, and bit i*k + u of v is the i-th atom of
    `subs` at world u.  Each world's row is read off the truth of `subs` at
    every world by `logics.value_at`, forced as the oracle forces."""
    bad = decision._frames_refute(logic, subs, assumptions, goal, k, decision.ROW_CAP_DEFAULT)
    rels = _frame_relations(k, logic.frame_props)
    atoms = [f.name for f in subs if isinstance(f, Atom)]
    n = 1 << len(atoms) * k
    world, rest = divmod((bad & -bad).bit_length() - 1, len(rels) * n)
    frame, v = divmod(rest, n)
    rel = rels[frame]
    valuation = {name: np.array([v >> i * k + u & 1 for u in range(k)], dtype=bool)
                 for i, name in enumerate(atoms)}
    truth = _truth(subs, rel, valuation, np.zeros(k, dtype=bool))
    truth = np.stack([truth[f] for f in subs], axis=1)
    return rel, value_at(rel, truth), world


def test_frames_refute_certificates(logic_name):
    """The world rows of every refuting frame are table rows over the
    subformula list that support each other along the frame's edges, and
    the refuting world's row designates the assumptions and not the goal:
    so they survive every filter."""
    logic = lookup(logic_name)
    allowed = _allowed_masks(logic)
    certified = collections.Counter()
    for assumptions, goal in _small_queries():
        subs = subformulas(assumptions + (goal,))
        clo = Closure(tuple(subs))
        for k in (1, 2, 3):
            if not decision._frames_refute(logic, subs, assumptions, goal, k,
                                           decision.ROW_CAP_DEFAULT):
                continue
            rel, rows, world = _certificate(logic, subs, assumptions, goal, k)
            assert validate_rows(logic, clo, rows).all(), (assumptions, goal, k)
            for w, u in zip(*np.nonzero(rel)):
                assert (allowed[rows[w]] >> rows[u] & 1).all(), (assumptions, goal, k)
            for need in _requirement_masks(logic):
                hit = (need[rows][:, None, :] >> rows[None, :, :] & 1) & rel[:, :, None]
                assert (hit.any(axis=1) | (need[rows] == 0)).all(), (assumptions, goal, k)
            assert decision._refuting(clo, rows[[world]], assumptions, goal).all()
            certified[k] += 1
    assert certified[1] and certified[2], certified


def test_stages_of_the_exhaustive_pool():
    """`decide` on every formula up to size 6 (522) in all 15 logics
    answers at the pinned stages, and an INVALID verdict at the stage of
    the least world count of the 3-world oracle's countermodel: no INVALID
    needs the filter, and no VALID one has a countermodel of 3 worlds."""
    stages = collections.Counter()
    for logic in all_logics():
        for goal in _formulas_up_to(6):
            verdict = decide(logic, [], goal)
            oracle = oracle_decide(logic, [], goal, 3)
            stages[verdict.stage] += 1
            assert verdict.valid == (not oracle.found), (logic.name, str(goal))
            if oracle.found:
                assert verdict.stage == f"{oracle.countermodel.world_count}-world"
    assert stages == {"1-world": 4602, "2-world": 414, "3-world": 18, "early-valid": 2401,
                      "filter": 395}


def euclidean_frames_hold(max_size):
    """Extract the filtered model of the closure of every formula up to
    `max_size` in each euclidean logic; return the number of models.  Each
    row finds a support clique (`to_kripke` raises nothing) and the frame
    relation passes `check_frame`.  Tier-1 runs it to size 6, CI to 8."""
    count = 0
    for name in ("K5", "KD5", "K45", "KD45", "KB5", "KT45"):
        logic = lookup(name)
        for f in _formulas_up_to(max_size):
            km = to_kripke(filter_model(logic, closure([f])))
            assert check_frame(km.relation, logic.frame_props), (name, str(f))
            count += 1
    return count


def test_every_filtered_row_finds_a_euclidean_support_clique():
    assert euclidean_frames_hold(6) == 3132


_EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


@functools.cache
def _cube_entries():
    """The decide entries of `perfbench/expected.json` that the cube-queries
    benchmark runs: the axiom instances, and the pool entries without
    `uint8_wraps` (`perfbench/workloads.plan`)."""
    queries = json.loads(_EXPECTED.read_text())["queries"]
    return [(lookup(q["logic"]), tuple(map(parse, q["assumptions"])), parse(q["goal"]),
             q["expect"])
            for qid, q in sorted(queries.items())
            if q["kind"] == "decide" and (qid.startswith("cube/axiom/") or (
                qid.startswith("cube/pool/") and not q["expect"]["uint8_wraps"]))]


def test_closure_texts_match_per_member_and_reference_prints():
    """`print_formula` prints each closure member as the recursive reference
    printer does, core and resugared, and one pass over the closure prints
    the resugared texts, on every closure of the cube and rel entries of
    `perfbench/expected.json`."""
    queries = json.loads(_EXPECTED.read_text())["queries"]
    checked = 0
    for qid, q in sorted(queries.items()):
        if not qid.startswith(("cube/", "rel/")):
            continue
        texts = q.get("assumptions", []) + [q["goal"] if "goal" in q else q["formula"]]
        clo = closure([parse(t) for t in texts])
        for resugar in (False, True):
            expected = [ref.printed(f, resugar) for f in clo.formulas]
            assert [print_formula(f, resugar) for f in clo.formulas] == expected, qid
        assert clo.texts() == [ref.printed(f, True) for f in clo.formulas], qid
        checked += 1
    assert checked == 2169


def test_deep_formula_built_through_the_api():
    """1500 negations of p, past the recursion limit, built with `lnot`:
    printing, substitution, forcing, the oracle and the witness all walk the
    subformula list without recursing."""
    f = p
    for _ in range(1500):
        f = lnot(f)
    assert print_formula(f) == str(f) == "(" * 1499 + "p" + " -> bot)" * 1499 + " -> bot"
    assert print_formula(f, resugar=True) == "!" * 1500 + "p"
    assert print_formula(instantiate(f, {"p": Box(q)}), resugar=True) == "!" * 1500 + "[]q"
    model = KripkeModel(np.zeros((1, 1), dtype=bool), {"p": np.array([True])})
    assert forces(model, 0, f)
    assert str(oracle_decide(lookup("K"), [], f, 1)) == "COUNTERMODEL(1 worlds, world 0)"
    witness = decide(lookup("K"), [], f).witness()
    assert len(witness) == 1502
    assert value_id(witness["!" * 1500 + "p"]) not in values.values_in(values.D_MASK)


def test_stages_of_the_cube_entries():
    """Each verdict is the pinned one, and each stage answers the pinned
    number of entries."""
    stages = collections.Counter()
    for logic, assumptions, goal, expect in _cube_entries():
        verdict = decide(logic, assumptions, goal)
        assert str(verdict) == expect["verdict"], (logic.name, assumptions, goal)
        stages[verdict.stage] += 1
    assert stages == {"1-world": 1120, "early-valid": 752, "2-world": 159, "3-world": 5,
                      "filter": 30}


def _rows_digest(rows):
    """`perfbench/reference.rows_digest`: sha256 of the lex-sorted rows."""
    rows = np.ascontiguousarray(rows[np.lexsort(rows.T[::-1])], dtype=np.uint8)
    h = hashlib.sha256(f"{rows.shape[0]}x{rows.shape[1]}:".encode())
    h.update(rows.tobytes())
    return h.hexdigest()[:16]


def test_children_first_rows_filter_to_the_pinned_survivors():
    """Over the subformula list, children first, enumeration gives as many
    rows as the canonical closure, and the filter keeps the pinned
    survivors with their columns permuted, so `decide`'s filter stage
    answers as the canonical model does, on every cube entry."""
    for logic, assumptions, goal, expect in _cube_entries():
        roots = assumptions + (goal,)
        subs = subformulas(roots)
        clo = Closure(tuple(subs))
        rows = enumerate_rows(logic, clo)
        assert rows.shape[0] == expect["rows_enumerated"]
        kept = filter_rows(logic, rows)[0]
        canonical = kept[:, [clo.position(f) for f in closure(roots).formulas]]
        assert (len(kept), _rows_digest(canonical)) == (expect["survivors"],
                                                        expect["survivor_digest"])
        assert decision._refuting(clo, kept, assumptions, goal).any() == (
            expect["verdict"] == "INVALID")


def test_filter_stage_model_reorders_the_survivors(monkeypatch):
    """At stage "filter" `Verdict.model` and the witness read `decide`'s
    survivors, neither enumerating nor filtering again, and the model is
    the canonical filtered one, rows and rounds, on all 30 such cube
    entries."""
    checked = 0
    for logic, assumptions, goal, _ in _cube_entries():
        verdict = decide(logic, assumptions, goal)
        if verdict.stage != "filter":
            continue
        monkeypatch.setattr(decision, "enumerate_rows", _never_enumerate)
        monkeypatch.setattr(decision, "filter_rows", _never)
        model, witness = verdict.model, verdict.witness()
        monkeypatch.undo()
        canonical = filter_model(logic, verdict.closure)
        assert np.array_equal(model.rows, canonical.rows), (logic.name, goal)
        assert (model.closure, model.iterations) == (canonical.closure, canonical.iterations)
        assert (witness is None) == verdict.valid
        checked += 1
    assert checked == 30


def test_subformulas_list_the_closure_of_small_formulas():
    """`subformulas` lists each member of the closure once, after its
    children, for every root set the one-world tests above decide."""
    small = _formulas_up_to(3)
    for roots in [[g] for g in _formulas_up_to(5)] + [[a, g] for a in small for g in small]:
        subs = subformulas(roots)
        at = {f: k for k, f in enumerate(subs)}
        assert len(at) == len(subs) and set(subs) == set(closure(roots).formulas)
        assert all(at[g] < k for k, f in enumerate(subs) for g in children(f)), roots


def _never_enumerate(logic, clo, row_cap=decision.ROW_CAP_DEFAULT):
    raise AssertionError("enumerate_rows called")


def test_one_world_invalid_never_enumerates(monkeypatch, logic_name):
    """`decide` enumerates only when it reaches the scan or the filter.
    `p` is refuted at a reflexive point in every logic, and `[]p` |-
    `[]q -> p` at a dead end in the six non-serial logics; in the serial
    ones two worlds refute it, and propagation shows it valid in those
    with axiom T.  `p -> []p` needs two worlds.  `[](p -> p)` is
    filtered, so it enumerates."""
    logic = lookup(logic_name)
    monkeypatch.setattr(decision, "enumerate_rows", _never_enumerate)
    verdict = decide(logic, [], parse("p"))
    assert not verdict.valid and "rows" not in vars(verdict)
    assert decide(logic, [], parse("p -> []p")).stage == "2-world"
    dead_end = decide(logic, [parse("[]p")], parse("[]q -> p"))
    if logic_name in ("K", "KB", "K4", "K5", "K45", "KB5"):
        want = "1-world"
    else:
        want = "early-valid" if logic_name in ("KT", "KTB", "KT4", "KT45") else "2-world"
    assert (dead_end.stage, dead_end.valid) == (want, want == "early-valid")
    with pytest.raises(AssertionError, match="enumerate_rows called"):
        decide(logic, [], parse("[](p -> p)"))


def _never_close(roots):
    raise AssertionError("closure called")


def test_one_world_invalid_never_builds_the_closure(monkeypatch, logic_name):
    """`decide` reads the subformula list alone, so no verdict builds its
    canonical closure until it is read, whichever stage answers: `p` (one
    world in every logic), `[]p` |- `[]q -> p` (a dead end in the six
    non-serial logics; in the serial ones two worlds refute it, or
    propagation shows it valid where the logic has axiom T), `p -> p`
    (early VALID),
    `p -> []p` (two worlds), `[]p -> [][]p` (three worlds in KT) and
    `[](p -> p)` (filtered)."""
    logic = lookup(logic_name)
    queries = [([], p), ([parse("[]p")], parse("[]q -> p")), ([], parse("p -> p")),
               ([], parse("p -> []p")), ([], parse("[]p -> [][]p")), ([], parse("[](p -> p)"))]
    monkeypatch.setattr(decision, "closure", _never_close)
    verdicts = [decide(logic, *query) for query in queries]
    for verdict in verdicts:
        assert "closure" not in vars(verdict)
    assert verdicts[0].stage == "1-world" and not verdicts[0].valid
    serial = "serial" in logic.frame_props
    assert (verdicts[1].stage == "1-world") == (not serial)
    assert [v.stage for v in verdicts[2:4]] == ["early-valid", "2-world"]
    assert verdicts[5].stage == "filter"
    if logic_name == "KT":
        assert verdicts[4].stage == "3-world"
    monkeypatch.undo()
    for verdict, (assumptions, goal) in zip(verdicts, queries):
        assert verdict.closure == closure(assumptions + [goal])


@pytest.mark.parametrize("name", ["K", "KT", "S5"])
def test_one_world_invalid_walks_a_shared_subtree_once(monkeypatch, name):
    """60 nested `f = []f & f` share their subtrees: 242 distinct
    subformulas in a tree of more than 2**60 nodes.  A reflexive point
    where p is false refutes it, without the closure, whose keys print the
    whole tree."""
    f = p
    for _ in range(60):
        f = land(Box(f), f)
    monkeypatch.setattr(decision, "closure", _never_close)
    monkeypatch.setattr(decision, "enumerate_rows", _never_enumerate)
    assert len(subformulas([f])) == 242
    assert not decide(lookup(name), [], f).valid


def test_reading_the_closure_of_a_shared_tree_refuses_it():
    """`decide` answers the 60-step `f = []f & f` without the closure; its
    first read raises on the closure bound at once."""
    f = p
    for _ in range(60):
        f = land(Box(f), f)
    verdict = decide(lookup("K"), [], f)
    start = time.perf_counter()
    with pytest.raises(FormulaError, match="^closure member of 1835000 nodes as a tree"):
        verdict.closure
    assert time.perf_counter() - start < 1 and not verdict.valid


def _never(*args):
    raise AssertionError("called")


def _queries(x):
    """Consequences with `x` in them: with `x` = `p`, a one-world frame
    refutes the first two in K, two worlds the third, and propagation
    shows the last one valid."""
    return [([], x), ([x], q), ([x], parse("p -> []p")), ([p], x)]


@pytest.mark.parametrize("bad", ["p", None])
def test_decide_rejects_what_is_not_a_formula(monkeypatch, bad):
    """A goal or assumption that is not a `Formula` raises `FormulaError`
    before any work, on the one-world, the propagating and the two-world
    path, none of which enumerates."""
    logic = lookup("K")
    monkeypatch.setattr(decision, "enumerate_rows", _never_enumerate)
    assert [decide(logic, *query).stage for query in _queries(p)] == [
        "1-world", "1-world", "2-world", "early-valid"]
    monkeypatch.undo()
    for query in _queries(bad):
        with pytest.raises(FormulaError, match="^not a formula: "):
            decide(logic, *query)
    for name in ("subformulas", "_frames_refute", "_no_refuting_row", "closure",
                 "enumerate_rows"):
        monkeypatch.setattr(decision, name, _never)
    for query in _queries(bad):
        with pytest.raises(FormulaError, match="^not a formula: "):
            decide(logic, *query)


def test_row_cap_surfaces_on_the_first_read_of_the_rows(monkeypatch):
    """A dead end refutes the goal, so `decide` answers past the row cap,
    and the cap raises once the table, model or witness is read.  `p -> []p`
    needs two worlds, whose 128 world rows pass the cap, so `decide` skips
    that stage, enumerates it and raises."""
    verdict = decide(lookup("K"), [], parse("[]p -> ([]q -> p)"), row_cap=10)
    assert not verdict.valid and verdict.row_cap == 10
    with pytest.raises(RowLimitError) as e:
        verdict.witness_index
    assert str(e.value) == "at least 40 rows (counted after column 2 of 6) exceed the cap of 10"
    for read in (lambda: verdict.rows, lambda: verdict.model, verdict.witness):
        with pytest.raises(RowLimitError):
            read()
    with pytest.raises(RowLimitError):
        decide(lookup("K"), [], parse("p -> []p"), row_cap=10)
    # its 4 valuations already pass a cap of 3, so `decide` enumerates and
    # raises without building a valuation
    monkeypatch.setattr(decision, "_frame_bits", None)
    with pytest.raises(RowLimitError):
        decide(lookup("K"), [], parse("[]p -> ([]q -> p)"), row_cap=3)


def test_early_valid_answers_past_the_row_cap():
    """Propagation reads no rows, so the KB theorem that CI decides on the
    command line (269296 rows) is VALID at "early-valid" under a cap of
    1000, as "1-world" answers INVALID past it, and the cap raises once
    the table is read.  Stable rows are propagated too: a dead end refutes
    `<>(p -> p)` in K, and with a cap of 3 the 1-world check (4 world
    rows) is skipped, so `decide` enumerates and raises."""
    f = parse("[]([]p -> <>q) -> <>([]r -> <>[]s) -> []([]p -> <>q)")
    verdict = decide(lookup("KB"), [], f, row_cap=1000)
    assert (verdict.valid, verdict.stage) == (True, "early-valid")
    with pytest.raises(RowLimitError):
        verdict.rows
    with pytest.raises(RowLimitError):
        decide(lookup("K"), [], parse("<>(p -> p)"), row_cap=3)
    assert decide(lookup("K"), [], parse("<>(p -> p)"), row_cap=4).stage == "1-world"


def test_propagation_never_hides_a_refuting_row():
    """Over every formula up to size 6 and every consequence with one
    assumption up to size 3, in all 15 logics, propagation never says that
    no row refutes the goal where `_refuting` finds one.  It answers every
    early VALID of the pool (2401 of 2401) and of the consequences (2107
    of 2107)."""
    small = _formulas_up_to(3)
    pools = {"pool": [((), g) for g in _formulas_up_to(6)],
             "consequences": [((a,), g) for a in small for g in small]}
    seen = collections.Counter()
    for logic in all_logics():
        for name, queries in pools.items():
            for assumptions, goal in queries:
                subs = subformulas(assumptions + (goal,))
                shown = decision._no_refuting_row(logic, subs, assumptions, goal)
                clo = Closure(tuple(subs))
                refuted = decision._refuting(clo, enumerate_rows(logic, clo), assumptions,
                                             goal).any()
                assert not (shown and refuted), (logic.name, assumptions, goal)
                seen[name, shown, bool(refuted)] += 1
    assert seen == {("pool", True, False): 2401, ("pool", False, True): 5429,
                    ("consequences", True, False): 2107, ("consequences", False, True): 2753}


def test_propagation_answers_every_early_valid_cube_entry(monkeypatch):
    """Propagation answers all 752 early VALIDs of the cube entries, so
    `decide` enumerates exactly for the 30 that reach the filter.  An
    implication x -> x reads the diagonal cells alone: `p -> p` closes in
    K, and so do cube/pool/01451 (K4 `(<>p -> <>p) & ...`) and
    cube/pool/01398 (KD5 `q` |- `[][]q -> (p -> p) & (p -> p)`)."""
    calls = []
    counted = functools.partial(_counted_enumerate, calls, decision.enumerate_rows)
    monkeypatch.setattr(decision, "enumerate_rows", counted)
    stages = collections.Counter()
    for logic, assumptions, goal, _ in _cube_entries():
        before = len(calls)
        verdict = decide(logic, assumptions, goal)
        stages[verdict.stage] += 1
        assert len(calls) - before == (verdict.stage == "filter"), (logic.name, goal)
    assert (stages["early-valid"], stages["filter"], len(calls)) == (752, 30, 30)
    queries = json.loads(_EXPECTED.read_text())["queries"]
    for qid, name in (("cube/pool/01451", "K4"), ("cube/pool/01398", "KD5")):
        q = queries[qid]
        assumptions, goal = tuple(map(parse, q["assumptions"])), parse(q["goal"])
        assert q["logic"] == name and decide(lookup(name), assumptions, goal).stage == "early-valid"
    assert decision._no_refuting_row(lookup("K"), [p, parse("p -> p")], (), parse("p -> p"))


def test_scan_answers_what_propagation_misses(monkeypatch, logic_name):
    """Arc consistency splits no cases, so it does not show that no row
    designates `(q -> p) -> q` and not `q & q`; no frame refutes that
    either, so `decide` enumerates the table once (28 to 76 rows), and the
    scan answers "early-valid" before the filter runs."""
    logic = lookup(logic_name)
    a, g = parse("(q -> p) -> q"), parse("q & q")
    assert not decision._no_refuting_row(logic, subformulas([a, g]), (a,), g)
    calls = []
    counted = functools.partial(_counted_enumerate, calls, decision.enumerate_rows)
    monkeypatch.setattr(decision, "enumerate_rows", counted)
    monkeypatch.setattr(decision, "_filtered", _never)
    verdict = decide(logic, [a], g)
    assert (verdict.valid, verdict.stage, len(calls)) == (True, "early-valid", 1)


@pytest.mark.parametrize("name, rows, refuting", [
    ("K", 35644, 2640), ("KD", 35640, 2640), ("KB", 2860, 136), ("K4", 4316, 168),
    ("KT", 643, 8)])
def test_distribution_under_two_boxes_needs_the_filter(name, rows, refuting):
    """The enumerated table of `[][](p -> q) -> ([][]p -> [][]q)` holds rows
    that refute it in these logics, so no check of the unfiltered table
    can show it valid, and propagation rightly shows nothing.  The filter
    deletes those rows in two rounds and answers VALID."""
    logic = lookup(name)
    f = parse("[][](p -> q) -> ([][]p -> [][]q)")
    subs = subformulas([f])
    assert not decision._no_refuting_row(logic, subs, (), f)
    clo = Closure(tuple(subs))
    table = enumerate_rows(logic, clo)
    assert (len(table), decision._refuting(clo, table, (), f).sum()) == (rows, refuting)
    verdict = decide(logic, [], f)
    assert (verdict.valid, verdict.stage, verdict._survivors.iterations) == (True, "filter", 2)


def _counted_enumerate(calls, enumerate, logic, clo, row_cap=decision.ROW_CAP_DEFAULT):
    calls.append(clo)
    return enumerate(logic, clo, row_cap)


def _brute_image(cells, p):
    return functools.reduce(int.__or__, (int(cells[a]) for a in values.values_in(p)), 0)


def _brute_support(cells, r):
    return sum(1 << a for a in range(8) if int(cells[a]) & r)


def test_propagation_cells_match_the_nmatrix():
    """The lazily filled lists of cells equal a loop over
    `nmatrix._IMP_MASKS` and each logic's `box_masks`: every key of the
    one-argument lists, and 4000 seeded (set, set) keys of each
    implication table."""
    imp = _IMP_MASKS
    rng = random.Random(39)
    for _ in range(4000):
        p, q, r = (rng.randrange(256) for _ in range(3))
        over_y, left = decision._IMP_OVER_Y[q]    # x's list at y's set q
        over_x, right = decision._IMP_OVER_X[p]   # y's list at x's set p
        assert over_y[p] == over_x[q] == functools.reduce(
            int.__or__, (int(imp[a, b]) for a in values.values_in(p)
                         for b in values.values_in(q)), 0)
        assert left[r] == sum(
            1 << a for a in range(8) if any(imp[a, b] & r for b in values.values_in(q)))
        assert right[r] == sum(
            1 << b for b in range(8) if any(imp[a, b] & r for a in values.values_in(p)))
    tables = [(decision._IMP_SELF, imp.diagonal())]
    tables += [(decision._box_sets(logic), nmatrix(logic).box_masks) for logic in all_logics()]
    for (image, support), cells in tables:
        for s in range(256):
            assert image[s] == _brute_image(cells, s) and support[s] == _brute_support(cells, s)


def test_propagation_tables_are_empty_at_import():
    """No propagation table is built when the module is imported."""
    code = ("from modalcube import decision as d; "
            "print(sum(map(len, (d._IMP_OVER_Y, d._IMP_OVER_X, *d._IMP_SELF))), "
            "d._box_sets.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": str(Path(decision.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.split() == ["0", "0"]


def test_propagation_is_linear_in_the_closure():
    """A domain shrinks at most 8 times and requeues only the cells that
    read it, so propagation travels the three box chains of KD45's
    `[]`*3000 `(p -> q) -> ([]`*3000 `p -> []`*3000 `q)` (9005 subformulas)
    in linear time: about 20 ms on a 2-core x86 host (Python 3.11.7)."""
    chain = "[]" * 3000
    f = parse(f"{chain}(p -> q) -> ({chain}p -> {chain}q)")
    subs = subformulas([f])
    assert len(subs) == 9005
    start = time.perf_counter()
    assert decision._no_refuting_row(lookup("KD45"), subs, (), f)
    assert time.perf_counter() - start < 1
    verdict = decide(lookup("KD45"), [], f)
    assert (verdict.valid, verdict.stage) == (True, "early-valid")


@pytest.mark.parametrize("a", range(7))
def test_atom_patterns_list_every_valuation(a):
    """Atom i's truth from `logics._valuations` on n = 1, 2 and 3 worlds:
    entry [w, v] is bit i*n + w of v, so the atoms' truths at the worlds
    list every valuation once."""
    for n in (1, 2, 3):
        v = np.arange(1 << a * n)
        truths = list(_valuations(n, a))
        assert len(truths) == a
        for i, truth in enumerate(truths):
            assert truth.shape == (n, len(v)) and truth.dtype == bool
            for w in range(n):
                assert np.array_equal(truth[w], v >> i * n + w & 1 == 1), (n, i, w)


def test_frame_bits_match_the_doubled_patterns(logic_name):
    """The packed atom and missing-edge ints of `_frame_bits` equal the
    ints that `reference.frame_bits` builds by doubling bit patterns, for
    k = 1, 2 and 3 worlds and up to four atoms."""
    props = lookup(logic_name).frame_props
    for k in (1, 2, 3):
        edges = _frame_relations(k, props).tobytes()
        for a in range(5):
            got = decision._frame_bits.__wrapped__(k, edges, a)
            assert got == ref.frame_bits(k, props, a), (k, a)


def test_logics_with_equal_frames_share_frame_bits():
    """`_frame_bits` is cached on the frames, not on the properties: after
    `decide`'s one-world check in all 15 logics the cache holds the 2 sets
    of one-world frames (a dead end and a reflexive point, or the point
    alone), and logics with equal frames get the identical tuples, on one
    world and on two, where the 15 logics have 11 sets of frames."""
    decision._frame_bits.cache_clear()
    for name in ALL_LOGIC_NAMES:
        assert decide(lookup(name), [], parse("p -> p")).stage == "early-valid"
    assert decision._frame_bits.cache_info().currsize == 2
    for k, distinct in ((1, 2), (2, 11)):
        first = {}
        for name in ALL_LOGIC_NAMES:
            edges = _frame_relations(k, lookup(name).frame_props).tobytes()
            bits = decision._frame_bits(k, edges, 1)
            assert first.setdefault(edges, bits) is bits, (k, name)
        assert len(first) == distinct, k


def test_verdict_repr_leaves_the_model_unfiltered(monkeypatch):
    verdict = decide(lookup("KB"), [], parse("[](p -> q) -> ([]p -> []q)"))
    monkeypatch.setattr(decision, "filter_rows", _never_filter)
    assert repr(verdict).startswith("Verdict(valid=True, goal=")
    assert str(verdict) == "VALID" and verdict.witness() is None
    assert "model" not in vars(verdict)
    monkeypatch.undo()
    assert verdict.model.row_count == filter_model(lookup("KB"), verdict.closure).row_count


def test_decide_agrees_with_reference(logic_name):
    for text in ("[]p -> p", "<>(p -> p)", "[]p -> [][]p", "p -> []<>p"):
        goal = parse(text)
        clo = closure([goal])
        got = decide(lookup(logic_name), [], goal).valid
        want = ref.decide(logic_name, clo.formulas, [], goal)
        assert got == want, text


# ---------------------------------------------------------------------------
# level filtering
# ---------------------------------------------------------------------------

def test_level_zero_is_plain_enumeration():
    kt = lookup("KT")
    clo = closure([parse("[][](p -> p)")])
    levels = level_filter(kt, clo, 0)
    assert len(levels) == 1
    assert (levels[0] == enumerate_rows(kt, clo)).all()


def test_level_filter_stages_kt():
    """Staged elimination over the closure of [][](p -> p): rows where the
    inner implication is merely contingently true go at stage 1, rows where
    the once-boxed formula is go at stage 2."""
    kt = lookup("KT")
    clo = closure([parse("[][](p -> p)")])
    imp_col = clo.position(parse("p -> p"))
    box_col = clo.position(parse("[](p -> p)"))
    levels = level_filter(kt, clo, 2)
    assert [len(l) for l in levels] == [22, 16, 8]
    removed1 = {tuple(r) for r in levels[0]} - {tuple(r) for r in levels[1]}
    assert all(r[imp_col] == values.t for r in removed1)
    removed2 = {tuple(r) for r in levels[1]} - {tuple(r) for r in levels[2]}
    assert all(r[box_col] == values.t for r in removed2)
    assert all(r[imp_col] == values.T and r[box_col] == values.T for r in levels[2])


def test_level_filter_kd_drops_non_necessary_box_values():
    """In KD the box can send a designated value to a non-designated one, so
    stage 1 clears the non-designated box rows (their inner implication was
    merely contingent) and the designated-but-refutable t/ttt rows only go at
    stage 2, once the boxed formula itself has become a tautology."""
    kd = lookup("KD")
    clo = closure([parse("[][](p -> p)")])
    box_col = clo.position(parse("[](p -> p)"))
    levels = level_filter(kd, clo, 2)
    removed1 = {tuple(r) for r in levels[0]} - {tuple(r) for r in levels[1]}
    assert {values.VALUE_NAMES[r[box_col]] for r in removed1} == {"F", "f", "fff"}
    removed2 = {tuple(r) for r in levels[1]} - {tuple(r) for r in levels[2]}
    assert {values.VALUE_NAMES[r[box_col]] for r in removed2} == {"t", "ttt"}
    assert all(values.VALUE_NAMES[r[box_col]] == "T" for r in levels[2])


# ---------------------------------------------------------------------------
# column extension
# ---------------------------------------------------------------------------

def test_extend_empty_model_with_atom():
    """Empty in, empty out, over the extended closure."""
    kt = lookup("KT")
    empty = filter_model(kt, closure([p]))
    empty.rows = empty.rows[:0]
    ext = extend_column(empty, q)
    assert ext.rows.shape == (0, 2)
    assert [print_formula(f) for f in ext.closure.formulas] == ["p", "q"]
    assert extend_column(ext, Box(q)).rows.shape == (0, 3)


def test_extend_unfiltered_model_refuses_a_cell_without_the_profile_value():
    """Outside a filtered model a multi-value cell need not hold the value
    its row's successors give, and extension raises ValueError naming the
    first such row.  In KD's table of <>bot the row with []!bot = ttt has
    no admissible successor, and filtering deletes it."""
    logic, clo = lookup("KD"), closure([parse("<>bot")])
    model = TableModel(logic, clo, enumerate_rows(logic, clo))
    assert model.rows.tolist() == [[0, 7, 4, 3], [0, 7, 6, 1], [0, 7, 7, 0]]
    message = ("row 0 has no value of []([](bot -> bot) -> bot) that its successors give: "
               "the model is not filtered")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        extend_column(model, Box(clo.formulas[-1]))
    filtered = filter_model(logic, clo)
    assert filtered.rows.tolist() == [[0, 7, 7, 0]]
    assert extend_column(filtered, Box(clo.formulas[-1])).rows[:, -1].tolist() == [values.F]


def test_atom_model_holds_every_admissible_value(logic_name):
    logic = lookup(logic_name)
    model = filter_model(logic, closure([q]))
    assert model.rows.tolist() == [[v] for v in values.values_in(logic.values_mask)]


@pytest.mark.parametrize("text", ["[]p -> q", "<>p"])
def test_extend_with_fresh_atom_copies_column_zero(logic_name, text):
    """Column 0 of the closure of <>p is falsum."""
    logic = lookup(logic_name)
    model = filter_model(logic, closure([parse(text)]))
    ext = extend_column(model, Atom("r"))
    assert np.array_equal(ext.rows, np.hstack([model.rows, model.rows[:, :1]]))
    assert validate_rows(logic, ext.closure, ext.rows).all()
    kept, _ = filter_rows(logic, ext.rows)
    assert kept.shape[0] == ext.row_count
    assert np.array_equal(ext.relation_matrix(), model.relation_matrix())


def test_extend_by_falsum_reads_its_fragment(monkeypatch):
    """Falsum takes F on non-stable rows and ff on stable ones without the
    relation, which for K's 194408 rows is over the work limit."""
    model = filter_model(lookup("K"), closure([parse("[][][]p -> [][](q -> []r)")]))
    assert model.row_count == 194408
    with pytest.raises(WorkLimitError):
        frame_relation(model)
    monkeypatch.setattr(decision, "frame_relation", None)
    ext = extend_column(model, Falsum())
    assert np.array_equal(ext.rows[:, -1], np.where(model.stable_flags(), values.ff, values.F))


def test_extend_requires_subformulas():
    kt = lookup("KT")
    model = filter_model(kt, closure([p]))
    with pytest.raises(MissingSubformulaError):
        extend_column(model, Box(q))


def test_extend_with_box_lowercase_choice():
    kt = lookup("KT")
    model = filter_model(kt, closure([p]))
    ext = extend_column(model, Box(p))
    col = dict(zip((values.VALUE_NAMES[r[0]] for r in model.rows),
                   (values.VALUE_NAMES[v] for v in ext.rows[:, 1])))
    # every row sees both T-valued and non-T successors, so choices are lowercase
    assert col == {"F": "F", "f": "f", "t": "f", "T": "t"}


def test_extend_with_implication_never_falsified():
    kd = lookup("KD")
    model = filter_model(kd, closure([p]))
    taut = Implies(p, p)
    ext = extend_column(model, taut)
    newcol = {values.VALUE_NAMES[v] for v in ext.rows[:, -1]}
    assert newcol <= {"T", "t"}
    # p -> p is never falsified, so the uppercase choice T is taken
    assert "t" not in newcol


def test_extend_preserves_rows_and_revalidates(logic_name):
    logic = lookup(logic_name)
    model = filter_model(logic, closure([parse("[]p -> q")]))
    ext = extend_column(model, Box(parse("[]p -> q")))
    assert ext.row_count == model.row_count
    assert validate_rows(logic, ext.closure, ext.rows).all()
    kept, _ = filter_rows(logic, ext.rows)
    assert kept.shape[0] == ext.row_count


def _plain_cell(mat, clo, row, g):
    """The Nmatrix cell of g at one row, read value by value."""
    if isinstance(g, Box):
        return mat.box(int(row[clo.position(g.operand)]))
    if isinstance(g, Implies):
        return mat.imp(int(row[clo.position(g.left)]), int(row[clo.position(g.right)]))
    return mat.bot_mask


def test_extend_column_follows_the_successor_profile(logic_name):
    """On every multi-value cell the chosen value is in N iff every successor
    in the frame relation designates the new formula, and in I iff none does."""
    logic = lookup(logic_name)
    mat = nmatrix(logic)
    for text in ("p", "[]p -> q", "p -> []p"):
        model = filter_model(logic, closure([parse(text)]))
        clo, n = model.closure, model.row_count
        rel = frame_relation(model)
        for g in (Box(clo.formulas[-1]), Implies(clo.formulas[-1], clo.formulas[0]), Falsum()):
            chosen = extend_column(model, g).rows[:, -1]
            cells = [_plain_cell(mat, clo, row, g) for row in model.rows]
            designates = [cell & values.D_MASK != 0 for cell in cells]
            for v in range(n):
                assert cells[v] >> chosen[v] & 1, (text, str(g), v)
                if bin(cells[v]).count("1") == 1:
                    continue
                assert cells[v] & values.D_MASK in (0, cells[v])
                succ = [w for w in range(n) if rel[v, w]]
                every = all(designates[w] for w in succ)
                none = not any(designates[w] for w in succ)
                assert values.member(int(chosen[v]), "N") == every, (text, str(g), v)
                assert values.member(int(chosen[v]), "I") == none, (text, str(g), v)


# Maximal edges lost when the closure of f is extended by []f, in the
# euclidean-only logics K5 and KD5 (both lose the same edges); the other
# thirteen logics lose none on these inputs.
_EUCLIDEAN_ONLY_LOSS = {"p": 2, "[]p": 0, "p -> q": 55, "[]p -> q": 4,
                        "p -> []p": 2, "[](p -> q)": 0}


def test_extend_preserves_relation_outside_the_pairwise_gap(logic_name):
    """Old maximal edges survive the new column for the thirteen logics whose
    pairwise successor tables are exact; K5/KD5 lose the edges counted above."""
    logic = lookup(logic_name)
    euclidean_only = ("euclidean" in logic.frame_props
                      and "transitive" not in logic.frame_props)
    for text, loss in _EUCLIDEAN_ONLY_LOSS.items():
        f = parse(text)
        model = filter_model(logic, closure([f]))
        old = model.relation_matrix()
        new = extend_column(model, Box(f)).relation_matrix()
        assert (old & ~new).sum() == (loss if euclidean_only else 0), text


@pytest.mark.parametrize("name", ["K5", "KD5", "K45", "KD45", "KB5", "KT45"])
def test_euclidean_cliques_are_n_and_i_profiles(name):
    """In a euclidean logic the values that may follow themselves are F, f,
    t and T, and two of them follow each other exactly when they lie in the
    same block of {F} | {f, t} | {T}.  So looped rows are mutually
    admissible exactly when they agree, position by position, on N and on
    I: `frame_relation`'s cliques are a partition that does not depend on
    the order they are found in."""
    logic = lookup(name)
    allowed = _allowed_masks(logic)
    looped = [v for v in range(8) if allowed[v] >> v & 1]
    assert looped == [values.F, values.f, values.t, values.T]
    block = {values.F: 0, values.f: 1, values.t: 1, values.T: 2}
    for a in looped:
        for b in looped:
            assert bool(allowed[a] >> b & 1 and allowed[b] >> a & 1) == (block[a] == block[b])
    if name not in ("K5", "KD5"):
        return
    for text in ("p", "[]p", "<>p", "[]p -> p", "[](p -> q)", "<>[]p -> []<>p",
                 "[](p -> q) -> ([]p -> []q)", "([]p & []q) -> [](p | r)"):
        model = filter_model(logic, closure([parse(text)]))
        maximal = model.relation_matrix()
        keep = np.flatnonzero(maximal.diagonal())
        mutual = (maximal & maximal.T)[np.ix_(keep, keep)]
        profile = np.hstack([in_mask(values.N_MASK, model.rows[keep]),
                             in_mask(values.I_MASK, model.rows[keep])])
        same = (profile[:, None, :] == profile[None, :, :]).all(axis=2)
        assert keep.size and np.array_equal(mutual, same), text


# sha256 of the frame relations of the euclidean logics, computed at commit
# 5f2123b, where each row outside a supporting clique tried the cliques in a
# Python loop of its own
EUCLIDEAN_FRAME_DIGEST = "a804a7c6020cf5cb1481e027fb25edef54f09c4476d3dbb7ac3c59cfa9436ebc"


def test_euclidean_frame_relations_are_pinned():
    digest = hashlib.sha256()
    for logic in ("K5", "KD5", "K45", "KD45", "KB5", "KT45"):
        for text in ("p", "[]p", "<>p", "[]p -> p", "[](p -> q)", "<>[]p -> []<>p",
                     "[](p -> q) -> ([]p -> []q)", "([]p & []q) -> [](p | r)",
                     "[][]p -> <>(q -> []r)", "[][][]p -> <><>(q -> []r)"):
            model = filter_model(lookup(logic), closure([parse(text)]))
            digest.update(f"{logic}|{text}|{model.row_count}|".encode()
                          + np.packbits(frame_relation(model)).tobytes())
    assert digest.hexdigest() == EUCLIDEAN_FRAME_DIGEST


@pytest.mark.parametrize("name", ["K5", "KD5"])
def test_frame_relation_refuses_a_row_without_a_support_clique(name):
    """An unfiltered table of one row valued f: f is in P, and the row's one
    clique is itself, which designates nothing."""
    model = TableModel(lookup(name), closure([p]), np.array([[values.f]], dtype=np.uint8))
    with pytest.raises(ClosureImpossibleError, match="^row 0 has no euclidean support clique$"):
        frame_relation(model)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_model_csv_and_json():
    kt = lookup("KT")
    model = filter_model(kt, closure([parse("p -> p")]))
    csv = model_to_csv(model)
    lines = csv.strip().split("\n")
    assert lines[0] == "p,p -> p"
    assert len(lines) == model.row_count + 1
    payload = model_to_json_dict(model)
    assert payload["closure"] == ["p", "p -> p"]
    assert all(len(r) == 2 for r in payload["rows"])
    assert all(len(e) == 2 for e in payload["relation"])


def assert_same_text(got: str, want: str):
    """`got == want`, reporting the first difference instead of pytest's
    diff, which takes minutes on megabytes of text."""
    if got != want:
        i = len(os.path.commonprefix([got, want]))
        pytest.fail(f"texts differ at offset {i}: "
                    f"{got[max(0, i - 40):i + 40]!r} != {want[max(0, i - 40):i + 40]!r}")


# model_to_json writes the relation list itself; json.dumps of the structured
# dict is the reference it must match byte for byte.
def assert_json_matches_dict(model):
    assert_same_text(model_to_json(model), json.dumps(model_to_json_dict(model), indent=2))


def test_model_json_is_byte_identical(logic_name):
    for text in ("p", "bot", "p -> p", "[]p -> p", "<>p", "[](p -> q)", "[]p -> [][]p"):
        assert_json_matches_dict(filter_model(lookup(logic_name), closure([parse(text)])))


def test_model_json_is_byte_identical_on_604_rows():
    model = filter_model(lookup("K"), closure([parse("[](p -> q) -> ([]p -> []q)")]))
    assert model.row_count == 604
    assert_json_matches_dict(model)


def hand_model(n, edges):
    """n rows over the closure of p -> p, with exactly the given edges."""
    rows = np.full((n, 2), values.T, dtype=np.uint8)
    rel = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        rel[i, j] = True
    return TableModel(lookup("K"), closure([parse("p -> p")]), rows, _relation=rel)


@pytest.mark.parametrize("n,edges", [
    (0, []),                                    # no rows
    (3, []),                                    # rows, no edge
    (3, [(1, 2)]),                              # one edge
    (5, [(0, 0), (0, 4), (2, 1), (4, 0), (4, 3)]),  # rows 1 and 3 have no successor
])
def test_model_json_is_byte_identical_on_hand_built_relations(n, edges):
    model = hand_model(n, edges)
    assert_json_matches_dict(model)
    assert model_to_json_dict(model)["relation"] == [list(e) for e in edges]
