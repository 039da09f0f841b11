import hashlib
import json
import os

import numpy as np
import pytest

import reference as ref
from modalcube import _accel, values
from modalcube._accel import compat_matrix, signatures, support_filter_round
from modalcube.decision import (
    RowLimitError, MissingSubformulaError, _allowed_masks, _kernel_inputs, allowed_successors,
    build_relation, decide, enumerate_rows, extend_column, filter_model, frame_relation,
    TableModel, filter_rows, level_filter, model_to_csv, model_to_json,
    model_to_json_dict, support_requirements, validate_rows,
)
from modalcube.formula import (
    Atom, Box, Falsum, Implies, closure, instantiate, parse, print_formula,
)
from modalcube.logics import AXIOM_SCHEMAS, lookup
from modalcube.nmatrix import ValueNotInLogicError, nmatrix
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
    for text in ("p -> p", "[]p", "<>p", "p -> q"):
        clo = closure([parse(text)])
        rows = rows_as_names(enumerate_rows(lookup(logic_name), clo))
        assert rows == ref.enumerate_rows(logic_name, clo.formulas), text


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
    """K on the closure of 194408 rows, enumerated but not filtered."""
    logic, clo = lookup("K"), closure([parse("[][][]p -> <><>(q -> []r)")])
    rows = enumerate_rows(logic, clo)
    assert rows.shape == (194408, len(clo))
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


@pytest.mark.parametrize("name", ["K", "KD", "KT", "KB5", "K45"])
@pytest.mark.parametrize("text", ["p -> p", "[]p", "<>p", "p -> q", "bot"])
def test_validate_rows_accepts_exactly_the_enumerated_rows(name, text):
    logic, clo = lookup(name), closure([parse(text)])
    m = len(clo)
    assert m <= 5
    product = np.indices((8,) * m).reshape(m, -1).T.astype(np.uint8)  # lex order
    ok = validate_rows(logic, clo, product)
    assert np.array_equal(product[ok], enumerate_rows(logic, clo))
    assert not ok.all()


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
    arow, bits, preq, pnreq = _kernel_inputs(logic, rows)
    rng = np.random.default_rng(0)
    for alive in (np.ones(rows.shape[0], dtype=bool),
                  rng.random(rows.shape[0]) < 0.8,
                  rng.random(rows.shape[0]) < 0.95):
        got = support_filter_round(signatures(arow, bits), alive, preq, pnreq)
        want = _exact_round(arow, bits, alive, preq, pnreq)
        assert np.array_equal(got, want)
    want = np.array([((arow[v] & bits) != 0).all(axis=1) for v in range(rows.shape[0])])
    assert np.array_equal(compat_matrix(arow, bits), want)


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
    sigs = signatures(arow, bits)
    n, s, t = sizes
    assert rows.shape[0] == n and np.unique(arow, axis=0).shape[0] == s
    assert sigs.classes == _before_classes(logic, rows) == t
    assert sigs.compat.shape == (s, -(-t // 8))
    want = np.array([((arow[v] & bits) != 0).all(axis=1) for v in range(n)])
    assert np.array_equal(compat_matrix(arow, bits), want)
    assert np.array_equal(build_relation(logic, rows), want)


def test_largest_closure_keeps_every_row_over_packed_classes():
    """K on the closure of 194408 rows: every row survives, and compatibility
    takes a bit per signature and target class, not a bit per signature and row."""
    logic = lookup("K")
    rows = enumerate_rows(logic, closure([parse("[][][]p -> <><>(q -> []r)")]))
    kept, rounds = filter_rows(logic, rows)
    assert rounds == 0 and np.array_equal(kept, rows) and rows.shape[0] == 194408
    arow, bits, _, _ = _kernel_inputs(logic, rows)
    s, t = np.unique(arow, axis=0).shape[0], _before_classes(logic, rows)
    assert (s, t) == (24301, 512)
    assert signatures(arow, bits).compat.nbytes <= s * -(-t // 8)


def _k_table():
    """K over a 1324-row closure: 331 signatures and 16 target classes."""
    logic = lookup("K")
    rows = enumerate_rows(logic, closure([parse("[]p -> ([]q -> [](p & q))")]))
    return logic, rows


def _check_kernels_on_subtable(logic, rows, count):
    arow, bits, preq, pnreq = _kernel_inputs(logic, rows)
    rng = np.random.default_rng(count)
    alive = np.zeros(rows.shape[0], dtype=bool)
    alive[rng.choice(rows.shape[0], count, replace=False)] = True
    got = support_filter_round(signatures(arow, bits), alive, preq, pnreq)
    assert np.array_equal(got, _exact_round(arow, bits, alive, preq, pnreq))
    # a table of `count` rows, all alive
    sub = np.flatnonzero(alive)
    arow, bits, preq, pnreq = arow[sub], bits[sub], preq[sub], pnreq[sub]
    alive = np.ones(count, dtype=bool)
    got = support_filter_round(signatures(arow, bits), alive, preq, pnreq)
    assert np.array_equal(got, _exact_round(arow, bits, alive, preq, pnreq))
    want = np.array([((arow[v] & bits) != 0).all(axis=1) for v in range(count)])
    assert np.array_equal(compat_matrix(arow, bits), want)


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
    # 32 bytes per temporary: one signature and 8 classes per product block,
    # one output row per chunk of the compatibility matrix
    monkeypatch.setattr(_accel, "_CHUNK_BYTES", 32)
    again, again_rounds = filter_rows(logic, rows)
    assert again_rounds == rounds and np.array_equal(again, kept)
    assert np.array_equal(build_relation(logic, kept), relation)


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
    kt = lookup("KT")
    empty = filter_model(kt, closure([p]))
    empty.rows = empty.rows[:0]
    ext = extend_column(empty, q)
    assert ext.row_count == 4
    assert [print_formula(f) for f in ext.closure.formulas] == ["q"]


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
