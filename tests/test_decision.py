import json
import os

import numpy as np
import pytest

import reference as ref
from modalcube import _accel, values
from modalcube._accel import compat_matrix, signatures, support_filter_round
from modalcube.decision import (
    RowLimitError, MissingSubformulaError, _kernel_inputs, allowed_successors,
    build_relation, decide, enumerate_rows, extend_column, filter_model,
    TableModel, filter_rows, level_filter, model_to_csv, model_to_json,
    model_to_json_dict, support_requirements, validate_rows,
)
from modalcube.formula import Atom, Box, Implies, closure, parse, print_formula
from modalcube.logics import lookup
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


def test_rows_are_sorted_and_distinct(logic_name):
    rows = enumerate_rows(lookup(logic_name), closure([parse("[]p -> q")]))
    as_tuples = [tuple(r) for r in rows]
    assert as_tuples == sorted(set(as_tuples))


def test_row_cap():
    with pytest.raises(RowLimitError):
        enumerate_rows(lookup("K"), closure([parse("[]p -> ([]q -> []r)")]), row_cap=50)


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


def test_row_cap_boundary_counts_stable_rows():
    logic, clo = lookup("K"), closure([parse("[]p -> q")])
    rows = enumerate_rows(logic, clo)
    assert in_mask(values.STABLE_MASK, rows[:, 0]).any()
    assert np.array_equal(enumerate_rows(logic, clo, row_cap=len(rows)), rows)
    with pytest.raises(RowLimitError) as e:
        enumerate_rows(logic, clo, row_cap=len(rows) - 1)
    assert e.value.estimate == len(rows)


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


# one logic per family, each closure over 256 rows
@pytest.mark.parametrize("name,text", [
    ("K", "[]p -> ([]q -> [](p & q))"),
    ("KD4", "([]p & []q) -> [](p | r)"),
    ("KT4", "[](p | q | r) -> s"),
    ("KB5", "([]p & []q & []r & []s) -> t"),
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


def _k_table():
    """K over a 1324-row closure: not a multiple of the 64 rows of a word."""
    logic = lookup("K")
    rows = enumerate_rows(logic, closure([parse("[]p -> ([]q -> [](p & q))")]))
    return logic, rows


# counts on each side of one and two 64-row words
@pytest.mark.parametrize("count", [1, 63, 64, 65, 128, 129])
def test_kernels_at_word_boundaries(count):
    logic, rows = _k_table()
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


def test_kernels_same_under_tiny_chunks(monkeypatch):
    logic, rows = _k_table()
    kept, rounds = filter_rows(logic, rows)
    relation = build_relation(logic, kept)
    assert rounds == 1 and kept.shape[0] < rows.shape[0]
    # four words per temporary: every loop takes one item per chunk
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


# Maximal edges lost when the closure of f is extended by []f, in the
# euclidean-only logics K5 and KD5 (both lose the same edges); the other
# thirteen logics lose none on these inputs.
_EUCLIDEAN_ONLY_LOSS = {"p": 2, "[]p": 0, "p -> q": 84, "[]p -> q": 4,
                        "p -> []p": 2, "[](p -> q)": 0}


def test_extend_preserves_relation_outside_the_pairwise_gap(logic_name):
    """Old maximal edges survive the new column for the thirteen logics whose
    pairwise successor tables are exact; K5/KD5 lose the edges counted above."""
    logic = lookup(logic_name)
    euclidean_only = "5" in logic.frame_props and "4" not in logic.frame_props
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
