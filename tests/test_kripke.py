import hashlib
import json
import random
from itertools import permutations, product

import numpy as np
import pytest

import reference as ref
from modalcube import kripke, values
from modalcube.cli import random_formula
from modalcube.decision import extend_column, filter_model
from modalcube.formula import (
    Atom, Box, Falsum, Implies, closure, instantiate, lnot, parse, print_formula,
    subformulas,
)
from modalcube.kripke import (
    ClosureImpossibleError, KripkeModel, OracleBudgetError, check_frame,
    forces, frame_closure, frame_props, kripke_to_json, kripke_to_json_dict,
    oracle_decide, to_dot, to_kripke,
)
from modalcube.logics import (
    AXIOM_SCHEMAS, LOGIC_NAMES, _frame_relations, _holds, _orbit_representatives,
    all_logics, axioms, lookup,
)
from modalcube.nmatrix import nmatrix

p, q = Atom("p"), Atom("q")


def rel_of(pairs, n):
    rel = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        rel[i, j] = True
    return rel


def km(pairs, n, **atoms):
    valuation = {a: np.array(v, dtype=bool) for a, v in atoms.items()}
    return KripkeModel(rel_of(pairs, n), valuation)


# ---------------------------------------------------------------------------
# frame properties
# ---------------------------------------------------------------------------

def _serial(r, n):
    return all(any(r[x][y] for y in range(n)) for x in range(n))


def _reflexive(r, n):
    return all(r[x][x] for x in range(n))


def _symmetric(r, n):
    return all(r[y][x] for x, y in product(range(n), repeat=2) if r[x][y])


def _transitive(r, n):
    return all(r[x][z] for x, y, z in product(range(n), repeat=3)
               if r[x][y] and r[y][z])


def _euclidean(r, n):
    return all(r[y][z] for x, y, z in product(range(n), repeat=3)
               if r[x][y] and r[x][z])


FIRST_ORDER = {"serial": _serial, "reflexive": _reflexive,
               "symmetric": _symmetric, "transitive": _transitive,
               "euclidean": _euclidean}

PROP_SETS = sorted({frozenset([prop]) for prop in FIRST_ORDER}
                   | {frame_props(logic) for logic in all_logics()}, key=sorted)


def _least_of_orbit(mask, r, n):
    """Whether no permutation of the worlds maps r to a smaller bitmask."""
    return all(mask <= sum(1 << (i * n + j) for i, j in product(range(n), repeat=2)
                           if r[perm[i]][perm[j]])
               for perm in permutations(range(n)))


@pytest.mark.parametrize("n", range(4))
def test_frame_properties_match_first_order_definitions(n):
    """check_frame agrees with the first-order definitions on every relation
    over n worlds, bit i*n + j of the mask standing for the edge (i, j), and
    the oracle's frames are the relations that meet them and are the least
    bitmask of their orbit under permutations of the worlds."""
    rels = [[[bool(mask >> (i * n + j) & 1) for j in range(n)] for i in range(n)]
            for mask in range(1 << (n * n))]
    least = [_least_of_orbit(mask, r, n) for mask, r in enumerate(rels)]
    for props in PROP_SETS:
        agree = []
        for mask, r in enumerate(rels):
            want = all(FIRST_ORDER[prop](r, n) for prop in props)
            assert check_frame(np.array(r, dtype=bool).reshape(n, n), props) == want, \
                (n, mask, sorted(props))
            if want and least[mask]:
                agree.append(r)
        got = _frame_relations(n, props)
        assert got.shape == (len(agree), n, n) and got.tolist() == agree, sorted(props)


# unlabelled relations on four points, by OEIS sequence
@pytest.mark.parametrize("props, count", [
    ((), 3044),                                              # A000595
    (("reflexive",), 218),                                   # A000273
    (("symmetric",), 90),                                    # A000666
    (("reflexive", "symmetric"), 11),                        # A000088
    (("transitive",), 242),                                  # A091073
    (("reflexive", "transitive"), 33),                       # A001930
    (("reflexive", "symmetric", "transitive"), 5),           # partitions of 4
])
def test_four_world_frames_count_isomorphism_classes(props, count):
    assert len(_frame_relations(4, frozenset(props))) == count


def _masks(rels):
    """Each (n, n) relation as its bitmask, bit i*n + j for the edge (i, j)."""
    return [sum(1 << int(b) for b in np.flatnonzero(r.ravel())) for r in rels]


# sha256 of json.dumps of the lists below, computed at commit 5f2123b, where
# every relation was built before the orbit filter and each logic's frames
# were tested with `_holds` on all representatives
ORBIT_DIGEST = "5a6aa1188c4cc06c3883385e01ffd69fb2d412ed3491fbb6d662abfebc67e635"
FRAMES_DIGEST = "843e4bb6dd62b07a5eb837910a7e9c19e15f1f7bcbce70d0df916d0c65f66509"


def test_orbit_representatives_are_pinned():
    table = [[n, _masks(_orbit_representatives(n))] for n in range(5)]
    assert table[0] == [0, [0]]   # no worlds: one empty relation
    assert hashlib.sha256(json.dumps(table).encode()).hexdigest() == ORBIT_DIGEST


def test_frame_relations_are_pinned():
    frames = [[name, n, _masks(_frame_relations(n, lookup(name).frame_props))]
              for name in LOGIC_NAMES for n in range(1, 5)]
    assert hashlib.sha256(json.dumps(frames).encode()).hexdigest() == FRAMES_DIGEST


# ---------------------------------------------------------------------------
# frame closure
# ---------------------------------------------------------------------------

def test_transitive_closure_adds_pair():
    full = np.ones((3, 3), dtype=bool)
    out = frame_closure(rel_of([(0, 1), (1, 2)], 3), {"transitive"}, full)
    assert out[0, 2] and check_frame(out, {"transitive"})


def test_symmetric_closure():
    full = np.ones((2, 2), dtype=bool)
    out = frame_closure(rel_of([(0, 1)], 2), {"symmetric"}, full)
    assert out[1, 0] and check_frame(out, {"symmetric"})


def test_reflexive_closure_of_empty():
    full = np.ones((2, 2), dtype=bool)
    out = frame_closure(np.zeros((2, 2), dtype=bool), {"reflexive"}, full)
    assert out[0, 0] and out[1, 1] and out.sum() == 2


def test_serial_closure_picks_first_candidate():
    cand = rel_of([(0, 1), (0, 0), (1, 0)], 2)
    out = frame_closure(np.zeros((2, 2), dtype=bool), {"serial"}, cand)
    assert check_frame(out, {"serial"})
    assert out[0, 0] and not out[0, 1]   # (0,0) precedes (0,1)


def test_closure_impossible_outside_candidates():
    cand = rel_of([(0, 1), (1, 2)], 3)
    with pytest.raises(ClosureImpossibleError):
        frame_closure(rel_of([(0, 1), (1, 2)], 3), {"transitive"}, cand)


@pytest.mark.parametrize("props", [{"reflexiv"}, {"transitve", "serial"}])
@pytest.mark.parametrize("check", [
    lambda props: check_frame(np.zeros((2, 2), dtype=bool), props),
    lambda props: frame_closure(np.zeros((2, 2), dtype=bool), props,
                                np.ones((2, 2), dtype=bool)),
], ids=["check_frame", "frame_closure"])
def test_unknown_frame_property_rejected(check, props):
    unknown = min(props - {"serial"})
    with pytest.raises(ValueError) as info:
        check(props)
    assert str(info.value) == (f"unknown frame property {unknown!r}; "
                               "known: serial, reflexive, symmetric, transitive, euclidean")


def test_chain_plus_self_loops_closes_transitively():
    """A three-row chain with self loops needs exactly the one hop added to
    become transitive when every pair is admissible."""
    seed = rel_of([(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)], 3)
    full = np.ones((3, 3), dtype=bool)
    out = frame_closure(seed, {"reflexive", "transitive"}, full)
    assert out[0, 2] and not out[2, 0]
    assert out.sum() == seed.sum() + 1


# ---------------------------------------------------------------------------
# forcing
# ---------------------------------------------------------------------------

def test_forces_vacuous_box():
    model = km([], 1, p=[False])
    assert forces(model, 0, parse("[]p"))
    assert not forces(model, 0, parse("<>p"))


def test_forces_two_world_chain():
    model = km([(0, 1)], 2, p=[False, True])
    assert not forces(model, 0, parse("[]p -> p"))
    assert forces(model, 0, parse("[]p"))
    assert forces(model, 0, parse("p -> p"))
    assert forces(model, 1, parse("p -> p"))


def test_forces_unknown_atom_is_false():
    model = km([], 1)
    assert not forces(model, 0, p)
    with pytest.raises(IndexError):
        forces(model, 3, p)


FORCING_FORMULAS = [parse(text) for text in (
    "[]p -> p", "<>p -> []<>p", "[](p -> q) -> ([]p -> []q)", "p -> []<>p",
    "[]bot", "<>(q -> bot)", "bot -> p", "<>r -> []q", "r -> p", "[][]p -> []q")]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_forces_matches_per_world_loop(n):
    """forces agrees with the test's own world-by-world loop on every
    relation over n worlds, under two valuations of p and q each (r has no
    valuation)."""
    rng = np.random.default_rng(n)
    for mask in range(1 << (n * n)):
        rel = np.array([[mask >> (i * n + j) & 1 for j in range(n)] for i in range(n)], dtype=bool)
        for _ in range(2):
            model = KripkeModel(rel, {"p": rng.random(n) < 0.5, "q": rng.random(n) < 0.5})
            memo: dict = {}
            for f in FORCING_FORMULAS:
                want = ref.forced(rel, model.valuation, f, memo)
                assert [forces(model, w, f) for w in range(n)] == want, (mask, f)


def test_truth_lemma_on_extracted_models(logic_name):
    """Every world of an extracted model forces exactly the closure members
    its row designates, checked with the test's world-by-world loop."""
    logic = lookup(logic_name)
    for text in ("[]p -> <>q", "<>p -> []<>p", "[](p -> q) -> ([]p -> []q)"):
        model = filter_model(logic, closure([parse(text)]))
        k = to_kripke(model)
        memo: dict = {}
        for pos, f in enumerate(model.closure.formulas):
            designated = values.in_mask(logic.designated_mask, model.rows[:, pos])
            assert ref.forced(k.relation, k.valuation, f, memo) == designated.tolist(), (text, f)


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def test_to_kripke_reflexive_logics_have_self_loops():
    model = filter_model(lookup("KT"), closure([parse("[]p -> p")]))
    k = to_kripke(model)
    assert check_frame(k.relation, {"reflexive"})


def test_to_kripke_stable_row_is_dead_end():
    model = filter_model(lookup("K"), closure([parse("<>(p -> p)")]))
    k = to_kripke(model)
    stable = np.flatnonzero(model.stable_flags())
    assert stable.size > 0
    for w in stable:
        assert not k.relation[w].any()


def test_to_kripke_frame_properties(logic_name):
    logic = lookup(logic_name)
    model = filter_model(logic, closure([parse("[]p -> <>q")]))
    k = to_kripke(model)
    assert check_frame(k.relation, frame_props(logic))


def test_to_kripke_large_kd4_model_is_a_kd4_frame():
    logic = lookup("KD4")
    model = filter_model(logic, closure([parse("([]p & []q) -> [](p | r)")]))
    assert model.row_count == 960
    rel = to_kripke(model).relation
    assert check_frame(rel, frame_props(logic))
    assert not (rel & ~model.relation_matrix()).any()
    assert rel.any(axis=1).all()
    for i in range(rel.shape[0]):   # transitive, one row at a time
        assert (rel[rel[i]].any(axis=0) <= rel[i]).all()


@pytest.mark.parametrize("name", [n for n in LOGIC_NAMES if n not in ("K5", "KD5")])
def test_to_kripke_keeps_the_maximal_relation(name):
    """Outside K5 and KD5 the maximal relation already has the logic's frame
    properties, so extraction returns it unchanged."""
    logic = lookup(name)
    for text in ("[]p -> <>q", "<>p -> []<>p", "[](p -> q) -> ([]p -> []q)"):
        model = filter_model(logic, closure([parse(text)]))
        assert np.array_equal(to_kripke(model).relation, model.relation_matrix()), text


def test_to_kripke_does_not_alias_the_maximal_relation(logic_name):
    model = filter_model(lookup(logic_name), closure([parse("[]p -> <>q")]))
    rel = to_kripke(model).relation
    assert not np.shares_memory(rel, model.relation_matrix())
    rel[...] = ~rel
    assert not np.array_equal(rel, to_kripke(model).relation)


def test_extend_column_agrees_with_forcing_on_the_extracted_model(logic_name):
    """On every multi-value cell the value chosen for g is in N iff the
    extracted model forces []g at the row's world, and in I iff it forces
    []!g: extraction and extension read one frame relation."""
    logic = lookup(logic_name)
    mat = nmatrix(logic)
    for text in ("p", "[]p -> q", "p -> []p", "<>p -> []q", "[](p -> q)"):
        model = filter_model(logic, closure([parse(text)]))
        k = to_kripke(model)
        clo = model.closure
        for g in (Box(clo.formulas[-1]), Implies(clo.formulas[-1], clo.formulas[0]), Falsum()):
            if g in clo:
                continue
            ext = extend_column(model, g)
            kind, i, j = ext.closure.structure()[-1]
            for w, row in enumerate(model.rows.tolist()):
                cell = (mat.box(row[i]) if kind == "box" else
                        mat.imp(row[i], row[j]) if kind == "imp" else mat.bot_mask)
                if bin(cell).count("1") < 2:
                    continue
                chosen = int(ext.rows[w, -1])
                assert values.member(chosen, "N") == forces(k, w, Box(g)), (text, str(g), w)
                assert values.member(chosen, "I") == forces(k, w, Box(lnot(g))), (text, str(g), w)


def test_to_kripke_valuation_tracks_designation():
    model = filter_model(lookup("KT"), closure([parse("p -> q")]))
    k = to_kripke(model)
    pi = model.closure.position(p)
    want = values.in_mask(model.logic.designated_mask, model.rows[:, pi])
    assert (k.valuation["p"] == want).all()


def test_to_kripke_supports_stay_witnessed(logic_name):
    """Every possibility obligation of a row is witnessed inside the
    extracted relation, not just inside the maximal one."""
    from modalcube.decision import _requirement_masks
    logic = lookup(logic_name)
    model = filter_model(logic, closure([parse("<>p -> []q")]))
    k = to_kripke(model)
    preq, pnreq = _requirement_masks(logic)
    pr, qr = preq[model.rows], pnreq[model.rows]
    bits = np.uint8(1) << model.rows
    for v in range(model.row_count):
        succ = np.flatnonzero(k.relation[v])
        avail = (np.bitwise_or.reduce(bits[succ], axis=0) if succ.size
                 else np.zeros(model.rows.shape[1], dtype=np.uint8))
        assert (((pr[v] == 0) | (avail & pr[v] != 0)) &
                ((qr[v] == 0) | (avail & qr[v] != 0))).all()


def test_euclidean_subrelation_on_boxed_closure():
    model = filter_model(lookup("K5"), closure([parse("[]p")]))
    k = to_kripke(model)
    assert check_frame(k.relation, {"euclidean"})


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_finds_dead_end_for_t_in_k():
    verdict = oracle_decide(lookup("K"), [], parse("[]p -> p"), 2)
    assert verdict.found
    assert verdict.countermodel.world_count <= 2
    assert not forces(verdict.countermodel, verdict.world, parse("[]p -> p"))


def test_oracle_no_countermodel_for_t_in_kt():
    verdict = oracle_decide(lookup("KT"), [], parse("[]p -> p"), 3)
    assert not verdict.found


def test_oracle_counterexample_for_four_in_kt_needs_three_worlds():
    # reflexivity forces p at any immediate successor, so two worlds cannot
    # refute the transitivity axiom; the three-world chain can
    assert not oracle_decide(lookup("KT"), [], parse("[]p -> [][]p"), 2).found
    verdict = oracle_decide(lookup("KT"), [], parse("[]p -> [][]p"), 3)
    assert verdict.found and verdict.countermodel.world_count == 3
    assert check_frame(verdict.countermodel.relation, {"reflexive"})
    assert not forces(verdict.countermodel, verdict.world, parse("[]p -> [][]p"))


def test_oracle_respects_assumptions():
    verdict = oracle_decide(lookup("K"), [parse("[]p"), parse("[](p -> q)")],
                            parse("[]q"), 3)
    assert not verdict.found


def test_oracle_is_deterministic():
    a = oracle_decide(lookup("K"), [], parse("[]p -> p"), 3)
    b = oracle_decide(lookup("K"), [], parse("[]p -> p"), 3)
    assert (a.countermodel.relation == b.countermodel.relation).all()
    assert a.world == b.world
    assert {k: list(v) for k, v in a.countermodel.valuation.items()} == \
        {k: list(v) for k, v in b.countermodel.valuation.items()}


def test_oracle_budget_guard():
    # the guard fires lazily, once the search actually reaches a world count
    # whose relation space is too large to enumerate
    with pytest.raises(OracleBudgetError):
        oracle_decide(lookup("KT"), [], parse("[]p -> p"), 5)


def test_oracle_atom_budget_counts_labelled_relations():
    # a valid goal in three atoms passes three worlds and reaches four, where
    # 2**16 labelled relations x 2**12 valuations exceed the budget
    goal = parse("[](p -> q) -> ([](q -> r) -> [](p -> r))")
    assert not oracle_decide(lookup("K"), [], goal, 3).found
    with pytest.raises(OracleBudgetError, match="3 atoms over budget"):
        oracle_decide(lookup("K"), [], goal, 4)


def _search_every_frame(logic, assumptions, goal, max_worlds):
    """oracle_decide's search, in (relation, valuation, world) order, over
    every labelled relation with the logic's frame properties."""
    subs = subformulas([*assumptions, goal])
    atoms = sorted(f.name for f in subs if isinstance(f, Atom))
    for n in range(1, max_worlds + 1):
        rels = ref.all_relations(n)
        rels = rels[_holds(rels, frame_props(logic))]
        vmasks = np.arange(1 << len(atoms) * n)
        vals = {name: (vmasks >> (k * n + np.arange(n))[:, None]) & 1 == 1
                for k, name in enumerate(atoms)}
        false = np.zeros((n, len(vmasks)), dtype=bool)
        truth = kripke._truth(subs, rels, vals, false)
        hit = ~truth[goal]
        for a in assumptions:
            hit = hit & truth[a]
        hit = np.broadcast_to(hit, (len(rels), n, len(vmasks))).transpose(0, 2, 1)
        if hit.any():
            ri, vi, wi = np.unravel_index(np.argmax(hit), hit.shape)
            return rels[ri], {name: vals[name][:, vi] for name in atoms}, int(wi)
    return None


def test_oracle_matches_the_search_over_every_frame(logic_name):
    """Searching one relation per isomorphism class finds the same verdict,
    world, relation and valuation as searching every labelled relation."""
    logic = lookup(logic_name)
    schemas = dict(axioms(lookup("KT45")))
    schemas.update(axioms(logic))
    rng = random.Random(13)
    cases = [([], instantiate(schema, {"a": p, "b": q})) for schema in schemas.values()]
    cases += [([], random_formula(rng, 3, ["p", "q"])) for _ in range(10)]
    cases.append(([parse("[]p"), parse("<>(p -> q)")], parse("[]q")))
    # two worlds, refuted at world 0 by p true only at world 1 (valuation
    # bit 1) or by q true only at world 0 (bit 2): the first such valuation
    # pins the order of the valuation bits
    cases.append(([], parse("!((!p & <>p) | (q & <>!q))")))
    for assumptions, goal in cases:
        verdict = oracle_decide(logic, assumptions, goal, 3)
        want = _search_every_frame(logic, assumptions, goal, 3)
        assert verdict.found == (want is not None), goal
        if want is not None:
            rel, valuation, world = want
            model = verdict.countermodel
            assert verdict.world == world, goal
            assert model.relation.tobytes() == rel.tobytes(), goal
            assert model.relation.shape == rel.shape, goal
            assert {a: v.tolist() for a, v in model.valuation.items()} == \
                {a: v.tolist() for a, v in valuation.items()}, goal


def test_oracle_enumerated_frames_validate_axioms(logic_name):
    """Sanity of the frame filters: every defining axiom instance holds on
    every enumerated frame of its own logic."""
    logic = lookup(logic_name)
    for label, schema in axioms(logic):
        inst = instantiate(schema, {"a": p, "b": q})
        verdict = oracle_decide(logic, [], inst, 2)
        assert not verdict.found, label


# sha256 of the oracle's answers on ORACLE_CASES, serialized as in
# test_oracle_answers_are_pinned, computed at commit ba083a4, where kripke
# enumerated the oracle's frames itself: 125 cases, 60 countermodels
ORACLE_DIGEST = "456c7ef1f67ee34725832af669d7b1caa0ca374d9387aab697827e8c0e7a9937"

_THREE_WORLD_GOALS = (
    [instantiate(parse(schema), {"a": p, "b": q}) for schema in AXIOM_SCHEMAS.values()]
    + [parse("<>[]p -> []<>p"), parse("[](p -> []p) -> (p -> []p)")]
)
ORACLE_CASES = (
    [(name, [], goal, 3) for name in LOGIC_NAMES for goal in _THREE_WORLD_GOALS]
    + [("K4", [parse("[]p")], parse("[][][]p"), 3),
       ("KB", [p], parse("[]<>p"), 3),
       ("K", [], parse("[](p -> q) -> ([]p -> []q)"), 4),
       ("KD45", [], parse("[](p -> q) -> ([]p -> []q)"), 4),
       ("K5", [], parse("<>[]p -> []<>p"), 4)]
)


def test_oracle_answers_are_pinned():
    answers = []
    for name, assumptions, goal, worlds in ORACLE_CASES:
        verdict = oracle_decide(lookup(name), assumptions, goal, worlds)
        cm = verdict.countermodel
        answers.append([name, [print_formula(a) for a in assumptions], print_formula(goal),
                        worlds, verdict.world,
                        None if cm is None else np.argwhere(cm.relation).tolist(),
                        None if cm is None else {a: cm.valuation[a].tolist()
                                                 for a in sorted(cm.valuation)}])
    assert len(answers) == 125
    assert sum(answer[5] is not None for answer in answers) == 60
    digest = hashlib.sha256(json.dumps(answers).encode()).hexdigest()
    assert digest == ORACLE_DIGEST


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------

def test_dot_output():
    model = km([(0, 1)], 2, p=[True, False])
    dot = to_dot(model)
    assert dot.startswith("digraph")
    assert "w0 -> w1;" in dot
    assert '"w0: p"' in dot


def test_json_output():
    model = km([(0, 1), (1, 1)], 2, p=[True, False])
    payload = kripke_to_json_dict(model)
    assert payload["worlds"] == 2
    assert [0, 1] in payload["relation"] and [1, 1] in payload["relation"]
    assert json.dumps(payload["valuation"]) == '{"p": [true, false]}'


def test_json_text_is_byte_identical():
    extracted = [to_kripke(filter_model(lookup(name), closure([parse("[]p -> p")])))
                 for name in ("KT", "K5")]   # frame closure; euclidean support
    counter = oracle_decide(lookup("KT"), [], parse("[]p -> [][]p"), 3).countermodel
    assert counter.world_count == 3
    for model in (*extracted, counter, km([], 0), km([(0, 1), (1, 1)], 2, p=[True, False])):
        assert kripke_to_json(model) == json.dumps(kripke_to_json_dict(model), indent=2)
