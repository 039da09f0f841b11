import copy
import json
import os
import pickle
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import modalcube
import reference as ref
from modalcube import formula
from modalcube.cli import random_formula
from modalcube.formula import (
    CLOSURE_TREE_LIMIT, Atom, Box, Closure, Falsum, Formula, FormulaError, Implies, ParseError, children,
    closure, instantiate, land, ldia, lnot, lor, parse, print_formula, subformulas,
)

p, q = Atom("p"), Atom("q")
BOT = Falsum()
_EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def test_parse_box_implication():
    assert parse("[]p -> p") == Implies(Box(p), p)


def test_parse_desugars_diamond():
    assert parse("<>p") == Implies(Box(Implies(p, BOT)), BOT)


def test_parse_desugars_conjunction():
    assert parse("p & q") == Implies(Implies(p, Implies(q, BOT)), BOT)


def test_parse_desugars_negation_and_disjunction():
    assert parse("!p") == Implies(p, BOT)
    assert parse("p | q") == Implies(Implies(p, BOT), q)


def test_implication_is_right_associative():
    assert parse("p -> q -> p") == Implies(p, Implies(q, p))


def test_precedence_prefix_and_or_imp():
    assert parse("!p & q | r -> p") == Implies(lor(land(lnot(p), q), Atom("r")), p)


def test_parse_takes_any_depth():
    # one pass over an explicit stack: no nesting limit
    assert parse("(" * 300 + "p" + ")" * 300) == Atom("p")
    assert len(subformulas([parse("!" * 100000 + "p")])) == 100002


def test_closure_takes_equal_deep_formulas_built_apart():
    # formulas are hash-consed, so two equal formulas nested past the
    # recursion limit and built apart are one object, and sort keys never
    # walk a subtree recursively: they have one closure
    f, g = Atom("p"), Atom("p")
    for _ in range(3000):
        f, g = lnot(f), lnot(g)
    assert f is g and f == g and not f != g
    clo = closure([f, g])
    assert len(clo) == 3002 and clo.position(f) == clo.position(g) == 3001
    assert closure([f]) == closure([g]) and hash(closure([f])) == hash(closure([g]))


def test_closures_compare_member_by_member():
    """Closures are equal exactly when their members are, position by
    position: one structure with other atoms, or the same members in
    another order, makes another closure."""
    texts = ["p -> q", "p -> r", "q -> p", "[]p -> p", "[]q -> q", "!p", "p -> bot", "bot -> p"]
    closures = [closure([parse(t)]) for t in texts] + [
        Closure(tuple(subformulas([parse(t)]))) for t in texts]
    for a in closures:
        for b in closures:
            assert (a == b) == (a.formulas == b.formulas), (a.texts(), b.texts())
            assert (a != b) == (a.formulas != b.formulas)
            assert a != b or hash(a) == hash(b)
    assert closure([parse("p")]) != (parse("p"),)


def test_closure_keys_match_size_and_print():
    """The bottom-up sort keys order a closure as (size, print_formula) does."""
    # p -> q -> r sorts after p -> [][]q, and would sort before it if the
    # right operand of an implication were printed in parentheses
    for text in ("!" * 500 + "p", "([]p & []q) -> [](p | (q & r))", "<>[]p -> []<>(q -> bot)",
                 "[](p -> q) -> ([]p -> []q)", "((p -> q) -> p) -> p",
                 "(p -> q -> r) | (p -> [][]q)"):
        clo = closure([parse(text)])
        want = sorted(clo.formulas, key=lambda f: (ref.size(f), print_formula(f)))
        assert list(clo.formulas) == want


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as info:
        parse("p -> ")
    assert info.value.position == 5
    with pytest.raises(ParseError):
        parse("p q")
    with pytest.raises(ParseError):
        parse("(p -> q")


def _parsed(parser, text):
    """The formula `parser` gives for `text`, or its ParseError's message
    and position."""
    try:
        return parser(text)
    except ParseError as e:
        return str(e), e.position


_TOKENS = ["p", "q", "r1", "bot", "!", "[]", "<>", "&", "|", "->", "(", ")", " ", "$",
           "-", "[", "<", ">", "]", "P"]


def _parser_inputs():
    """The formula texts of `perfbench/expected.json`, seeded random token
    strings (unknown characters, broken tokens, spaces and unbalanced
    parentheses among them), and printed random formulas with a near-miss
    mutation of each: a character dropped, a token inserted or put in a
    character's place, or two characters swapped."""
    queries = json.loads(_EXPECTED.read_text())["queries"].values()
    texts = [t for q in queries
             for t in q.get("assumptions", []) + [q.get("goal", q.get("formula"))]]
    rng = random.Random(33)
    texts += ["".join(rng.choices(_TOKENS, k=rng.randint(0, 12))) for _ in range(20000)]
    for _ in range(5000):
        s = print_formula(random_formula(rng, rng.randint(0, 5), ["p", "q", "r"]),
                          rng.random() < 0.5)
        i, token = rng.randrange(len(s) + 1), rng.choice(_TOKENS)
        texts += [s, rng.choice([s[:i] + s[i + 1:], s[:i] + token + s[i:],
                                 s[:i] + token + s[i + 1:], s[:i] + s[i:i + 2][::-1] + s[i + 2:]])]
    return texts


def test_parse_matches_the_recursive_descent_reference():
    """The one-pass parser gives the formula the recursive-descent reference
    gives, or the same ParseError message and position, on every input the
    reference parses within the recursion limit."""
    compared = malformed = 0
    for text in _parser_inputs():
        expected = _parsed(ref.parse, text)
        if isinstance(expected, tuple) and expected[0].startswith("formula nested too deeply"):
            continue
        assert _parsed(parse, text) == expected, text
        compared += 1
        malformed += isinstance(expected, tuple)
    assert compared == 34354 and 10000 < malformed < compared


def test_atom_names_validated():
    with pytest.raises(FormulaError):
        Atom("bot")
    with pytest.raises(FormulaError):
        Atom("P")
    with pytest.raises(FormulaError):
        Atom("1x")
    Atom("p_1X")  # fine


def test_print_core():
    assert print_formula(Implies(Box(p), p)) == "[]p -> p"
    assert print_formula(BOT) == "bot"
    assert print_formula(Implies(Implies(p, q), p)) == "(p -> q) -> p"
    assert print_formula(Box(Implies(p, q))) == "[](p -> q)"


def test_print_resugar():
    assert print_formula(parse("!p"), resugar=True) == "!p"
    assert print_formula(parse("<>p"), resugar=True) == "<>p"
    assert print_formula(parse("p & q | r"), resugar=True) == "p & q | r"
    assert print_formula(parse("!!p"), resugar=True) == "!!p"


def test_closure_order_and_members():
    clo = closure([parse("[]p -> p")])
    assert [print_formula(f) for f in clo.formulas] == ["p", "[]p", "[]p -> p"]
    assert closure([p]).formulas == (p,)
    # ties on size break by printed form, so bot precedes p
    clo = closure([parse("<>p")])
    assert [print_formula(f) for f in clo.formulas] == \
        ["bot", "p", "p -> bot", "[](p -> bot)", "[](p -> bot) -> bot"]


def test_closure_idempotent_and_topological():
    clo = closure([parse("[](p -> q) -> ([]p -> []q)")])
    again = closure(clo.formulas)
    assert again.formulas == clo.formulas
    for i, f in enumerate(clo.formulas):
        for sub in children(f):
            assert clo.position(sub) < i


def test_closure_structure_names_argument_positions():
    clo = closure([parse("<>p")])
    assert clo.structure() == (
        ("bot", -1, -1), ("atom", -1, -1), ("imp", 1, 0), ("box", 2, -1), ("imp", 3, 0))
    assert clo.structure() is clo.structure()   # built once, with the closure
    ext = clo.extended(Box(clo.formulas[-1]))
    assert ext.structure() == clo.structure() + (("box", 4, -1),)


def test_closure_non_roots_are_proper_subformulas():
    roots = [parse("[]p -> p"), parse("q")]
    clo = closure(roots)
    rootset = set(roots)
    subs = set()
    stack = list(roots)
    while stack:
        g = stack.pop()
        for c in children(g):
            subs.add(c)
            stack.append(c)
    for f in clo.formulas:
        assert f in rootset or f in subs


def _deep_negations(n):
    f = Atom("p")
    for _ in range(n):
        f = lnot(f)
    return f


def check_subformulas(roots):
    """`subformulas(roots)` lists the members of `closure(roots)`, each
    once, every one after its children."""
    subs = subformulas(roots)
    assert len(set(subs)) == len(subs)
    assert set(subs) == set(closure(roots).formulas)
    listed = set()
    for f in subs:
        assert all(g in listed for g in children(f)), print_formula(f)
        listed.add(f)


@pytest.mark.parametrize("texts", [
    ["!" * 500 + "p"], ["([]p & []q) -> [](p | (q & r))"], ["<>[]p -> []<>(q -> bot)"],
    ["[](p -> q) -> ([]p -> []q)"], ["((p -> q) -> p) -> p"], ["(p -> q -> r) | (p -> [][]q)"],
    ["[]p -> p"], ["p"], ["<>p"], ["[]p -> p", "q"], ["p", "p", "[]p"],
])
def test_subformulas_list_the_closure_children_first(texts):
    check_subformulas([parse(t) for t in texts])


def test_subformulas_never_recurse():
    """A formula nested past the recursion limit lists without recursing,
    and two equal ones built apart compare without recursing and list
    once, through `subformulas` and `closure` alike."""
    f, g = _deep_negations(3000), _deep_negations(3000)
    check_subformulas([f])
    assert len(subformulas([f])) == 3002
    assert len(subformulas([f, g])) == len(closure([f, g])) == 3002


def test_subformulas_list_a_shared_subtree_once():
    f = Atom("p")
    for _ in range(60):
        f = land(Box(f), f)
    subs = subformulas([f])
    assert len(subs) == len(set(subs)) == 242 and subs[-1] is f


def test_equality_compares_shared_subtrees_once():
    """Two shared trees of more than 2**60 nodes, built apart, are one
    object: each constructor call finds the node its children make, so
    equality is identity, equal or unequal at one leaf."""
    def shared(leaf):
        f = leaf
        for _ in range(60):
            f = land(Box(f), f)
        return f

    f, g, h = shared(Atom("p")), shared(Atom("p")), shared(Atom("q"))
    assert f is g and f == g and hash(f) == hash(g)
    assert f != h and g != h and f != Box(f) and f != "p"
    assert Implies(p, BOT) is lnot(Atom("p")) != Implies(q, BOT)
    assert Box(p) != Implies(p, p) and Falsum() is BOT != p


def test_repr_of_a_shared_tree_is_bounded():
    """60 nested `f = []f & f` is more than 2**60 nodes as a tree; its
    repr is the constructor form cut at a fixed length, written from the
    root down, so it returns at once."""
    f = p
    for _ in range(60):
        f = land(Box(f), f)
    start = time.perf_counter()
    text = repr(f)
    assert time.perf_counter() - start < 1
    assert text.startswith("Implies(Implies(Box(Implies(") and text.endswith("...")
    assert len(text) < 1100
    assert repr(parse("[]p -> bot")) == "Implies(Box(Atom('p')), Falsum())"


def _seeded_formulas(seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [ref.random_formula(rng, rng.randint(0, 3), ["p", "q"]) for _ in range(count)]


def test_identity_is_structural_equality():
    """Two formulas are one object exactly when `reference.equal`, a
    recursive structural comparison, finds them equal: over every pair of
    300 seeded random formulas, and over each of them and its core and
    resugared prints parsed back by the reference parser."""
    formulas = _seeded_formulas(38, 300)
    identical = 0
    for f in formulas:
        for g in formulas:
            assert (f is g) == ref.equal(f, g), (f, g)
            identical += f is g
        for text in (print_formula(f), print_formula(f, resugar=True)):
            g = ref.parse(text)
            assert g is f and ref.equal(g, f) and g is parse(text), text
    assert 300 < identical < 300 * 300 // 2


def _negations(n: int) -> Formula:
    f = p
    for _ in range(n):
        f = lnot(f)
    return f


def test_copies_and_pickles_are_the_interned_node():
    """Pickling rebuilds a node through the constructors, so a round trip
    at every protocol returns the node itself, as `copy.copy` and
    `copy.deepcopy` do: a node at most `_PICKLE_DEPTH` levels tall through
    its own constructor, a taller one from its children-first subformula
    list, so also past the recursion limit and inside a container.  The
    pure-Python pickler takes the tallest constructor form too."""
    deep = _negations(3000)
    tallest = _negations(formula._PICKLE_DEPTH - 1)  # p and 99 negations: 100 levels
    for f in _seeded_formulas(39, 100) + [BOT, deep, Implies(deep, Box(deep)), tallest,
                                          lnot(tallest)]:
        assert copy.copy(f) is f and copy.deepcopy(f) is f
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(f, protocol)) is f
    assert b"_last_built" not in pickle.dumps(tallest)
    assert b"_last_built" in pickle.dumps(lnot(tallest))
    assert pickle._loads(pickle._dumps([tallest, Box(tallest)])) == [tallest, Box(tallest)]
    pair = copy.deepcopy([deep, {deep: Box(deep)}])
    assert pair[0] is deep and pair[1][deep] is Box(deep)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        pair = pickle.loads(pickle.dumps([deep, {deep: Box(deep)}], protocol))
        assert pair[0] is deep and pair[1][deep] is Box(deep)
    assert Falsum() is BOT and type(BOT) is Falsum


def test_pickles_hold_each_node_once():
    """A closure sends one node list for all its members, and formulas up
    to `_PICKLE_DEPTH` levels tall share their nodes through the pickle's
    memo, so both pickles grow linearly with a chain's length: doubling it
    at most doubles the size, plus the wider positions.  A closure round
    trip gives the same members."""
    def size(obj):
        return len(pickle.dumps(obj))

    for n in (300, 600):
        clo = closure([_negations(n)])
        assert pickle.loads(pickle.dumps(clo)) == clo
        assert size(closure([_negations(2 * n)])) < 2.2 * size(clo)
    half = formula._PICKLE_DEPTH // 2 - 1  # 2 * half negations: 99 levels
    assert size(subformulas([_negations(2 * half)])) < 2.2 * size(subformulas([_negations(half)]))


def test_nodes_refuse_assignment():
    f = Implies(Box(p), q)
    for node, field in ((p, "name"), (Box(p), "operand"), (f, "left"), (f, "right")):
        with pytest.raises(AttributeError, match="nodes are immutable"):
            setattr(node, field, q)
        with pytest.raises(AttributeError, match="nodes are immutable"):
            delattr(node, field)
    with pytest.raises(AttributeError, match="nodes are immutable"):
        BOT.extra = 1
    assert f.left is Box(p) and f.right is q and p.name == "p"


def test_threads_building_one_formula_get_one_node():
    """Eight threads race to build the same 8000 formulas over new atoms,
    switching every microsecond: each formula is one node in every thread,
    since a node is recorded with `dict.setdefault`."""
    def build(out):
        barrier.wait(timeout=10)
        for i in range(2000):
            a = Atom(f"race{i}")
            out += (a, Box(a), Implies(a, Box(a)), lnot(Implies(a, Box(a))))

    barrier, built = threading.Barrier(8), [[] for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in built]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(out) == 8000 for out in built)
    for nodes in zip(*built):
        assert all(f is nodes[0] for f in nodes)


@pytest.mark.parametrize("bad", [None, "p", 0])
def test_constructors_refuse_what_is_not_a_formula(bad):
    for build in (lambda: Box(bad), lambda: Implies(p, bad), lambda: Implies(bad, p)):
        with pytest.raises(FormulaError, match="^not a formula: "):
            build()


# Interning 200000 distinct nodes (100000 implications, 100000 boxes) in a
# fresh interpreter, with tracemalloc counting what the tables keep.  Five
# fresh runs on a 2-core x86 host with Python 3.11.7 each retained 124.4
# bytes per node; the bound is that rounded up to the next multiple of 8.
_INTERN_200K = """
import tracemalloc
from modalcube.formula import Atom, Box, Implies
p = Atom("p")
tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
f = p
for _ in range(100_000):
    f = Box(Implies(f, p))
print((tracemalloc.get_traced_memory()[0] - before) / 200_000)
"""
_INTERNED_NODE_BYTES = 128


def test_interned_nodes_retain_a_bounded_size():
    env = {**os.environ, "PYTHONPATH": str(Path(modalcube.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _INTERN_200K],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= _INTERNED_NODE_BYTES, proc.stdout


def test_closure_refuses_a_shared_tree_past_the_bound():
    """60 nested `f = []f & f` print as a tree of more than 2**60 nodes.
    `closure` raises on the first member past the bound, 1835000 nodes,
    before printing it, where it used to run out of memory."""
    f = Atom("p")
    for _ in range(60):
        f = land(Box(f), f)
    start = time.perf_counter()
    with pytest.raises(FormulaError, match="^closure member of 1835000 nodes as a tree "
                                           f"exceeds the bound of {CLOSURE_TREE_LIMIT}: "):
        closure([f])
    assert time.perf_counter() - start < 1


def test_closure_takes_a_tree_at_the_bound():
    """`f = f -> f` nested 19 times has 2**20 - 1 nodes as a tree: boxed
    once it is at the bound, and boxed twice one node past it."""
    f = p
    for _ in range(19):
        f = Implies(f, f)
    assert CLOSURE_TREE_LIMIT == 1 << 20
    assert len(closure([Box(f)])) == 21
    with pytest.raises(FormulaError, match=f"^closure member of {CLOSURE_TREE_LIMIT + 1} nodes"):
        closure([Box(Box(f))])


@pytest.mark.parametrize("bad", ["p", None, 0])
def test_subformulas_reject_what_is_not_a_formula(bad):
    for pass_ in (subformulas, closure):
        with pytest.raises(FormulaError, match="^not a formula: "):
            pass_([p, bad])


def test_closure_of_nothing_is_an_error():
    with pytest.raises(FormulaError, match="closure of an empty set"):
        closure([])
    assert subformulas([]) == []


def test_instantiate():
    schema = parse("[]a -> a")
    assert instantiate(schema, {"a": lor(p, q)}) == Implies(Box(lor(p, q)), lor(p, q))
    assert instantiate(Atom("a"), {"a": BOT}) == BOT
    schema_k = parse("[](a -> b) -> ([]a -> []b)")
    inst = instantiate(schema_k, {"a": p, "b": p})
    assert inst == parse("[](p -> p) -> ([]p -> []p)")
    with pytest.raises(FormulaError):
        instantiate(schema_k, {"a": p})


@pytest.mark.parametrize("schema", ["a", "[]a"])
def test_instantiate_refuses_a_value_that_is_not_a_formula(schema):
    with pytest.raises(FormulaError, match="metavariable 'a' is bound to 5, not a formula"):
        instantiate(parse(schema), {"a": 5})


# random ASTs for round-trip properties
def formulas(max_leaves=8):
    leaf = st.one_of(st.sampled_from([Atom("p"), Atom("q"), Atom("r"), BOT]))
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.builds(Implies, inner, inner),
            st.builds(Box, inner),
            st.builds(lnot, inner),
            st.builds(ldia, inner),
            st.builds(land, inner, inner),
            st.builds(lor, inner, inner),
        ),
        max_leaves=max_leaves,
    )


@given(formulas())
def test_print_parse_roundtrip_core(f):
    assert parse(print_formula(f)) == f


@given(formulas())
def test_print_parse_roundtrip_resugared(f):
    assert parse(print_formula(f, resugar=True)) == f


@given(formulas())
def test_printer_matches_the_recursive_reference(f):
    for resugar in (False, True):
        assert print_formula(f, resugar) == ref.printed(f, resugar)


@given(formulas())
def test_subformulas_of_random_formulas(f):
    check_subformulas([f, Box(f)])


@given(formulas())
def test_closure_closed_under_subformulas(f):
    clo = closure([f])
    for g in clo.formulas:
        for sub in children(g):
            assert sub in clo
    assert ref.size(clo.formulas[-1]) == max(ref.size(g) for g in clo.formulas)
