import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import reference as ref
from modalcube.cli import random_formula
from modalcube.formula import (
    CLOSURE_TREE_LIMIT, Atom, Box, Closure, Falsum, FormulaError, Implies, ParseError, children,
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
    # hashes, sort keys and equality never walk a subtree recursively, so
    # two equal formulas nested past the recursion limit and built apart
    # have one closure
    f, g = Atom("p"), Atom("p")
    for _ in range(3000):
        f, g = lnot(f), lnot(g)
    assert f is not g and f == g and not f != g
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
    """Two shared trees of more than 2**60 nodes, built apart, compare in
    one visit per pair of distinct nodes: equal, or unequal at one leaf."""
    def shared(leaf):
        f = leaf
        for _ in range(60):
            f = land(Box(f), f)
        return f

    f, g, h = shared(Atom("p")), shared(Atom("p")), shared(Atom("q"))
    assert f is not g and f == g and hash(f) == hash(g)
    assert f != h and g != h and f != Box(f) and f != "p"
    assert Implies(p, BOT) == lnot(Atom("p")) != Implies(q, BOT)
    assert Box(p) != Implies(p, p) and Falsum() == BOT != p
    # a hash collision still compares atom names
    collides = Atom("q")
    object.__setattr__(collides, "_hash", hash(p))
    assert hash(Box(collides)) == hash(Box(p)) and Box(collides) != Box(p)


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
