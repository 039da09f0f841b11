"""Regenerate expected.json: every benchmark query and its expected answer.

    python3 perfbench/make_expected.py

Where each answer comes from is stated per entry:

* verdicts: modal-logic theory (the axiom / frame-property correspondence of
  the cube, and theorems of K, which every logic of the cube contains);
  otherwise the bounded relational oracle when it finds a countermodel, which
  is then re-checked by forcing; otherwise the exact table computation of
  reference.py, noting the world bound the oracle searched without success;
* survivor sets, relations and serialized models: the exact computation of
  reference.py, which does not call modalcube._accel and counts witnesses
  exactly.

If the exact table verdict contradicts theory or a found countermodel, the
script stops: that would be a defect in the library's tables, not an answer.
The queries themselves are pinned here, so a later change to the library's
random-formula generator cannot change the load.  The cube-queries pool is
every distinct candidate of a seeded draw that enumerates within the row
limit; the generator block records how many candidates the row limit
rejected and the share of each work band, which the workload keeps.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402
from modalcube.decision import RowLimitError, enumerate_rows  # noqa: E402
from modalcube.formula import (Atom, Box, Implies, closure, land, ldia,  # noqa: E402
                               lnot, lor, parse, print_formula)
from modalcube.kripke import forces, frame_props, oracle_decide  # noqa: E402
from modalcube.logics import lookup  # noqa: E402
from workloads import band_label, band_of, work  # noqa: E402

POOL_SEED = 20250518
POOL_CANDIDATES = 2000   # distinct candidates drawn for the cube-queries pool
POOL_ORACLE_WORLDS = 3
RELATIONAL_ORACLE_WORLDS = 4
ROW_LIMIT = 2400      # cube-queries stays below the large-closures regime

# Frame properties of the fifteen logics, closed under derivability (for
# example B and 5 give 4; T gives D).  Taken from the theory of the cube,
# not from the library's registry; main() checks that the two agree.
THEORY_PROPS = {
    "K": "", "KB": "B", "K4": "4", "K5": "5", "K45": "4 5", "KB5": "B 4 5",
    "KD": "D", "KDB": "D B", "KD4": "D 4", "KD5": "D 5", "KD45": "D 4 5",
    "KT": "T D", "KTB": "T D B", "KT4": "T D 4", "KT45": "T D B 4 5",
}

# The six schemata instantiated with a := p, b := q, and the frame property
# each one corresponds to (k holds on every frame).
AXIOM_INSTANCES = {
    "k": ("[](p -> q) -> ([]p -> []q)", None),
    "d": ("[]p -> <>p", "D"),
    "t": ("[]p -> p", "T"),
    "b": ("p -> []<>p", "B"),
    "4": ("[]p -> [][]p", "4"),
    "5": ("<>p -> []<>p", "5"),
}

# Theorems of K, hence valid in every logic of the cube.
K_THEOREMS = {
    "and-or": "([]p & []q) -> [](p | r)",
    "k-inst": "[](p -> q) -> ([]p -> []q)",
    "box-and": "[]p -> ([]q -> [](p & q))",
    "dia-or": "<>(p | q) -> (<>p | <>q)",
}
DEEP = "[][][]p -> <><>(q -> []r)"

LARGE = [  # (logic, formula): the largest closures that finish today
    ("K", K_THEOREMS["and-or"]), ("KB", K_THEOREMS["and-or"]),
    ("K4", K_THEOREMS["and-or"]), ("KDB", K_THEOREMS["and-or"]),
    ("K", K_THEOREMS["k-inst"]), ("K", K_THEOREMS["box-and"]), ("K", K_THEOREMS["dia-or"]),
    ("KD", K_THEOREMS["k-inst"]), ("KD", K_THEOREMS["box-and"]), ("KD", K_THEOREMS["dia-or"]),
    ("KT", DEEP), ("KB5", K_THEOREMS["and-or"]),
]

MODELS = [  # (logic, formula): mid-size closures for extraction and serialization
    ("KD4", K_THEOREMS["and-or"]), ("KT", DEEP), ("K", K_THEOREMS["k-inst"]),
    ("K5", DEEP), ("KB5", K_THEOREMS["and-or"]), ("KTB", DEEP), ("KT4", DEEP),
    ("KDB", K_THEOREMS["k-inst"]), ("K4", K_THEOREMS["box-and"]),
]
CLI_MODELS = MODELS[:5]   # decided through the CLI: one per family, and K5's own extraction

# Own copy of a weighted random AST generator (depth-bounded, desugared).
_WEIGHTS = [("imp", 3), ("box", 2), ("dia", 2), ("not", 2),
            ("and", 1), ("or", 1), ("atom", 4), ("bot", 1)]
_LEAF_WEIGHTS = [("atom", 4), ("bot", 1)]


def random_formula(rng: random.Random, depth: int, atoms: list[str]):
    table = _LEAF_WEIGHTS if depth <= 0 else _WEIGHTS
    kind = rng.choices([k for k, _ in table], [w for _, w in table])[0]
    if kind == "atom":
        return Atom(rng.choice(atoms))
    if kind == "bot":
        return parse("bot")
    if kind in ("box", "dia", "not"):
        sub = random_formula(rng, depth - 1, atoms)
        return {"box": Box, "dia": ldia, "not": lnot}[kind](sub)
    a = random_formula(rng, depth - 1, atoms)
    b = random_formula(rng, depth - 1, atoms)
    return {"imp": Implies, "and": land, "or": lor}[kind](a, b)


def text_of(f) -> str:
    text = print_formula(f, resugar=True)
    if parse(text) != f:
        raise AssertionError(f"{text!r} does not parse back to the same formula")
    return text


# ---------------------------------------------------------------------------
# Expected answers
# ---------------------------------------------------------------------------

def theory_verdict(logic_name: str, goal_text: str, assumptions) -> tuple[bool, str] | None:
    if assumptions:
        return None
    for label, (text, prop) in AXIOM_INSTANCES.items():
        if parse(text) == parse(goal_text):
            props = THEORY_PROPS[logic_name].split()
            if prop is None:
                return True, "theory: axiom k holds on every frame"
            if prop in props:
                return True, f"theory: axiom {label} holds on {prop}-frames"
            return False, f"theory: axiom {label} fails on some frame of {logic_name} (no {prop})"
    for text in K_THEOREMS.values():
        if parse(text) == parse(goal_text):
            return True, "theory: theorem of K"
    return None


def countermodel(logic, assumptions, goal, worlds: int):
    verdict = oracle_decide(logic, assumptions, goal, worlds)
    if not verdict.found:
        return None
    k, w = verdict.countermodel, verdict.world
    if not (all(forces(k, w, a) for a in assumptions) and not forces(k, w, goal)
            and ref.frame_ok(k.relation, frame_props(logic))):
        raise AssertionError("oracle countermodel does not re-check")
    return k.world_count


def table_facts(logic, clo) -> tuple[dict, object]:
    rows = enumerate_rows(logic, clo)
    alive, rounds = ref.exact_filter(logic, rows)
    wrapped, _ = ref.exact_filter(logic, rows, wrap=256)
    kept = rows[alive]
    facts = {
        "closure_size": len(clo),
        "rows_enumerated": int(rows.shape[0]),
        "survivors": int(kept.shape[0]),
        "survivor_digest": ref.rows_digest(kept),
        "rounds": rounds,
        # A witness count wraps to zero in a uint8 accumulator (ROADMAP
        # item 1) and deletes supported rows: workloads.plan runs such
        # inputs in large-closures only.
        "uint8_wraps": bool((wrapped != alive).any()),
    }
    return facts, kept


def expect_decide(logic_name, assumptions_text, goal_text, worlds) -> dict:
    logic = lookup(logic_name)
    assumptions = [parse(a) for a in assumptions_text]
    goal = parse(goal_text)
    clo = closure(assumptions + [goal])
    facts, kept = table_facts(logic, clo)
    exact = ref.verdict_of(logic, clo, kept, assumptions, goal)
    theory = theory_verdict(logic_name, goal_text, assumptions_text)
    if theory is not None:
        valid, source = theory
    else:
        size = countermodel(logic, assumptions, goal, worlds)
        if size is not None:
            valid, source = False, f"oracle: countermodel with {size} worlds, re-checked by forcing"
        else:
            valid = exact
            source = f"exact table fixpoint; oracle found no countermodel up to {worlds} worlds"
    if valid != exact:
        raise AssertionError(f"exact table verdict contradicts {source}: "
                             f"{logic_name} {assumptions_text} => {goal_text}")
    return {"verdict": "VALID" if valid else "INVALID", "verdict_source": source, **facts}


def expect_model(logic_name, formula_text) -> dict:
    logic = lookup(logic_name)
    clo = closure([parse(formula_text)])
    facts, kept = table_facts(logic, clo)
    rel = ref.maximal_relation(logic, kept)
    return {
        **facts,
        "relation_edges": int(rel.sum()),
        "relation_digest": ref.relation_digest(rel),
        "json_digest": ref.text_digest(ref.model_json_text(logic, clo, kept, rel)),
        "frame_ok": True,
        "truth_lemma": True,
        "within_maximal": True,
        "model_source": "specification: the extracted model has the logic's frame "
                        "properties, forces exactly what each row designates, and uses "
                        "only edges of the maximal relation",
    }


def decide_entry(logic, goal, assumptions=(), worlds=POOL_ORACLE_WORLDS) -> dict:
    return {"kind": "decide", "logic": logic, "assumptions": list(assumptions), "goal": goal,
            "expect": expect_decide(logic, list(assumptions), goal, worlds)}


def oracle_entry(logic_name, goal) -> dict:
    verdict = theory_verdict(logic_name, goal, [])
    assert verdict is not None
    valid, source = verdict
    return {"kind": "oracle", "logic": logic_name, "assumptions": [], "goal": goal,
            "max_worlds": RELATIONAL_ORACLE_WORLDS,
            "expect": {"found": not valid, "found_source": source}}


def pool_entries(log) -> tuple[dict, dict]:
    """The cube-queries pool and a summary of the draw it came from."""
    rng = random.Random(POOL_SEED)
    seen = set()
    out = {}
    over_limit = 0
    names = list(THEORY_PROPS)
    while len(seen) < POOL_CANDIDATES:
        logic_name = rng.choice(names)
        atoms = ["p", "q", "r"][:rng.randint(1, 3)]
        goal = text_of(random_formula(rng, 3, atoms))
        assumptions = [text_of(random_formula(rng, 2, atoms)) for _ in range(rng.randint(0, 2))]
        key = (logic_name, tuple(assumptions), goal)
        if key in seen:
            continue
        seen.add(key)
        clo = closure([parse(a) for a in assumptions] + [parse(goal)])
        try:
            enumerate_rows(lookup(logic_name), clo, ROW_LIMIT)
        except RowLimitError:
            over_limit += 1
            continue
        out[f"cube/pool/{len(out):05d}"] = decide_entry(logic_name, goal, assumptions)
        if len(out) % 200 == 0:
            log(f"pool: {len(out)} entries of {len(seen)} candidates")
    counts: dict[int, int] = {}
    for entry in out.values():
        b = band_of(work(entry["expect"]))
        counts[b] = counts.get(b, 0) + 1
    draw = {"candidates": len(seen), "over_row_limit": over_limit, "entries": len(out),
            "bands": {band_label(b): {"entries": n, "share": round(n / len(out), 4)}
                      for b, n in sorted(counts.items())}}
    log(f"pool: {draw}")
    return out, draw


def main() -> int:
    t0 = time.perf_counter()

    def log(msg):
        print(f"[{time.perf_counter() - t0:7.1f}s] {msg}", flush=True)

    for name, props in THEORY_PROPS.items():
        library = {p.upper() for p in lookup(name).frame_props}
        if library != set(props.split()):
            raise AssertionError(f"{name}: library frame properties {sorted(library)} "
                                 f"differ from theory {props.split()}")

    queries: dict = {}
    for name in THEORY_PROPS:
        for label, (text, _) in AXIOM_INSTANCES.items():
            queries[f"cube/axiom/{name}/{label}"] = decide_entry(name, text)
    log("axiom instances done")
    pool, draw = pool_entries(log)
    queries.update(pool)
    log("pool done")

    slug = {text: key for key, text in K_THEOREMS.items()}
    slug[DEEP] = "deep"
    for name, text in LARGE:
        queries[f"large/{name}/{slug[text]}"] = decide_entry(name, text)
        log(f"large {name} {slug[text]}: {queries[f'large/{name}/{slug[text]}']['expect']}")
    for name, text in MODELS:
        queries[f"rel/model/{name}/{slug[text]}"] = {
            "kind": "model", "logic": name, "formula": text, "expect": expect_model(name, text)}
    for name, text in CLI_MODELS:
        queries[f"relcli/{name}/{slug[text]}"] = decide_entry(name, text)
    for name in THEORY_PROPS:
        for label, (text, _) in AXIOM_INSTANCES.items():
            entry = oracle_entry(name, text)
            kind = "sep" if entry["expect"]["found"] else "valid"
            if label == "k" and kind == "sep":
                raise AssertionError("axiom k cannot be separated")
            queries[f"rel/oracle-{kind}/{name}/{label}"] = entry
    log("relational done")

    payload = {
        "provenance": __doc__.split("\n\n", 2)[2].splitlines(),
        "generator": {"pool_seed": POOL_SEED, "pool_oracle_worlds": POOL_ORACLE_WORLDS,
                      "row_limit": ROW_LIMIT, "pool_draw": draw},
        "queries": queries,
    }
    (HERE / "expected.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    log(f"wrote {len(queries)} queries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
