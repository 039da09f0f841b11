"""Command-line front end: decide, table, model, oracle, xcheck, axioms.

Exit codes: 0 for a valid consequence (or a clean run), 1 for an invalid
consequence / found countermodel / differential disagreement, 2 for any
error (parse error, unknown logic, exceeded row cap...).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import decision, kripke, values
from .formula import (BOT, Atom, Box, Formula, Implies, closure, land, ldia, lnot,
                      lor, parse, print_formula)
from .logics import axioms, lookup
from .nmatrix import nmatrix


# ---------------------------------------------------------------------------
# Random formula generation for differential testing
# ---------------------------------------------------------------------------

_GEN_WEIGHTS = [
    ("imp", 3), ("box", 2), ("dia", 2), ("not", 2),
    ("and", 1), ("or", 1), ("atom", 4), ("bot", 1),
]
_LEAF_WEIGHTS = [("atom", 4), ("bot", 1)]
_UNARY = {"box": Box, "dia": ldia, "not": lnot}
_BINARY = {"imp": Implies, "and": land, "or": lor}


def random_formula(rng: random.Random, max_depth: int, atoms: list[str]) -> Formula:
    """Weighted random AST up to max_depth, desugared to the core language.
    Nodes are drawn in pre-order over an explicit stack of depths still to
    draw and connectives waiting for their operands, so no depth recurses."""
    stack: list[int | str] = [max_depth]
    done: list[Formula] = []
    while stack:
        item = stack.pop()
        if item in _UNARY:
            done.append(_UNARY[item](done.pop()))
            continue
        if item in _BINARY:
            right = done.pop()
            done.append(_BINARY[item](done.pop(), right))
            continue
        table = _LEAF_WEIGHTS if item <= 0 else _GEN_WEIGHTS
        kind = rng.choices([k for k, _ in table], [w for _, w in table])[0]
        if kind == "atom":
            done.append(Atom(rng.choice(atoms)))
        elif kind == "bot":
            done.append(BOT)
        else:
            stack += [kind] + [item - 1] * (1 if kind in _UNARY else 2)
    return done[0]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_decide(ns: argparse.Namespace, out) -> int:
    logic = lookup(ns.logic)
    goal = parse(ns.goal)
    assumptions = [parse(a) for a in ns.assume]
    verdict = decision.decide(logic, assumptions, goal, ns.row_cap)
    if ns.format == "json":
        payload = {
            "logic": logic.name,
            "goal": print_formula(goal, resugar=True),
            "assumptions": [print_formula(a, resugar=True) for a in assumptions],
            "verdict": str(verdict),
            "witness": verdict.witness(),
            "rows": verdict.model.row_count,
            "iterations": verdict.model.iterations,
        }
        print(json.dumps(payload, indent=2), file=out)
    else:
        # the witness may need the filter, which may raise: read it before
        # printing anything
        row = verdict.witness()
        print(str(verdict), file=out)
        if row is not None:
            print("witness: " + "  ".join(f"{k}={v}" for k, v in row.items()), file=out)
    return 0 if verdict.valid else 1


def _cmd_table(ns: argparse.Namespace, out) -> int:
    logic = lookup(ns.logic)
    if not ns.formulas:
        return _dump_connectives(logic, ns.format, out)
    clo = closure([parse(s) for s in ns.formulas])
    if ns.level is not None:
        levels = decision.level_filter(logic, clo, ns.level, ns.row_cap)
        if ns.format == "json":
            print(json.dumps(decision.levels_to_json_dict(clo, levels), indent=2), file=out)
        else:
            print(decision.levels_to_csv(clo, levels), end="", file=out)
        return 0
    model = decision.filter_model(logic, clo, ns.row_cap)
    if ns.format == "json":
        print(decision.model_to_json(model), file=out)
    else:
        print(decision.model_to_csv(model), end="", file=out)
    return 0


def _dump_connectives(logic, fmt: str, out) -> int:
    """Falsum, implication and box tables of the logic (rows are the first
    argument, columns the second, cells are value-name lists)."""
    mat = nmatrix(logic)
    vals = values.values_in(logic.values_mask)
    names = [values.VALUE_NAMES[v] for v in vals]
    imp = {values.VALUE_NAMES[a]: {values.VALUE_NAMES[b]: list(values.names_in(mat.imp(a, b)))
                                   for b in vals} for a in vals}
    box = {values.VALUE_NAMES[a]: list(values.names_in(mat.box(a))) for a in vals}
    if fmt == "json":
        payload = {
            "logic": logic.name,
            "values": names,
            "bot": list(values.names_in(mat.bot_mask)),
            "imp": imp,
            "box": box,
        }
        print(json.dumps(payload, indent=2), file=out)
        return 0
    lines = ["table,arg1,arg2,result"]
    lines.append(f"bot,,,{' '.join(values.names_in(mat.bot_mask))}")
    for a in names:
        for b in names:
            lines.append(f"imp,{a},{b},{' '.join(imp[a][b])}")
    for a in names:
        lines.append(f"box,{a},,{' '.join(box[a])}")
    print("\n".join(lines), file=out)
    return 0


def _cmd_model(ns: argparse.Namespace, out) -> int:
    logic = lookup(ns.logic)
    clo = closure([parse(ns.formula)])
    model = decision.filter_model(logic, clo, ns.row_cap)
    km = kripke.to_kripke(model)
    if ns.format == "dot":
        print(kripke.to_dot(km), end="", file=out)
    else:
        print(kripke.kripke_to_json(km), file=out)
    return 0


def _cmd_oracle(ns: argparse.Namespace, out) -> int:
    logic = lookup(ns.logic)
    goal = parse(ns.goal)
    assumptions = [parse(a) for a in ns.assume]
    verdict = kripke.oracle_decide(logic, assumptions, goal, ns.max_worlds)
    if ns.format == "json":
        payload = {"verdict": str(verdict), "world": verdict.world}
        payload["countermodel"] = (kripke.kripke_to_json_dict(verdict.countermodel)
                                   if verdict.found else None)
        print(json.dumps(payload, indent=2), file=out)
    elif ns.format == "dot" and verdict.found:
        print(kripke.to_dot(verdict.countermodel), end="", file=out)
    else:
        print(str(verdict), file=out)
    return 1 if verdict.found else 0


def _cmd_xcheck(ns: argparse.Namespace, out) -> int:
    logic = lookup(ns.logic)
    if not 1 <= ns.atoms <= 11:
        raise ValueError(f"--atoms must be between 1 and 11 (p to z), got {ns.atoms}")
    for flag, n in (("--count", ns.count), ("--max-depth", ns.max_depth)):
        if n < 0:
            raise ValueError(f"{flag} must be non-negative, got {n}")
    rng = random.Random(ns.seed)
    atoms = [chr(ord("p") + i) for i in range(ns.atoms)]
    agree = refuted = unresolved = 0
    disagreements = []
    for k in range(ns.count):
        goal = random_formula(rng, ns.max_depth, atoms)
        verdict = decision.decide(logic, [], goal, ns.row_cap)
        oracle = kripke.oracle_decide(logic, [], goal, ns.max_worlds)
        if verdict.valid and not oracle.found:
            agree += 1
        elif not verdict.valid and oracle.found:
            refuted += 1
        elif not verdict.valid and not oracle.found:
            unresolved += 1
        else:
            disagreements.append(print_formula(goal, resugar=True))
            print(f"DISAGREE[{k}]: {print_formula(goal, resugar=True)} "
                  f"decide=VALID oracle={oracle}", file=out)
    print(f"agree={agree} refuted={refuted} unresolved={unresolved}", file=out)
    return 1 if disagreements else 0


def _cmd_axioms(ns: argparse.Namespace, out) -> int:
    logic = lookup(ns.logic)
    pairs = axioms(logic)
    if ns.format == "json":
        payload = [{"label": label, "schema": print_formula(schema, resugar=True)}
                   for label, schema in pairs]
        print(json.dumps(payload, indent=2), file=out)
    else:
        for label, schema in pairs:
            print(f"{label}: {print_formula(schema, resugar=True)}", file=out)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modalcube",
        description="Decision procedures for the modal cube over eight-valued "
                    "non-deterministic truth tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, formats=(), row_cap=True):
        """A subcommand with --logic, and --row-cap and --format (default
        the first of `formats`) when it reads them."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--logic", default="K", help="logic name or alias (K, S4, S5...)")
        if row_cap:
            p.add_argument("--row-cap", type=int, default=decision.ROW_CAP_DEFAULT)
        if formats:
            p.add_argument("--format", default=formats[0], choices=formats)
        return p

    p = command("decide", _cmd_decide, "decide a consequence", ("text", "json"))
    p.add_argument("--assume", action="append", default=[], metavar="FORMULA")
    p.add_argument("goal")

    p = command("table", _cmd_table, "dump a filtered truth table, or the logic's "
                "connective tables when no formula is given", ("csv", "json"))
    p.add_argument("--level", type=int, default=None,
                   help="dump staged level filtering instead of the support filter")
    p.add_argument("formulas", nargs="*")

    p = command("model", _cmd_model, "extract a relational model", ("json", "dot"))
    p.add_argument("formula")

    p = command("oracle", _cmd_oracle, "bounded relational countermodel search",
                ("text", "json", "dot"), row_cap=False)
    p.add_argument("--assume", action="append", default=[], metavar="FORMULA")
    p.add_argument("--max-worlds", type=int, default=3)
    p.add_argument("goal")

    p = command("xcheck", _cmd_xcheck, "differential test: decide vs oracle")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--max-depth", type=int, default=2)
    p.add_argument("--atoms", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-worlds", type=int, default=3)

    command("axioms", _cmd_axioms, "list the logic's axiom schemata",
            ("text", "json"), row_cap=False)

    return parser


_KNOWN_ERRORS = (decision.RowLimitError, decision.WorkLimitError,
                 kripke.ClosureImpossibleError, kripke.OracleBudgetError, ValueError)


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    if getattr(ns, "row_cap", 1) < 1:
        print(f"error: --row-cap must be at least 1, got {ns.row_cap}", file=err)
        return 2
    try:
        return ns.handler(ns, out)
    except _KNOWN_ERRORS as e:
        print(f"error: {e}", file=err)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
