import collections
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import modalcube
import reference as ref
from modalcube import cli, decision, formula
from modalcube.cli import main


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_decide_valid_exit_zero():
    code, out, _ = run(["decide", "--logic", "S4", "[]p -> [][]p"])
    assert code == 0
    assert out.strip() == "VALID"


def test_decide_invalid_exit_one_with_witness():
    code, out, _ = run(["decide", "--logic", "KT", "[]p -> [][]p"])
    assert code == 1
    lines = out.strip().split("\n")
    assert lines[0] == "INVALID"
    assert lines[1].startswith("witness:")


def test_decide_json_payload():
    code, out, _ = run(["decide", "--logic", "KT", "--format", "json", "[]p -> p"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "VALID"
    assert payload["witness"] is None
    assert payload["logic"] == "KT"


def test_decide_with_assumptions():
    code, out, _ = run(["decide", "--logic", "K",
                        "--assume", "[]p", "--assume", "[](p -> q)", "[]q"])
    assert code == 0


def test_unknown_logic_exit_two():
    code, _, err = run(["decide", "--logic", "S6", "p"])
    assert code == 2
    assert "unknown logic" in err


def test_parse_error_exit_two():
    code, _, err = run(["decide", "--logic", "K", "p ->"])
    assert code == 2
    assert "error:" in err


def test_row_cap_exit_two():
    code, _, err = run(["decide", "--logic", "K", "--row-cap", "10",
                        "[]p -> ([]q -> p)"])
    assert code == 2
    assert "cap" in err


def test_work_limit_exit_two(monkeypatch):
    from modalcube import _accel
    monkeypatch.setattr(_accel, "WORK_LIMIT_BYTES", 100)
    # a dead end refutes it, so the verdict needs no filter, but the witness does
    code, out, err = run(["decide", "--logic", "KB", "[]p -> p"])
    assert code == 2 and out == ""
    assert re.fullmatch(r"error: compatibility of 15 signatures and 15 classes needs 120 "
                        r"bytes, over the work limit of 100 bytes\n", err)
    # a theorem is VALID unfiltered, but its json prints the filtered model
    code, out, err = run(["decide", "--logic", "KB", "--format", "json",
                          "[](p -> q) -> ([]p -> []q)"])
    assert code == 2 and out == ""
    assert re.fullmatch(r"error: compatibility of 481 signatures and 481 classes needs 30784 "
                        r"bytes, over the work limit of 100 bytes\n", err)


@pytest.mark.parametrize("command", ["decide", "table", "model", "xcheck"])
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_row_cap_below_one_exit_two(command, cap):
    code, out, err = run([command, "--row-cap", cap, *_OPERANDS[command]])
    assert code == 2
    assert out == ""
    assert err == f"error: --row-cap must be at least 1, got {cap}\n"


def test_row_cap_of_one_is_accepted():
    # in KT falsum takes only F, and bot -> bot only T: one row
    code, out, _ = run(["decide", "--logic", "KT", "--row-cap", "1", "bot -> bot"])
    assert code == 0 and out.strip() == "VALID"


def test_table_csv():
    code, out, _ = run(["table", "--logic", "KT", "p -> p"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,p -> p"
    assert set(lines[1:]) == {"F,T", "f,T", "t,T", "T,T"}


def test_table_json_with_relation():
    code, out, _ = run(["table", "--logic", "KT", "--format", "json", "p"])
    payload = json.loads(out)
    assert code == 0
    assert payload["closure"] == ["p"]
    assert len(payload["rows"]) == 4
    assert all(isinstance(e, list) and len(e) == 2 for e in payload["relation"])


def test_table_connective_dump():
    code, out, _ = run(["table", "--logic", "K"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "table,arg1,arg2,result"
    assert "bot,,,F ff" in lines
    assert "imp,t,f,f fff" in lines
    assert "box,ff,,tt" in lines
    code, out, _ = run(["table", "--logic", "KT", "--format", "json"])
    payload = json.loads(out)
    assert payload["bot"] == ["F"]
    assert payload["imp"]["t"]["f"] == ["f"]
    assert payload["box"]["T"] == ["t", "T"]


def test_table_levels():
    code, out, _ = run(["table", "--logic", "KT", "--level", "2", "[][](p -> p)"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("level,")
    counts = {}
    for line in lines[1:]:
        level = line.split(",")[0]
        counts[level] = counts.get(level, 0) + 1
    assert counts == {"0": 22, "1": 16, "2": 8}


def test_model_dot_and_json():
    code, out, _ = run(["model", "--logic", "KT", "--format", "dot", "[]p -> p"])
    assert code == 0
    assert out.startswith("digraph")
    code, out, _ = run(["model", "--logic", "KT", "[]p -> p"])
    payload = json.loads(out)
    assert payload["worlds"] > 0


def test_dot_rejected_for_decide():
    code, _, err = run(["decide", "--logic", "K", "--format", "dot", "p"])
    assert code == 2


_FORMATS = {"decide": ("text", "json"), "table": ("csv", "json"),
            "model": ("json", "dot"), "oracle": ("text", "json", "dot"),
            "xcheck": (), "axioms": ("text", "json")}
_OPERANDS = {"decide": ["p"], "table": ["p"], "model": ["p"], "oracle": ["p"],
             "xcheck": ["--count", "1"], "axioms": []}


@pytest.mark.parametrize("command, fmt", [
    (command, fmt) for command, accepted in _FORMATS.items()
    for fmt in ("text", "json", "csv", "dot") if fmt not in accepted])
def test_refused_format_exits_two_with_empty_stdout(command, fmt, capsys):
    code, out, _ = run([command, "--format", fmt, *_OPERANDS[command]])
    assert code == 2
    assert out == "" and capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["oracle", "axioms"])
def test_row_cap_refused_where_unread(command, capsys):
    code, out, _ = run([command, "--row-cap", "10", *_OPERANDS[command]])
    assert code == 2
    assert out == "" and capsys.readouterr().out == ""


def test_oracle_countermodel_exit_one():
    code, out, _ = run(["oracle", "--logic", "K", "--max-worlds", "2", "[]p -> p"])
    assert code == 1
    assert out.startswith("COUNTERMODEL")


def test_oracle_clean_exit_zero():
    code, out, _ = run(["oracle", "--logic", "KT", "--max-worlds", "3", "[]p -> p"])
    assert code == 0
    assert out.strip() == "NO_COUNTERMODEL_UPTO(3)"


def test_axioms_listing():
    code, out, _ = run(["axioms", "--logic", "KD45"])
    assert code == 0
    labels = [line.split(":")[0] for line in out.strip().split("\n")]
    assert labels == ["k", "d", "4", "5"]
    code, out, _ = run(["axioms", "--logic", "S5", "--format", "json"])
    payload = json.loads(out)
    assert [e["label"] for e in payload] == ["k", "t", "b", "4", "5"]
    assert payload[1]["schema"] == "[]a -> a"


def test_xcheck_small_run_and_determinism():
    argv = ["xcheck", "--logic", "KD", "--count", "25", "--max-depth", "2",
            "--atoms", "2", "--seed", "42"]
    code1, out1, _ = run(argv)
    code2, out2, _ = run(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.strip().split("\n")[-1].startswith("agree=")


def test_random_formula_draws_as_the_recursive_reference():
    """The explicit stack draws in the recursive generator's pre-order:
    equal formulas, and the generator left in the same state."""
    for seed in range(300):
        for depth in range(9):
            mine, theirs = random.Random(seed), random.Random(seed)
            f = cli.random_formula(mine, depth, ["p", "q", "r"])
            assert f == ref.random_formula(theirs, depth, ["p", "q", "r"]), (seed, depth)
            assert mine.getstate() == theirs.getstate(), (seed, depth)


def test_random_formula_draws_past_the_recursion_limit():
    """Seed 1164 at depth 5000 draws a formula nested deeper than the
    recursion limit, where the recursive reference raises."""
    f = cli.random_formula(random.Random(1164), 5000, ["p", "q"])
    height = {}
    for g in formula.subformulas([f]):
        height[g] = 1 + max((height[c] for c in formula.children(g)), default=0)
    assert height[f] > sys.getrecursionlimit()
    with pytest.raises(RecursionError):
        ref.random_formula(random.Random(1164), 5000, ["p", "q"])


def test_xcheck_counts_one_world_refutations_past_the_row_cap():
    """Three of these five formulas have more than 20 rows in K, and a
    one-world valuation refutes each.  xcheck reads only the verdict, which
    then needs no enumeration, so the cap leaves the counts unchanged."""
    argv = ["xcheck", "--logic", "K", "--count", "5", "--seed", "1"]
    assert run(argv + ["--row-cap", "20"]) == run(argv) == (0, "agree=0 refuted=5 unresolved=0\n", "")
    code, out, err = run(["decide", "--logic", "K", "--row-cap", "20", "p -> []q"])
    assert (code, out) == (2, "")
    assert err == "error: at least 40 rows (counted after column 2 of 4) exceed the cap of 20\n"


@pytest.mark.parametrize("atoms", ["0", "12", "-1"])
def test_xcheck_atom_count_out_of_range_exit_two(atoms):
    code, out, err = run(["xcheck", "--logic", "K", "--count", "5", "--atoms", atoms])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--atoms" in err


@pytest.mark.parametrize("flag", ["--count", "--max-depth"])
def test_xcheck_negative_count_or_depth_exit_two(flag):
    code, out, err = run(["xcheck", "--logic", "K", "--count", "5", flag, "-1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert flag in err


def test_xcheck_accepts_atoms_up_to_z():
    code, out, _ = run(["xcheck", "--logic", "K", "--count", "5", "--max-depth", "1",
                        "--atoms", "11", "--max-worlds", "2"])
    assert code == 0
    assert out.strip().split("\n")[-1].startswith("agree=")


def test_decide_output_is_deterministic():
    argv = ["decide", "--logic", "K", "--format", "json", "[]p -> p"]
    _, out1, _ = run(argv)
    _, out2, _ = run(argv)
    assert out1 == out2


@pytest.mark.parametrize("argv,code", [
    (["decide", "--logic", "KD4", "[]([][]p -> []p)"], 1),
    (["decide", "--logic", "KD", "--format", "json", "[]((p -> q) | !q)"], 0),
])
def test_filter_stage_decide_enumerates_and_filters_once(monkeypatch, argv, code):
    """A verdict of stage "filter" prints its witness, or its model, from
    the survivors `decide` filtered, not from a second table."""
    calls = collections.Counter()
    for name in ("enumerate_rows", "filter_rows"):
        def counted(*args, _real=getattr(decision, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(decision, name, counted)
    assert run(argv)[0] == code
    assert calls == {"enumerate_rows": 1, "filter_rows": 1}


@pytest.mark.parametrize("goal,code,first", [
    # parse, the closure, its keys and equality never recurse, so any depth decides
    ("(" * 300 + "p" + ")" * 300, 1, "INVALID"),
    ("!" * 1000 + "p", 1, "INVALID"),
    ("(" * 240 + "p" + ")" * 240, 1, "INVALID"),
    ("!" * 500 + "p", 1, "INVALID"),
    # two equal subtrees built apart compare over an explicit stack; no row
    # refutes f -> f, so it is valid before the frames of two worlds
    ("(" + "!" * 1000 + "p) -> (" + "!" * 1000 + "p)", 0, "VALID"),
], ids=["parentheses-300", "negations-1000", "parentheses-240", "negations-500",
        "equal-subtrees-1000"])
def test_deeply_nested_formula(goal, code, first):
    # a fresh interpreter, so the recursion budget is the command line's
    env = {**os.environ, "PYTHONPATH": str(Path(modalcube.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "modalcube.cli", "decide", goal],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (code, "")
    assert proc.stdout.startswith(first + "\n")


def test_oracle_answers_a_deeply_nested_formula():
    # 400 diamonds are 1601 core nodes deep; the oracle's forcing walks them
    # bottom-up.  A fresh interpreter, as above.
    env = {**os.environ, "PYTHONPATH": str(Path(modalcube.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "modalcube.cli", "oracle", "--logic", "KT",
                           "--max-worlds", "1", "<>" * 400 + "p"],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (1, "COUNTERMODEL(1 worlds, world 0)\n", "")


def test_commands_refuse_a_shared_tree_past_the_closure_bound(monkeypatch):
    """60 nested `f = []f & f`, too long to print as an argument, given as
    `f`: `table` and `decide` (which prints the witness) exit 2 on the
    closure bound at once, where they used to run out of memory."""
    f = formula.Atom("p")
    for _ in range(60):
        f = formula.land(formula.Box(f), f)
    monkeypatch.setattr(cli, "parse", lambda text: f if text == "f" else formula.parse(text))
    error = ("error: closure member of 1835000 nodes as a tree exceeds the bound of "
             f"{formula.CLOSURE_TREE_LIMIT}: the canonical order prints each member\n")
    for argv in (["table", "f"], ["decide", "f"]):
        start = time.perf_counter()
        assert run(argv) == (2, "", error)
        assert time.perf_counter() - start < 1


def test_commands_never_import_numpy_ma():
    """`np.unique` of a plain array, without `return_inverse`, imports
    numpy.ma, about 16 ms of a CLI call.  A fresh interpreter runs each
    command, so no other test has imported it yet.  numpy 1.x imports
    numpy.ma inside `import numpy`, where no command can avoid it, so the
    test is skipped there."""
    argvs = [
        ["decide", "[]p -> ([]q -> [](p & q))"],   # 1324 rows: `_groups` sorts
        ["table", "--format", "json", "[]p -> ([]q -> [](p & q))"],
        ["model", "--logic", "K5", "[][]p -> <>(q -> []r)"],
        ["oracle", "[]p -> p"],
        ["xcheck", "--count", "5"],
        ["table", "--level", "2", "[]p -> [][]p"],
    ]
    script = ("import io, sys\n"
              "import numpy\n"
              "print('numpy.ma' in sys.modules)\n"
              "from modalcube.cli import main\n"
              f"print([main(a, out=io.StringIO(), err=io.StringIO()) for a in {argvs!r}])\n"
              "print('numpy.ma' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(modalcube.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    if proc.stdout.startswith("True\n"):
        pytest.skip("numpy imports numpy.ma on `import numpy`")
    assert proc.stdout == "False\n[0, 0, 0, 1, 0, 0]\nFalse\n", proc.stderr
