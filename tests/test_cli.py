import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import modalcube
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


@pytest.mark.parametrize("atoms", ["0", "12", "-1"])
def test_xcheck_atom_count_out_of_range_exit_two(atoms):
    code, out, err = run(["xcheck", "--logic", "K", "--count", "5", "--atoms", atoms])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--atoms" in err


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


@pytest.mark.parametrize("goal,error", [
    # past the recursion limit in parse: a ParseError with its position
    ("(" * 300 + "p" + ")" * 300, r"error: formula nested too deeply \(at position \d+\)\n"),
    # parses, then past it in closure: a FormulaError
    ("!" * 500 + "p", r"error: formula nested too deeply\n"),
    ("(" * 240 + "p" + ")" * 240, None),   # within it
], ids=["parentheses-300", "negations-500", "parentheses-240"])
def test_deeply_nested_formula(goal, error):
    # a fresh interpreter, so the recursion budget is the command line's
    env = {**os.environ, "PYTHONPATH": str(Path(modalcube.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "modalcube.cli", "decide", goal],
                          capture_output=True, text=True, env=env)
    if error:
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert re.fullmatch(error, proc.stderr)
    else:
        assert proc.returncode == 1
        assert proc.stdout.startswith("INVALID\n")
