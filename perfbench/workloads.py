"""The three workloads: which queries each pass runs, and in what order.

Every query is an entry of `expected.json`, which holds both the input and
its expected answer.  The cube-queries pool there was drawn once by
`make_expected.py`; a run's `--seed` only chooses and orders entries, so the
load never depends on the library's own random-formula generator.
"""

from __future__ import annotations

import bisect
import json
import math
import random
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

WORKLOADS = ("cube-queries", "large-closures", "relational")

# Per-query time budget.  A query still running after it is killed and
# counted as failed; the next query starts in a fresh worker.
BUDGET_S = {"cube-queries": 10.0, "large-closures": 120.0, "relational": 60.0}

# cube-queries runs the whole pool in an order the seed chooses: a subset
# per seed would let the seed pick which of the few heaviest calls run, and
# those set the tail.  The bands of estimated filter work [edge, next edge)
# describe the pool (make_expected.py records each band's share); the CLI
# commands are drawn from the calls below CUBE_CLI_MAX_WORK.
CUBE_BAND_EDGES = (1e4, 1e5, 1e6, 1e7, 3e7, 1e8)
CUBE_CLI_COMMANDS = 8
CUBE_CLI_MAX_WORK = 1e5


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    return json.loads(path.read_text())


def work(expect: dict) -> int:
    """Filter work estimate: rows^2 * closure size * (deleting rounds + 1)."""
    return expect["rows_enumerated"] ** 2 * expect["closure_size"] * (expect["rounds"] + 1)


def band_of(w: float) -> int:
    return bisect.bisect_right(CUBE_BAND_EDGES, w)


def band_label(band: int) -> str:
    edges = (0, *CUBE_BAND_EDGES, math.inf)
    return f"[{edges[band]:g}, {edges[band + 1]:g})"


def _by_prefix(queries: dict, prefix: str) -> list[str]:
    return sorted(q for q in queries if q.startswith(prefix))


def wraps_uint8(query: dict) -> bool:
    """A witness count of this input wraps to zero in a uint8 accumulator.

    At the commit that added the benchmark the numpy kernel counts in uint8
    (ROADMAP item 1) and fails these inputs' survivor checks on every run.
    Such library queries run in large-closures, which carries the defect;
    cube-queries and relational leave them out, so that no operation of
    theirs fails.  A CLI command checks only the verdict, which stays right.
    """
    return query["expect"].get("uint8_wraps", False)


def plan(workload: str, seed: int, expected: dict) -> tuple[list[str], list[str]]:
    """(library query ids of one pass, CLI commands) for a workload and seed.

    The runner repeats the CLI commands in each of its three rounds.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    queries = expected["queries"]
    rng = random.Random(f"{workload}/{seed}")
    if workload == "cube-queries":
        pool = [q for q in _by_prefix(queries, "cube/pool/") if not wraps_uint8(queries[q])]
        ids = _by_prefix(queries, "cube/axiom/") + pool
        light = [q for q in pool if work(queries[q]["expect"]) < CUBE_CLI_MAX_WORK]
        cli = rng.sample(light, CUBE_CLI_COMMANDS)
    elif workload == "large-closures":
        ids = _by_prefix(queries, "large/") + [
            q for q in _by_prefix(queries, "cube/pool/") + _by_prefix(queries, "rel/model/")
            if wraps_uint8(queries[q])]
        cli = ["large/K/k-inst", "large/KD/k-inst", "large/KT/deep", "large/KB5/and-or"]
    else:
        ids = [q for q in _by_prefix(queries, "rel/") if not wraps_uint8(queries[q])]
        cli = ["relcli/KD4/and-or", "relcli/KT/deep", "relcli/K/k-inst", "relcli/K5/deep",
               "relcli/KB5/and-or"]
        rng.shuffle(ids)
        return _oracle_k_first(ids), cli
    rng.shuffle(ids)
    return ids, cli


def _oracle_k_first(ids: list[str]) -> list[str]:
    """Move each logic's k-instance oracle query before its other oracle queries.

    A worker's first 4-world oracle search of a logic fills
    `kripke._frame_relations`' cache of that logic's frames (10-40 ms).
    Putting the k instance first makes the same fifteen queries pay for the
    fill whatever the seed, instead of the seed picking which queries near
    the median do.
    """
    out, seen = [], set()
    for q in ids:
        if q.startswith("rel/oracle-"):
            logic = q.split("/")[2]
            first = f"rel/oracle-valid/{logic}/k"
            if logic not in seen:
                seen.add(logic)
                out.append(first)
            if q == first:
                continue
        out.append(q)
    return out
