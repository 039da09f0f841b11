"""One workload process: set up the library, then run a pass of queries.

Started by run.py, one process per pass, so every pass begins from the same
cold state.  Reads the query ids of its pass as one JSON list on stdin.
Prints one JSON line after set-up, one per query, and a last one with the
process's peak memory and, when traced, its spans:

    python3 perfbench/worker.py [--trace] < ids.json
    python3 perfbench/worker.py --setup-only

Each query is timed around the library calls alone; digests and independent
checks of its output are computed after the clock stops.  The host-speed
probe of `calibrate.py` runs between queries and around set-up, its ticker
during them, and each record carries the `scale` they give.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from collections import deque
from contextlib import nullcontext
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def setup(tracer, ticker) -> tuple[float, float]:
    """Import, build the tables of all fifteen logics, one warm-up decide.

    Returns the time it took and its scale to reference-host time.
    """
    sys.path.insert(0, str(SRC))
    before = calibrate.probe()
    start = time.perf_counter()
    with ticker:
        import modalcube
        from modalcube import logics
        from modalcube.nmatrix import nmatrix
        with tracer.span("nmatrix.build") if tracer else nullcontext():
            for name in logics.LOGIC_NAMES:
                nmatrix(logics.lookup(name))
        modalcube.decide(logics.lookup("K"), [], modalcube.parse("[]p -> p"))
    elapsed = time.perf_counter() - start - ticker.spent
    factor = calibrate.scale([before, calibrate.probe()], ticker.ticks)
    if not Path(modalcube.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported modalcube from {modalcube.__file__}, not from {SRC}")
    return elapsed, factor


def environment() -> dict:
    import numpy
    from modalcube import _accel
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "have_numba": bool(_accel.HAVE_NUMBA), "using_numba": bool(_accel.USING_NUMBA)}


def bind_modules() -> None:
    """Module globals for the query functions, bound once set-up has run."""
    global decision, formula, kripke, logics, ref
    from modalcube import decision, formula, kripke, logics
    import reference as ref


# ---------------------------------------------------------------------------
# Queries: `run_*` is the timed library work, `got_*` summarizes its output
# ---------------------------------------------------------------------------

def run_decide(q):
    logic = logics.lookup(q["logic"])
    assumptions = [formula.parse(a) for a in q["assumptions"]]
    return decision.decide(logic, assumptions, formula.parse(q["goal"]))


def got_decide(q, verdict) -> dict:
    return {"verdict": str(verdict), "survivors": verdict.model.row_count,
            "survivor_digest": ref.rows_digest(verdict.model.rows)}


def run_model(q):
    logic = logics.lookup(q["logic"])
    clo = formula.closure([formula.parse(q["formula"])])
    model = decision.filter_model(logic, clo)
    rel = model.relation_matrix()
    k = kripke.to_kripke(model)
    frame = kripke.check_frame(k.relation, kripke.frame_props(logic))
    text = decision.model_to_json(model)
    return logic, clo, model, rel, k, frame, text


def got_model(q, out) -> dict:
    logic, clo, model, rel, k, frame, text = out
    within = k.relation.shape == rel.shape and not (k.relation & ~rel).any()
    return {
        "survivors": model.row_count,
        "survivor_digest": ref.rows_digest(model.rows),
        "relation_edges": int(rel.sum()),
        "relation_digest": ref.relation_digest(rel),
        "json_digest": ref.text_digest(text),
        "check_frame": bool(frame),
        "frame_ok": ref.frame_ok(k.relation, kripke.frame_props(logic)),
        "truth_lemma": ref.truth_lemma_ok(logic, clo, model.rows, k.relation, k.valuation),
        "within_maximal": bool(within),
    }


def run_oracle(q):
    logic = logics.lookup(q["logic"])
    assumptions = [formula.parse(a) for a in q["assumptions"]]
    goal = formula.parse(q["goal"])
    verdict = kripke.oracle_decide(logic, assumptions, goal, q["max_worlds"])
    if not verdict.found:
        return logic, verdict, None
    cm, w = verdict.countermodel, verdict.world
    recheck = (all(kripke.forces(cm, w, a) for a in assumptions)
               and not kripke.forces(cm, w, goal)
               and kripke.check_frame(cm.relation, kripke.frame_props(logic)))
    return logic, verdict, recheck


def got_oracle(q, out) -> dict:
    logic, verdict, recheck = out
    got = {"found": verdict.found}
    if verdict.found:
        props = kripke.frame_props(logic)
        got["recheck_ok"] = bool(recheck) and ref.frame_ok(verdict.countermodel.relation, props)
        got["worlds"] = verdict.countermodel.world_count
    return got


RUN = {"decide": run_decide, "model": run_model, "oracle": run_oracle}
GOT = {"decide": got_decide, "model": got_model, "oracle": got_oracle}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    ticker = calibrate.Ticker()
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(clock=ticker.clock)   # spans leave the ticks out
        tracer.query = "setup"
    setup_s, factor = setup(tracer, ticker)
    emit({"setup_s": setup_s, "scale": factor, "env": environment()})
    if args.setup_only:
        return 0

    import workloads
    bind_modules()
    queries = workloads.load_expected()["queries"]
    ids = json.loads(sys.stdin.readline())
    if tracer is not None:
        tracing.install(tracer)

    probes = deque([calibrate.probe()], maxlen=calibrate.RECENT_PROBES)
    for qid in ids:
        q = queries[qid]
        if tracer is not None:
            tracer.query = qid
        error = None
        start = time.perf_counter()
        with ticker:
            try:
                with tracer.span("bench.query") if tracer else nullcontext():
                    out = RUN[q["kind"]](q)
            except Exception as e:  # a failing query is reported, the pass goes on
                error = e
        latency = time.perf_counter() - start - ticker.spent
        probes.append(calibrate.probe())
        record = {"id": qid, "latency_s": latency,
                  "scale": calibrate.scale(probes, ticker.ticks)}
        try:
            if error is None:
                record["got"] = GOT[q["kind"]](q, out)
        except Exception as e:
            error = e
        if error is not None:
            record["error"] = f"{type(error).__name__}: {error}"
        emit(record)

    emit({"done": True, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
          "spans": tracer.spans if tracer is not None else None})
    return 0


if __name__ == "__main__":
    sys.exit(main())
