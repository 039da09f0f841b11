"""Spans and counts around the library's layer calls, recorded from outside.

`install` replaces module attributes of `modalcube.formula`, `.decision` and
`.kripke` with timing wrappers.  The library resolves these names at call
time, so calls made inside the library (for example `decide` calling
`enumerate_rows`) are recorded too, and nothing under `src/` changes.  Spans
stay in memory; the worker hands them to the runner when its pass ends.

A span is `[name, start_s, end_s, parent_index, query_id, counts]`.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.query: str | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, self.clock(), None, parent, self.query, {}]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record[5]
        finally:
            record[2] = self.clock()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, counts=None) -> None:
        inner = getattr(module, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            with self.span(name) as c:
                result = inner(*args, **kwargs)
            if counts is not None:   # outside the span: counting is not the layer's work
                c.update(counts(result))
            return result

        setattr(module, attr, traced)


def install(tracer: Tracer) -> None:
    """Wrap every layer call the workloads reach."""
    from modalcube import decision, formula, kripke

    def closure_size(clo):
        return {"formula.closure_size": len(clo)}

    def filtered(result):
        rows, rounds = result
        return {"decision.filter_rounds": rounds, "decision.rows_survived": int(rows.shape[0])}

    tracer.wrap(formula, "parse", "formula.parse")
    tracer.wrap(formula, "closure", "formula.closure", closure_size)
    tracer.wrap(decision, "closure", "formula.closure", closure_size)
    tracer.wrap(decision, "decide", "decision.decide")
    tracer.wrap(decision, "enumerate_rows", "decision.enumerate",
                lambda rows: {"decision.rows_enumerated": int(rows.shape[0])})
    tracer.wrap(decision, "filter_rows", "decision.filter", filtered)
    tracer.wrap(decision, "support_filter_round", "accel.filter_round")
    tracer.wrap(decision, "build_relation", "decision.relation",
                lambda rel: {"decision.relation_edges": int(rel.sum())})
    tracer.wrap(decision, "compat_matrix", "accel.compat")
    tracer.wrap(decision, "model_to_json", "decision.serialize",
                lambda text: {"decision.serialize_bytes": len(text)})
    tracer.wrap(kripke, "to_kripke", "kripke.to_kripke")
    tracer.wrap(kripke, "frame_closure", "kripke.frame_closure")
    tracer.wrap(kripke, "check_frame", "kripke.check_frame")
    tracer.wrap(kripke, "forces", "kripke.forces")
    tracer.wrap(kripke, "oracle_decide", "kripke.oracle",
                lambda verdict: {"kripke.oracle_found": int(verdict.found)})
