"""Outside-in per-layer tracing of linkquery executions.

``installed(tracer)`` swaps timing stand-ins into the engine's module
namespace for the duration of a traced run and restores the originals
afterwards; an untraced run installs nothing.  The stand-ins are subclasses
of ``DereferenceManager``, ``ReasoningStore`` and ``IncrementalEvaluator``
and wrappers around ``fetch.parse_ntriples`` and the engine's ``wait``; the
resolver is wrapped by ``TimedResolver``.  Each records a span (name, start,
end, parent, run id, thread) around the call into the layer, plus counts at
the same boundary, in memory; ``write_jsonl`` writes them out with each
span's self time once the run has ended.

A span's parent is the enclosing span on its own thread; spans on fetch
worker threads have the run's ``engine.execute`` span as parent.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from linkquery import engine, fetch
from linkquery.fetch import DerefStatus, RawResponse, TransportError

RULES = (
    "subclass-transitivity",
    "subproperty-transitivity",
    "type-propagation",
    "subproperty-rewrite",
    "domain",
    "range",
)


# Per-layer metric -> unit, in report order.
LAYER_UNITS = {
    "fetch.resolve.calls": "count",
    "fetch.resolve.busy_s": "s",
    "fetch.resolve.errors": "count",
    "fetch.deref.calls": "count",
    "fetch.deref.busy_s": "s",
    "fetch.deref.ok_ratio": "ratio",
    "fetch.wait_s": "s",
    "rdf.parse.calls": "count",
    "rdf.parse.busy_s": "s",
    "rdf.parse.bytes": "B",
    "rdf.parse.triples": "count",
    "rdf.parse.errors": "count",
    "reasoner.ingest.calls": "count",
    "reasoner.ingest.busy_s": "s",
    "reasoner.ingest.triples_in": "count",
    "reasoner.ingest.view_out": "count",
    "reasoner.merges": "count",
    "reasoner.finalize.busy_s": "s",
    "reasoner.inferred": "count",
    **{f"reasoner.rule.{r}": "count" for r in RULES},
    "engine.execute.busy_s": "s",
    "engine.eval.calls": "count",
    "engine.eval.busy_s": "s",
    "engine.eval.triples_in": "count",
    "engine.eval.solutions": "count",
    "engine.eval.replay_ratio": "ratio",
    "engine.rebuilds": "count",
    "engine.closing.busy_s": "s",
    "engine.useful_doc_ratio": "ratio",
    "engine.self_s": "s",
    "setup.fixturegen_s": "s",
    "setup.resolver_s": "s",
    "setup.suite_s": "s",
    "trace.overhead_frac": "ratio",
}


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int | None
    thread: int


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.run_id: int | None = None
        self.run_span: int | None = None
        self.finalized = False

    def count(self, **amounts: int) -> None:
        with self._lock:
            self.counts.update(amounts)

    def call(self, name: str, fn, *args, **kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else self.run_span
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.run_id, threading.get_ident()))

    def run(self, run_id: int, execute, *args, **kwargs):
        """One traced run: ``execute(*args, **kwargs)`` as its ``engine.execute`` span."""
        self.run_id, self.finalized = run_id, False
        sid = next(self._ids)
        self.run_span = sid
        start = perf_counter()
        try:
            return execute(*args, **kwargs)
        finally:
            end = perf_counter()
            self.spans.append(Span(sid, "engine.execute", start, end, None, run_id, threading.get_ident()))
            self.run_span = None

    def busy(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.end - s.start
        return out

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the direct children on its own thread."""
        own = {s.id: s for s in self.spans}
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            p = own.get(s.parent) if s.parent is not None else None
            if p is not None and p.thread == s.thread:
                covered[p.id] += s.end - s.start
        return {s.id: (s.end - s.start) - covered[s.id] for s in self.spans}

    def write_jsonl(self, path: Path) -> None:
        selfs = self.self_times()
        t0 = min((s.start for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start - t0, "end": s.end - t0,
                    "self": selfs[s.id], "parent": s.parent, "run": s.run, "thread": s.thread,
                }) + "\n")


class TimedResolver:
    """Resolver wrapper: one ``fetch.resolve`` span per hop."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self.is_local = inner.is_local

    def resolve(self, iri: str, timeout_s: float) -> RawResponse:
        try:
            resp = self._tracer.call("fetch.resolve", self._inner.resolve, iri, timeout_s)
        except TransportError:
            self._tracer.count(**{"fetch.resolve.calls": 1, "fetch.resolve.errors": 1})
            raise
        self._tracer.count(**{"fetch.resolve.calls": 1, "fetch.resolve.errors": int(resp.status >= 400)})
        return resp


@contextmanager
def installed(tracer: Tracer):
    """Swap the timing stand-ins into the engine for the enclosed block."""
    call, count = tracer.call, tracer.count
    orig_parse, orig_wait = fetch.parse_ntriples, engine.wait
    orig_manager, orig_store, orig_eval = (
        engine.DereferenceManager, engine.ReasoningStore, engine.IncrementalEvaluator)

    class TimedManager(orig_manager):
        def dereference(self, root):
            res = call("fetch.deref", super().dereference, root)
            count(**{"fetch.deref.calls": 1, "fetch.deref.ok": int(res.status == DerefStatus.OK)})
            return res

    class TimedStore(orig_store):
        def ingest(self, triples):
            triples = list(triples)
            delta = call("reasoner.ingest", super().ingest, triples)
            count(**{"reasoner.ingest.calls": 1, "reasoner.ingest.triples_in": len(triples),
                     "reasoner.ingest.view_out": len(delta)})
            return delta

        def finalize(self):
            final = call("reasoner.finalize", super().finalize)
            tracer.finalized = True
            rules = {f"reasoner.rule.{r}": n for r, n in self.rule_counts().items()}
            count(**{"reasoner.merges": self.equiv.version, "reasoner.inferred": final.inferred_count},
                  **rules)
            return final

    class TimedEvaluator(orig_eval):
        def __init__(self, patterns) -> None:
            super().__init__(patterns)
            self._closing = tracer.finalized
            if not self._closing:
                count(**{"engine.evaluators": 1})

        def add(self, triples):
            triples = list(triples)
            if self._closing:
                return call("engine.closing", super().add, triples)
            delta = call("engine.eval", super().add, triples)
            count(**{"engine.eval.calls": 1, "engine.eval.triples_in": len(triples),
                     "engine.eval.solutions": len(delta.solutions),
                     "engine.eval.useful": int(bool(delta.matched))})
            return delta

    def timed_parse(data, doc_scope):
        triples, errors = call("rdf.parse", orig_parse, data, doc_scope)
        count(**{"rdf.parse.calls": 1, "rdf.parse.bytes": len(data),
                 "rdf.parse.triples": len(triples), "rdf.parse.errors": len(errors)})
        return triples, errors

    def timed_wait(*args, **kwargs):
        return call("fetch.wait", orig_wait, *args, **kwargs)

    fetch.parse_ntriples, engine.wait = timed_parse, timed_wait
    engine.DereferenceManager, engine.ReasoningStore, engine.IncrementalEvaluator = (
        TimedManager, TimedStore, TimedEvaluator)
    try:
        yield tracer
    finally:
        fetch.parse_ntriples, engine.wait = orig_parse, orig_wait
        engine.DereferenceManager, engine.ReasoningStore, engine.IncrementalEvaluator = (
            orig_manager, orig_store, orig_eval)


def layer_metrics(tracer: Tracer, passes: int, executions: int) -> dict[str, float]:
    """Per-layer metrics per pass (one execution of every job of the workload).

    ``executions`` is the number of traced executions across all passes.  The
    ``setup.*`` and ``trace.*`` metrics are not the tracer's and are left out.
    """
    c, busy = tracer.counts, tracer.busy()
    selfs = tracer.self_times()
    exec_self = sum(selfs[s.id] for s in tracer.spans if s.name == "engine.execute")

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    # Counters are keyed by metric name and spans are named after their metric.
    out: dict[str, float] = {}
    for name, unit in LAYER_UNITS.items():
        if name.endswith(".busy_s"):
            out[name] = busy[name.removesuffix(".busy_s")] / passes
        elif unit in ("count", "B"):
            out[name] = c[name] / passes
    out["fetch.wait_s"] = busy["fetch.wait"] / passes
    out["engine.self_s"] = exec_self / passes
    out["engine.rebuilds"] = (c["engine.evaluators"] - executions) / passes
    out["fetch.deref.ok_ratio"] = ratio(c["fetch.deref.ok"], c["fetch.deref.calls"])
    out["engine.eval.replay_ratio"] = ratio(c["engine.eval.triples_in"], c["reasoner.ingest.view_out"])
    out["engine.useful_doc_ratio"] = ratio(c["engine.eval.useful"], c["engine.eval.calls"])
    return out
