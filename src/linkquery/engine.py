"""Link-traversal execution of basic graph patterns.

A run starts from the query's constant IRIs, dereferences them, evaluates
the patterns incrementally over everything retrieved so far, and keeps
dereferencing whatever the active setup's policy designates until nothing
new is reachable.  Six setups:

* ``base``      — speculative frontier: subject/object IRIs of any retrieved
                  triple that unifies with at least one pattern.
* ``select``    — lean frontier: only IRIs the evaluator actually binds to a
                  query variable in a join-consistent partial solution.
* ``seealso``   — base plus rdfs:seeAlso targets of query-relevant subjects.
* ``sameas``    — base plus owl:sameAs endpoints touching anything
                  query-relevant, with answers canonicalized over the merged
                  equivalence classes.
* ``rhodf``     — select plus vocabulary lookups (query predicates, classes
                  of rdf:type patterns, and the same positions of matched
                  triples) with the RDFS-fragment closure applied.
* ``combined``  — the lean frontier carrying every extension at once.

Query relevance means: a seed constant, a value bound by the evaluator, or
anything owl:sameAs-equivalent to one of those.

The join state is exact at every step.  When an owl:sameAs merge retires a
representative, the store takes the view forms that mention it out and
re-canonicalizes only the raw triples that touch a moved IRI; the evaluator
drops the matches and partials that bind the retired IRI.  When a query
constant itself moved, or the merge moved rule vocabulary so that the store
chained again, the evaluator starts over from the triples it holds.  The
running evaluator's solutions are therefore the answers, and the store's
live view gives Inferred.  For a fixed fixture web and an untruncated run,
the reachable-document closure is order-independent, which makes Results,
HTTP, Retrieved, and Inferred deterministic even though fetches run in
parallel.
"""

from __future__ import annotations

import logging
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from enum import Enum
from typing import Collection, Iterable, Mapping, Sequence

from .fetch import (
    DerefResult,
    DerefStatus,
    DereferenceManager,
    FetchConfig,
    RealClock,
    Resolver,
)
from .query import (
    BgpQuery,
    TriplePattern,
    Variable,
    binding_text,
    pattern_to_text,
    seed_iris,
    type_class_constants,
)
from .rdf import RDF_TYPE, RDFS_SEEALSO, Iri, Term, Triple, term_to_text
from .reasoner import EquivalenceClasses, FinalState, ReasoningStore, canonical_triple

log = logging.getLogger(__name__)


class Setup(str, Enum):
    BASE = "base"
    SELECT = "select"
    SEEALSO = "seealso"
    SAMEAS = "sameas"
    RHODF = "rhodf"
    COMBINED = "combined"


ALL_SETUPS = tuple(Setup)


def uses_sameas(setup: Setup) -> bool:
    return setup in (Setup.SAMEAS, Setup.COMBINED)


def uses_rhodf(setup: Setup) -> bool:
    return setup in (Setup.RHODF, Setup.COMBINED)


def follows_seealso(setup: Setup) -> bool:
    return setup in (Setup.SEEALSO, Setup.COMBINED)


@dataclass(frozen=True, slots=True)
class EngineOptions:
    """Switches for deliberate deviations from the default policies."""

    deref_predicates: bool = False
    extensions_on_select: bool = False

    def carrier_is_speculative(self, setup: Setup) -> bool:
        if setup == Setup.BASE:
            return True
        if setup in (Setup.SEEALSO, Setup.SAMEAS):
            return not self.extensions_on_select
        return False


def unify_triple(pattern: TriplePattern, triple: Triple) -> dict[str, Term] | None:
    """Bindings making the pattern equal the triple, or None."""
    out: dict[str, Term] = {}
    for pt, tt in zip(pattern.terms(), triple.terms()):
        if isinstance(pt, Variable):
            seen = out.get(pt.name)
            if seen is not None and seen != tt:
                return None
            out[pt.name] = tt
        elif pt != tt:
            return None
    return out


def canonical_pattern(pattern: TriplePattern, eq: EquivalenceClasses) -> TriplePattern:
    def canon(t):
        return eq.rep(t) if isinstance(t, Iri) else t

    s, p, o = canon(pattern.subject), canon(pattern.predicate), canon(pattern.object)
    if s is pattern.subject and p is pattern.predicate and o is pattern.object:
        return pattern
    return TriplePattern(s, p, o)


def plan_order(patterns: Sequence[TriplePattern]) -> tuple[TriplePattern, ...]:
    """Static join order: most constants first, stay connected, then text."""
    remaining = list(patterns)
    plan: list[TriplePattern] = []
    bound: set[str] = set()

    def consts(p: TriplePattern) -> int:
        return sum(1 for t in p.terms() if not isinstance(t, Variable))

    while remaining:
        def rank(p: TriplePattern):
            shared = len(p.variables() & bound) if plan else 0
            return (-shared, -consts(p), pattern_to_text(p))

        nxt = min(remaining, key=rank)
        plan.append(nxt)
        remaining.remove(nxt)
        bound |= nxt.variables()
    return tuple(plan)


def _bkey(b: Mapping[str, Term]) -> tuple:
    return tuple(sorted(b.items(), key=lambda kv: kv[0]))


def _join(parts: Iterable[dict], matches: Collection[dict]) -> list[dict]:
    out = []
    for a in parts:
        for m in matches:
            for var, val in m.items():
                got = a.get(var)
                if got is not None and got != val:
                    break
            else:
                merged = dict(a)
                merged.update(m)
                out.append(merged)
    return out


@dataclass(slots=True)
class EvalDelta:
    values: list[tuple[Term, str]]          # newly bound (value, position-kind)
    solutions: list[dict[str, Term]]        # newly completed full bindings
    matched: list[Triple]                   # new triples unifying >=1 pattern


class IncrementalEvaluator:
    """Semi-naive evaluation of a BGP over a changing triple set.

    Partial solutions are prefixes of a plan order.  ``add`` only ever adds
    matches, partials and solutions; ``retract`` and ``replan`` repair them
    when an owl:sameAs merge re-keys triples or the patterns themselves.
    """

    def __init__(self, patterns: Sequence[TriplePattern]) -> None:
        self._triples: dict[Triple, None] = {}
        self._seen_values: set[tuple[Term, str]] = set()
        # Each bound term -> the (matches or partials dict, key) entries binding
        # it.  ``retract`` pops only the retired term's list, so an entry stays
        # listed under the entry's other terms until ``replan`` clears them all.
        self._holders: dict[Term, list[tuple[dict, tuple]]] = {}
        self._plan(plan_order(patterns))

    def _plan(self, plan: tuple[TriplePattern, ...]) -> None:
        self.plan = plan
        k = len(plan)
        # Matches and partials per level, by binding key.
        self._matches: list[dict[tuple, dict]] = [{} for _ in range(k)]
        self._levels: list[dict[tuple, dict]] = [{} for _ in range(k)]
        # After matching plan[:L+1], each variable's position kinds so far.
        self._kinds: list[dict[str, frozenset[str]]] = []
        acc: dict[str, set[str]] = {}
        for p in plan:
            for term, kind in ((p.subject, "so"), (p.predicate, "pred"), (p.object, "so")):
                if isinstance(term, Variable):
                    acc.setdefault(term.name, set()).add(kind)
            self._kinds.append({v: frozenset(ks) for v, ks in acc.items()})

    def add(self, triples: Iterable[Triple]) -> EvalDelta:
        k = len(self.plan)
        new_matches: list[list[dict]] = [[] for _ in range(k)]
        matched: list[Triple] = []
        for t in triples:
            if t in self._triples:
                continue
            self._triples[t] = None
            hit = False
            for i, pat in enumerate(self.plan):
                b = unify_triple(pat, t)
                if b is None:
                    continue
                hit = True
                key = _bkey(b)
                if key not in self._matches[i]:
                    self._hold(self._matches[i], key, b)
                    new_matches[i].append(b)
            if hit:
                matched.append(t)
        deltas: list[dict[tuple, dict]] = []
        for level in range(k):
            prior = self._levels[level - 1].values() if level else ({},)
            candidates = _join(prior, new_matches[level])
            if level:
                candidates += _join(deltas[level - 1].values(), self._matches[level].values())
            known = self._levels[level]
            accepted: dict[tuple, dict] = {}
            for b in candidates:
                key = _bkey(b)
                if key not in known and key not in accepted:
                    accepted[key] = b
            deltas.append(accepted)
        values: list[tuple[Term, str]] = []
        for level, batch in enumerate(deltas):
            kinds = self._kinds[level]
            for key, b in batch.items():
                self._hold(self._levels[level], key, b)
                for var, val in b.items():
                    for kind in kinds.get(var, ()):
                        pair = (val, kind)
                        if pair not in self._seen_values:
                            self._seen_values.add(pair)
                            values.append(pair)
        return EvalDelta(
            values=values,
            solutions=list(deltas[-1].values()) if k else [],
            matched=matched,
        )

    def retract(self, triples: Iterable[Triple], retired: Iterable[Term]) -> None:
        """Forget ``triples`` and every match and partial binding a retired term.

        A match fixes its triple, so when the triples are the view forms that
        mention a retired term, the matches dropped are exactly those built
        from them, except at a plan level whose query constant moved.  That
        case, and chained facts dropped without a retired term, need
        ``replan``.
        """
        for t in triples:
            self._triples.pop(t, None)
        for term in retired:
            for keyed, key in self._holders.pop(term, ()):
                keyed.pop(key, None)

    def replan(self, patterns: Sequence[TriplePattern]) -> EvalDelta:
        """Start over on ``patterns`` from the triples held now."""
        held = list(self._triples)
        self._triples.clear()
        self._holders.clear()
        self._plan(plan_order(patterns))
        return self.add(held)

    def _hold(self, keyed: dict[tuple, dict], key: tuple, b: dict[str, Term]) -> None:
        keyed[key] = b
        for term in b.values():
            self._holders.setdefault(term, []).append((keyed, key))

    def solutions(self) -> list[dict[str, Term]]:
        """Every full binding over the triples held now."""
        return list(self._levels[-1].values()) if self.plan else []


@dataclass(frozen=True, slots=True)
class Binding:
    """An answer: variable/term pairs, ordered by variable name."""

    pairs: tuple[tuple[str, Term], ...]

    @classmethod
    def of(cls, mapping: Mapping[str, Term]) -> "Binding":
        return cls(tuple(sorted(mapping.items(), key=lambda kv: kv[0])))

    def get(self, name: str) -> Term | None:
        for var, term in self.pairs:
            if var == name:
                return term
        return None

    def as_dict_text(self) -> dict[str, str]:
        return {var: term_to_text(term) for var, term in self.pairs}

    def key(self) -> str:
        return binding_text(dict(self.pairs))


@dataclass(frozen=True, slots=True)
class QueryMetrics:
    results: int
    time_s: float
    first_s: float | None
    http_lookups: int
    retrieved_triples: int
    inferred_triples: int
    truncated: bool = False


@dataclass(frozen=True, slots=True)
class FetchEvent:
    iri: Iri
    reason: str
    status: DerefStatus
    http_status: int | None
    triples: int
    t_s: float
    elapsed_s: float


@dataclass(frozen=True, slots=True)
class QueryRun:
    query: BgpQuery
    setup: Setup
    options: EngineOptions
    answers: tuple[Binding, ...]
    metrics: QueryMetrics
    events: tuple[FetchEvent, ...]
    final: FinalState
    equiv: EquivalenceClasses

    def answer_keys(self) -> frozenset[str]:
        return frozenset(b.key() for b in self.answers)

    def retrieved_iris(self) -> tuple[Iri, ...]:
        return tuple(ev.iri for ev in self.events if ev.status == DerefStatus.OK)


def execute(
    query: BgpQuery,
    setup: Setup | str,
    resolver: Resolver,
    *,
    config: FetchConfig | None = None,
    options: EngineOptions | None = None,
) -> QueryRun:
    setup = Setup(setup)
    opts = options or EngineOptions()
    cfg = config or FetchConfig()
    clk = RealClock()
    store = ReasoningStore(use_sameas=uses_sameas(setup), use_rhodf=uses_rhodf(setup))
    manager = DereferenceManager(resolver, cfg, clk)
    speculative = opts.carrier_is_speculative(setup)
    t0 = clk.now()

    seeds = seed_iris(query)
    canon_pats: list[TriplePattern] = [canonical_pattern(p, store.equiv) for p in query.patterns]
    evaluator = IncrementalEvaluator(canon_pats)

    requested: set[str] = set()
    pending: deque[tuple[Iri, str]] = deque()
    events: list[FetchEvent] = []
    raw_order: list[Triple] = []
    relevant: set[Term] = set()                # canonical forms of query-relevant IRIs
    seealso_waiting: dict[Term, list[Iri]] = {}  # targets by canonical subject, until relevant
    emitted: set[tuple] = set()
    retrieved = 0
    truncated = False
    first_s: float | None = None
    proj_vars = tuple(sorted(set(query.projected)))

    def want(iri: Iri, reason: str) -> None:
        if iri.value not in requested:
            requested.add(iri.value)
            pending.append((iri, reason))

    def follow_links(canon: Term) -> None:
        """Request what hangs off a relevant canonical IRI."""
        for target in seealso_waiting.pop(canon, ()):
            want(target, "seealso")
        if uses_sameas(setup):
            for member in store.equiv.members(canon):
                want(member, "sameas")

    def mark_relevant(iri: Iri) -> None:
        canon = store.canonical(iri)
        if canon not in relevant:
            relevant.add(canon)
            follow_links(canon)

    for s in seeds.entities:
        want(s, "seed")
        mark_relevant(s)
    if opts.deref_predicates:
        for p in seeds.predicates:
            want(p, "seed")
    if uses_rhodf(setup):
        for p in seeds.predicates:
            want(p, "vocab")
        for c in type_class_constants(query):
            want(c, "vocab")

    def scan_speculative(triples: Iterable[Triple]) -> None:
        for t in triples:
            ct = canonical_triple(t, store.equiv)
            if any(unify_triple(p, ct) is not None for p in canon_pats):
                if isinstance(t.subject, Iri):
                    want(t.subject, "match")
                if isinstance(t.object, Iri):
                    want(t.object, "match")
                if opts.deref_predicates:
                    want(t.predicate, "match")

    def consume_eval(delta: EvalDelta) -> None:
        nonlocal first_s
        for val, kind in delta.values:
            if not isinstance(val, Iri):
                continue
            if not speculative and (kind == "so" or (kind == "pred" and opts.deref_predicates)):
                want(val, "binding")
            mark_relevant(val)
        if uses_rhodf(setup):
            for mt in delta.matched:
                want(mt.predicate, "vocab")
                if mt.predicate == RDF_TYPE and isinstance(mt.object, Iri):
                    want(mt.object, "vocab")
        for sol in delta.solutions:
            key = tuple((v, sol[v]) for v in proj_vars)
            if key not in emitted:
                emitted.add(key)
                if first_s is None:
                    first_s = clk.now() - t0

    def process_doc(doc) -> None:
        nonlocal retrieved
        retrieved += len(doc.triples)
        delta = store.ingest(doc.triples)
        raw_order.extend(delta.fresh)
        rescan = delta.fresh
        if delta.retired:
            # A merge re-keyed earlier triples: repair the join state in place.
            evaluator.retract(delta.retracted, delta.retired)
            rescan = delta.rekeyed + delta.fresh
            pats = [canonical_pattern(p, store.equiv) for p in query.patterns]
            if pats != canon_pats or delta.rechained:
                # A query constant moved, or the store dropped chained facts
                # that mention no retired term: rebuild from the held triples.
                canon_pats[:] = pats
                rescan = raw_order
                consume_eval(evaluator.replan(canon_pats))
        if speculative:
            scan_speculative(rescan)
        consume_eval(evaluator.add(delta))
        if follows_seealso(setup):
            for t in delta.fresh:
                if t.predicate == RDFS_SEEALSO and isinstance(t.subject, Iri) and isinstance(t.object, Iri):
                    canon = store.canonical(t.subject)
                    if canon in relevant:
                        want(t.object, "seealso")
                    else:
                        seealso_waiting.setdefault(canon, []).append(t.object)
        for old in delta.retired:
            # The retired IRI's links and relevance pass to its representative.
            canon = store.canonical(old)
            if old in seealso_waiting:
                seealso_waiting.setdefault(canon, []).extend(seealso_waiting.pop(old))
            if old in relevant or canon in relevant:
                relevant.discard(old)
                relevant.add(canon)
                follow_links(canon)

    with ThreadPoolExecutor(max_workers=cfg.max_parallel) as pool:
        in_flight: dict[Future, tuple[Iri, str]] = {}

        def launch() -> None:
            while pending:
                iri, reason = pending.popleft()
                in_flight[pool.submit(manager.dereference, iri)] = (iri, reason)

        launch()
        while in_flight:
            done, _ = wait(list(in_flight), return_when=FIRST_COMPLETED)
            for fut in done:
                iri, reason = in_flight.pop(fut)
                res: DerefResult = fut.result()
                if res.status == DerefStatus.SKIPPED:
                    truncated = True
                n = len(res.document.triples) if res.document else 0
                events.append(
                    FetchEvent(
                        iri=iri,
                        reason=reason,
                        status=res.status,
                        http_status=res.http_status,
                        triples=n,
                        t_s=clk.now() - t0,
                        elapsed_s=res.elapsed_s,
                    )
                )
                if res.status == DerefStatus.OK and res.document is not None:
                    process_doc(res.document)
            launch()

    final = store.finalize()
    by_key: dict[str, Binding] = {}
    for sol in evaluator.solutions():
        b = Binding.of({v: sol[v] for v in proj_vars})
        by_key.setdefault(b.key(), b)
    answers = tuple(b for _, b in sorted(by_key.items()))
    metrics = QueryMetrics(
        results=len(answers),
        time_s=clk.now() - t0,
        first_s=first_s,
        http_lookups=manager.lookups_used,
        retrieved_triples=retrieved,
        inferred_triples=final.inferred_count,
        truncated=truncated,
    )
    return QueryRun(
        query=query,
        setup=setup,
        options=opts,
        answers=answers,
        metrics=metrics,
        events=tuple(events),
        final=final,
        equiv=store.equiv,
    )
