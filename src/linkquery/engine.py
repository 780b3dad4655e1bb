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

The join state, a symmetric hash join over the plan's levels
(``IncrementalEvaluator``), is exact at every step and keys each match by the
view triple that made it; the speculative frontier reads those matches.  When
an owl:sameAs merge retires a representative, the store takes the view forms
that mention it out and re-canonicalizes only the raw triples that touch a
moved IRI; the evaluator drops those forms' matches and the partials that bind
the retired IRI, from its maps and from the join indexes.  When a query
constant itself moved, or the merge moved rule vocabulary so that the store
chained again, the evaluator starts over from the store's live view.  The
running evaluator's solutions are therefore the answers, and the live view
gives Inferred.  For a fixed fixture web and an untruncated run, the
reachable-document closure is order-independent, which makes Results, HTTP,
Retrieved, and Inferred deterministic whichever way the hops are served, since
no want is withdrawn and a merge never reorders the plan.

A ``Traversal`` holds a run's state and decisions; the driver loop of
``execute`` performs the hops it wants, one of two ways.  A resolver that
never blocks (``may_block`` false: a fixture web without ``DELAY``, a replay
archive) has its hops served on the calling thread, one at a time in request
order; a thread would only add interpreter-lock handoffs.  A resolver that can
wait (live HTTP, a fixture web with ``DELAY``, or one that does not say) has
its hops, and only them, performed on a pool of ``max_parallel`` workers so
that their waits overlap; the same loop takes them back, and hands their
documents to the ``Traversal``, in the order they complete.  Either way a run
lists one event per root, in the order the roots were taken from the frontier,
so one worker on a web without ``REDIRECT`` lists the events of the calling
thread, a root skipped under the lookup budget included.

The deadline bounds the run's wall time.  On the pool, once it passes, each
waiting root's own chase ends it as skipped, the run is flagged truncated,
and ``execute`` returns without waiting for the fetch workers.  On the
calling thread, every hop started after it is skipped, so the run ends at
most one hop and one document's processing past it.
"""

from __future__ import annotations

import logging
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from queue import Empty, SimpleQueue
from typing import Callable, Generator, Iterable, Iterator, Mapping, Sequence

from .fetch import (
    Clock,
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
wait = SimpleQueue.get  # where the driver blocks for the next hop the pool completed


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


@dataclass(frozen=True, slots=True)
class EngineOptions:
    """Switches for deliberate deviations from the default policies."""

    deref_predicates: bool = False
    extensions_on_select: bool = False


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


def _getter(names: Sequence[str]) -> Callable[[Mapping[str, Term]], object]:
    """The values of ``names`` in a binding, as one hashable key."""
    return itemgetter(*names) if names else lambda b: ()


@dataclass(slots=True)
class EvalDelta:
    values: list[tuple[Term, str]]          # newly bound (value, position-kind)
    solutions: list[dict[str, Term]]        # newly completed full bindings
    matched: list[Triple]                   # new triples unifying >=1 pattern


class IncrementalEvaluator:
    """Semi-naive evaluation of a BGP over a changing triple set.

    Partial solutions are prefixes of a plan order; level ``i`` holds the
    bindings of ``plan[:i+1]``.  Matches are keyed by the triple that made
    them (a pattern and a full binding fix it).  The join is a symmetric hash
    join: level ``i``'s matches, and the partials of level ``i-1``, are also
    indexed by the values of the variables ``plan[i]`` shares with
    ``plan[:i]`` (none for a disconnected pattern, which makes a cross
    product), so a new match or a new partial finds its join partners by one
    lookup.  A triple is unified only with the patterns whose predicate it
    carries, and with those whose predicate is a variable.  ``_holders``
    lists each partial under every term it binds.

    ``add`` only ever adds matches, partials and solutions.  ``retract``
    takes matches and partials out of both their maps and the indexes, and
    a dropped partial out of ``_holders`` under its other terms, so nothing
    stale is left behind; it and ``replan``, which rebuilds every index
    through ``_plan``, repair the state when an owl:sameAs merge re-keys
    triples or the patterns themselves.
    """

    def __init__(self, patterns: Sequence[TriplePattern]) -> None:
        self._seen_values: set[tuple[Term, str]] = set()
        self._plan(plan_order(patterns))
        self._order = [patterns.index(p) for p in self.plan]  # fixed: ``replan`` never reorders the plan

    def _plan(self, plan: tuple[TriplePattern, ...]) -> None:
        self.plan = plan
        k = len(plan)
        # Matches per level by the triple that made them; partials by the
        # values of every variable their level binds.
        self._matches: list[dict[Triple, dict]] = [{} for _ in range(k)]
        self._levels: list[dict[object, dict]] = [{} for _ in range(k)]
        # Join key -> level i's matches by triple, and the partials of
        # level i-1 by their key.
        self._match_index: list[dict[object, dict[Triple, dict]]] = [{} for _ in range(k)]
        self._partial_index: list[dict[object, dict[object, dict]]] = [{} for _ in range(k)]
        # Each bound term -> the (level, key) of every partial binding it.
        self._holders: dict[Term, set[tuple[int, object]]] = {}
        self._join_key: list[Callable] = []
        self._partial_key: list[Callable] = []
        # The (variable, position kind) pairs each level binds first, in the
        # order a partial lists its variables.
        self._new_kinds: list[tuple[tuple[str, str], ...]] = []
        bound: list[str] = []
        kinds: set[tuple[str, str]] = set()
        by_pred: dict[Term, list[int]] = {}
        wild: list[int] = []
        for i, p in enumerate(plan):
            names = [t.name for t in p.terms() if isinstance(t, Variable)]
            self._join_key.append(_getter(sorted(set(names) & set(bound))))
            bound += [v for v in dict.fromkeys(names) if v not in bound]
            self._partial_key.append(_getter(bound))
            new = []
            for term, kind in ((p.subject, "so"), (p.predicate, "pred"), (p.object, "so")):
                if isinstance(term, Variable) and (term.name, kind) not in kinds:
                    kinds.add((term.name, kind))
                    new.append((term.name, kind))
            self._new_kinds.append(tuple(sorted(new, key=lambda vk: bound.index(vk[0]))))
            if isinstance(p.predicate, Variable):
                wild.append(i)
            else:
                by_pred.setdefault(p.predicate, []).append(i)
        # Constant predicate -> the plan positions a triple carrying it may
        # match; a triple carrying any other predicate may match only those
        # whose predicate is a variable.
        self._dispatch = {pred: tuple(sorted(pos + wild)) for pred, pos in by_pred.items()}
        self._wild = tuple(wild)

    def add(self, triples: Iterable[Triple]) -> EvalDelta:
        plan, k = self.plan, len(self.plan)
        dispatch, wild = self._dispatch, self._wild
        new_matches: list[list[dict]] = [[] for _ in range(k)]
        matched: list[Triple] = []
        for t in triples:
            hit = False
            for i in dispatch.get(t[1], wild):
                if t in self._matches[i]:
                    continue
                b = unify_triple(plan[i], t)
                if b is not None:
                    hit = True
                    self._matches[i][t] = b
                    self._match_index[i].setdefault(self._join_key[i](b), {})[t] = b
                    new_matches[i].append(b)
            if hit:
                matched.append(t)
        if not matched:
            return EvalDelta(values=[], solutions=[], matched=[])
        # Each level's new partials: the prior partials (this batch's own
        # excluded: they are registered below) with the new matches, then
        # the previous level's new partials with every match.
        deltas: list[dict[object, dict]] = []
        for level in range(k):
            if level == 0:
                candidates = new_matches[0]
            else:
                join_key = self._join_key[level]
                prior, by_key = self._partial_index[level], self._match_index[level]
                candidates = [
                    {**a, **m} for m in new_matches[level] for a in prior.get(join_key(m), {}).values()
                ]
                candidates += [
                    {**d, **m} for d in deltas[level - 1].values() for m in by_key.get(join_key(d), {}).values()
                ]
            key_of, known = self._partial_key[level], self._levels[level]
            accepted: dict[object, dict] = {}
            for b in candidates:
                key = key_of(b)
                if key not in known and key not in accepted:
                    accepted[key] = b
            deltas.append(accepted)
        values: list[tuple[Term, str]] = []
        for level, batch in enumerate(deltas):
            partials = self._levels[level]
            index = self._partial_index[level + 1] if level + 1 < k else None
            join_key = self._join_key[level + 1] if index is not None else None
            for key, b in batch.items():
                partials[key] = b
                if index is not None:
                    index.setdefault(join_key(b), {})[key] = b
                holder = (level, key)
                for val in b.values():
                    self._holders.setdefault(val, set()).add(holder)
                # Pairs of variables bound at earlier levels were seen there.
                for var, kind in self._new_kinds[level]:
                    pair = (b[var], kind)
                    if pair not in self._seen_values:
                        self._seen_values.add(pair)
                        values.append(pair)
        return EvalDelta(
            values=values,
            solutions=list(deltas[-1].values()) if k else [],
            matched=matched,
        )

    def matches(self, t: Triple) -> bool:
        """Whether the triple, as held now, matches some pattern."""
        return any(t in m for m in self._matches)

    def retract(self, triples: Iterable[Triple], retired: Iterable[Term]) -> None:
        """Forget the matches of ``triples`` and every partial binding a retired term.

        When the triples are the view forms that mention a retired term, the
        partials dropped are exactly those built from their matches, except
        at a plan level whose query constant moved.  That case, and chained
        facts dropped without a retired term, need ``replan``.
        """
        for t in triples:
            for i, matches in enumerate(self._matches):
                b = matches.pop(t, None)
                if b is not None:
                    del self._match_index[i][self._join_key[i](b)][t]
        last = len(self.plan) - 1
        for term in retired:
            for holder in self._holders.pop(term, ()):
                level, key = holder
                b = self._levels[level].pop(key)
                for val in b.values():
                    if val != term:
                        self._holders[val].discard(holder)
                if level < last:
                    del self._partial_index[level + 1][self._join_key[level + 1](b)][key]

    def replan(self, patterns: Sequence[TriplePattern], triples: Iterable[Triple]) -> EvalDelta:
        """Start over on ``patterns``, the constructor's with constants moved, from ``triples``, the live view."""
        self._plan(tuple(patterns[i] for i in self._order))
        return self.add(triples)

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


class Traversal:
    """One run's state and decisions, timed on the run's clock.

    It decides what the run wants and why, the order of the roots
    (``roots``), relevance, and what each document adds (``take``).  A
    driver decides only where and when each hop is performed and how long
    to wait for one; the manager decides the budget, the deadline,
    redirects and parsing.  The clock gives ``first_s``, each event's
    ``t_s`` and ``time_s``.
    """

    def __init__(self, query: BgpQuery, setup: Setup, options: EngineOptions, clock: Clock) -> None:
        self.query, self.setup, self.options = query, setup, options
        self._clock = clock
        self._t0 = clock.now()
        self._sameas, self._rhodf = uses_sameas(setup), uses_rhodf(setup)
        self._seealso = setup in (Setup.SEEALSO, Setup.COMBINED)
        # A speculative carrier wants every IRI of a matching triple, the others only the IRIs bound.
        self._speculative = setup == Setup.BASE or (
            setup in (Setup.SEEALSO, Setup.SAMEAS) and not options.extensions_on_select)
        self.store = ReasoningStore(use_sameas=self._sameas, use_rhodf=self._rhodf)
        self._canon_pats = [canonical_pattern(p, self.store.equiv) for p in query.patterns]
        self.evaluator = IncrementalEvaluator(self._canon_pats)
        # Every IRI ever wanted, with its first reason.  The manager learns of a root only at its first
        # hop, after it left ``_pending``, so without this a root wanted twice while it waits would get two events.
        self._wanted: dict[Iri, str] = {}
        self._pending: deque[Iri] = deque()
        self._events: dict[Iri, FetchEvent | None] = {}  # by root, in the order the roots left ``_pending``
        self._raw_order: list[Triple] = []
        self._relevant: set[Term] = set()  # canonical forms of query-relevant IRIs
        self._seealso_waiting: dict[Term, list[Iri]] = {}  # targets by canonical subject, until relevant
        self._first_s: float | None = None
        seeds = seed_iris(query)
        for s in seeds.entities:
            self.want(s, "seed")
            self.mark_relevant(s)
        if options.deref_predicates:
            for p in seeds.predicates:
                self.want(p, "seed")
        if self._rhodf:
            for p in seeds.predicates:
                self.want(p, "vocab")
            for c in type_class_constants(query):
                self.want(c, "vocab")

    def want(self, iri: Iri, reason: str) -> None:
        if iri not in self._wanted:
            self._wanted[iri] = reason
            self._pending.append(iri)

    def roots(self) -> Iterator[Iri]:
        """Each root to chase, until none waits; roots wanted meanwhile come too."""
        while self._pending:
            iri = self._pending.popleft()
            self._events[iri] = None  # holds the root's place until ``take`` fills it
            yield iri

    def follow_links(self, canon: Term) -> None:
        """Request what hangs off a relevant canonical IRI."""
        for target in self._seealso_waiting.pop(canon, ()):
            self.want(target, "seealso")
        if self._sameas:
            for member in self.store.equiv.members(canon):
                self.want(member, "sameas")

    def mark_relevant(self, iri: Iri) -> None:
        canon = self.store.equiv.rep(iri)
        if canon not in self._relevant:
            self._relevant.add(canon)
            self.follow_links(canon)

    def scan_speculative(self, triples: Iterable[Triple]) -> None:
        """Request the subject and object IRIs of raw triples that matched."""
        for t in triples:
            if isinstance(t.subject, Iri):
                self.want(t.subject, "match")
            if isinstance(t.object, Iri):
                self.want(t.object, "match")
            if self.options.deref_predicates:
                self.want(t.predicate, "match")

    def consume_eval(self, delta: EvalDelta) -> None:
        for val, kind in delta.values:
            if not isinstance(val, Iri):
                continue
            if not self._speculative and (kind == "so" or (kind == "pred" and self.options.deref_predicates)):
                self.want(val, "binding")
            self.mark_relevant(val)
        if self._rhodf:
            for mt in delta.matched:
                self.want(mt.predicate, "vocab")
                if mt.predicate == RDF_TYPE and isinstance(mt.object, Iri):
                    self.want(mt.object, "vocab")
        if delta.solutions and self._first_s is None:
            self._first_s = self._clock.now() - self._t0

    def process_doc(self, triples: Iterable[Triple]) -> None:
        store, evaluator, canon_pats = self.store, self.evaluator, self._canon_pats
        delta = store.ingest(triples)
        self._raw_order.extend(delta.fresh)
        replanned = False
        evals = []
        if delta.retired:
            # A merge re-keyed earlier triples: repair the join state in place.
            evaluator.retract(delta.retracted, delta.retired)
            # Each constant of ``canon_pats`` is a representative, so it moved
            # exactly when it retired.
            if delta.rechained or any(t in delta.retired for p in canon_pats for t in p.terms()):
                # A query constant moved, or the store dropped chained facts
                # that mention no retired term: rebuild from the live view.
                canon_pats[:] = [canonical_pattern(p, store.equiv) for p in self.query.patterns]
                replanned = True
                evals.append(evaluator.replan(canon_pats, store.view()))
        added = evaluator.add(delta)
        evals.append(added)
        # The scan reads the matches just added; its wants precede the deltas'.
        # It reads the raw triples whose forms may have changed: all of them
        # after a replan, else the re-keyed and the fresh ones, whose forms the
        # store computed once, in ``delta.forms``.  No setup with rules
        # speculates (``_speculative``), so a store without owl:sameAs has the
        # fresh triples as its view delta, and the matched ones are exactly
        # those the evaluator just reported.
        if self._speculative:
            if replanned:
                self.scan_speculative(t for t in self._raw_order if evaluator.matches(canonical_triple(t, store.equiv)))
            elif self._sameas:
                pairs = zip(delta.rekeyed + delta.fresh, delta.forms)
                self.scan_speculative(t for t, form in pairs if evaluator.matches(form))
            else:
                self.scan_speculative(added.matched)
        for ev in evals:
            self.consume_eval(ev)
        relevant, waiting = self._relevant, self._seealso_waiting
        if self._seealso:
            for t in delta.fresh:
                if t.predicate == RDFS_SEEALSO and isinstance(t.subject, Iri) and isinstance(t.object, Iri):
                    canon = store.equiv.rep(t.subject)
                    if canon in relevant:
                        self.want(t.object, "seealso")
                    else:
                        waiting.setdefault(canon, []).append(t.object)
        for old in delta.retired:
            # The retired IRI's links and relevance pass to its representative.
            canon = store.equiv.rep(old)
            if old in waiting:
                waiting.setdefault(canon, []).extend(waiting.pop(old))
            if old in relevant or canon in relevant:
                relevant.discard(old)
                relevant.add(canon)
                self.follow_links(canon)

    def take(self, res: DerefResult) -> None:
        """Record a root's outcome in its place among the events and process its document."""
        self._events[res.iri] = FetchEvent(
            iri=res.iri, reason=self._wanted[res.iri], status=res.status, http_status=res.http_status,
            triples=len(res.triples), t_s=self._clock.now() - self._t0, elapsed_s=res.elapsed_s)
        if res.status == DerefStatus.OK:
            self.process_doc(res.triples)

    def result(self, http_lookups: int) -> QueryRun:
        final = self.store.finalize()
        proj_vars = tuple(sorted(set(self.query.projected)))
        by_key: dict[str, Binding] = {}
        for sol in self.evaluator.solutions():
            b = Binding.of({v: sol[v] for v in proj_vars})
            by_key.setdefault(b.key(), b)
        answers = tuple(b for _, b in sorted(by_key.items()))
        events = tuple(self._events.values())
        metrics = QueryMetrics(
            results=len(answers),
            time_s=self._clock.now() - self._t0,
            first_s=self._first_s,
            http_lookups=http_lookups,
            retrieved_triples=sum(ev.triples for ev in events if ev.status == DerefStatus.OK),
            inferred_triples=final.inferred_count,
            truncated=any(ev.status in (DerefStatus.SKIPPED, DerefStatus.TIMED_OUT) for ev in events),  # a limit fired
        )
        return QueryRun(query=self.query, setup=self.setup, options=self.options, answers=answers,
                        metrics=metrics, events=events, final=final, equiv=self.store.equiv)


def execute(
    query: BgpQuery,
    setup: Setup | str,
    resolver: Resolver,
    *,
    config: FetchConfig | None = None,
    options: EngineOptions | None = None,
) -> QueryRun:
    """Run ``query`` under ``setup``: the driver loop performs the hops a ``Traversal`` wants."""
    cfg = config or FetchConfig()
    clk = RealClock()
    manager = DereferenceManager(resolver, cfg, clk)
    run = Traversal(query, Setup(setup), options or EngineOptions(), clk)
    # Not a ``with`` block: joining the pool would wait out fetches past the deadline.
    pool = ThreadPoolExecutor(max_workers=cfg.max_parallel) if getattr(resolver, "may_block", True) else None
    parked: dict[str, tuple[Future, list[Generator]]] = {}  # hop out -> its future, the chases waiting on it
    done: SimpleQueue[str] = SimpleQueue()  # hops out, put here as they complete

    def step(chase: Generator, outcome: object) -> None:
        """Send a root's chase a hop outcome; park it on its next hop, or take its result."""
        try:
            hop = chase.send(outcome)
        except StopIteration as stop:
            run.take(stop.value)
            return
        if hop not in parked:
            fut = pool.submit(manager.request, hop)
            fut.add_done_callback(lambda _: done.put(hop))
            parked[hop] = (fut, [])
        parked[hop][1].append(chase)

    try:
        while True:
            for iri in run.roots():
                if pool is None:  # the manager skips every hop started after the deadline
                    run.take(manager.dereference(iri))
                else:
                    step(manager.chase(iri), None)
            if not parked:
                break
            try:
                hop = wait(done, timeout=max(0.0, manager.deadline - clk.now()))
            except Empty:  # the deadline passed: a hop cancelled unstarted was never looked up
                manager.refund(sum(fut.cancel() for fut, _ in parked.values()))
                for chase in (chase for _, chases in parked.values() for chase in chases):
                    step(chase, None)  # sent no outcome, the chase skips its root
                break
            fut, chases = parked.pop(hop)
            for chase in chases:
                step(chase, fut.result())
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
    return run.result(manager.lookups_used)
