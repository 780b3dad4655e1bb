import random
import sys
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkquery import engine, fetch, rdf
from linkquery.engine import (
    Binding,
    EngineOptions,
    IncrementalEvaluator,
    Setup,
    canonical_pattern,
    execute,
    plan_order,
    unify_triple,
)
from linkquery.fetch import (
    DerefStatus,
    FakeClock,
    FetchConfig,
    FixtureResolver,
    HopTimeout,
    RawResponse,
    RecordResolver,
    ReplayResolver,
)
from linkquery.fixturegen import WebSpec, generate_web, naive_join, oracle_eval
from linkquery.query import BgpQuery, TriplePattern, Variable, binding_text, parse_query
from linkquery.rdf import Iri, Literal, Triple
from linkquery.reasoner import canonical_triple

NS = "http://t.example/"


def I(tail):  # noqa: E743
    return Iri(NS + tail)


X, Y = Variable("x"), Variable("y")
S, P1, P2 = I("s"), I("p1"), I("p2")


def nt(*triples):
    return "".join(f"{a} {b} {c} .\n" for a, b, c in triples)


def q(text):
    return parse_query(text)


def iri(t):
    return f"<{NS}{t}>"


# -- unification and planning ---------------------------------------------------


def test_unify_binds_variables():
    got = unify_triple(TriplePattern(S, P1, X), Triple(S, P1, I("o")))
    assert got == {"x": I("o")}


def test_unify_rejects_constant_mismatch():
    assert unify_triple(TriplePattern(S, P1, X), Triple(S, P2, I("o"))) is None


def test_unify_repeated_variable_must_agree():
    pat = TriplePattern(X, P1, X)
    assert unify_triple(pat, Triple(S, P1, S)) == {"x": S}
    assert unify_triple(pat, Triple(S, P1, I("o"))) is None


def test_plan_order_starts_with_most_constants():
    chain = [TriplePattern(S, P1, X), TriplePattern(X, P2, Y)]
    assert plan_order(chain)[0] == chain[0]
    assert plan_order(list(reversed(chain)))[0] == chain[0]


def test_plan_order_prefers_connected_continuations():
    a = TriplePattern(S, P1, X)
    b = TriplePattern(X, P2, Y)
    c = TriplePattern(S, P2, I("z"))  # two constants but disconnected from ?x
    plan = plan_order([b, a, c])
    assert plan[0] == c  # most constants
    assert plan[1] == a  # shares ?s with c; b only connects through a
    assert plan[2] == b


def test_plan_order_is_deterministic_under_input_order():
    pats = [
        TriplePattern(X, P1, I("c1")),
        TriplePattern(X, P2, I("c2")),
        TriplePattern(I("c3"), I("p3"), X),
    ]
    rng = random.Random(0)
    plans = set()
    for _ in range(10):
        shuffled = pats[:]
        rng.shuffle(shuffled)
        plans.add(plan_order(shuffled))
    assert len(plans) == 1


def test_star_with_object_pattern_plans_object_pattern_first():
    # constant-subject text sorts before '?x ...': fixtures rely on this
    pats = [
        TriplePattern(X, P1, I("c1")),
        TriplePattern(X, P2, I("c2")),
        TriplePattern(I("c3"), I("p3"), X),
    ]
    assert plan_order(pats)[0] == pats[2]


# -- incremental evaluation vs brute force ---------------------------------------


def _random_eval_case(rng):
    ents = [I(f"n{i}") for i in range(4)]
    preds = [I(f"q{i}") for i in range(2)]
    vars_ = [Variable("x"), Variable("y")]
    pats = []
    for _ in range(rng.randrange(1, 4)):
        pick = lambda pool: rng.choice(pool)  # noqa: E731
        pats.append(
            TriplePattern(
                pick(ents + vars_),
                pick(preds),
                pick(ents + vars_ + [Literal("v")]),
            )
        )
    triples = {
        Triple(rng.choice(ents), rng.choice(preds), rng.choice(ents + [Literal("v")]))
        for _ in range(rng.randrange(0, 15))
    }
    return pats, sorted(triples, key=repr)


def test_incremental_evaluator_matches_brute_force_joins():
    rng = random.Random(20260819)
    for case in range(120):
        pats, triples = _random_eval_case(rng)
        want = set()
        for sol in naive_join(pats, triples):
            want.add(binding_text(sol))
        ev = IncrementalEvaluator(pats)
        got = set()
        rng.shuffle(triples)
        got.update(binding_text(s) for s in ev.add([]).solutions)
        i = 0
        while i < len(triples):
            cut = rng.randrange(i + 1, len(triples) + 1)
            delta = ev.add(triples[i:cut])
            got.update(binding_text(s) for s in delta.solutions)
            i = cut
        assert got == want, f"case {case}: {pats} {triples}"


def test_evaluator_reports_each_solution_once():
    pats = [TriplePattern(S, P1, X)]
    ev = IncrementalEvaluator(pats)
    t = Triple(S, P1, I("o"))
    assert len(ev.add([t]).solutions) == 1
    assert ev.add([t]).solutions == []


def test_a_batch_that_matches_nothing_changes_nothing():
    ev = IncrementalEvaluator(plan_order([TriplePattern(S, P1, X), TriplePattern(X, P2, Y)]))
    held = [Triple(S, P1, I("a")), Triple(I("a"), P2, I("b")), Triple(S, P1, I("c"))]
    ev.add(held)
    before = {binding_text(s) for s in ev.solutions()}
    misses = [Triple(S, I("p3"), I("a")), Triple(I("a"), P1, S), Triple(I("c"), I("p3"), Literal("v"))]
    delta = ev.add(misses)
    assert (delta.values, delta.solutions, delta.matched) == ([], [], [])
    assert {binding_text(s) for s in ev.solutions()} == before == {binding_text({"x": I("a"), "y": I("b")})}
    assert [ev.matches(t) for t in held + misses] == [True] * 3 + [False] * 3
    # The join state still takes the next match.
    assert {binding_text(s) for s in ev.add([Triple(I("c"), P2, I("d"))]).solutions} == {
        binding_text({"x": I("c"), "y": I("d")})}


def test_triple_matching_only_a_later_pattern_binds_nothing():
    # bindings must extend join-consistent prefixes of the plan, not any pattern
    pats = [TriplePattern(S, P1, X), TriplePattern(X, P2, Y)]
    ev = IncrementalEvaluator(plan_order(pats))
    delta = ev.add([Triple(I("stray"), P2, I("w"))])
    assert delta.values == []
    assert delta.solutions == []
    # once the prefix exists, the same triple is picked up through the join
    delta = ev.add([Triple(S, P1, I("stray"))])
    assert {binding_text(s) for s in delta.solutions} == {
        binding_text({"x": I("stray"), "y": I("w")})
    }


def test_retract_forgets_matches_of_triples_mentioning_a_retired_term():
    rng = random.Random(20261018)
    checked = 0
    for case in range(200):
        pats, triples = _random_eval_case(rng)
        constants = {t for p in pats for t in p.terms() if isinstance(t, Iri)}
        free = [I(f"n{i}") for i in range(4) if I(f"n{i}") not in constants]
        if not free:
            continue  # a moved query constant needs replan, not retract
        retired = rng.choice(free)
        gone = [t for t in triples if retired in t.terms()]
        kept = [t for t in triples if retired not in t.terms()]
        ev = IncrementalEvaluator(pats)
        ev.add(triples)
        ev.retract(gone, [retired])
        assert not any(ev.matches(t) for t in gone), f"case {case}"
        fresh = IncrementalEvaluator(pats)
        fresh.add(kept)
        assert {binding_text(s) for s in ev.solutions()} == {binding_text(s) for s in fresh.solutions()}
        # new triples must not join with a retracted match or a dropped
        # partial left behind in the join indexes
        _, more = _random_eval_case(rng)
        more = [t for t in more if retired not in t.terms()]
        fresh.add(more)
        ev.add(more)
        assert {binding_text(s) for s in ev.solutions()} == {binding_text(s) for s in fresh.solutions()}
        # the retracted triples are new again to the repaired evaluator
        fresh.add(gone)
        ev.add(gone)
        assert {binding_text(s) for s in ev.solutions()} == {binding_text(s) for s in fresh.solutions()}
        checked += bool(gone)
    assert checked > 50


def _nested_loop_join(parts, matches):
    """Every compatible (partial, match) pair, merged: the plain nested loop."""
    return [
        {**a, **m}
        for a in parts
        for m in matches
        if all(a.get(var, val) == val for var, val in m.items())
    ]


class _ReferenceEvaluator:
    """From-scratch evaluation of the plan over the triples held now."""

    def __init__(self, patterns):
        self.plan = plan_order(patterns)
        self.order = [patterns.index(p) for p in self.plan]  # each level's place in ``patterns``
        self.held = set()
        self.seen = set()

    def levels(self):
        parts, out = [{}], []
        for pat in self.plan:
            parts = _nested_loop_join(parts, [b for t in self.held if (b := unify_triple(pat, t)) is not None])
            out.append(parts)
        return out

    def solutions(self):
        return {binding_text(b) for b in self.levels()[-1]}

    def matches(self, t):
        return t in self.held and any(unify_triple(p, t) is not None for p in self.plan)

    def new_values(self):
        """(value, position kind) pairs bound by some partial now and never before."""
        kinds, pairs = {}, set()
        for pat, parts in zip(self.plan, self.levels()):
            for term, kind in ((pat.subject, "so"), (pat.predicate, "pred"), (pat.object, "so")):
                if isinstance(term, Variable):
                    kinds.setdefault(term.name, set()).add(kind)
            pairs |= {(b[var], kind) for b in parts for var in b for kind in kinds[var]}
        fresh = pairs - self.seen
        self.seen |= pairs
        return fresh


def _random_bgp(rng, ents, preds, vars_):
    return [
        TriplePattern(rng.choice(ents + vars_), rng.choice(preds + vars_[:2]), rng.choice(ents + vars_ + [Literal("v")]))
        for _ in range(rng.randrange(1, 5))
    ]


def _plan_shapes(plan):
    shapes = set()
    bound = set()
    for i, p in enumerate(plan):
        names = [t.name for t in p.terms() if isinstance(t, Variable)]
        if len(set(names)) < len(names):
            shapes.add("repeated-var")
        if not names:
            shapes.add("constant-only")
        elif i and not bound & set(names):
            shapes.add("disconnected")
        if isinstance(p.predicate, Variable) and any(p.predicate.name in o.variables() for o in plan if o is not p):
            shapes.add("shared-var-pred")
        bound |= set(names)
    return shapes


def test_hash_join_agrees_with_nested_loop_reference_under_add_retract_replan():
    rng = random.Random(20261101)
    ents = [I(f"n{i}") for i in range(4)]
    preds = [I("q0"), I("q1"), ents[0]]  # an entity as predicate lets a ?var join subject and predicate
    vars_ = [Variable("x"), Variable("y"), Variable("z")]
    universe = sorted(
        {Triple(s, p, o) for s in ents for p in preds for o in ents + [Literal("v")]}, key=repr
    )
    seen_shapes = set()
    for case in range(150):
        pats = _random_bgp(rng, ents, preds, vars_)
        ev, ref = IncrementalEvaluator(pats), _ReferenceEvaluator(pats)
        for step in range(12):
            seen_shapes |= _plan_shapes(ref.plan)
            op = rng.random()
            constants = {t for p in ref.plan for t in p.terms() if isinstance(t, Iri)}
            free = [e for e in ents if e not in constants]
            if op < 0.6:
                batch = rng.sample(universe, rng.randrange(0, 12))
                ref.held |= set(batch)
                got, want = ev.add(batch).values, ref.new_values()
            elif op < 0.85 and free:
                # as after a merge: every held triple mentioning a retired non-constant
                retired = rng.choice(free)
                gone = [t for t in ref.held if retired in t.terms()]
                ev.retract(gone, [retired])
                ref.held -= set(gone)
                got, want = [], ref.new_values()
            else:
                # as after a query constant moved: the plan's patterns, in its
                # first order, over the held triples
                pats = [
                    TriplePattern(*(rng.choice(ents) if isinstance(t, Iri) and t in ents else t for t in p.terms()))
                    for p in pats
                ]
                ref.plan = tuple(pats[i] for i in ref.order)
                got, want = ev.replan(pats, sorted(ref.held, key=repr)).values, ref.new_values()
            where = f"case {case} step {step}: {pats}"
            assert set(got) == want and len(got) == len(want), where
            assert {binding_text(s) for s in ev.solutions()} == ref.solutions(), where
            assert [ev.matches(t) for t in universe] == [ref.matches(t) for t in universe], where
    assert seen_shapes == {"repeated-var", "shared-var-pred", "constant-only", "disconnected"}


def test_binding_dedup_and_key():
    b1 = Binding.of({"x": I("a"), "y": Literal("1")})
    b2 = Binding.of({"y": Literal("1"), "x": I("a")})
    assert b1 == b2
    assert b1.key() == b2.key()
    assert b1.get("x") == I("a")
    assert b1.get("nope") is None


# -- execution setups on hand-built webs -----------------------------------------


# s --p1--> a --p2--> b, plus a stray p2 triple in s's document.
CHAIN_DOCS = {
    NS + "s": nt(
        (iri("s"), iri("p1"), iri("a")),
        (iri("junk1"), iri("p2"), iri("junk2")),
    ),
    NS + "a": nt((iri("a"), iri("p2"), iri("b"))),
    NS + "junk1": nt((iri("junk1"), iri("p2"), iri("junk2"))),
}
# One DELAY line, even for a document no run asks for, makes a web that may
# block, so its hops go to the fetch pool.
BLOCKING_CHAIN_DOCS = {**CHAIN_DOCS, NS + "idle": "!DELAY 1 THEN STATUS 404"}


@pytest.fixture
def chain_web(write_web):
    return write_web(CHAIN_DOCS)


CHAIN_Q = f"SELECT ?x ?y WHERE {{ {iri('s')} {iri('p1')} ?x . ?x {iri('p2')} ?y . }}"


def test_base_follows_iris_of_unifying_triples(chain_web):
    run = execute(q(CHAIN_Q), Setup.BASE, FixtureResolver(chain_web))
    assert run.answer_keys() == {binding_text({"x": I("a"), "y": I("b")})}
    requested = {e.iri.value for e in run.events}
    # the stray p2 triple unifies with the second pattern: base chases it
    assert NS + "junk1" in requested and NS + "junk2" in requested
    assert run.metrics.http_lookups == 5  # s, a, junk1, junk2, b


def test_select_only_follows_join_consistent_bindings(chain_web):
    run = execute(q(CHAIN_Q), Setup.SELECT, FixtureResolver(chain_web))
    assert run.answer_keys() == {binding_text({"x": I("a"), "y": I("b")})}
    requested = {e.iri.value for e in run.events}
    assert NS + "junk1" not in requested and NS + "junk2" not in requested
    assert run.metrics.http_lookups == 3  # s, a, b


def test_bad_redirect_location_does_not_stop_the_run(write_web):
    manifest = write_web(
        {
            NS + "s": nt((iri("s"), iri("p1"), iri("a")), (iri("s"), iri("p1"), iri("b"))),
            NS + "a": "!REDIRECT http://[bad",
            NS + "b": nt((iri("b"), iri("p2"), '"v"')),
        }
    )
    run = execute(q(CHAIN_Q), Setup.BASE, FixtureResolver(manifest))
    assert run.answer_keys() == {binding_text({"x": I("b"), "y": Literal("v")})}
    statuses = {e.iri.value: e.status for e in run.events}
    assert statuses[NS + "a"] == DerefStatus.HTTP_ERROR
    assert statuses[NS + "b"] == DerefStatus.OK


def test_redirects_sharing_a_target_look_it_up_once(write_web):
    # a and b both redirect to t, which is also bound, and so requested, itself
    manifest = write_web(
        {
            NS + "s": nt((iri("s"), iri("p1"), iri("a")), (iri("s"), iri("p1"), iri("b")),
                         (iri("s"), iri("p1"), iri("t"))),
            NS + "a": f"!REDIRECT {NS}t",
            NS + "b": f"!REDIRECT {NS}t",
            NS + "t": "!DELAY 5 THEN FILE t.nt",
        }
    )
    (manifest.parent / "t.nt").write_text(nt((iri("t"), iri("p2"), '"v"')), encoding="utf-8")
    fixture = FixtureResolver(manifest)

    class Counting:
        is_local = True

        def resolve(self, hop, timeout_s):
            calls.append(hop)
            return fixture.resolve(hop, timeout_s)

    seen = set()
    for _ in range(10):
        calls = []
        run = execute(q(CHAIN_Q), Setup.BASE, Counting(), config=FetchConfig(max_parallel=4))
        assert sorted(calls) == sorted(NS + t for t in "sabt")  # t once, not once per root
        seen.add((run.answer_keys(), run.metrics.http_lookups))
    assert seen == {(frozenset({binding_text({"x": I("t"), "y": Literal("v")})}), 4)}


class Counting(FixtureResolver):
    """A fixture web that lists every hop asked of it."""

    def __init__(self, manifest):
        super().__init__(manifest)
        self.calls = []

    def resolve(self, hop, timeout_s):
        self.calls.append(hop)
        return super().resolve(hop, timeout_s)


def shared_target_web(write_web, target):
    """s links to a and b, which both redirect to t, served by the ``target`` directive."""
    manifest = write_web(
        {
            NS + "s": nt((iri("s"), iri("p1"), iri("a")), (iri("s"), iri("p1"), iri("b"))),
            NS + "a": f"!REDIRECT {NS}t",
            NS + "b": f"!REDIRECT {NS}t",
            NS + "t": f"!{target}",
        }
    )
    (manifest.parent / "t.nt").write_text(nt((iri("t"), iri("p2"), '"v"')), encoding="utf-8")
    return manifest


def test_roots_waiting_on_a_hop_that_outlasts_the_timeout_share_it(write_web):
    resolver = Counting(shared_target_web(write_web, "DELAY 300 THEN FILE t.nt"))
    assert resolver.may_block
    run = execute(q(CHAIN_Q), Setup.BASE, resolver, config=FetchConfig(timeout_ms=50, max_parallel=4))
    assert sorted(resolver.calls) == sorted(NS + t for t in "sabt")
    assert {e.iri.value: e.status for e in run.events} == {
        NS + "s": DerefStatus.OK, NS + "a": DerefStatus.TIMED_OUT, NS + "b": DerefStatus.TIMED_OUT}
    assert run.metrics.http_lookups == 4
    assert run.metrics.truncated is True
    # The same web with a timeout the hop does not outlast: nothing was cut short.
    untimed = execute(q(CHAIN_Q), Setup.BASE, resolver, config=FetchConfig(timeout_ms=5000, max_parallel=4))
    assert {e.status for e in untimed.events} == {DerefStatus.OK}
    assert untimed.metrics.truncated is False


def test_a_resolver_crash_on_a_shared_hop_makes_execute_raise(write_web):
    class Crashing(Counting):
        def resolve(self, hop, timeout_s):
            response = super().resolve(hop, timeout_s)
            if hop == NS + "t":
                raise RuntimeError("resolver bug")
            return response

    resolver = Crashing(shared_target_web(write_web, "DELAY 50 THEN FILE t.nt"))
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="resolver bug"):
        execute(q(CHAIN_Q), Setup.BASE, resolver, config=FetchConfig(max_parallel=4))
    assert time.monotonic() - started < 1.0
    assert resolver.calls.count(NS + "t") == 1


def test_the_lookup_budget_on_the_pool_goes_to_the_first_roots_requested(write_web):
    # A star: s links to 39 leaves, listed in order, so they are requested in order.
    leaves = [f"d{i:02d}" for i in range(1, 40)]
    manifest = write_web(
        {NS + "s": "!DELAY 0 THEN FILE s.nt", **{NS + leaf: "!DELAY 0 THEN STATUS 200" for leaf in leaves}}
    )
    (manifest.parent / "s.nt").write_text(nt(*((iri("s"), iri("p1"), iri(leaf)) for leaf in leaves)))
    resolver = Counting(manifest)
    assert resolver.may_block
    for _ in range(10):
        resolver.calls.clear()
        run = execute(
            q(f"SELECT ?x WHERE {{ {iri('s')} {iri('p1')} ?x . }}"),
            Setup.BASE,
            resolver,
            config=FetchConfig(max_lookups=25, max_parallel=4),
        )
        assert len(resolver.calls) == run.metrics.http_lookups == 25
        assert run.metrics.truncated is True
        assert {e.iri for e in run.events if e.status == DerefStatus.OK} == {S, *(I(leaf) for leaf in leaves[:24])}


def test_deref_predicates_option(chain_web):
    plain = execute(q(CHAIN_Q), Setup.BASE, FixtureResolver(chain_web))
    wide = execute(
        q(CHAIN_Q),
        Setup.BASE,
        FixtureResolver(chain_web),
        options=EngineOptions(deref_predicates=True),
    )
    requested = {e.iri.value for e in wide.events}
    assert NS + "p1" in requested and NS + "p2" in requested
    assert wide.metrics.http_lookups > plain.metrics.http_lookups
    assert wide.answer_keys() == plain.answer_keys()


@pytest.fixture
def seealso_web(write_web):
    rdfs = "<http://www.w3.org/2000/01/rdf-schema#seeAlso>"
    return write_web(
        {
            NS + "e": nt((iri("e"), rdfs, iri("hub"))),
            NS + "hub": nt((iri("e"), iri("hp"), iri("v"))),
        },
        name="seealso",
    )


SEEALSO_Q = f"SELECT ?o WHERE {{ {iri('e')} {iri('hp')} ?o . }}"


def test_seealso_links_are_followed_for_relevant_subjects(seealso_web):
    base = execute(q(SEEALSO_Q), Setup.BASE, FixtureResolver(seealso_web))
    assert base.answer_keys() == frozenset()
    assert base.metrics.http_lookups == 1
    extended = execute(q(SEEALSO_Q), Setup.SEEALSO, FixtureResolver(seealso_web))
    assert extended.answer_keys() == {binding_text({"o": I("v")})}
    assert {e.iri.value for e in extended.events} >= {NS + "e", NS + "hub", NS + "v"}
    reasons = {e.iri.value: e.reason for e in extended.events}
    assert reasons[NS + "hub"] == "seealso"


@pytest.fixture
def sameas_web(write_web):
    owl = "<http://www.w3.org/2002/07/owl#sameAs>"
    return write_web(
        {
            NS + "e": nt((iri("e"), owl, iri("zalias"))),
            NS + "zalias": nt((iri("zalias"), iri("ap"), iri("v"))),
        },
        name="sameas",
    )


SAMEAS_Q = f"SELECT ?o WHERE {{ {iri('e')} {iri('ap')} ?o . }}"


def test_sameas_links_merge_and_canonicalize(sameas_web):
    base = execute(q(SAMEAS_Q), Setup.BASE, FixtureResolver(sameas_web))
    assert base.answer_keys() == frozenset()
    merged = execute(q(SAMEAS_Q), Setup.SAMEAS, FixtureResolver(sameas_web))
    assert merged.answer_keys() == {binding_text({"o": I("v")})}
    assert merged.equiv.rep(I("zalias")) == I("e")
    assert merged.metrics.inferred_triples > 0  # canonical rewrites are novel
    reasons = {e.iri.value: e.reason for e in merged.events}
    assert reasons[NS + "zalias"] == "sameas"


@pytest.mark.parametrize("other", ["m", "0m"])
def test_query_constant_merged_mid_run(write_web, monkeypatch, other):
    # The constant 'zent' is owl:sameAs 'aent', which sorts first, so the
    # query constant itself moves mid-run.  With 'm' a plan ordered by the
    # moved patterns' text would flip (the 'aent' pattern would come first);
    # with '0m' only its second level would change.
    owl = "<http://www.w3.org/2002/07/owl#sameAs>"
    manifest = write_web(
        {
            NS + "zent": nt((iri("zent"), iri("p"), iri("o1")), (iri("zent"), owl, iri("aent"))),
            NS + "aent": nt((iri("aent"), iri("p"), iri("o2")), (iri("aent"), iri("p"), iri("o3"))),
            NS + other: nt((iri(other), iri("q"), iri("o1")), (iri(other), iri("q"), iri("o2"))),
        }
    )
    query = q(f"SELECT ?o WHERE {{ {iri('zent')} {iri('p')} ?o . {iri(other)} {iri('q')} ?o . }}")
    built = []

    class CountingEvaluator(IncrementalEvaluator):
        def __init__(self, patterns):
            built.append(patterns)
            super().__init__(patterns)

    monkeypatch.setattr(engine, "IncrementalEvaluator", CountingEvaluator)
    for setup in (Setup.SAMEAS, Setup.COMBINED):
        built.clear()
        run = execute(query, setup, FixtureResolver(manifest))
        assert run.equiv.rep(I("zent")) == I("aent")
        assert run.answer_keys() == {binding_text({"o": I("o1")}), binding_text({"o": I("o2")})}
        assert len(built) == 1, "the merge repairs the running evaluator"


@pytest.mark.parametrize(
    "schema, vocab",
    [
        ((iri("C"), "<http://www.w3.org/2000/01/rdf-schema#subClassOf>", iri("D")), "subClassOf"),
        ((iri("p"), "<http://www.w3.org/2000/01/rdf-schema#domain>", iri("D")), "domain"),
    ],
    ids=["subClassOf", "domain"],
)
def test_merge_moving_rule_vocabulary_drops_what_it_derived(write_web, schema, vocab):
    # 'x' is typed D only through the schema triple.  Its own document says
    # the schema predicate is owl:sameAs an IRI that sorts first, so the
    # predicate stops being rule vocabulary and 'x a D' is no longer derived.
    owl = "<http://www.w3.org/2002/07/owl#sameAs>"
    rdf_type = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
    manifest = write_web(
        {
            NS + "D": nt((iri("x"), rdf_type, iri("C")), (iri("x"), iri("p"), iri("v")), schema),
            NS + "x": nt((iri(vocab), owl, schema[1])),
        }
    )
    run = execute(q(f"SELECT ?x WHERE {{ ?x {rdf_type} {iri('D')} . }}"), Setup.COMBINED, FixtureResolver(manifest))
    assert NS + "x" in {e.iri.value for e in run.events}, "x was bound before the merge"
    assert run.answer_keys() == frozenset() == _closing_pass_keys(run)


def test_speculative_frontier_follows_a_moved_query_constant(write_web):
    # 'aent' is fetched before the slow 'later' document says 'zent' is
    # 'aent'; only then does '<aent> p o2' unify with the second pattern.
    # ?o=o2 joins nothing, so only the speculative scan can request o2.
    owl = "<http://www.w3.org/2002/07/owl#sameAs>"
    manifest = write_web(
        {
            NS + "0m": nt((iri("0m"), iri("q"), iri("o1"))),
            NS + "zent": nt(
                (iri("zent"), iri("p"), iri("o1")),
                (iri("zent"), iri("p"), iri("aent")),
                (iri("zent"), iri("p"), iri("later")),
            ),
            NS + "aent": nt((iri("aent"), iri("p"), iri("o2"))),
            NS + "later": "!DELAY 50 THEN FILE later.nt",
            NS + "o2": nt((iri("o2"), iri("r"), iri("v"))),
        }
    )
    (manifest.parent / "later.nt").write_text(nt((iri("zent"), owl, iri("aent"))), encoding="utf-8")
    query = q(f"SELECT ?o WHERE {{ {iri('0m')} {iri('q')} ?o . {iri('zent')} {iri('p')} ?o . }}")
    run = execute(query, Setup.SAMEAS, FixtureResolver(manifest))
    reasons = {e.iri.value: e.reason for e in run.events}
    assert reasons[NS + "o2"] == "match"
    assert run.answer_keys() == {binding_text({"o": I("o1")})}


def test_speculative_frontier_follows_a_rekeyed_triple(write_web):
    # 'z' holds '<a> p <d>', which unifies with '?x p <c>' only once the slow
    # 'w' says 'd' is 'c'.  No query constant moves, so only the re-scan of
    # the re-keyed triples can request 'a'.
    owl = "<http://www.w3.org/2002/07/owl#sameAs>"
    manifest = write_web(
        {
            NS + "c": nt((iri("z"), iri("p"), iri("c")), (iri("w"), iri("p"), iri("c"))),
            NS + "z": nt((iri("a"), iri("p"), iri("d"))),
            NS + "w": "!DELAY 50 THEN FILE w.nt",
            NS + "a": nt((iri("a"), iri("r"), iri("v"))),
        }
    )
    (manifest.parent / "w.nt").write_text(nt((iri("d"), owl, iri("c"))), encoding="utf-8")
    run = execute(q(f"SELECT ?x WHERE {{ ?x {iri('p')} {iri('c')} . }}"), Setup.SAMEAS, FixtureResolver(manifest))
    reasons = {e.iri.value: e.reason for e in run.events}
    assert reasons[NS + "a"] == "match"
    assert run.answer_keys() == {binding_text({"x": I(x)}) for x in "awz"}


def test_sameas_with_alias_as_representative(write_web):
    # '0alias' sorts before 'e': the merge flips the representative mid-run
    owl = "<http://www.w3.org/2002/07/owl#sameAs>"
    manifest = write_web(
        {
            NS + "e": nt((iri("e"), owl, iri("0alias"))),
            NS + "0alias": nt((iri("0alias"), iri("ap"), iri("v"))),
        }
    )
    run = execute(q(SAMEAS_Q), Setup.SAMEAS, FixtureResolver(manifest))
    assert run.answer_keys() == {binding_text({"o": I("v")})}
    assert run.equiv.rep(I("e")) == I("0alias")


@pytest.mark.parametrize(
    "setup, options",
    [(Setup.COMBINED, EngineOptions()), (Setup.SAMEAS, EngineOptions(extensions_on_select=True))],
    ids=["combined", "sameas-on-select"],
)
@pytest.mark.parametrize("first", ["A", "B"], ids=["A-pattern-first", "B-pattern-first"])
@pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pool"])
def test_a_merge_that_moves_a_query_constant_keeps_the_plan_order(write_web, setup, options, first, pooled):
    # 'B' is owl:sameAs '0B', which sorts before 'A': ordered by the moved
    # patterns' text, the plan would put B's pattern first, while only A's
    # pattern, at level 0, binds x1 before x1's document is fetched.  On the
    # pool, B's document arrives first, so the merge comes before A's.
    docs = {
        "A": Triple(I("x1"), I("p"), I("A")),
        "B": Triple(I("B"), rdf.OWL_SAMEAS, I("0B")),
        "x1": Triple(I("x1"), I("p"), I("B")),
    }
    delays = {"A": "DELAY 100 THEN ", "B": "DELAY 0 THEN "} if pooled else {}
    manifest = write_web({NS + name: f"!{delays.get(name, '')}FILE {name}.nt" for name in docs})
    for name, triple in docs.items():
        (manifest.parent / f"{name}.nt").write_text(nt(map(rdf.term_to_text, triple.terms())), encoding="utf-8")
    patterns = {name: f"?x {iri('p')} {iri(name)} ." for name in "AB"}
    query = q(f"SELECT ?x WHERE {{ {patterns[first]} {patterns['B' if first == 'A' else 'A']} }}")
    resolver = FixtureResolver(manifest)
    assert resolver.may_block is pooled
    run = execute(query, setup, resolver, options=options)
    assert oracle_eval(docs.values(), query, use_sameas=True) == {binding_text({"x": I("x1")})}
    assert run.answer_keys() == {binding_text({"x": I("x1")})}
    assert run.metrics.truncated is False


@pytest.fixture
def rho_web(write_web):
    sub = "<http://www.w3.org/2000/01/rdf-schema#subPropertyOf>"
    return write_web(
        {
            NS + "e": nt((iri("e"), iri("p0"), iri("v"))),
            NS + "p1": nt((iri("p0"), sub, iri("p1"))),
        },
        name="rho",
    )


RHO_Q = f"SELECT ?o WHERE {{ {iri('e')} {iri('p1')} ?o . }}"


def test_rhodf_fetches_vocabulary_and_infers(rho_web):
    select = execute(q(RHO_Q), Setup.SELECT, FixtureResolver(rho_web))
    assert select.answer_keys() == frozenset()
    assert select.metrics.inferred_triples == 0
    rho = execute(q(RHO_Q), Setup.RHODF, FixtureResolver(rho_web))
    assert rho.answer_keys() == {binding_text({"o": I("v")})}
    assert rho.metrics.inferred_triples > 0
    reasons = {e.iri.value: e.reason for e in rho.events}
    assert reasons[NS + "p1"] == "vocab"


def test_base_and_select_never_infer(chain_web):
    for setup in (Setup.BASE, Setup.SELECT):
        run = execute(q(CHAIN_Q), setup, FixtureResolver(chain_web))
        assert run.metrics.inferred_triples == 0


@pytest.fixture
def carrier_web(write_web):
    """The first pattern's match for ?x=c is stated only in c's own document,
    so it is discoverable speculatively but never via select-style bindings."""
    rdfs = "<http://www.w3.org/2000/01/rdf-schema#seeAlso>"
    return write_web(
        {
            NS + "s": nt(
                (iri("s"), iri("p1"), iri("a")),
                (iri("c"), iri("p2"), iri("d")),
            ),
            NS + "a": nt((iri("a"), iri("p2"), iri("b"))),
            NS + "c": nt((iri("s"), iri("p1"), iri("c")), (iri("c"), rdfs, iri("hub"))),
            NS + "hub": nt((iri("c"), iri("p2"), iri("w2"))),
        },
        name="carrier",
    )


def test_extension_carrier_switch(carrier_web):
    broad = execute(q(CHAIN_Q), Setup.SEEALSO, FixtureResolver(carrier_web))
    narrow = execute(
        q(CHAIN_Q),
        Setup.SEEALSO,
        FixtureResolver(carrier_web),
        options=EngineOptions(extensions_on_select=True),
    )
    both = binding_text({"x": I("a"), "y": I("b")})
    assert narrow.answer_keys() == {both}
    assert broad.answer_keys() == {
        both,
        binding_text({"x": I("c"), "y": I("d")}),  # the stray triple joins once ?x=c binds
        binding_text({"x": I("c"), "y": I("w2")}),
    }
    broad_req = {e.iri.value for e in broad.events}
    narrow_req = {e.iri.value for e in narrow.events}
    assert NS + "hub" in broad_req, "speculation discovers the binding that carries the link"
    assert NS + "hub" not in narrow_req and NS + "c" not in narrow_req
    assert narrow_req < broad_req


def test_truncated_run_is_flagged(chain_web):
    run = execute(
        q(CHAIN_Q),
        Setup.BASE,
        FixtureResolver(chain_web),
        config=FetchConfig(max_lookups=2),
    )
    assert run.metrics.truncated is True
    assert run.metrics.http_lookups == 2


@pytest.mark.parametrize("directive", ["FILE gone.nt", "DELAY 0 THEN FILE gone.nt"], ids=["inline", "pooled"])
def test_a_transport_failure_does_not_flag_the_run_truncated(write_web, directive):
    # a's document is missing, so its hop fails in transport; no limit fired.
    manifest = write_web({NS + "s": nt((iri("s"), iri("p1"), iri("a"))), NS + "a": "!" + directive})
    run = execute(q(CHAIN_Q), Setup.BASE, FixtureResolver(manifest), config=FetchConfig(max_parallel=2))
    assert [(e.iri, e.status.value) for e in run.events] == [(S, "ok"), (I("a"), "transport-failure")]
    assert run.metrics.truncated is False


class TimingOut(FixtureResolver):
    """The fixture web, except that a's hop raises what a live request raises on a timeout."""

    def resolve(self, hop, timeout_s):
        if hop == NS + "a":
            raise HopTimeout("read timed out")
        return super().resolve(hop, timeout_s)


@pytest.mark.parametrize(
    "resolver, directive",
    [(TimingOut, "STATUS 200"), (FixtureResolver, "DELAY 300 THEN FILE gone.nt")],
    ids=["live", "fixture-delay"],
)
def test_a_hop_that_times_out_and_fails_flags_the_run_truncated(write_web, resolver, directive):
    # a's hop overruns timeout_ms and then fails in transport.
    manifest = write_web({NS + "s": nt((iri("s"), iri("p1"), iri("a"))), NS + "a": "!" + directive})
    run = execute(q(CHAIN_Q), Setup.BASE, resolver(manifest), config=FetchConfig(timeout_ms=100, max_parallel=2))
    assert [(e.iri, e.status.value) for e in run.events] == [(S, "ok"), (I("a"), "timed-out")]
    assert run.metrics.truncated is True


def test_a_replayed_faulty_run_reproduces_the_recorded_run(write_web, tmp_path):
    # c's hop overruns timeout_ms and then serves its document, e's is a 3xx
    # without a Location and g's document is missing.
    manifest = write_web({
        NS + "s": nt(*((iri("s"), iri("p1"), iri(x)) for x in "aceg")),
        NS + "a": nt((iri("a"), iri("p2"), iri("b"))),
        NS + "c": "!DELAY 200 THEN FILE doc001.nt",
        NS + "e": "!STATUS 302",
        NS + "g": "!FILE gone.nt",
    })
    config = FetchConfig(timeout_ms=50)
    tape = tmp_path / "tape.bin"
    with RecordResolver(FixtureResolver(manifest), tape) as recorder:
        recorded = execute(q(CHAIN_Q), Setup.BASE, recorder, config=config)
    replayed = execute(q(CHAIN_Q), Setup.BASE, ReplayResolver(tape), config=config)

    def seen(run):
        # The recorded run's hops complete on the pool, so its events are compared as a set.
        m = run.metrics
        return (sorted((e.iri.value, e.reason, e.status, e.http_status) for e in run.events),
                (m.results, m.http_lookups, m.retrieved_triples, m.inferred_triples), m.truncated)

    assert {(e.iri, e.status.value) for e in recorded.events} >= {
        (I("c"), "timed-out"), (I("e"), "http-error"), (I("g"), "transport-failure")}
    assert seen(replayed) == seen(recorded)


def test_deadline_bounds_wall_time(write_web):
    # One worker: s's hop is under way at the deadline, and t's has not started.
    manifest = write_web({NS + "s": "!DELAY 3000 THEN FILE slow.nt", NS + "t": "!DELAY 3000 THEN FILE slow.nt"})
    (manifest.parent / "slow.nt").write_text(nt((iri("s"), iri("p1"), iri("a"))), encoding="utf-8")
    started = time.monotonic()
    run = execute(
        q(f"SELECT ?x WHERE {{ {iri('s')} {iri('p1')} ?x . {iri('t')} {iri('p1')} ?x . }}"),
        Setup.BASE,
        FixtureResolver(manifest),
        config=FetchConfig(deadline_ms=200, timeout_ms=500, max_parallel=1),
    )
    assert time.monotonic() - started < 1.0
    assert run.metrics.truncated is True
    assert [(e.iri, e.status) for e in run.events] == [(S, DerefStatus.SKIPPED), (I("t"), DerefStatus.SKIPPED)]
    assert run.metrics.http_lookups == 1  # t's hop was cancelled before it was looked up


class Undeclared:
    """A resolver that does not say whether it may block, so its hops go to the fetch pool."""

    is_local = True

    def __init__(self, inner):
        self.resolve = inner.resolve


def test_only_hops_that_cannot_block_run_on_the_calling_thread(write_web):
    threads = []

    class Spy(FixtureResolver):
        def resolve(self, iri, timeout_s):
            threads.append(threading.get_ident())
            return super().resolve(iri, timeout_s)

    plain = write_web(CHAIN_DOCS, "plain")
    delayed = write_web(BLOCKING_CHAIN_DOCS, "delayed")
    for resolver, inline in ((Spy(plain), True), (Spy(delayed), False), (Undeclared(Spy(plain)), False)):
        threads.clear()
        run = execute(q(CHAIN_Q), Setup.BASE, resolver)
        assert run.answer_keys() == {binding_text({"x": I("a"), "y": I("b")})}
        assert len(threads) == run.metrics.http_lookups == 5
        if inline:
            assert set(threads) == {threading.get_ident()}
        else:
            assert threading.get_ident() not in threads


def test_deadline_bounds_wall_time_on_the_calling_thread():
    # n0 links to n1..n9, and each hop takes 40 ms: 400 ms for the whole web.
    docs = {f"{NS}n{i}": nt(*((iri(f"n{i}"), iri("p1"), iri(f"n{j}")) for j in range(i + 1, 10))) for i in range(10)}
    calls = []

    class Slow:
        is_local = True
        may_block = False

        def resolve(self, hop, timeout_s):
            calls.append(threading.get_ident())
            time.sleep(0.04)
            return RawResponse(200, body=docs[hop].encode())

    started = time.monotonic()
    run = execute(
        q(f"SELECT ?x WHERE {{ {iri('n0')} {iri('p1')} ?x . }}"),
        Setup.BASE,
        Slow(),
        config=FetchConfig(deadline_ms=100),
    )
    # At most one hop and one document's processing past the deadline.
    assert time.monotonic() - started < 0.3
    assert run.metrics.truncated is True
    assert set(calls) == {threading.get_ident()}
    statuses = [e.status for e in run.events]
    served = statuses.count(DerefStatus.OK)
    assert [e.iri for e in run.events] == [I(f"n{i}") for i in range(10)]
    assert 1 <= served == len(calls) < 10
    assert statuses == [DerefStatus.OK] * served + [DerefStatus.SKIPPED] * (10 - served)


def test_a_run_on_a_fake_clock_meets_its_deadline_exactly(write_web, monkeypatch):
    # n0 links to n1..n5, and each hop takes one fake second: the deadline at 2.5 s lets three roots in.
    manifest = write_web({f"{NS}n{i}": nt(*((iri(f"n{i}"), iri("p1"), iri(f"n{j}")) for j in range(i + 1, 6)))
                          for i in range(6)})
    clock = FakeClock()
    monkeypatch.setattr(engine, "RealClock", lambda: clock)

    class Slow:
        is_local = True
        may_block = False

        def __init__(self, inner):
            self._inner = inner

        def resolve(self, hop, timeout_s):
            clock.advance(1.0)
            return self._inner.resolve(hop, timeout_s)

    run = execute(
        q(f"SELECT ?x WHERE {{ {iri('n0')} {iri('p1')} ?x . }}"),
        Setup.BASE,
        Slow(FixtureResolver(manifest)),
        config=FetchConfig(deadline_ms=2500),
    )
    assert [(e.iri, e.status) for e in run.events] == [
        (I(f"n{i}"), DerefStatus.OK if i < 3 else DerefStatus.SKIPPED) for i in range(6)]
    assert run.metrics.truncated is True
    assert run.metrics.http_lookups == 3
    assert [e.t_s for e in run.events] == [1.0, 2.0, 3.0, 3.0, 3.0, 3.0]
    assert run.metrics.first_s == 1.0 and run.metrics.time_s == 3.0


def test_politeness_on_the_pool_serves_one_hop_per_host_at_a_time():
    # The seed links three documents on each of two hosts; four workers could take all six at once.
    delay = 0.03
    seed = "http://s.example/seed"
    links = [f"http://{host}.example/{k}" for host in ("a", "b") for k in range(3)]
    body = "".join(f"<{seed}> <{NS}p1> <{link}> .\n" for link in links).encode()
    hops = []

    class TwoHosts:
        is_local = False
        may_block = True

        def resolve(self, hop, timeout_s):
            start = time.monotonic()
            time.sleep(0.005)
            hops.append((urlsplit(hop).netloc, start, time.monotonic()))
            return RawResponse(200, body=body if hop == seed else b"")

    run = execute(q(f"SELECT ?x WHERE {{ <{seed}> {iri('p1')} ?x . }}"), Setup.BASE, TwoHosts(),
                  config=FetchConfig(max_parallel=4, politeness_delay_ms=int(delay * 1000)))
    assert run.metrics.http_lookups == len(hops) == 7 and not run.metrics.truncated
    # The manager stamps a host's hop just before the stub does, and a switch
    # of the interpreter lock (5 ms at most by default) may fall between the two.
    slack = 0.005
    for host in ("a.example", "b.example"):
        spans = sorted((start, end) for netloc, start, end in hops if netloc == host)
        assert len(spans) == 3
        for (start, end), (next_start, _) in zip(spans, spans[1:]):
            assert end <= next_start, "hops to one host never overlap"
            assert next_start - start >= delay - slack, "and start at least the delay apart"


def test_first_solution_timestamp_only_when_answers_exist(chain_web, seealso_web):
    with_answers = execute(q(CHAIN_Q), Setup.BASE, FixtureResolver(chain_web))
    assert with_answers.metrics.first_s is not None
    assert 0 <= with_answers.metrics.first_s <= with_answers.metrics.time_s
    without = execute(q(SEEALSO_Q), Setup.BASE, FixtureResolver(seealso_web))
    assert without.metrics.first_s is None


def test_retrieved_counts_every_parsed_triple_per_document(write_web):
    shared = nt((iri("s"), iri("p1"), iri("a")))
    manifest = write_web({NS + "s": shared + shared, NS + "a": shared})
    run = execute(q(f"SELECT ?x WHERE {{ {iri('s')} {iri('p1')} ?x . }}"), Setup.BASE, FixtureResolver(manifest))
    # duplicate lines inside one document parse to one triple each line
    assert run.metrics.retrieved_triples == 3


def test_results_equals_distinct_answers(write_web):
    manifest = write_web(
        {
            NS + "s": nt((iri("s"), iri("p1"), iri("a")), (iri("s"), iri("p1"), iri("a"))),
            NS + "a": nt((iri("a"), iri("p1"), iri("s"))),
        }
    )
    run = execute(q(f"SELECT ?x WHERE {{ {iri('s')} {iri('p1')} ?x . }}"), Setup.BASE, FixtureResolver(manifest))
    assert run.metrics.results == len(run.answers) == 1


def test_parallelism_does_not_change_countable_metrics(write_web):
    resolver = FixtureResolver(write_web(BLOCKING_CHAIN_DOCS))
    runs = [
        execute(
            q(CHAIN_Q),
            Setup.BASE,
            resolver,
            config=FetchConfig(max_parallel=par),
        )
        for par in (1, 2, 8, 8, 8)
    ]
    snap = {
        (r.answer_keys(), r.metrics.http_lookups, r.metrics.retrieved_triples, r.metrics.inferred_triples)
        for r in runs
    }
    assert len(snap) == 1


# -- runs that share a resolver, and its parsed-document cache ------------------


@pytest.fixture(scope="module")
def suite_web(tmp_path_factory):
    return generate_web(WebSpec(seed=5), tmp_path_factory.mktemp("suite-web") / "w")


def _suite_jobs(web):
    return [(planned.query, setup) for planned in web.queries for setup in Setup]


def _outcome(run):
    """Everything a run reports but its timings."""
    m = run.metrics
    return (
        run.answer_keys(),
        (m.results, m.http_lookups, m.retrieved_triples, m.inferred_triples),
        m.truncated,
        [(e.iri, e.reason, e.status, e.triples) for e in run.events],
        run.final,
    )


def _pooled_and_inline(web):
    """The web's resolver behind DELAY 0, whose hops go to the pool, and its own."""
    rows = [line.split("\t", 1) for line in web.manifest_path.read_text(encoding="utf-8").splitlines()]
    assert not any(directive.startswith("REDIRECT") for _, directive in rows)
    path = web.out_dir / "manifest-delay0.tsv"
    path.write_text("".join(f"{iri}\tDELAY 0 THEN {directive}\n" for iri, directive in rows), encoding="utf-8")
    pooled, inline = FixtureResolver(path), FixtureResolver(web.manifest_path)
    assert pooled.may_block and not inline.may_block
    return pooled, inline


def test_pooled_events_come_in_the_order_the_hops_completed(suite_web):
    # One worker completes the hops in the order they were requested, which
    # is the order the calling thread serves them in; with no REDIRECT in the
    # web, each root is one hop, so the two ways list the same events.
    pooled, inline = _pooled_and_inline(suite_web)
    for query, setup in _suite_jobs(suite_web):
        events = [
            [(e.iri, e.reason, e.status) for e in execute(query, setup, resolver, config=FetchConfig(max_parallel=1)).events]
            for resolver in (pooled, inline)
        ]
        assert events[0] == events[1], (query, setup)


def test_pooled_events_under_a_lookup_budget_come_in_root_order(suite_web):
    # A root the budget skips is taken while the roots before it are still
    # out on the pool; its event still comes after theirs, as on the calling thread.
    pooled, inline = _pooled_and_inline(suite_web)
    config = FetchConfig(max_parallel=1, max_lookups=6)
    skipped = 0
    for query, setup in _suite_jobs(suite_web):
        runs = [execute(query, setup, resolver, config=config) for resolver in (pooled, inline)]
        events = [[(e.iri, e.reason, e.status) for e in run.events] for run in runs]
        assert events[0] == events[1], (query, setup)
        skipped += any(e.status == DerefStatus.SKIPPED for e in runs[0].events)
    assert skipped


def _cold_outcome(query, setup, web):
    fetch.forget_parses()
    return _outcome(execute(query, setup, FixtureResolver(web.manifest_path)))


def test_warm_runs_on_one_resolver_equal_cold_runs(suite_web, monkeypatch):
    jobs = _suite_jobs(suite_web)
    cold = [_cold_outcome(query, setup, suite_web) for query, setup in jobs]
    fetch.forget_parses()
    shared = FixtureResolver(suite_web.manifest_path)
    first = [_outcome(execute(query, setup, shared)) for query, setup in jobs]
    monkeypatch.setattr(rdf, "parse_ntriples", None)  # the whole web fits in the cache: nothing is parsed again
    warm = [_outcome(execute(query, setup, shared)) for query, setup in jobs]
    assert first == cold
    assert warm == cold


def test_runs_on_one_resolver_in_threads_at_once_equal_serial_runs(suite_web):
    jobs = _suite_jobs(suite_web)
    serial = [_cold_outcome(query, setup, suite_web) for query, setup in jobs]
    fetch.forget_parses()  # the threads race to fill the cache
    shared = FixtureResolver(suite_web.manifest_path)
    forwards = list(range(len(jobs)))
    orders = [forwards, forwards[::-1], random.Random(5).sample(forwards, len(jobs))]
    start = threading.Barrier(len(orders))

    def run_all(order):
        start.wait()
        return {k: _outcome(execute(*jobs[k], shared)) for k in order}

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(orders)) as pool:
            outcomes = [run.result(timeout=120) for run in [pool.submit(run_all, order) for order in orders]]
    finally:
        sys.setswitchinterval(switch)
    for got in outcomes:
        assert [got[k] for k in range(len(jobs))] == serial
    cache = fetch._PARSED
    assert cache.size == sum(len(body) for body, _ in cache.docs) <= fetch.PARSED_BUDGET


# -- order independence under shuffled fetch completion ---------------------


class Webs(list):
    """Webs shown by name.  Hypothesis prints a failing example's arguments;
    the webs' own repr is over 100 kB, past the size at which Hypothesis
    warns, and the pytest settings turn that warning into an error."""

    def __repr__(self):
        return f"Webs({[web.out_dir.name for web in self]})"


@pytest.fixture(scope="module")
def small_webs(tmp_path_factory):
    root = tmp_path_factory.mktemp("order-webs")
    return Webs(
        generate_web(
            WebSpec(seed=seed, n_entities=6, n_hub_entities=2, n_alias_entities=2, family_depth=1, alias_style=style),
            root / f"w{seed}",
        )
        for seed, style in ((3, "suffix"), (4, "prefixmin"))
    )


def _delayed(web, seed: int) -> FixtureResolver:
    """The web's resolver with a seeded 0-3 ms DELAY before every response."""
    rng = random.Random(seed)
    lines = [
        f"{iri}\tDELAY {rng.randrange(4)} THEN {directive}"
        for iri, directive in (
            line.split("\t", 1) for line in web.manifest_path.read_text().splitlines() if line.strip()
        )
    ]
    path = web.out_dir / f"manifest-delay{seed}.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return FixtureResolver(path)


def lazy_pool(data):
    """Doubles for ``engine.ThreadPoolExecutor`` and ``engine.wait``.

    A submitted hop runs on the calling thread only when ``wait`` completes
    it, one hop per call, picked among those out by ``data.draw``; ``wait``
    then takes the hop off the queue of completed hops.
    """
    out = []

    class Pool:
        def __init__(self, max_workers):
            pass

        def submit(self, fn, *args):
            fut = Future()
            out.append((fut, fn, args))
            return fut

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    def wait(done, timeout):
        fut, fn, args = out.pop(data.draw(st.integers(0, len(out) - 1)))
        fut.set_result(fn(*args))
        return done.get_nowait()

    return Pool, wait


def _closing_pass_keys(run) -> frozenset[str]:
    """Answers of a fresh evaluator fed the final store."""
    evaluator = IncrementalEvaluator([canonical_pattern(p, run.equiv) for p in run.query.patterns])
    solutions = evaluator.add(run.final.triples).solutions
    return frozenset(binding_text({v: sol[v] for v in run.query.projected}) for sol in solutions)


@settings(max_examples=30)
@given(
    pick=st.integers(0, 10**6),
    setup=st.sampled_from([Setup.SAMEAS, Setup.COMBINED]),
    orders=st.lists(st.integers(0, 2**16), min_size=2, max_size=2, unique=True),
    data=st.data(),
)
def test_answers_do_not_depend_on_fetch_completion_order(small_webs, pick, setup, orders, data):
    web = small_webs[pick % len(small_webs)]
    planned = web.queries[pick // len(small_webs) % len(web.queries)]
    # Two pooled runs, their hops finishing in seeded orders, one on the
    # calling thread, whose web has no DELAY, and one on a stand-in pool whose
    # hops finish in an order Hypothesis draws.
    pooled = [_delayed(web, seed) for seed in orders]
    inline = FixtureResolver(web.manifest_path)
    assert [r.may_block for r in pooled] == [True, True] and not inline.may_block
    runs = [execute(planned.query, setup, r) for r in (*pooled, inline)]
    with pytest.MonkeyPatch.context() as mp:
        pool, wait = lazy_pool(data)
        mp.setattr(engine, "ThreadPoolExecutor", pool)
        mp.setattr(engine, "wait", wait)
        runs.append(execute(planned.query, setup, Undeclared(inline)))
    for run in runs:
        assert run.answer_keys() == _closing_pass_keys(run)
    assert len({r.answer_keys() for r in runs}) == 1
    counts = {
        (r.metrics.results, r.metrics.http_lookups, r.metrics.retrieved_triples, r.metrics.inferred_triples)
        for r in runs
    }
    assert len(counts) == 1


@pytest.fixture(scope="module")
def frontier_webs(tmp_path_factory):
    root = tmp_path_factory.mktemp("frontier-webs")
    return [
        generate_web(WebSpec(seed=seed, alias_style=style), root / f"{style}{seed}")
        for seed, style in ((1, "suffix"), (2, "prefixmin"))
    ]


def test_speculative_frontier_is_the_iris_of_matching_triples(frontier_webs, monkeypatch):
    replans = []

    class Counting(IncrementalEvaluator):
        def replan(self, patterns, triples):
            replans.append(1)
            return super().replan(patterns, triples)

    monkeypatch.setattr(engine, "IncrementalEvaluator", Counting)
    for web in frontier_webs:
        resolver = FixtureResolver(web.manifest_path)
        for planned in web.queries:
            for setup in (Setup.BASE, Setup.SEEALSO, Setup.SAMEAS):
                run = execute(planned.query, setup, resolver)
                requested = {e.iri for e in run.events}
                raw = frozenset().union(*(web.doc_triples[i.value] for i in run.retrieved_iris()))
                pats = [canonical_pattern(p, run.equiv) for p in run.query.patterns]
                frontier = set()
                for t in raw:
                    ct = canonical_triple(t, run.equiv)
                    if any(unify_triple(p, ct) is not None for p in pats):
                        frontier |= {x for x in (t.subject, t.object) if isinstance(x, Iri)}
                assert frontier <= requested, (planned.query_id, setup)
                assert {e.iri for e in run.events if e.reason == "match"} <= frontier, (planned.query_id, setup)
    assert replans  # a query constant moved mid-run, so the replan rescan ran
