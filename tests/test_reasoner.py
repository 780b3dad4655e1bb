import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linkquery.fixturegen import naive_rho_closure, sameas_components
from linkquery.rdf import (
    OWL_SAMEAS,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
    Iri,
    Literal,
    Triple,
)
from linkquery.reasoner import (
    RHO_VOCABULARY,
    EquivalenceClasses,
    ReasoningStore,
    _RhoChainer,
    canonical_triple,
    rho_df_closure,
)

NS = "http://r.example/"
C = [Iri(NS + f"c{i}") for i in range(5)]
P = [Iri(NS + f"p{i}") for i in range(5)]
X = [Iri(NS + f"x{i}") for i in range(5)]


# -- the six rules, one by one ---------------------------------------------


def test_subclass_transitivity():
    data = {Triple(C[0], RDFS_SUBCLASSOF, C[1]), Triple(C[1], RDFS_SUBCLASSOF, C[2])}
    assert Triple(C[0], RDFS_SUBCLASSOF, C[2]) in rho_df_closure(data)


def test_subproperty_transitivity():
    data = {Triple(P[0], RDFS_SUBPROPERTYOF, P[1]), Triple(P[1], RDFS_SUBPROPERTYOF, P[2])}
    assert Triple(P[0], RDFS_SUBPROPERTYOF, P[2]) in rho_df_closure(data)


def test_type_propagation_along_subclass():
    data = {Triple(X[0], RDF_TYPE, C[0]), Triple(C[0], RDFS_SUBCLASSOF, C[1])}
    assert Triple(X[0], RDF_TYPE, C[1]) in rho_df_closure(data)


def test_triple_rewrite_along_subproperty():
    data = {Triple(X[0], P[0], X[1]), Triple(P[0], RDFS_SUBPROPERTYOF, P[1])}
    assert Triple(X[0], P[1], X[1]) in rho_df_closure(data)


def test_domain_rule():
    data = {Triple(X[0], P[0], X[1]), Triple(P[0], RDFS_DOMAIN, C[0])}
    assert Triple(X[0], RDF_TYPE, C[0]) in rho_df_closure(data)


def test_range_rule_skips_literal_objects():
    data = {
        Triple(X[0], P[0], X[1]),
        Triple(X[0], P[0], Literal("five")),
        Triple(P[0], RDFS_RANGE, C[0]),
    }
    out = rho_df_closure(data)
    assert Triple(X[1], RDF_TYPE, C[0]) in out
    assert all(not isinstance(t.subject, Literal) for t in out)


def test_non_iri_predicate_conclusions_are_dropped():
    # subPropertyOf with a literal super-property cannot produce triples
    data = {Triple(X[0], P[0], X[1]), Triple(P[0], RDFS_SUBPROPERTYOF, Literal("junk"))}
    assert rho_df_closure(data) == set()


def test_schema_triples_are_also_plain_data():
    # the rewrite rule applies to schema predicates like any other
    data = {
        Triple(C[0], RDFS_SUBCLASSOF, C[1]),
        Triple(RDFS_SUBCLASSOF, RDFS_SUBPROPERTYOF, P[0]),
    }
    assert Triple(C[0], P[0], C[1]) in rho_df_closure(data)


# -- random instances against the naive fixpoint oracle ---------------------


def _random_instance(rng: random.Random) -> set[Triple]:
    triples: set[Triple] = set()
    for _ in range(rng.randrange(8, 26)):
        kind = rng.randrange(6)
        if kind == 0:
            triples.add(Triple(rng.choice(C), RDFS_SUBCLASSOF, rng.choice(C)))
        elif kind == 1:
            triples.add(Triple(rng.choice(P), RDFS_SUBPROPERTYOF, rng.choice(P)))
        elif kind == 2:
            triples.add(Triple(rng.choice(X), RDF_TYPE, rng.choice(C)))
        elif kind == 3:
            triples.add(Triple(rng.choice(P), rng.choice([RDFS_DOMAIN, RDFS_RANGE]), rng.choice(C)))
        elif kind == 4:
            obj = rng.choice(X + [Literal("v"), Literal("w")])
            triples.add(Triple(rng.choice(X), rng.choice(P), obj))
        else:  # schema used as data / odd but legal combinations
            triples.add(Triple(rng.choice(P), rng.choice(P), rng.choice(C + P)))
    return triples


def test_closure_matches_naive_fixpoint_on_100_random_instances():
    rng = random.Random(20260819)
    for n in range(100):
        data = _random_instance(rng)
        assert rho_df_closure(data) == naive_rho_closure(data), f"instance {n}"


def test_closure_is_idempotent_and_monotone():
    rng = random.Random(7)
    for _ in range(30):
        data = _random_instance(rng)
        closed = rho_df_closure(data)
        assert rho_df_closure(data | closed) == set()
        subset = {t for t in data if rng.random() < 0.5}
        small = subset | rho_df_closure(subset)
        big = data | closed
        assert small <= big


def test_incremental_chaining_equals_batch_closure():
    rng = random.Random(99)
    for _ in range(20):
        data = sorted(_random_instance(rng), key=repr)
        rng.shuffle(data)
        store = ReasoningStore(use_rhodf=True)
        cut = rng.randrange(len(data) + 1)
        store.ingest(data[:cut])
        store.ingest(data[cut:])
        final = store.finalize()
        assert set(final.inferred) == naive_rho_closure(data)


_SOME_C, _SOME_P, _SOME_X = (st.sampled_from(terms[:3]) for terms in (C, P, X))
_RHO_TRIPLES = st.one_of(
    st.builds(Triple, _SOME_C, st.just(RDFS_SUBCLASSOF), _SOME_C),
    st.builds(Triple, _SOME_P, st.just(RDFS_SUBPROPERTYOF), st.one_of(_SOME_P, st.just(Literal("junk")))),
    st.builds(Triple, _SOME_X, st.just(RDF_TYPE), _SOME_C),
    st.builds(Triple, _SOME_P, st.sampled_from([RDFS_DOMAIN, RDFS_RANGE]), _SOME_C),
    st.builds(Triple, _SOME_X, _SOME_P, st.one_of(_SOME_X, st.just(Literal("v")))),
    # Schema as data: vocabulary in subject position, or a schema predicate
    # that a subproperty axiom rewrites.
    st.builds(Triple, st.one_of(_SOME_P, st.sampled_from([RDFS_SUBCLASSOF, RDF_TYPE])),
              st.one_of(_SOME_P, st.sampled_from(sorted(RHO_VOCABULARY))), st.one_of(_SOME_C, _SOME_P)),
)


@given(st.lists(_RHO_TRIPLES, max_size=30), st.lists(st.integers(0, 30), max_size=6))
def test_chainer_fed_in_batches_reaches_the_fixpoint(data, cuts):
    # Batches cut anywhere put schema facts before, inside and after the
    # data they govern, so facts on a predicate are admitted both before
    # and after the axioms on it.
    chainer = _RhoChainer()
    inferred = []
    bounds = [0, *sorted(cuts), len(data)]
    for lo, hi in zip(bounds, bounds[1:]):
        inferred += chainer.add(data[lo:hi])
    assert chainer.facts == set(data) | naive_rho_closure(data)
    assert len(inferred) == len(set(inferred)) == sum(chainer.rule_counts.values())


@pytest.mark.parametrize(
    "axiom, conclusion",
    [
        (Triple(P[0], RDFS_SUBPROPERTYOF, P[1]), Triple(X[0], P[1], X[1])),
        (Triple(P[0], RDFS_DOMAIN, C[0]), Triple(X[0], RDF_TYPE, C[0])),
        (Triple(P[0], RDFS_RANGE, C[0]), Triple(X[1], RDF_TYPE, C[0])),
    ],
    ids=["subproperty", "domain", "range"],
)
def test_an_axiom_in_a_later_ingest_reaches_earlier_data(axiom, conclusion):
    # The data comes first, when nothing is said of its predicate: it fires
    # no rule, and the axiom must find it by its predicate.
    store = ReasoningStore(use_rhodf=True)
    assert store.ingest([Triple(X[0], P[0], X[1]), Triple(X[2], P[2], X[3])]) == [
        Triple(X[0], P[0], X[1]), Triple(X[2], P[2], X[3])]
    assert store.ingest([axiom]) == [axiom, conclusion]
    assert store.finalize().inferred == {conclusion}
    assert sum(store.rule_counts().values()) == 1


# -- equivalence classes ------------------------------------------------------


def test_merge_picks_lexicographically_least_representative():
    eq = EquivalenceClasses()
    eq.merge(X[3], X[1])
    eq.merge(X[1], X[2])
    for i in (1, 2, 3):
        assert eq.rep(X[i]) == X[1]
    assert eq.members(X[2]) == frozenset({X[1], X[2], X[3]})
    assert eq.rep(X[0]) == X[0]
    assert eq.members(X[0]) == frozenset({X[0]})


def test_merge_returns_members_whose_representative_moved():
    eq = EquivalenceClasses()
    assert eq.merge(X[2], X[3]) == frozenset({X[3]})
    assert eq.merge(X[2], X[3]) == frozenset()
    # X1 wins over the existing {X2, X3} class: both move
    assert eq.merge(X[3], X[1]) == frozenset({X[2], X[3]})


def test_version_counts_only_effective_merges():
    eq = EquivalenceClasses()
    assert eq.version == 0
    eq.merge(X[0], X[1])
    assert eq.version == 1
    eq.merge(X[1], X[0])
    assert eq.version == 1


def test_rep_is_idempotent_and_order_insensitive_on_100_random_graphs():
    rng = random.Random(4242)
    nodes = [Iri(NS + f"n{i}") for i in range(12)]
    for _ in range(100):
        pairs = [
            (rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randrange(1, 15))
        ]
        oracle = sameas_components(pairs)
        reps = []
        for _ in range(3):
            order = pairs[:]
            rng.shuffle(order)
            eq = EquivalenceClasses()
            for a, b in order:
                eq.merge(a, b)
            for n in nodes:
                assert eq.rep(eq.rep(n)) == eq.rep(n)
            reps.append({n: eq.rep(n) for n in nodes})
        assert reps[0] == reps[1] == reps[2]
        for n in nodes:
            assert reps[0][n] == oracle.get(n, n)


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=20))
def test_equivalence_classes_partition_property(pairs):
    nodes = [Iri(NS + f"m{i}") for i in range(10)]
    eq = EquivalenceClasses()
    for a, b in pairs:
        eq.merge(nodes[a], nodes[b])
    seen: set[Iri] = set()
    for cls in eq.classes():
        assert not (cls & seen), "classes must be disjoint"
        seen |= cls
        assert len({eq.rep(m) for m in cls}) == 1
        assert min(cls, key=lambda i: i.value) == eq.rep(next(iter(cls)))


# -- the canonicalizing store --------------------------------------------------


def test_store_canonicalizes_view_and_counts_rewrites():
    store = ReasoningStore(use_sameas=True)
    a, b = X[0], X[1]
    store.ingest([Triple(b, P[0], X[2])])
    store.ingest([Triple(a, OWL_SAMEAS, b)])  # a < b so b's facts move to a
    final = store.finalize()
    assert Triple(a, P[0], X[2]) in final.data
    assert all(t.subject != b for t in final.data)
    # raw had 2 distinct triples; the canonical store adds the rewritten one
    assert final.inferred_count == len((final.data | final.inferred) - {
        Triple(b, P[0], X[2]),
        Triple(a, OWL_SAMEAS, b),
    })
    assert final.inferred_count >= 1


@pytest.mark.parametrize("use_rhodf", [False, True])
def test_late_merge_rekeys_the_view(use_rhodf):
    store = ReasoningStore(use_sameas=True, use_rhodf=use_rhodf)
    old, new = X[1], X[0]  # X0 sorts first, so the merge retires X1
    store.ingest([Triple(old, P[0], X[2]), Triple(P[0], RDFS_DOMAIN, C[0])])
    delta = store.ingest([Triple(new, OWL_SAMEAS, old)])
    assert delta.retired == [old]
    assert Triple(old, P[0], X[2]) in delta.retracted
    assert Triple(new, P[0], X[2]) in delta
    view = store.finalize().triples
    assert Triple(new, P[0], X[2]) in view
    assert all(old not in t.terms() for t in view)
    if use_rhodf:
        assert Triple(old, RDF_TYPE, C[0]) in delta.retracted
        assert Triple(new, RDF_TYPE, C[0]) in delta
        assert Triple(new, RDF_TYPE, C[0]) in store.finalize().inferred


# Aliases sorting before and after the rule vocabulary, so merges with them
# move a vocabulary term or keep it as the representative.
ALIASES = [Iri("http://a.example/v"), Iri("http://zz.example/v")]
VOCAB = sorted(RHO_VOCABULARY, key=lambda i: i.value)


def _batch_view(
    raw: set[Triple], use_sameas: bool, use_rhodf: bool
) -> tuple[frozenset[Triple], frozenset[Triple], int]:
    """Data, inferred and Inferred count recomputed from scratch."""
    rep = sameas_components(
        (t.subject, t.object)
        for t in raw
        if use_sameas and t.predicate == OWL_SAMEAS and isinstance(t.subject, Iri) and isinstance(t.object, Iri)
    )

    def canon(term):
        return rep.get(term, term) if isinstance(term, Iri) else term

    data = frozenset(Triple(canon(t.subject), canon(t.predicate), canon(t.object)) for t in raw)
    inferred = frozenset(naive_rho_closure(data) if use_rhodf else ())
    return data, inferred, len((data | inferred) - raw)


# Every (use_sameas, use_rhodf) pair; the ids of both features together are
# the bare seeds.
_FEATURES = {"plain": (False, False), "rhodf": (False, True), "sameas": (True, False), "": (True, True)}


@pytest.mark.parametrize(
    "seed, use_sameas, use_rhodf",
    [
        pytest.param(seed, *flags, id=f"{name}-{seed}" if name else str(seed))
        for name, flags in _FEATURES.items()
        for seed in range(40)
    ],
)
def test_store_view_is_exact_after_every_ingest(seed, use_sameas, use_rhodf):
    rng = random.Random(seed)
    nodes = X + C + P + ALIASES + (VOCAB if seed % 4 == 0 else [])
    data = sorted(_random_instance(rng), key=repr)
    data += [Triple(rng.choice(nodes), OWL_SAMEAS, rng.choice(nodes)) for _ in range(rng.randrange(2, 8))]
    if seed % 4 == 0:
        data.append(Triple(X[0], rng.choice(ALIASES), C[0]))
    rng.shuffle(data)
    store = ReasoningStore(use_sameas=use_sameas, use_rhodf=use_rhodf)
    raw: set[Triple] = set()
    listed: Counter[Triple] = Counter()  # how many deltas list a form, less its retractions
    while data:
        cut = rng.randrange(1, 5)
        batch, data = data[:cut], data[cut:]
        delta = store.ingest(batch)
        assert delta.forms == [canonical_triple(t, store.equiv) for t in delta.rekeyed + delta.fresh]
        listed.subtract(delta.retracted)
        listed.update(delta)
        raw |= set(batch)
        final = store.finalize()
        assert (final.data, final.inferred, final.inferred_count) == _batch_view(raw, use_sameas, use_rhodf)
        assert set(store.view()) == final.triples
        assert {t: n for t, n in listed.items() if n} == dict.fromkeys(final.triples, 1)


def test_finalize_keeps_inferred_disjoint_from_data():
    for use_sameas in (False, True):
        store = ReasoningStore(use_sameas=use_sameas, use_rhodf=True)
        store.ingest(
            [
                Triple(X[0], RDF_TYPE, C[0]),
                Triple(C[0], RDFS_SUBCLASSOF, C[1]),
                Triple(X[0], RDF_TYPE, C[1]),  # already stated: must not be re-counted
            ]
        )
        final = store.finalize()
        assert final.data & final.inferred == frozenset()
        assert Triple(X[0], RDF_TYPE, C[1]) in final.data
        assert final.inferred_count == 0
        # Inferred first and stated later: it moves from inferred to data
        # without being listed again.
        assert store.ingest([Triple(X[1], RDF_TYPE, C[0])]) == [Triple(X[1], RDF_TYPE, C[0]), Triple(X[1], RDF_TYPE, C[1])]
        assert store.finalize().inferred_count == 1
        assert store.ingest([Triple(X[1], RDF_TYPE, C[1])]) == []
        final = store.finalize()
        assert final.data & final.inferred == frozenset()
        assert Triple(X[1], RDF_TYPE, C[1]) in final.data
        assert final.inferred_count == 0


def test_store_without_features_passes_data_through():
    store = ReasoningStore()
    data = [Triple(X[0], P[0], X[1]), Triple(X[0], OWL_SAMEAS, X[1])]
    store.ingest(data)
    final = store.finalize()
    assert final.data == frozenset(data)
    assert final.inferred == frozenset()
    assert final.inferred_count == 0
