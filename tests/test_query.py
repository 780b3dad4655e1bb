import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from linkquery.query import (
    BgpQuery,
    DisconnectedQueryError,
    QueryClass,
    QuerySyntaxError,
    TriplePattern,
    UnseedableQueryError,
    Variable,
    binding_text,
    classify,
    parse_query,
    seed_iris,
    type_class_constants,
    validate_query,
)
from linkquery.fixturegen import WebSpec, generate_web
from linkquery.rdf import RDF_TYPE, Iri, Literal

E = Iri("http://x.example/e")
E2 = Iri("http://x.example/e2")
E3 = Iri("http://x.example/e3")
P1 = Iri("http://x.example/p1")
P2 = Iri("http://x.example/p2")
P3 = Iri("http://x.example/p3")
X, Y, Z, W = Variable("x"), Variable("y"), Variable("z"), Variable("w")


def q(*patterns, projected=None):
    vars_ = sorted({v for p in patterns for v in p.variables()})
    return BgpQuery("q", tuple(projected or vars_), tuple(patterns))


# -- parsing ---------------------------------------------------------------


def test_parse_round_trip_simple():
    query = parse_query("SELECT ?o WHERE { <http://x.example/e> <http://x.example/p1> ?o . }")
    assert query.projected == ("o",)
    assert query.patterns == (TriplePattern(E, P1, Variable("o")),)


def test_parse_multi_pattern_and_case_and_comments():
    text = """
    select ?s ?o where {   # projection
      ?s <http://x.example/p1> ?o .
      # joins on ?o
      ?o <http://x.example/p2> <http://x.example/e> .
    }
    """
    query = parse_query(text)
    assert len(query.patterns) == 2
    assert set(query.projected) == {"s", "o"}


def test_parse_literal_object():
    query = parse_query('SELECT ?s WHERE { ?s <http://x.example/p1> "val"@en . }')
    assert query.patterns[0].object == Literal("val", language="en")


@pytest.mark.parametrize(
    "bad",
    [
        "WHERE { ?s <http://x/p> ?o . }",
        "SELECT ?s { ?s <http://x/p> ?o . }",
        "SELECT ?s WHERE { ?s <http://x/p> ?o . ",
        "SELECT ?s WHERE { ?s <http://x/p> ?o . } trailing",
        "SELECT WHERE { ?s <http://x/p> ?o . }",
        "SELECT ?s WHERE { }",
        'SELECT ?s WHERE { "lit" <http://x/p> ?o . }',
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(QuerySyntaxError):
        parse_query(bad)


def test_parse_rejects_constant_free_query():
    with pytest.raises(UnseedableQueryError):
        parse_query("SELECT ?s WHERE { ?s ?p ?o . }")


def test_parse_rejects_unknown_projection():
    with pytest.raises(QuerySyntaxError):
        parse_query("SELECT ?nope WHERE { ?s <http://x/p> ?o . }")


# -- validation -------------------------------------------------------------


def test_validate_requires_a_constant_somewhere():
    with pytest.raises(UnseedableQueryError):
        validate_query(q(TriplePattern(X, Y, Z)))


def test_validate_rejects_disconnected_patterns():
    with pytest.raises(DisconnectedQueryError):
        validate_query(q(TriplePattern(X, P1, E), TriplePattern(Y, P2, E2)))


def test_shared_constant_counts_as_connection():
    validate_query(q(TriplePattern(X, P1, E), TriplePattern(Y, P2, E)))


def test_seed_iris_splits_positions_and_dedupes():
    query = q(TriplePattern(E, P1, E2), TriplePattern(E2, P1, X))
    seeds = seed_iris(query)
    assert seeds.entities == (E, E2)
    assert seeds.predicates == (P1,)


def test_type_class_constants():
    query = q(TriplePattern(X, RDF_TYPE, E), TriplePattern(X, P1, E2))
    assert type_class_constants(query) == [E]


# -- classification ---------------------------------------------------------

CASES = [
    (QueryClass.ENTITY_S, [TriplePattern(E, P1, X)]),
    (QueryClass.ENTITY_S, [TriplePattern(E, X, Y)]),
    (QueryClass.ENTITY_O, [TriplePattern(X, P1, E)]),
    (QueryClass.ENTITY_O, [TriplePattern(X, Y, E)]),
    (QueryClass.ENTITY_SO, [TriplePattern(E, P1, X), TriplePattern(Y, P2, E)]),
    (QueryClass.S_PATH_2, [TriplePattern(E, P1, X), TriplePattern(X, P2, Y)]),
    (QueryClass.O_PATH_2, [TriplePattern(X, P2, E), TriplePattern(Y, P1, X)]),
    (
        QueryClass.S_PATH_3,
        [TriplePattern(E, P1, X), TriplePattern(X, P2, Y), TriplePattern(Y, P3, Z)],
    ),
    (
        QueryClass.O_PATH_3,
        [TriplePattern(X, P3, E), TriplePattern(Y, P2, X), TriplePattern(Z, P1, Y)],
    ),
    (
        QueryClass.STAR_S3,
        [TriplePattern(X, P1, E), TriplePattern(X, P2, E2), TriplePattern(X, P3, E3)],
    ),
    (
        QueryClass.STAR_S2_O1,
        [TriplePattern(X, P1, E), TriplePattern(X, P2, E2), TriplePattern(E3, P3, X)],
    ),
    (QueryClass.STAR_S1_O1, [TriplePattern(X, P1, E), TriplePattern(E2, P2, X)]),
    (
        QueryClass.STAR_S1_O2,
        [TriplePattern(X, P1, E), TriplePattern(E2, P2, X), TriplePattern(E3, P3, X)],
    ),
    (
        QueryClass.STAR_O3,
        [TriplePattern(E, P1, X), TriplePattern(E2, P2, X), TriplePattern(E3, P3, X)],
    ),
    # a two-cycle through the entity joins on the variable: a star, not entity-so
    (QueryClass.STAR_S1_O1, [TriplePattern(E, P1, X), TriplePattern(X, P2, E)]),
    # variable predicate disqualifies chains and stars
    (QueryClass.OTHER, [TriplePattern(E, X, Y), TriplePattern(Y, P2, Z)]),
    (QueryClass.OTHER, [TriplePattern(X, Y, E), TriplePattern(E2, P2, X)]),
    # mid-chain constant breaks the chain shape
    (QueryClass.OTHER, [TriplePattern(E, P1, X), TriplePattern(X, P2, E2), TriplePattern(E2, P3, Y)]),
    # four-pattern star is out of catalogue
    (
        QueryClass.OTHER,
        [
            TriplePattern(X, P1, E),
            TriplePattern(X, P2, E2),
            TriplePattern(X, P3, E3),
            TriplePattern(X, Iri("http://x.example/p4"), Iri("http://x.example/e4")),
        ],
    ),
]


@pytest.mark.parametrize("expected,patterns", CASES, ids=lambda v: getattr(v, "value", None))
def test_classify_catalogue(expected, patterns):
    query = q(*patterns)
    validate_query(query)
    assert classify(query) == expected


@pytest.mark.parametrize("expected,patterns", CASES, ids=lambda v: getattr(v, "value", None))
def test_classify_is_order_insensitive(expected, patterns):
    for shift in range(len(patterns)):
        rotated = patterns[shift:] + patterns[:shift]
        assert classify(q(*rotated)) == expected


def test_single_pattern_with_shared_variable_is_other():
    assert classify(q(TriplePattern(E, X, X))) == QueryClass.OTHER


# -- hypothesis: totality and connectivity oracle ----------------------------

_terms = st.sampled_from([E, E2, E3, P1, X, Y, Z, W])
_preds = st.sampled_from([P1, P2, P3, X, Y, Z, W])
_patterns = st.builds(
    TriplePattern,
    st.sampled_from([E, E2, X, Y, Z, W]),
    _preds,
    _terms,
)


def _connected_by_bfs(patterns):
    def keys(p):
        return {("v", t.name) if isinstance(t, Variable) else ("c", t) for t in p.terms()}

    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j in range(len(patterns)):
                if j not in seen and keys(patterns[i]) & keys(patterns[j]):
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    return len(seen) == len(patterns)


@given(st.lists(_patterns, min_size=1, max_size=4))
def test_validate_connectivity_matches_bfs_oracle(patterns):
    query = q(*patterns)
    assume(query.variables())  # projection must be non-empty
    has_const = any(
        not isinstance(t, Variable) for p in patterns for t in p.terms()
    )
    try:
        validate_query(query)
        ok = True
    except DisconnectedQueryError:
        ok = False
    except UnseedableQueryError:
        assume(False)
        return
    assert has_const
    assert ok == _connected_by_bfs(patterns)


@given(st.lists(_patterns, min_size=1, max_size=4))
def test_classify_total_on_valid_queries(patterns):
    query = q(*patterns)
    assume(query.variables())
    try:
        validate_query(query)
    except Exception:
        assume(False)
    assert isinstance(classify(query), QueryClass)


def test_binding_text_sorts_variables():
    text = binding_text({"b": E, "a": Literal("1")})
    assert text == '?a="1"\t?b=<http://x.example/e>'


def test_every_prefix_of_a_suite_query_is_a_syntax_error(tmp_path):
    """Text that ends early, within a term or after a comment, is a QuerySyntaxError."""
    web = generate_web(WebSpec(seed=3), tmp_path / "w3")
    texts = [line.split("\t", 2)[2] for line in web.suite_path.read_text(encoding="utf-8").splitlines()]
    assert texts
    for text in texts:
        for full in (text, text.replace(" ", " # c\n")):
            parse_query(full)
            for k in range(len(full)):
                with pytest.raises(QuerySyntaxError):
                    parse_query(full[:k])
