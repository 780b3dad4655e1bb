import json

import pytest

from linkquery.bench import load_suite
from linkquery.engine import Setup, execute
from linkquery.fetch import FixtureResolver
from linkquery.fixturegen import (
    SETUP_NAMES,
    FixtureInvariantError,
    GeneratedWeb,
    WebSpec,
    generate_web,
    load_fixture_documents,
    load_ground_truth,
    naive_join,
    naive_rho_closure,
    one_line_query,
    oracle_eval,
    sameas_components,
)
from linkquery.query import TriplePattern, Variable, classify, parse_query
from linkquery.rdf import RDF_TYPE, RDFS_SUBCLASSOF, Iri, Triple


def iri(s: str) -> Iri:
    return Iri("http://x.example/" + s)


# -- oracles ---------------------------------------------------------------------


def test_sameas_components_spanning_chain():
    rep = sameas_components([(iri("b"), iri("c")), (iri("a"), iri("b"))])
    assert rep == {iri("a"): iri("a"), iri("b"): iri("a"), iri("c"): iri("a")}


def test_naive_rho_closure_subclass_then_type():
    got = naive_rho_closure(
        {
            Triple(iri("c1"), RDFS_SUBCLASSOF, iri("c2")),
            Triple(iri("c2"), RDFS_SUBCLASSOF, iri("c3")),
            Triple(iri("e"), RDF_TYPE, iri("c1")),
        }
    )
    assert Triple(iri("c1"), RDFS_SUBCLASSOF, iri("c3")) in got
    assert Triple(iri("e"), RDF_TYPE, iri("c2")) in got
    assert Triple(iri("e"), RDF_TYPE, iri("c3")) in got


def test_naive_join_over_a_ring():
    p = iri("p")
    ring = {Triple(iri("a"), p, iri("b")), Triple(iri("b"), p, iri("c")), Triple(iri("c"), p, iri("a"))}
    sols = naive_join(
        [TriplePattern(Variable("x"), p, Variable("y")), TriplePattern(Variable("y"), p, Variable("z"))],
        ring,
    )
    assert len(sols) == 3
    assert {(s["x"], s["z"]) for s in sols} == {(iri("a"), iri("c")), (iri("b"), iri("a")), (iri("c"), iri("b"))}


def test_naive_join_with_no_patterns_is_single_empty_solution():
    assert naive_join([], set()) == [{}]


def test_oracle_eval_sameas_merges_constants():
    data = {
        Triple(iri("a"), Iri("http://www.w3.org/2002/07/owl#sameAs"), iri("b")),
        Triple(iri("b"), iri("p"), iri("c")),
    }
    q = parse_query("SELECT ?o WHERE { <http://x.example/a> <http://x.example/p> ?o . }")
    assert oracle_eval(data, q) == frozenset()
    assert oracle_eval(data, q, use_sameas=True) == frozenset({"?o=<http://x.example/c>"})


def test_oracle_eval_rhodf_adds_derived_answers():
    data = {
        Triple(iri("p"), Iri("http://www.w3.org/2000/01/rdf-schema#subPropertyOf"), iri("q")),
        Triple(iri("s"), iri("p"), iri("o")),
    }
    q = parse_query("SELECT ?s WHERE { ?s <http://x.example/q> <http://x.example/o> . }")
    assert oracle_eval(data, q) == frozenset()
    assert oracle_eval(data, q, use_rhodf=True) == frozenset({"?s=<http://x.example/s>"})


# -- spec validation ---------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_hub_entities": 1},
        {"n_alias_entities": 1},
        {"n_entities": 6},  # 3 + 3 needs at least one plain entity on top
        {"family_depth": 0},
        {"alias_style": "camel"},
    ],
)
def test_webspec_rejects_bad_knobs(kwargs):
    with pytest.raises(ValueError):
        WebSpec(**kwargs)


def test_check_raises_fixture_invariant_error():
    from linkquery.fixturegen import _check

    with pytest.raises(FixtureInvariantError, match="boom"):
        _check(False, "boom")


# -- generated webs ----------------------------------------------------------------


@pytest.fixture(scope="module")
def web(tmp_path_factory) -> GeneratedWeb:
    return generate_web(WebSpec(seed=3), tmp_path_factory.mktemp("webs") / "w3")


def test_web_fits_document_budget(web):
    assert 0 < len(web.doc_triples) <= 200


def test_web_written_files_parse_back(web):
    docs = load_fixture_documents(web.out_dir)
    assert {iri: frozenset(ts) for iri, ts in docs.items()} == dict(web.doc_triples)
    gt = load_ground_truth(web.out_dir / "ground_truth.tsv")
    for key, keys in web.ground_truth.items():
        assert gt.get(key, frozenset()) == keys
    meta = json.loads((web.out_dir / "webspec.json").read_text(encoding="utf-8"))
    assert meta["documents"] == len(web.doc_triples)
    assert meta["spec"]["seed"] == 3


def test_ground_truth_prepared_once_equals_per_query_oracle(web):
    hub, alias = web.hub_doc_iris, web.alias_doc_iris
    restrictions = {
        "base": (hub | alias, False, False),
        "select": (hub | alias, False, False),
        "seealso": (alias, False, False),
        "sameas": (hub, True, False),
        "rhodf": (hub | alias, False, True),
        "combined": (frozenset(), True, True),
    }
    assert set(restrictions) == set(SETUP_NAMES)
    for setup, (excluded, sameas, rhodf) in restrictions.items():
        visible = frozenset().union(*(ts for d, ts in web.doc_triples.items() if d not in excluded))
        for pq in web.queries:
            want = oracle_eval(visible, pq.query, use_sameas=sameas, use_rhodf=rhodf)
            assert web.ground_truth[(pq.query_id, setup)] == want, (pq.query_id, setup)


def test_suite_queries_round_trip_and_classify(web):
    entries = load_suite(web.suite_path)
    by_id = {pq.query_id: pq for pq in web.queries}
    assert set(by_id) == {e.query_id for e in entries}
    for entry in entries:
        planned = by_id[entry.query_id]
        assert entry.query.patterns == planned.query.patterns
        assert entry.query.projected == planned.query.projected
        assert classify(entry.query).value == planned.class_name
        reparsed = parse_query(one_line_query(planned.query))
        assert reparsed.patterns == planned.query.patterns


def test_ground_truth_covers_every_setup(web):
    for pq in web.queries:
        for setup in SETUP_NAMES:
            assert (pq.query_id, setup) in web.ground_truth


def test_planted_gains_are_strict(web):
    gained = 0
    for pq in web.queries:
        for lesser, greater in pq.gains:
            a = web.ground_truth[(pq.query_id, lesser)]
            b = web.ground_truth[(pq.query_id, greater)]
            assert len(b) > len(a), f"{pq.query_id}: {greater} should beat {lesser}"
            gained += 1
    # the web must actually exercise every extension, not just exist
    assert gained >= 8


def test_every_extension_pair_appears_in_some_gain(web):
    pairs = {g for pq in web.queries for g in pq.gains}
    lessers = {a for a, _ in pairs}
    greaters = {b for _, b in pairs}
    assert "base" in lessers
    assert {"seealso", "sameas", "rhodf", "combined"} <= greaters


def test_generation_is_deterministic(tmp_path):
    a = generate_web(WebSpec(seed=7, alias_style="prefixmin"), tmp_path / "a")
    b = generate_web(WebSpec(seed=7, alias_style="prefixmin"), tmp_path / "b")
    rel_a = {p.relative_to(a.out_dir): p.read_bytes() for p in sorted(a.out_dir.rglob("*")) if p.is_file()}
    rel_b = {p.relative_to(b.out_dir): p.read_bytes() for p in sorted(b.out_dir.rglob("*")) if p.is_file()}
    assert rel_a == rel_b


def test_distinct_seeds_use_distinct_namespaces(tmp_path):
    a = generate_web(WebSpec(seed=1), tmp_path / "a")
    b = generate_web(WebSpec(seed=2), tmp_path / "b")
    assert not (set(a.doc_triples) & set(b.doc_triples))


def test_engine_agrees_with_ground_truth_on_one_web(web):
    # spot check; the acceptance suite sweeps many webs
    entries = {pq.query_id: pq for pq in web.queries}
    pq = entries["q01"]
    for setup in (Setup.BASE, Setup.SAMEAS, Setup.COMBINED):
        run = execute(pq.query, setup, FixtureResolver(web.manifest_path))
        assert run.answer_keys() == web.ground_truth[(pq.query_id, setup.value)], setup


def test_load_ground_truth_rejects_short_rows(tmp_path):
    p = tmp_path / "gt.tsv"
    p.write_text("q01\tbase\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_ground_truth(p)


def test_load_ground_truth_keeps_tabs_inside_keys(tmp_path):
    p = tmp_path / "gt.tsv"
    p.write_text("q01\tbase\t?a=<http://x/1>\t?b=<http://x/2>\n", encoding="utf-8")
    gt = load_ground_truth(p)
    assert gt[("q01", "base")] == frozenset({"?a=<http://x/1>\t?b=<http://x/2>"})


@pytest.mark.parametrize("char", ["\u2028", "\u0085"])
def test_ground_truth_and_manifest_lines_end_at_a_newline_only(tmp_path, char):
    # An answer key names the IRI as a document does, unescaped.
    iri = f"http://x/1{char}2"
    p = tmp_path / "gt.tsv"
    p.write_text(f"q01\tbase\t?a=<{iri}>\r\nq01\tsameas\t?a=<http://x/3>", encoding="utf-8")
    assert load_ground_truth(p) == {("q01", "base"): frozenset({f"?a=<{iri}>"}),
                                    ("q01", "sameas"): frozenset({"?a=<http://x/3>"})}
    (tmp_path / "d.nt").write_text(f"<{iri}> <http://x/p> <http://x/o> .\n", encoding="utf-8")
    (tmp_path / "manifest.tsv").write_text(f"{iri}\tFILE d.nt\n", encoding="utf-8")
    assert load_fixture_documents(tmp_path) == {iri: [Triple(Iri(iri), Iri("http://x/p"), Iri("http://x/o"))]}
