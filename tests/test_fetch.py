import io
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkquery import fetch, rdf
from linkquery.cli import main
from linkquery.fetch import (
    DereferenceManager,
    DerefStatus,
    FakeClock,
    FetchConfig,
    FixtureResolver,
    HopTimeout,
    LiveResolver,
    RawResponse,
    RecordResolver,
    ReplayResolver,
    TransportError,
    append_record,
    parse_resolver_spec,
    read_records,
)
from linkquery.rdf import Iri, parse_ntriples

A = "http://w.example/a"
B = "http://w.example/b"
C = "http://w.example/c"
NT = "<http://w.example/a> <http://w.example/p> <http://w.example/o> .\n"


def manager(resolver, clock=None, **cfg):
    return DereferenceManager(resolver, FetchConfig(**cfg) if cfg else None, clock=clock)


# -- fixture resolver ---------------------------------------------------------


def test_fixture_directives(write_web):
    manifest = write_web(
        {
            A: NT,
            B: f"!REDIRECT {A}",
            C: "!STATUS 503",
            "http://w.example/d": "!DELAY 40 THEN STATUS 410",
        }
    )
    clock = FakeClock()
    r = FixtureResolver(manifest, clock=clock)
    assert len(r) == 4
    assert r.resolve(A, 1.0).status == 200
    assert NT.encode() == r.resolve(A, 1.0).body
    assert r.resolve(B, 1.0) == RawResponse(303, location=A)
    assert r.resolve(C, 1.0).status == 503
    assert r.resolve("http://w.example/d", 1.0).status == 410
    assert clock.now() == pytest.approx(0.04)
    assert r.resolve("http://w.example/unknown", 1.0).status == 404


def test_fixture_accepts_directory_and_comments(tmp_path):
    web = tmp_path / "web"
    web.mkdir()
    (web / "doc.nt").write_text(NT)
    (web / "manifest.tsv").write_text(f"# comment\n\n{A}\tFILE doc.nt\n")
    assert FixtureResolver(web).resolve(A, 1.0).status == 200


def test_fixture_rejects_nested_delay(write_web):
    with pytest.raises(ValueError, match="nested DELAY"):
        FixtureResolver(write_web({A: "!DELAY 5 THEN DELAY 5 THEN STATUS 200"}))


def test_fixture_rejects_a_negative_delay(write_web, capsys):
    # Read when the manifest is, not left to fail in a sleep on a pool worker.
    manifest = write_web({A: NT, B: "!DELAY -5 THEN FILE doc000.nt"})
    with pytest.raises(ValueError, match="manifest line 2: bad DELAY duration '-5'"):
        parse_resolver_spec(f"fixture:{manifest}")
    assert main(["query", f"SELECT ?o WHERE {{ <{A}> <http://w.example/p> ?o . }}",
                 "--resolver", f"fixture:{manifest}"]) == 2
    assert "bad DELAY duration" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    "!FILE", "!REDIRECT", "!STATUS abc", "!WHATEVER x", "!DELAY 5 THEN",
    "!STATUS 0", "!STATUS 1", "!STATUS 99", "!STATUS 600", "!STATUS 70000", "!STATUS -1",
])
def test_fixture_rejects_bad_directives(write_web, bad):
    with pytest.raises(ValueError):
        FixtureResolver(write_web({A: bad}))


@pytest.mark.parametrize("command", ["query", "record"])
def test_an_out_of_range_status_fails_before_any_hop(write_web, tmp_path, capsys, command):
    # 0 and 1 are the statuses of a hop with no response and of an overrun;
    # 70000 does not fit the archive's u16.
    manifest = write_web({A: NT, B: "!STATUS 70000"})
    tape = tmp_path / "tape.bin"
    with pytest.raises(ValueError, match="manifest line 2: bad STATUS code '70000'"):
        parse_resolver_spec(f"fixture:{manifest}")
    extra = ["--archive", str(tape), "--setups", "base", "--query"] if command == "record" else []
    assert main([command, *extra, f"SELECT ?o WHERE {{ <{A}> <http://w.example/p> ?o . }}",
                 "--resolver", f"fixture:{manifest}"]) == 2
    assert "bad STATUS code" in capsys.readouterr().err
    assert not tape.exists()


def test_fixture_missing_file_is_transport_error(tmp_path):
    (tmp_path / "manifest.tsv").write_text(f"{A}\tFILE gone.nt\n")
    with pytest.raises(TransportError):
        FixtureResolver(tmp_path).resolve(A, 1.0)


def test_fixture_directory_is_transport_error(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "manifest.tsv").write_text(f"{A}\tFILE sub\n")
    with pytest.raises(TransportError):
        FixtureResolver(tmp_path).resolve(A, 1.0)


def test_fixture_reads_a_large_file_whole(tmp_path):
    body = random.Random(5).randbytes(200 * 1024 + 7)
    (tmp_path / "big.nt").write_bytes(body)
    (tmp_path / "manifest.tsv").write_text(f"{A}\tFILE big.nt\n")
    assert FixtureResolver(tmp_path).resolve(A, 1.0).body == body


@pytest.mark.parametrize("char", ["\u2028", "\u0085"])
def test_a_manifest_line_ends_at_a_newline_only(tmp_path, char):
    # Both are ordinary characters in a document, so a document may name this IRI.
    iri = f"http://w.example/x{char}y"
    (tmp_path / "doc.nt").write_text(f"<{iri}> <http://w.example/p> <http://w.example/o> .\n", encoding="utf-8")
    (tmp_path / "manifest.tsv").write_text(f"{iri}\tFILE doc.nt\r\n{A}\tSTATUS 410\r", encoding="utf-8")
    r = FixtureResolver(tmp_path)
    assert len(r) == 2 and r.resolve(A, 1.0).status == 410
    got = manager(r).dereference(Iri(iri))
    assert got.status == DerefStatus.OK and got.triples[0].subject == iri


def _reference_manifest(text, base):
    """The manifest reader without its shortcut for FILE rows, lines split at \\n with a \\r before it stripped."""
    actions, may_block = {}, False
    lines = [line[:-1] if line[-1:] == "\r" else line for line in text.split("\n")]
    for lineno, line in enumerate(lines, start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            iri, directive = line.split("\t", 1)
        except ValueError:
            raise ValueError(f"manifest line {lineno}: expected '<iri>\\t<directive>'") from None
        action = actions[iri.strip()] = fetch._parse_directive(directive.strip(), base, lineno)
        may_block |= action[0] == "delay"
    return actions, may_block


# Whitespace as str.strip and str.split see it, Unicode spaces included, and
# with them the characters that str.splitlines would end a line at.
_PAD = st.sampled_from(["", "", "", " ", "  ", "\t", "\u00a0", "\u3000", "\x0b", "\x0c", "\u2028", "\u0085"])
_GAP = st.sampled_from([" ", " ", " ", "  ", "\t", "\u00a0", "\u3000"])
_IRI = st.sampled_from(["http://w.example/a", "http://w.example/b", "urn:c", "", "a#b", "#x"])
_PATH = st.sampled_from(["doc.nt", "sub/d.nt", "../up.nt", "/abs/d.nt", "C:d.nt", "\\d.nt", "a b.nt", "#d"])
_FILE = st.builds("".join, st.tuples(st.sampled_from(["FILE", "file", "File", "fiLE", "\ufb01le"]), _GAP, _PATH))
_OTHER = st.sampled_from(["REDIRECT http://w.example/b", "redirect\u3000http://w.example/a", "STATUS 503",
                          "status\t410", "STATUS 200"])
_DIRECTIVE = st.one_of(
    _FILE,
    _OTHER,
    st.builds("".join, st.tuples(st.sampled_from(["DELAY 5 THEN ", "delay 0 then ", "DELAY 1\tTHEN\u00a0"]),
                                 st.one_of(_FILE, _OTHER))),
)
_ROW = st.builds("".join, st.tuples(_PAD, _IRI, _PAD, st.just("\t"), _PAD, _DIRECTIVE, _PAD))
# The row of a generated web, 'IRI<TAB>FILE rel/path', give or take its spacing and its path.
_FILE_ROW = st.builds("".join, st.tuples(_IRI, st.just("\tFILE"), _GAP, _PATH, _PAD))
_SKIPPED = st.sampled_from(["", "   ", "\r", "# comment", "  # c", "\u00a0# c", "\t# c", "#\tFILE doc.nt"])
# A row that is malformed, mostly: no tab or two, a keyword without its argument or with another's, or text.
_ANY = st.one_of(
    st.builds("".join, st.tuples(
        _PAD, _IRI, st.sampled_from(["\t", " ", "\t\t", ""]), _PAD,
        st.sampled_from(["FILE", "file", "REDIRECT", "STATUS", "DELAY", "BOGUS", "FILEX", ""]),
        st.sampled_from([" ", "", "\t"]),
        st.sampled_from(["doc.nt", "200", "99", "abc", "http://w.example/a", "-1 THEN FILE doc.nt",
                         "5 THEN DELAY 1 THEN STATUS 200", "5", "x THEN FILE d.nt", "5 THEN", ""]),
        _PAD,
    )),
    st.text(alphabet="ab \t#\u00a0\r:/FILE", max_size=12),
)


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("manifests")


@settings(max_examples=400)
@given(
    st.lists(st.tuples(st.one_of(_FILE_ROW, _ROW, _SKIPPED), st.sampled_from(["\n", "\r\n"])), max_size=10),
    st.one_of(st.none(), st.tuples(st.integers(0, 10), _ANY)),
    st.booleans(),
)
def test_the_manifest_reader_agrees_with_its_general_reading(manifest_dir, lines, odd, last_ended):
    # A FILE row read by the shortcut gets the action the directive parse gives it, and any other
    # row, a malformed one included, is read as it always was: the same error on the same line.
    if odd is not None:
        lines.insert(odd[0], (odd[1], "\n"))
    text = "".join(line + end for line, end in lines)
    if lines and not last_ended:
        text = text[: -len(lines[-1][1])]
    path = manifest_dir / "manifest.tsv"
    path.write_bytes(text.encode("utf-8"))

    def outcome(read):
        try:
            actions, may_block = read()
        except ValueError as e:
            return str(e)
        return list(actions.items()), may_block

    def shortcut():
        r = FixtureResolver(path)
        return r._actions, r.may_block

    assert outcome(shortcut) == outcome(lambda: _reference_manifest(text, str(manifest_dir)))


# -- dereference statuses -------------------------------------------------------


def test_ok_document(write_web):
    result = manager(FixtureResolver(write_web({A: NT}))).dereference(Iri(A))
    assert result.status == DerefStatus.OK
    assert result.http_status == 200
    assert len(result.triples) == 1
    assert result.iri == A
    assert result.final_iri == Iri(A)


def test_empty_body_is_ok_with_zero_triples(write_web):
    result = manager(FixtureResolver(write_web({A: ""}))).dereference(Iri(A))
    assert result.status == DerefStatus.OK
    assert result.triples == ()


def test_parse_failure_needs_nonempty_garbage(write_web):
    result = manager(FixtureResolver(write_web({A: "complete junk\n"}))).dereference(Iri(A))
    assert result.status == DerefStatus.PARSE_FAILURE


def test_partial_garbage_still_parses(write_web):
    result = manager(FixtureResolver(write_web({A: NT + "junk line\n"}))).dereference(Iri(A))
    assert result.status == DerefStatus.OK
    assert len(result.triples) == 1


def test_http_error(write_web):
    result = manager(FixtureResolver(write_web({A: "!STATUS 500"}))).dereference(Iri(A))
    assert result.status == DerefStatus.HTTP_ERROR
    assert result.http_status == 500
    assert manager(FixtureResolver(write_web({}, name="w2"))).dereference(Iri(A)).http_status == 404


def test_redirects_resolve_and_count(write_web):
    web = {C: f"!REDIRECT {B}", B: f"!REDIRECT {A}", A: NT}
    m = manager(FixtureResolver(write_web(web)), redirect_limit=2)
    result = m.dereference(Iri(C))
    assert result.status == DerefStatus.OK
    assert result.final_iri == Iri(A)
    assert result.hops == 3
    assert m.lookups_used == 3


def test_redirect_limit_exceeded(write_web):
    web = {C: f"!REDIRECT {B}", B: f"!REDIRECT {A}", A: NT}
    m = manager(FixtureResolver(write_web(web)), redirect_limit=1)
    result = m.dereference(Iri(C))
    assert result.status == DerefStatus.TOO_MANY_REDIRECTS
    assert m.lookups_used == 2


def test_relative_redirect_location(write_web):
    web = {B: "!REDIRECT /a", A: NT}
    result = manager(FixtureResolver(write_web(web))).dereference(Iri(B))
    assert result.status == DerefStatus.OK
    assert result.final_iri == Iri(A)


def test_redirect_without_location_is_http_error():
    class R:
        is_local = True

        def resolve(self, iri, timeout_s):
            return RawResponse(301)

    assert manager(R()).dereference(Iri(A)).status == DerefStatus.HTTP_ERROR


@pytest.mark.parametrize("location", ["http://[bad", "/x y"])
def test_bad_redirect_location_is_http_error(write_web, location):
    m = manager(FixtureResolver(write_web({B: f"!REDIRECT {location}", A: NT})))
    result = m.dereference(Iri(B))
    assert result.status == DerefStatus.HTTP_ERROR
    assert result.http_status == 303
    assert result.detail == "bad redirect location"
    assert m.lookups_used == 1


def test_lookup_budget_is_a_hard_cap(write_web):
    m = manager(FixtureResolver(write_web({A: NT, B: NT, C: NT})), max_lookups=2)
    statuses = [m.dereference(Iri(i)).status for i in (A, B, C)]
    assert statuses == [DerefStatus.OK, DerefStatus.OK, DerefStatus.SKIPPED]
    assert m.lookups_used == 2


def test_deadline_skips_before_fetching(write_web):
    clock = FakeClock()
    m = manager(FixtureResolver(write_web({A: NT})), clock=clock, deadline_ms=1000)
    clock.advance(2.0)
    result = m.dereference(Iri(A))
    assert result.status == DerefStatus.SKIPPED
    assert "deadline" in result.detail
    assert m.lookups_used == 0


def test_slow_response_is_classified_as_timeout(write_web):
    clock = FakeClock()
    manifest = write_web({A: "!DELAY 3000 THEN STATUS 200"})
    m = manager(FixtureResolver(manifest, clock=clock), clock=clock, timeout_ms=1000)
    assert m.dereference(Iri(A)).status == DerefStatus.TIMED_OUT


def test_transport_error_is_a_transport_failure():
    class R:
        is_local = True

        def resolve(self, iri, timeout_s):
            raise TransportError("connection refused")

    assert manager(R()).dereference(Iri(A)).status == DerefStatus.TRANSPORT_FAILURE


def test_a_hop_timeout_is_timed_out():
    class R:
        is_local = True

        def resolve(self, iri, timeout_s):
            raise HopTimeout("read timed out")

    assert manager(R()).dereference(Iri(A)).status == DerefStatus.TIMED_OUT


def test_a_transport_failure_after_an_overrun_is_timed_out(write_web):
    clock = FakeClock()
    manifest = write_web({A: "!DELAY 3000 THEN FILE gone.nt"})
    m = manager(FixtureResolver(manifest, clock=clock), clock=clock, timeout_ms=1000)
    assert m.dereference(Iri(A)).status == DerefStatus.TIMED_OUT


def test_hop_cache_deduplicates_lookups(write_web):
    m = manager(FixtureResolver(write_web({A: NT, B: f"!REDIRECT {A}", C: f"!REDIRECT {A}"})))
    assert m.dereference(Iri(A)).status == DerefStatus.OK
    assert m.dereference(Iri(A)).status == DerefStatus.OK
    assert m.lookups_used == 1
    m.dereference(Iri(B))
    m.dereference(Iri(C))
    # B and C each cost one hop; their shared target was already cached
    assert m.lookups_used == 3


def test_chase_yields_each_hop_until_its_outcome_is_known(write_web):
    fixture = FixtureResolver(write_web({A: NT, B: f"!REDIRECT {A}", C: f"!REDIRECT {A}"}))
    m = manager(fixture, max_lookups=3)

    def result(chase, outcome):
        with pytest.raises(StopIteration) as stop:
            chase.send(outcome)
        return stop.value.value

    b, c = m.chase(Iri(B)), m.chase(Iri(C))
    assert next(b) == B and b.send(fixture.resolve(B, 1.0)) == A
    # A is out for B, so C waits for it too, without a second reservation.
    assert next(c) == C and c.send(fixture.resolve(C, 1.0)) == A
    assert m.lookups_used == 3
    response = fixture.resolve(A, 1.0)
    # Once A is back, a chase that reaches it yields nothing.
    results = [result(b, response), result(c, response), result(m.chase(Iri(A)), None)]
    assert [(r.status, r.final_iri, r.hops) for r in results] == [
        (DerefStatus.OK, Iri(A), 2), (DerefStatus.OK, Iri(A), 2), (DerefStatus.OK, Iri(A), 1)]
    assert m.lookups_used == 3


def test_documents_of_one_run_share_their_iris(write_web):
    web = write_web({A: NT, B: "<http://w.example/b> <http://w.example/p> <http://w.example/o2> .\n"})
    first = manager(FixtureResolver(web))
    a, b = (first.dereference(Iri(x)).triples[0] for x in (A, B))
    assert a.predicate == b.predicate and a.predicate is b.predicate
    # Once the parses are forgotten, the table starts empty: equal IRIs, other objects.
    fetch.forget_parses()
    again = manager(FixtureResolver(web)).dereference(Iri(A)).triples[0]
    assert again == a and all(x is not y for x, y in zip(again, a))


def test_a_cache_hit_and_a_miss_in_one_run_share_their_iris(write_web):
    web = write_web({A: NT, B: "<http://w.example/b> <http://w.example/p> <http://w.example/o2> .\n"})
    resolver = FixtureResolver(web)
    manager(resolver).dereference(Iri(A))  # an earlier run leaves A parsed
    m = manager(resolver)
    hit, miss = (m.dereference(Iri(x)).triples[0] for x in (A, B))
    assert hit.predicate is miss.predicate


def test_forget_parses_empties_the_cache_and_the_iri_table(write_web):
    manager(FixtureResolver(write_web({A: NT}))).dereference(Iri(A))
    assert fetch._IRIS and fetch._PARSED.docs
    fetch.forget_parses()
    assert not fetch._IRIS and not fetch._PARSED.docs and fetch._PARSED.size == 0


def test_the_iri_table_never_outgrows_its_bound(monkeypatch):
    monkeypatch.setattr(fetch, "PARSED_BUDGET", 64 * 10)  # a bound of 10 IRIs
    bodies = {f"{A}/{k}": f"<{A}/{k}> <http://w.example/p> <{A}/o{k}> .\n".encode() for k in range(30)}
    m = manager(Served(bodies))
    sizes = []
    for iri, body in bodies.items():
        assert m.dereference(Iri(iri)).triples == tuple(parse_ntriples(body, iri)[0])
        sizes.append(len(fetch._IRIS))
    # Each document names two new IRIs; the fifth takes the table past 10, which empties it.
    assert sizes[:6] == [3, 5, 7, 9, 0, 3]
    assert max(sizes) <= 10


# -- the parsed-document cache --------------------------------------------------


class Served:
    """A resolver that never blocks and serves whatever ``bodies`` holds for an IRI now."""

    is_local = True
    may_block = False

    def __init__(self, bodies):
        self.bodies = bodies

    def resolve(self, iri, timeout_s):
        return RawResponse(200, body=self.bodies[iri])


def counted_parses(monkeypatch, module=rdf):
    """The scopes of the calls to ``module.parse_ntriples`` from here on, in order: by default the real parses."""
    scopes = []
    parse = module.parse_ntriples

    def counting(data, doc_scope, *table):
        scopes.append(doc_scope)
        return parse(data, doc_scope, *table)

    monkeypatch.setattr(module, "parse_ntriples", counting)
    return scopes


def test_a_body_served_again_on_one_resolver_is_parsed_once(write_web, monkeypatch):
    web = write_web({A: NT})
    parses = counted_parses(monkeypatch)
    resolver = FixtureResolver(web)
    runs = [manager(resolver) for _ in range(2)]
    first, again = (m.dereference(Iri(A)) for m in runs)
    assert parses == [A]
    assert again.triples is first.triples  # the cached tuple, not a copy
    assert [m.lookups_used for m in runs] == [1, 1]  # the warm run still looks the body up


def test_two_resolvers_serving_one_body_parse_it_once(write_web, monkeypatch):
    parses = counted_parses(monkeypatch)
    first = manager(FixtureResolver(write_web({A: NT}))).dereference(Iri(A))
    again = manager(Served({A: NT.encode()})).dereference(Iri(A))
    assert parses == [A]
    assert again.triples is first.triples


def test_runs_on_many_resolvers_keep_one_budget(monkeypatch):
    line = NT.encode()
    body = line * (fetch.PARSED_BUDGET // 3 // len(line))  # three fit in the budget, four do not
    scopes = [f"{A}/{k}" for k in range(4)]
    parses = counted_parses(monkeypatch)
    for scope in scopes:  # a resolver of its own for each body
        assert manager(Served({scope: body})).dereference(Iri(scope)).status == DerefStatus.OK
    assert parses == scopes
    assert [scope for _, scope in fetch._PARSED.docs] == scopes[1:]
    assert fetch._PARSED.size == 3 * len(body) <= fetch.PARSED_BUDGET


def test_a_wrapper_of_fetch_parse_sees_hits_too(write_web, monkeypatch):
    # A tool that wraps fetch.parse_ntriples, as the benchmark's tracer does, sees every document parsed.
    resolver = FixtureResolver(write_web({A: NT, B: NT}))
    parses, calls = counted_parses(monkeypatch), counted_parses(monkeypatch, fetch)
    for _ in range(2):
        m = manager(resolver)
        assert [len(m.dereference(Iri(x)).triples) for x in (A, B)] == [1, 1]
    assert (parses, calls) == ([A, B], [A, B, A, B])
    fetch.forget_parses()
    manager(resolver).dereference(Iri(A))
    assert parses == [A, B, A]  # an emptied cache parses again


def test_a_body_rewritten_between_runs_is_parsed_again(write_web, monkeypatch):
    web = write_web({A: NT})
    parses = counted_parses(monkeypatch)
    resolver = FixtureResolver(web)
    assert manager(resolver).dereference(Iri(A)).triples[0].object == "http://w.example/o"
    (web.parent / "doc000.nt").write_text(NT.replace("/o>", "/o2>"), encoding="utf-8")
    again = manager(resolver).dereference(Iri(A))
    assert parses == [A, A]
    assert [t.object for t in again.triples] == ["http://w.example/o2"]


def test_one_body_under_two_scopes_gets_blank_nodes_of_each(write_web):
    body = "_:b <http://w.example/p> _:c .\n"
    resolver = FixtureResolver(write_web({A: body, B: body}))
    for _ in range(2):  # cold, then warm
        m = manager(resolver)
        a, b = (m.dereference(Iri(x)).triples[0] for x in (A, B))
        assert a.subject.label == b.subject.label == "b"
        assert (a.subject.scope, a.object.scope, b.subject.scope, b.object.scope) == (A, A, B, B)
        assert a != b
    assert [scope for _, scope in fetch._PARSED.docs] == [A, B]


def test_a_body_of_errors_only_fails_to_parse_on_a_warm_run_too(write_web, monkeypatch):
    resolver = FixtureResolver(write_web({A: "complete junk\n"}))
    parses = counted_parses(monkeypatch)
    cold, warm = (manager(resolver).dereference(Iri(A)) for _ in range(2))
    assert parses == [A]
    assert cold.status == warm.status == DerefStatus.PARSE_FAILURE
    assert cold.detail == warm.detail == "1 parse errors, no triples"


def test_an_oversized_body_is_not_kept(monkeypatch):
    line = NT.encode()
    fits = line * (fetch.PARSED_BUDGET // len(line))
    exact = fits + b"#" * (fetch.PARSED_BUDGET - len(fits))  # the budget to the byte, a comment last
    resolver = Served({A: line, B: fits + line, C: exact})
    parses = counted_parses(monkeypatch)
    for x in (A, B, B, A):
        assert manager(resolver).dereference(Iri(x)).status == DerefStatus.OK
    cache = fetch._PARSED
    assert parses == [A, B, B]  # B is parsed each time, and pushes nothing out
    assert [scope for _, scope in cache.docs] == [A]
    for x in (C, C):
        assert manager(resolver).dereference(Iri(x)).status == DerefStatus.OK
    assert parses == [A, B, B, C]
    assert [scope for _, scope in cache.docs] == [C]
    assert cache.size == fetch.PARSED_BUDGET


def test_the_cache_evicts_the_least_recently_used_body(monkeypatch):
    bodies = {x: f"<{x}> <http://w.example/p> <http://w.example/o> .\n".encode() for x in (A, B, C)}
    monkeypatch.setattr(fetch, "PARSED_BUDGET", len(bodies[A]) + len(bodies[B]))  # room for two of three
    resolver = Served(bodies)
    parses = counted_parses(monkeypatch)
    for x in (A, B, A, C, A, B):  # C evicts B, the least recently used; B then evicts C
        manager(resolver).dereference(Iri(x))
    assert parses == [A, B, C, B]
    cache = fetch._PARSED
    assert [scope for _, scope in cache.docs] == [A, B]
    assert cache.size == sum(len(body) for body, _ in cache.docs) <= fetch.PARSED_BUDGET


def test_the_cache_keeps_its_byte_count_under_threads(monkeypatch):
    monkeypatch.setattr(fetch, "PARSED_BUDGET", 300)
    cache = fetch._ParsedCache()
    keys = [(bytes(n), scope) for n in range(1, 60) for scope in (A, B)]

    def hammer(seed):
        rng = random.Random(seed)
        for _ in range(3000):
            key = rng.choice(keys)
            if cache.get(key) is None:
                cache.put(key, ((), ()))

    threads = [threading.Thread(target=hammer, args=(k,)) for k in range(6)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert cache.size == sum(len(body) for body, _ in cache.docs) <= fetch.PARSED_BUDGET


CACHED_BODIES = (
    NT,
    NT + "junk line\n_:b <http://w.example/q> _:c .\n",
    '_:b <http://w.example/p> "x"@en .\r\n_:b <http://w.example/p> _:b .',
    "complete junk\n",
    "",
    "# a comment\n\n",
)


@settings(max_examples=60)
@given(
    budget=st.integers(0, 250),
    lookups=st.lists(st.tuples(st.sampled_from(CACHED_BODIES), st.sampled_from((A, B, C))), max_size=25),
)
def test_every_cache_hit_equals_a_fresh_parse(budget, lookups):
    fetch.forget_parses()  # each example starts cold
    resolver = Served({})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fetch, "PARSED_BUDGET", budget)
        for body, scope in lookups:
            resolver.bodies[scope] = body.encode()
            got = manager(resolver).dereference(Iri(scope))
            triples, errors = parse_ntriples(body, doc_scope=scope)
            if errors and not triples and body.strip():
                assert got.status == DerefStatus.PARSE_FAILURE
                assert got.detail == f"{len(errors)} parse errors, no triples"
            else:
                assert got.status == DerefStatus.OK and got.triples == tuple(triples)
            cache = fetch._PARSED
            assert cache.size == sum(len(b) for b, _ in cache.docs) <= budget


def test_politeness_spaces_requests_per_host():
    clock = FakeClock()
    calls = []

    class R:
        is_local = False

        def resolve(self, iri, timeout_s):
            calls.append((iri, clock.now()))
            return RawResponse(200, body=b"")

    m = manager(R(), clock=clock, politeness_delay_ms=500)
    m.dereference(Iri("http://h.example/1"))
    m.dereference(Iri("http://h.example/2"))
    m.dereference(Iri("http://other.example/3"))
    assert calls[1][1] - calls[0][1] >= 0.5, "same host waits"
    assert calls[2][1] - calls[1][1] < 0.5, "different host does not"


def test_local_resolvers_skip_politeness(write_web):
    clock = FakeClock()
    m = manager(FixtureResolver(write_web({A: NT, B: NT}), clock=clock), clock=clock)
    m.dereference(Iri(A))
    m.dereference(Iri(B))
    assert clock.now() == 0.0


# -- config ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "field", ["timeout_ms", "deadline_ms", "redirect_limit", "max_lookups", "max_parallel"]
)
def test_config_rejects_nonpositive(field):
    with pytest.raises(ValueError):
        FetchConfig(**{field: 0})


def test_config_allows_zero_politeness():
    assert FetchConfig(politeness_delay_ms=0).politeness_delay_ms == 0
    with pytest.raises(ValueError):
        FetchConfig(politeness_delay_ms=-1)


# -- record / replay ---------------------------------------------------------


def test_archive_round_trip(tmp_path):
    path = tmp_path / "tape.bin"
    with open(path, "wb") as fh:
        append_record(fh, A, A, 200, b"hello")
        append_record(fh, B, A, 303, b"")
        append_record(fh, C, C, 0, b"")
    assert list(read_records(path)) == [(A, A, 200, b"hello"), (B, A, 303, b""), (C, C, 0, b"")]


def test_truncated_archive_is_rejected(tmp_path):
    path = tmp_path / "tape.bin"
    buf = io.BytesIO()
    append_record(buf, A, A, 200, b"hello")
    path.write_bytes(buf.getvalue()[:-3])
    with pytest.raises(ValueError, match="truncated"):
        list(read_records(path))


def test_record_then_replay_matches_live_fixture(write_web, tmp_path):
    web = {A: NT, B: f"!REDIRECT {A}", C: "!STATUS 500"}
    manifest = write_web(web)
    tape = tmp_path / "tape.bin"
    with RecordResolver(FixtureResolver(manifest), tape) as recorder:
        m = manager(recorder)
        first = {iri: m.dereference(Iri(iri)).status for iri in (A, B, C, "http://w.example/x")}
        assert recorder.records_written == 4  # A, B->A hop cached, C, x

    m2 = manager(ReplayResolver(tape))
    second = {iri: m2.dereference(Iri(iri)).status for iri in (A, B, C, "http://w.example/x")}
    assert first == second


def test_record_keeps_transport_failures(tmp_path):
    class R:
        is_local = True

        def resolve(self, iri, timeout_s):
            raise TransportError("down")

    tape = tmp_path / "tape.bin"
    with RecordResolver(R(), tape) as recorder:
        assert manager(recorder).dereference(Iri(A)).status == DerefStatus.TRANSPORT_FAILURE
    assert list(read_records(tape)) == [(A, "", 0, b"")]
    assert manager(ReplayResolver(tape)).dereference(Iri(A)).status == DerefStatus.TRANSPORT_FAILURE


def test_record_keeps_timeouts(tmp_path):
    class R:
        is_local = True

        def resolve(self, iri, timeout_s):
            raise HopTimeout("read timed out")

    tape = tmp_path / "tape.bin"
    with RecordResolver(R(), tape) as recorder:
        assert manager(recorder).dereference(Iri(A)).status == DerefStatus.TIMED_OUT
    assert list(read_records(tape)) == [(A, "", 1, b"")]
    assert manager(ReplayResolver(tape)).dereference(Iri(A)).status == DerefStatus.TIMED_OUT


@pytest.mark.parametrize("directive", [
    "DELAY 200 THEN FILE doc001.nt", "DELAY 200 THEN STATUS 404", "STATUS 302", "FILE gone.nt",
    f"REDIRECT {B}", "STATUS 500", "FILE doc001.nt",
])
def test_replay_reproduces_each_recorded_outcome(write_web, tmp_path, directive):
    # The tape holds the outcome the run acted on: an overrun of timeout_ms
    # included, whatever the hop then served.
    manifest = write_web({A: "!" + directive, B: NT})
    tape = tmp_path / "tape.bin"
    with RecordResolver(FixtureResolver(manifest), tape) as recorder:
        recorded = manager(recorder, timeout_ms=50).dereference(Iri(A))
    replayed = manager(ReplayResolver(tape), timeout_ms=50).dereference(Iri(A))
    fields = ("status", "http_status", "final_iri", "hops", "detail", "triples")
    assert [getattr(replayed, f) for f in fields] == [getattr(recorded, f) for f in fields]


def test_replay_miss_is_404(tmp_path, caplog):
    tape = tmp_path / "tape.bin"
    with open(tape, "wb") as fh:
        append_record(fh, A, A, 200, NT.encode())
    r = ReplayResolver(tape)
    assert r.resolve(B, 1.0).status == 404


def test_replay_first_record_wins(tmp_path):
    tape = tmp_path / "tape.bin"
    with open(tape, "wb") as fh:
        append_record(fh, A, A, 200, b"first")
        append_record(fh, A, A, 200, b"second")
    assert ReplayResolver(tape).resolve(A, 1.0).body == b"first"


def test_replay_restores_redirect_location(tmp_path):
    tape = tmp_path / "tape.bin"
    with open(tape, "wb") as fh:
        append_record(fh, B, A, 303, b"")
    resp = ReplayResolver(tape).resolve(B, 1.0)
    assert resp.status == 303
    assert resp.location == A


# -- whether a resolver may block ---------------------------------------------


class Undeclared:
    """A resolver that does not say whether it may block."""

    is_local = True

    def resolve(self, iri, timeout_s):
        return RawResponse(404)


MAY_BLOCK = {"fixture": False, "fixture-delay": True, "replay": False, "live": True}


@pytest.mark.parametrize(
    "kind, recorded", [(k, False) for k in MAY_BLOCK] + [(k, True) for k in (*MAY_BLOCK, "undeclared")]
)
def test_may_block_is_fixed_by_the_resolver(write_web, tmp_path, kind, recorded):
    if kind == "replay":
        tape = tmp_path / "in.bin"
        with open(tape, "wb") as fh:
            append_record(fh, A, A, 200, NT.encode())
        inner = ReplayResolver(tape)
    elif kind == "live":
        inner = LiveResolver()
    elif kind == "undeclared":
        inner = Undeclared()
    else:
        # One DELAY line, even of 0 ms and for a document no run needs, is enough.
        extra = {C: "!DELAY 0 THEN STATUS 404"} if kind == "fixture-delay" else {}
        inner = FixtureResolver(write_web({A: NT, B: f"!REDIRECT {A}", **extra}))
    expected = MAY_BLOCK.get(kind, True)
    resolver = RecordResolver(inner, tmp_path / "out.bin") if recorded else inner
    try:
        assert resolver.may_block is expected
        with pytest.raises(AttributeError):
            resolver.may_block = not expected
    finally:
        if recorded:
            resolver.close()


# -- resolver specs ---------------------------------------------------------


def test_parse_resolver_spec(write_web, tmp_path):
    manifest = write_web({A: NT})
    assert isinstance(parse_resolver_spec(f"fixture:{manifest}"), FixtureResolver)
    tape = tmp_path / "t.bin"
    with open(tape, "wb") as fh:
        append_record(fh, A, A, 200, b"")
    assert isinstance(parse_resolver_spec(f"replay:{tape}"), ReplayResolver)
    with pytest.raises(ValueError):
        parse_resolver_spec("carrier-pigeon:coop")


def test_fake_clock_is_monotonic_under_sleep():
    clock = FakeClock(start=5.0)
    clock.sleep(0.25)
    clock.advance(0.75)
    assert clock.now() == 6.0
