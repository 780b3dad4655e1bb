import io

import pytest

from linkquery import fetch
from linkquery.fetch import (
    DereferenceManager,
    DerefStatus,
    FakeClock,
    FetchConfig,
    FixtureResolver,
    LiveResolver,
    RawResponse,
    RecordResolver,
    ReplayResolver,
    TransportError,
    append_record,
    parse_resolver_spec,
    read_records,
)
from linkquery.rdf import RUN_IRIS, Iri

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


@pytest.mark.parametrize("bad", ["!FILE", "!REDIRECT", "!STATUS abc", "!WHATEVER x", "!DELAY 5 THEN"])
def test_fixture_rejects_bad_directives(write_web, bad):
    with pytest.raises(ValueError):
        FixtureResolver(write_web({A: bad}))


def test_fixture_missing_file_is_transport_error(tmp_path):
    (tmp_path / "manifest.tsv").write_text(f"{A}\tFILE gone.nt\n")
    with pytest.raises(TransportError):
        FixtureResolver(tmp_path).resolve(A, 1.0)


# -- dereference statuses -------------------------------------------------------


def test_ok_document(write_web):
    result = manager(FixtureResolver(write_web({A: NT}))).dereference(Iri(A))
    assert result.status == DerefStatus.OK
    assert result.http_status == 200
    assert len(result.document.triples) == 1
    assert result.document.iri == A
    assert result.final_iri == Iri(A)


def test_empty_body_is_ok_with_zero_triples(write_web):
    result = manager(FixtureResolver(write_web({A: ""}))).dereference(Iri(A))
    assert result.status == DerefStatus.OK
    assert result.document.triples == ()


def test_parse_failure_needs_nonempty_garbage(write_web):
    result = manager(FixtureResolver(write_web({A: "complete junk\n"}))).dereference(Iri(A))
    assert result.status == DerefStatus.PARSE_FAILURE


def test_partial_garbage_still_parses(write_web):
    result = manager(FixtureResolver(write_web({A: NT + "junk line\n"}))).dereference(Iri(A))
    assert result.status == DerefStatus.OK
    assert len(result.document.triples) == 1


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


def test_transport_error_is_timeout():
    class R:
        is_local = True

        def resolve(self, iri, timeout_s):
            raise TransportError("connection refused")

    assert manager(R()).dereference(Iri(A)).status == DerefStatus.TIMED_OUT


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
    a, b = (first.dereference(Iri(x)).document.triples[0] for x in (A, B))
    assert a.predicate == b.predicate and a.predicate is b.predicate
    # A manager of its own starts an empty table: equal IRIs, other objects.
    again = manager(FixtureResolver(web)).dereference(Iri(A)).document.triples[0]
    assert again == a and all(x is not y for x, y in zip(again, a))


def test_the_run_table_is_lent_only_for_the_parse(write_web, monkeypatch):
    web = write_web({A: NT})
    assert manager(FixtureResolver(web)).dereference(Iri(A)).status == DerefStatus.OK
    assert RUN_IRIS.get() is None

    def crash(data, doc_scope):
        assert RUN_IRIS.get() is not None
        raise RuntimeError("parser crashed")

    monkeypatch.setattr(fetch, "parse_ntriples", crash)
    with pytest.raises(RuntimeError, match="parser crashed"):
        manager(FixtureResolver(web)).dereference(Iri(A))
    assert RUN_IRIS.get() is None


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
        with pytest.raises(TransportError):
            recorder.resolve(A, 1.0)
    assert list(read_records(tape)) == [(A, A, 0, b"")]
    with pytest.raises(TransportError):
        ReplayResolver(tape).resolve(A, 1.0)


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
