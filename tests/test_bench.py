import csv
import io

import pytest

from linkquery.bench import (
    AggregateRow,
    RunRecord,
    SuiteEntry,
    aggregate,
    emit_csv,
    emit_latex,
    emit_markdown,
    format_padded,
    format_plain,
    latex_class_header,
    latex_row,
    load_suite,
    run_suite,
    write_per_query_csv,
)
from linkquery import rdf
from linkquery.engine import Setup, execute
from linkquery.fetch import FixtureResolver
from linkquery.query import parse_query


def rec(qid="q1", cls="entity-s", setup=Setup.BASE, results=0, time_s=0.0, first_s=None, http=0, retrieved=0, inferred=0):
    return RunRecord(qid, cls, setup, results, time_s, first_s, http, retrieved, inferred, False)


# -- aggregation ----------------------------------------------------------------


def test_mean_and_population_stddev():
    rows = aggregate(
        [
            rec(qid="q1", results=1, http=4),
            rec(qid="q2", results=2, http=4),
            rec(qid="q3", results=3, http=4),
        ]
    )
    assert len(rows) == 1
    (r_mean, r_std) = rows[0].cells[0]
    assert r_mean == pytest.approx(2.0)
    assert r_std == pytest.approx(0.8164966, abs=1e-4)
    assert rows[0].cells[3] == (pytest.approx(4.0), pytest.approx(0.0))
    assert rows[0].n_queries == 3


def test_aggregate_orders_and_scales():
    records = [
        rec(qid="q1", cls="star-s3", setup=Setup.COMBINED, retrieved=1500),
        rec(qid="q2", cls="entity-o", setup=Setup.BASE, inferred=250),
        rec(qid="q3", cls="star-s3", setup=Setup.BASE),
    ]
    rows = aggregate(records)
    # classes by first appearance, setups canonical within a class
    assert [(r.class_name, r.setup) for r in rows] == [
        ("star-s3", Setup.BASE),
        ("star-s3", Setup.COMBINED),
        ("entity-o", Setup.BASE),
    ]
    assert rows[1].cells[4][0] == pytest.approx(1.5)  # retrieved in thousands
    assert rows[2].cells[5][0] == pytest.approx(0.25)


def test_unanswered_queries_leave_first_answer_column_alone():
    rows = aggregate(
        [
            rec(qid="q1", first_s=2.0, results=1),
            rec(qid="q2", first_s=None),
            rec(qid="q3", first_s=4.0, results=1),
        ]
    )
    assert rows[0].cells[2][0] == pytest.approx(3.0)


# -- the two rounding rules -------------------------------------------------------


@pytest.mark.parametrize(
    "value,expected",
    [
        (0.0, "0"),
        (0.004, "0"),  # rounds to 0.00, printed bare
        (0.005, "0.01"),
        (10.2, "10.2"),
        (10.20, "10.2"),
        (10.675, "10.68"),
        (1.0, "1"),
        (1.5, "1.5"),
        (33.224999, "33.22"),
        (0.125, "0.13"),  # half up, not banker's rounding
        (2.675, "2.68"),
        (17.0, "17"),
    ],
)
def test_format_plain(value, expected):
    assert format_plain(value) == expected


@pytest.mark.parametrize(
    "value,expected",
    [
        (0.0, "0"),
        (0.004, "0"),
        (0.005, "0.01"),
        (45.1, "45.10"),
        (10.3, "10.30"),
        (8.16, "8.16"),
        (3.405, "3.41"),
        (220.28, "220.28"),
    ],
)
def test_format_padded(value, expected):
    assert format_padded(value) == expected


# -- latex assembly ---------------------------------------------------------------


def test_latex_row_bytes_for_a_known_row():
    row = AggregateRow(
        "entity-s",
        Setup.SAMEAS,
        79,
        (
            (14.72, 24.98),
            (7.27, 25.92),
            (0.88, 1.5),
            (13.96, 59.97),
            (10.81, 40.36),
            (8.16, 45.10),
        ),
    )
    assert latex_row(row) == (
        "{\\tt sameAs}& 14.72&($\\pm$24.98)& 7.27&($\\pm$25.92)& 0.88&($\\pm$1.5)"
        "& 13.96&($\\pm$59.97)& 10.81&($\\pm$40.36)& 8.16&($\\pm$45.10)\\\\"
    )


def test_latex_rhodf_label_is_escaped_greek():
    row = AggregateRow("entity-s", Setup.RHODF, 1, tuple(((0.0, 0.0),) * 6))
    assert latex_row(row).startswith("{\\tt $\\rho$DF}&")


def test_latex_class_header_bytes():
    assert latex_class_header("entity-s", 79) == (
        "\\multicolumn{13}{|l|}{Query class \\textbf{entity-s} with 79 queries}\\\\\\hline"
    )


def test_emit_latex_structure():
    rows = aggregate(
        [
            rec(qid="q1", cls="entity-s", setup=Setup.BASE),
            rec(qid="q1", cls="entity-s", setup=Setup.COMBINED),
            rec(qid="q2", cls="entity-o", setup=Setup.BASE),
        ]
    )
    buf = io.StringIO()
    emit_latex(rows, buf)
    text = buf.getvalue()
    assert text.startswith("\\begin{tabular}{|l|rl|rl|rl|rl|rl|rl|}\n\\hline\n")
    assert text.rstrip().endswith("\\end{tabular}")
    assert "\\multicolumn{2}{c|}{Retrieved (k)}" in text
    assert text.count("Query class") == 2
    assert "{\\tt base}&" in text


# -- other emitters -----------------------------------------------------------------


def test_emit_csv_round_trips_full_precision():
    rows = aggregate([rec(qid="q1", results=1, time_s=0.1234567890123, http=7)])
    buf = io.StringIO()
    emit_csv(rows, buf)
    parsed = list(csv.reader(io.StringIO(buf.getvalue())))
    header, data = parsed[0], parsed[1]
    assert header[:3] == ["class", "setup", "queries"]
    assert float(data[header.index("time_s_mean")]) == 0.1234567890123
    assert data[header.index("http_mean")] == "7.0"


def test_emit_markdown_has_tables_per_class():
    rows = aggregate(
        [
            rec(qid="q1", cls="entity-s", setup=Setup.RHODF),
            rec(qid="q2", cls="entity-o", setup=Setup.BASE),
        ]
    )
    buf = io.StringIO()
    emit_markdown(rows, buf)
    text = buf.getvalue()
    assert "**entity-s** (1 queries)" in text
    assert "| ρDF |" in text


def test_write_per_query_csv():
    buf = io.StringIO()
    write_per_query_csv(
        [rec(qid="q9", cls="star-o3", setup=Setup.SELECT, results=2, first_s=None, retrieved=11)], buf
    )
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0][0] == "query_id"
    assert rows[1][:4] == ["q9", "star-o3", "select", "2"]
    assert rows[1][5] == ""  # no first answer


# -- suite files --------------------------------------------------------------------


def test_load_suite_and_run(tmp_path, write_web):
    ns = "http://t.example/"
    manifest = write_web({ns + "s": f"<{ns}s> <{ns}p> <{ns}o> .\n"})
    suite = tmp_path / "suite.tsv"
    suite.write_text(
        "# comment\n"
        f"q01\tentity-s\tSELECT ?o WHERE {{ <{ns}s> <{ns}p> ?o . }}\n",
        encoding="utf-8",
    )
    entries = load_suite(suite)
    assert [e.query_id for e in entries] == ["q01"]
    records = run_suite(entries, FixtureResolver(manifest), [Setup.BASE, Setup.SELECT])
    assert [(r.setup, r.results) for r in records] == [(Setup.BASE, 1), (Setup.SELECT, 1)]


@pytest.mark.parametrize("char", ["\u2028", "\u0085"])
def test_a_suite_line_ends_at_a_newline_only(tmp_path, char):
    # The IRI a document may name can be a query constant too.
    iri = f"http://t.example/x{char}y"
    suite = tmp_path / "suite.tsv"
    suite.write_text(f"q01\tentity-s\tSELECT ?o WHERE {{ <{iri}> <http://t.example/p> ?o . }}\r\n", encoding="utf-8")
    [entry] = load_suite(suite)
    assert entry.query_id == "q01" and entry.query.patterns[0].subject == iri


def test_load_suite_rejects_malformed_lines(tmp_path):
    suite = tmp_path / "suite.tsv"
    suite.write_text("q01 entity-s no tabs here\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_suite(suite)


def test_run_suite_accepts_shared_resolver(tmp_path, write_web):
    ns = "http://t.example/"
    manifest = write_web({ns + "s": f"<{ns}s> <{ns}p> <{ns}o> .\n"}, name="shared")
    entries = [
        SuiteEntry("q01", "entity-s", __import__("linkquery.query", fromlist=["parse_query"]).parse_query(
            f"SELECT ?o WHERE {{ <{ns}s> <{ns}p> ?o . }}"
        ))
    ]
    shared = FixtureResolver(manifest)
    records = run_suite(entries, shared, [Setup.BASE])
    assert records[0].results == 1


def test_run_suite_starts_every_run_cold(write_web, monkeypatch):
    # No run of a suite finds documents parsed by the run before it, so no setup's Time gains from another's.
    ns = "http://t.example/"
    manifest = write_web({ns + "s": f"<{ns}s> <{ns}p> <{ns}o> .\n"})
    entries = [SuiteEntry("q01", "entity-s", parse_query(f"SELECT ?o WHERE {{ <{ns}s> <{ns}p> ?o . }}"))]
    scopes, parse = [], rdf.parse_ntriples

    def counting(data, doc_scope, *table):
        scopes.append(doc_scope)
        return parse(data, doc_scope, *table)

    monkeypatch.setattr(rdf, "parse_ntriples", counting)
    resolver = FixtureResolver(manifest)
    run_suite(entries, resolver, [Setup.BASE, Setup.SELECT, Setup.BASE])
    assert scopes == [ns + "s"] * 3
    execute(entries[0].query, Setup.BASE, resolver)  # outside a suite, the resolver's cache holds
    assert scopes == [ns + "s"] * 3
