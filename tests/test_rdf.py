import os
import pickle
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkquery.query import Variable
from linkquery.rdf import (
    BlankNode,
    Iri,
    Literal,
    ParseError,
    Triple,
    _parse_line,
    parse_ntriples,
    scan_term,
    serialize_ntriples,
    term_to_text,
    TermScanError,
    _IRI_RE,
)


def T(s, p, o):
    return Triple(s, p, o)


EX = "http://example.org/"


def test_parse_basic_forms():
    text = """
<http://a.example/s> <http://a.example/p> <http://a.example/o> .
<http://a.example/s> <http://a.example/p> "plain" .
<http://a.example/s> <http://a.example/p> "tagged"@en .
<http://a.example/s> <http://a.example/p> "typed"^^<http://www.w3.org/2001/XMLSchema#int> .
_:b0 <http://a.example/p> _:b1 .
# a comment line
"""
    triples, errors = parse_ntriples(text, doc_scope="d")
    assert errors == []
    assert len(triples) == 5
    assert triples[0].object == Iri("http://a.example/o")
    assert triples[1].object == Literal("plain")
    assert triples[2].object == Literal("tagged", language="en")
    assert triples[3].object == Literal("typed", datatype="http://www.w3.org/2001/XMLSchema#int")
    assert triples[4].subject == BlankNode("b0", scope="d")
    assert triples[4].object == BlankNode("b1", scope="d")


def test_parse_reports_bad_lines_and_continues():
    text = "\n".join(
        [
            f"<{EX}s> <{EX}p> <{EX}o> .",
            "this is not a triple",
            f"<{EX}s> <{EX}p> <{EX}o2>",  # missing terminating dot
            f'"literal" <{EX}p> <{EX}o> .',  # literal subject
            f"<{EX}s> <{EX}p> <{EX}o3> .",
        ]
    )
    triples, errors = parse_ntriples(text, doc_scope="d")
    assert len(triples) == 2
    assert sorted(e.line for e in errors) == [2, 3, 4]


def test_parse_accepts_bytes_with_invalid_utf8():
    triples, errors = parse_ntriples(b"<http://a/s> <http://a/p> \xff\xfe .", doc_scope="d")
    assert triples == []
    assert len(errors) == 1


def test_string_escapes_round_trip():
    lit = Literal('tab\there "quote" back\\slash\nnewline')
    text = serialize_ntriples([T(Iri(EX + "s"), Iri(EX + "p"), lit)])
    assert "\\t" in text and '\\"' in text and "\\n" in text
    triples, errors = parse_ntriples(text, doc_scope="d")
    assert errors == []
    assert triples[0].object == lit


def test_numeric_escapes_in_iri_and_literal():
    triples, errors = parse_ntriples(
        "<http://a/s\\u0041> <http://a/p> \"\\U0001F600\" .", doc_scope="d"
    )
    assert errors == []
    assert triples[0].subject == Iri("http://a/sA")
    assert triples[0].object == Literal("\U0001f600")


def test_scan_term_error_carries_position():
    with pytest.raises(TermScanError) as exc:
        scan_term("<http://unterminated", 0, scope="d")
    assert exc.value.pos >= 0


_S, _P = "<http://a.example/s>", "<http://a.example/p>"
# Rejected lines and the term scanner's reason for each: an empty IRI fails
# the IRI check; an escape the scanner cannot read ends its scan at that
# term, and in a datatype it ends the literal before the datatype, where no
# '.' follows. \' escapes a literal, never an IRI, though "'" may stand in one.
_REASONS = {
    f"<> {_P} <http://a/o> .": "not an absolute IRI: ''",
    f"{_S} {_P} <> .": "not an absolute IRI: ''",
    f"<http://a/\\u00> {_P} <http://a/o> .": "expected an IRI, a blank node or a literal",
    f'{_S} {_P} "x"^^<http://a/\\u00> .': "expected '.' and at most a comment after it",
    f"{_S} {_P} <http://a/\\'> .": "expected an IRI, a blank node or a literal",
}


@pytest.mark.parametrize(
    "line, accepted",
    [
        ("<http://a/s><http://a/p><http://a/o>.", True),  # no whitespace needed between terms
        (f'{_S} {_P} "x"@en1 .', False),
        (f'{_S} {_P} "x"^ .', False),
        (f'{_S} {_P} "x"^^ .', False),
        (f"<http://a/s\\t> {_P} <http://a/o> .", False),  # only \u and \U escape an IRI
        (f"<http://a/\\U00110000> {_P} <http://a/o> .", False),
        (f"<http://a/\\U0010FFFF> {_P} <http://a/o> .", True),
        (f"_:-x {_P} <http://a/o> .", False),
        (f'{_S} {_P} "a\u0085b" .', True),  # raw U+0085 and U+2028 are not line breaks
        (f'{_S} {_P} "a\u2028b" .', True),
        (f'{_S} {_P} "it\\\'s" .', True),
        (f"{_S} {_P} <http://a/o> . # comment", True),
        (f"{_S} {_P} <http://a/o> . x", False),
        (f"<http://a/s\\u000A> {_P} <http://a/o> .", False),  # a decoded IRI is checked like any other
        # Escaped IRIs in every position, and bodies that fail the IRI check
        # as written or once decoded.
        (f"<http://a/s\\u0041> {_P} <http://a/o> .", True),
        (f"{_S} <http://a/\\u0070> <http://a/o> .", True),
        (f"{_S} {_P} <http://a/\\U0001F600> .", True),
        (f'{_S} {_P} "x"^^<http://a/\\u0064t> .', True),
        (f"<1a:b> {_P} <http://a/o> .", False),
        (f"{_S} <http://a/{{x}}> <http://a/o> .", False),
        (f"{_S} {_P} <http://a/`> .", False),
        (f'{_S} {_P} "x"^^<http://a/\\u007B> .', False),
        (f"<\\u0068ttp://a/s> {_P} <http://a/o> .", True),  # only the term scanner reads an escaped scheme
        *((line, False) for line in _REASONS),
    ],
)
def test_accepted_dialect(line, accepted):
    triples, errors = parse_ntriples(line, doc_scope="d")
    if accepted:
        assert (len(triples), errors) == (1, [])
    else:
        assert triples == [] and [e.line for e in errors] == [1] and errors[0].reason
        if line in _REASONS:
            assert errors[0].reason == _REASONS[line]


def test_an_unterminated_iri_keeps_to_its_line():
    """An IRI with no closing '>' does not take in the next line's triple."""
    triples, errors = parse_ntriples(f"<http://a/s\n{_S} {_P} <http://a/o> .\n", doc_scope="d")
    assert triples == [T(Iri(_S[1:-1]), Iri(_P[1:-1]), Iri("http://a/o"))]
    assert errors == [ParseError(1, "expected an IRI, a blank node or a literal")]


def test_each_rejected_line_is_reported_with_its_own_line_and_reason():
    doc = (
        f"{_S} {_P} <http://a/o> .\r\n# c\r\nbad\r\n<> {_P} <http://a/o> .\r\n"
        f'{_S} {_P} "x"^^<http://a/\\u00> .\r\n{_S} {_P} <http://a/`> .\n{_S} {_P} "y" .'
    )
    triples, errors = parse_ntriples(doc, doc_scope="d")
    assert len(triples) == 2
    assert errors == [
        ParseError(3, "expected an IRI, a blank node or a literal"),
        ParseError(4, "not an absolute IRI: ''"),
        ParseError(5, "expected '.' and at most a comment after it"),
        ParseError(6, "not an absolute IRI: 'http://a/`'"),
    ]


_TRIPLE_LINE = f"{_S} {_P} <http://a/o> .\n"


@pytest.mark.parametrize(
    "doc, n_triples, n_errors",
    [
        pytest.param(f'{_S} {_P} "' + '\\"' * 300_000, 0, 1, id="unterminated-escaped-quotes"),
        pytest.param(f'{_S} {_P} "' + "a" * 600_000, 0, 1, id="unterminated-literal"),
        pytest.param("<" * 600_000, 0, 1, id="brackets"),
        pytest.param("_:" + "b" * 600_000 + f" {_P} <http://a/o> .", 1, 0, id="long-blank-node-label"),
        pytest.param(f'{_S} {_P} "x"@a' + "-a" * 300_000 + " .", 1, 0, id="long-language-tag"),
        # Whole documents: a hostile line between triple lines, and many short
        # bad or comment lines among them.
        pytest.param(_TRIPLE_LINE + "<" * 600_000 + "\n" + _TRIPLE_LINE, 2, 1, id="brackets-between-triples"),
        pytest.param(_TRIPLE_LINE + f'{_S} {_P} "' + "a" * 600_000 + "\r\n" + _TRIPLE_LINE, 2, 1,
                     id="literal-between-triples"),
        pytest.param((_TRIPLE_LINE + "bad line\n") * 100_000, 100_000, 100_000, id="bad-lines-among-triples"),
        pytest.param((_TRIPLE_LINE + "# c\n") * 100_000, 100_000, 0, id="comment-lines-among-triples"),
    ],
)
def test_hostile_lines_parse_in_linear_time(doc, n_triples, n_errors):
    start = time.perf_counter()
    triples, errors = parse_ntriples(doc, doc_scope="d")
    assert time.perf_counter() - start < 2.0
    assert (len(triples), len(errors)) == (n_triples, n_errors)


# Term fragments, among them the places where a whole-line match could end a
# term elsewhere than the term scanner does: a label running into another
# blank node, a tag followed by '-' or '.', a datatype or a tag right before
# the '.', and terms with no space between them.
_TERMS = (
    "<http://a/s>", "<http://a/p>", "<http://a/\\u0041>", "<rel>", "<http://a/\\u0020>", "<http://a",
    "_:a", "_:a_", "_:a_:b", "_:a-", "_:",
    '"x"', '"x"@en', '"x"@en-', '"x"@en-1a', '"x"@en-1a.', '"x"^^<http://a/d>', '"x"^^<http://a/d>.',
    '"x"^^<rel>', '"\\t\\u00E9"', '"x"@', '"x"^^', '"x',
    "<1a:b>", "<http://a/{x}>", "<http://a/`>", "<http://a/\\u007B>", '"x"^^<http://a/\\u007B>',
    "<\\u0068ttp://a/s>", "<>", "<http://a/\\u00>", '"x"^^<http://a/\\u00>', "<http://a/\\'>",
)
_GAPS = ("", "", " ", "\t")
_ENDS = (" .", ".", " . # c") * 4 + ("", " . x", "-", "_:b .", "#")
# Valid subjects and predicates come up more often, so that about a quarter
# of the lines built as three terms and an end are triples.
_gap, _end = st.sampled_from(_GAPS), st.sampled_from(_ENDS)
_subject = st.sampled_from(("<http://a/s>", "_:a", "_:a_", "_:a-") * 8 + _TERMS)
_predicate = st.sampled_from(("<http://a/p>",) * 60 + _TERMS)
_lines = st.one_of(
    st.tuples(_gap, _subject, _gap, _predicate, _gap, st.sampled_from(_TERMS), _end).map("".join),
    st.lists(st.sampled_from(_TERMS + _GAPS + _ENDS), max_size=9).map("".join),
)


def _scanned(line):
    """What the term scanner alone makes of one line, as parse_ntriples reports it."""
    try:
        t = _parse_line(line, "d")
    except ValueError as e:
        return [], [ParseError(1, str(e))]
    return [t] if t is not None else [], []


@settings(max_examples=1000)
@given(_lines)
def test_line_regex_agrees_with_term_scanner(line):
    assert parse_ntriples(line, doc_scope="d") == _scanned(line)


@settings(max_examples=500)
@given(_lines)
def test_parsed_iris_pass_the_iri_check(line):
    for t in parse_ntriples(line, doc_scope="d")[0]:
        iris = [x for x in t if isinstance(x, Iri)]
        if isinstance(t.object, Literal) and t.object.datatype is not None:
            iris.append(t.object.datatype)
        assert all(_IRI_RE.fullmatch(x) for x in iris), t


def test_iri_rejects_relative_and_spaces():
    with pytest.raises(ValueError):
        Iri("no-scheme-here")
    with pytest.raises(ValueError):
        Iri("http://a.example/with space")
    with pytest.raises(ValueError):
        Iri("http://a/s\n")


def test_triple_validation():
    s, p = Iri(EX + "s"), Iri(EX + "p")
    with pytest.raises(ValueError):
        Triple(Literal("x"), p, s)
    with pytest.raises(ValueError):
        Triple(s, Literal("x"), s)
    with pytest.raises(ValueError):
        Triple(s, BlankNode("b", "d"), s)


def test_pickled_triple_is_found_under_another_hash_seed():
    """Terms hash from salted ``str`` hashes; unpickling must hash them afresh."""
    line = '_:b <http://a.example/p> "v"@en .\n'
    code = (
        "import pickle, sys; from linkquery.rdf import parse_ntriples; "
        f"t = parse_ntriples({line!r}, 'd')[0][0]; "
        "sys.stdout.buffer.write(pickle.dumps((hash('probe'), t, t.subject, t.object)))"
    )
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True, timeout=60)
        probe, triple, bnode, literal = pickle.loads(out.stdout)
        if probe != hash("probe"):
            break
    assert probe != hash("probe"), "the child process should hash strings differently"
    assert triple in set(parse_ntriples(line, "d")[0])
    assert bnode in {BlankNode("b", "d")} and type(bnode) is BlankNode
    assert literal in {Literal("v", language="en")} and type(literal) is Literal


_A = "http://a/x"
# Terms that share their text, and a query variable, none equal to another.
_SAME_TEXT = (Iri(_A), Literal(_A), BlankNode("x", "d"), Literal("x"), Variable("x"), Variable(_A))


@pytest.mark.parametrize(
    "term, text, plain, field",
    [
        (Iri(_A), "Iri('http://a/x')", _A, "value"),
        (BlankNode("x", "d"), "BlankNode(label='x', scope='d')", ("x", "d"), "label"),
        (Literal("x", language="en"), "Literal(lexical='x', datatype=None, language='en')", ("x", None, "en"), "lexical"),
        (Literal(_A), "Literal(lexical='http://a/x', datatype=None, language=None)", (_A, None, None), "datatype"),
        (
            Triple(Iri(_A), Iri(_A), Literal("x")),
            "Triple(subject=Iri('http://a/x'), predicate=Iri('http://a/x'), "
            "object=Literal(lexical='x', datatype=None, language=None))",
            (_A, _A, ("x", None, None)),
            "object",
        ),
    ],
)
def test_term_value_semantics(term, text, plain, field):
    assert repr(term) == text
    assert term == plain and hash(term) == hash(plain)
    for other in _SAME_TEXT:
        if type(other) is not type(term):
            assert term != other and other != term
    for name in (field, "other"):
        with pytest.raises(AttributeError):
            setattr(term, name, "y")


def test_literal_rejects_datatype_and_language_together():
    with pytest.raises(ValueError):
        Literal("x", datatype=EX + "t", language="en")


# -- hypothesis: serialization round trip and parser totality -------------------

_iri_text = st.text(
    alphabet=st.characters(
        min_codepoint=33,
        max_codepoint=0x2FF,
        blacklist_characters='<>"{}|^`\\',
    ),
    max_size=12,
)
_iris = st.builds(lambda tail: Iri("http://x.example/" + tail), _iri_text)
_bnodes = st.builds(
    lambda label: BlankNode(label, scope="orig"),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_\-]{0,8}", fullmatch=True),
)
_plain = st.builds(Literal, st.text(max_size=20))
_tagged = st.builds(lambda s, l: Literal(s, language=l), st.text(max_size=10), st.sampled_from(["en", "en-US", "de"]))
_typed = st.builds(lambda s, d: Literal(s, datatype=d.value), st.text(max_size=10), _iris)
_objects = st.one_of(_iris, _bnodes, _plain, _tagged, _typed)
_triples = st.builds(T, st.one_of(_iris, _bnodes), _iris, _objects)


def _same_modulo_bnodes(a, b):
    fwd, back = {}, {}
    for ta, tb in zip(a, b):
        for x, y in zip(ta.terms(), tb.terms()):
            if isinstance(x, BlankNode) != isinstance(y, BlankNode):
                return False
            if isinstance(x, BlankNode):
                if fwd.setdefault(x, y) != y or back.setdefault(y, x) != x:
                    return False
            elif x != y:
                return False
    return len(a) == len(b)


@given(st.lists(_triples, max_size=8))
def test_round_trip_modulo_bnode_relabeling(triples):
    text = serialize_ntriples(triples)
    parsed, errors = parse_ntriples(text, doc_scope="again")
    assert errors == []
    assert _same_modulo_bnodes(triples, parsed)


@given(st.binary(max_size=400))
def test_parser_is_total_on_arbitrary_bytes(data):
    triples, errors = parse_ntriples(data, doc_scope="d")
    assert isinstance(triples, list) and isinstance(errors, list)
    for t in triples:
        assert isinstance(t, Triple)


@given(_objects)
def test_term_to_text_single_term_round_trip(term):
    if isinstance(term, BlankNode):
        return  # labels are rewritten on serialization; covered above
    text = f"<http://x.example/s> <http://x.example/p> {term_to_text(term)} ."
    parsed, errors = parse_ntriples(text, doc_scope="d")
    assert errors == []
    assert parsed[0].object == term


# -- hypothesis: one scan per document, and one IRI table per run --------------

# Triple lines that the whole-document scan matches: serialized triples,
# escaped IRIs that decode to a plain one, and escaped IRIs that fail the IRI
# check once decoded (the scan matches them; the line is then an error).
_escaped = st.sampled_from((
    "<http://a/\\u0041> <http://a/p> <http://a/o> .",
    "<http://a/s> <http://a/\\u0070> _:b .",
    '_:b <http://a/p> "x"^^<http://a/\\u0064t> .',
    "<http://a/s> <http://a/p> <http://a/\\u0020> .",
    '<http://a/s> <http://a/p> "x"^^<http://a/\\u007B> .',
    "<http://a/\\u000A> <http://a/p> <http://a/o> . # c",
))
_triple_lines = st.one_of(_triples.map(lambda t: serialize_ntriples([t])[:-1]), _escaped)
_other_lines = st.one_of(st.sampled_from(("", "  ", "\t", "# c", " # c")), _lines)
_ends = st.sampled_from(("\n", "\n", "\r\n"))
_tails = st.sampled_from(("", "", "\n", "\r\n", "\r", "\n\n", "\r\r\n"))


@st.composite
def _documents(draw):
    """A document of triple lines, and now and then other lines too."""
    lines = _triple_lines if draw(st.booleans()) else st.one_of(_triple_lines, _other_lines)
    text = "".join(line + end for line, end in draw(st.lists(st.tuples(lines, _ends), max_size=10)))
    if draw(st.booleans()):
        text = text[:-1]  # no final newline, or a final bare \r
    return text + draw(_tails)


def _line_by_line(text):
    """The term scanner's reading of a document, one line at a time, in scope "d"."""
    triples, errors = [], []
    lines = text.split("\n")
    for n, line in enumerate(lines[:-1] if lines[-1] == "" else lines, start=1):
        t, e = _scanned(line[:-1] if line.endswith("\r") else line)
        triples += t
        errors += [ParseError(n, x.reason) for x in e]
    return triples, errors


def _typed(parsed):
    """Triples with the types of their terms, and errors, for comparison."""
    triples, errors = parsed
    kinds = [tuple(map(type, t)) + (type(t[2][1]) if isinstance(t[2], Literal) else None,) for t in triples]
    return triples, kinds, errors


@settings(max_examples=300)
@given(st.lists(_documents(), min_size=1, max_size=6))
def test_a_lent_iri_table_changes_no_parse(docs):
    table = {}
    lent = [parse_ntriples(d, "d", table) for d in docs]
    alone = [parse_ntriples(d, "d") for d in docs]
    assert [_typed(x) for x in lent] == [_typed(x) for x in alone]
    assert [_typed(x) for x in alone] == [_typed(_line_by_line(d)) for d in docs]
    # Under one table, each IRI is one object across all the documents, and the table's own.
    seen = {}
    for triples, _ in lent:
        for iri in (x for t in triples for x in t if isinstance(x, Iri)):
            assert seen.setdefault(iri, iri) is iri
            assert table[iri] is iri


_bad_lines = _lines.filter(lambda line: _scanned(line)[1])


@settings(max_examples=300)
@given(st.lists(_triple_lines, min_size=1, max_size=10), _bad_lines, st.data())
def test_one_bad_line_leaves_the_rest_of_a_document_as_it_was(lines, bad, data):
    """A bad line added to a document of triple lines leaves the other
    triples as they were and is reported under its own line number."""
    text = "\n".join(lines) + data.draw(st.sampled_from(("", "\n", "\r\n")))
    at = data.draw(st.integers(0, len(lines)))
    triples, errors = parse_ntriples(text, "d")
    got, got_errors = parse_ntriples("\n".join(lines[:at] + [bad] + lines[at:]) + "\n", "d")
    assert _typed((got, [])) == _typed((triples, []))
    shifted = [ParseError(e.line + (e.line > at), e.reason) for e in errors]
    assert got_errors == sorted(shifted + [ParseError(at + 1, _scanned(bad)[1][0].reason)], key=lambda e: e.line)
