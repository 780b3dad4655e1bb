r"""RDF data model and N-Triples I/O.

Terms are immutable builtin values, so that they hash and compare in C: an
``Iri`` is a ``str`` and equals and hashes as its text; a ``BlankNode`` is
the tuple ``(label, scope)``, a ``Literal`` the tuple ``(lexical, datatype,
language)`` and a ``Triple`` the tuple of its three terms, and each equals
the plain tuple it holds. Terms of different kinds never compare equal.
Blank nodes carry a document scope identifier so that labels coming from
different sources never collide once documents are merged into one store.
The parser is line based and lenient: a malformed line is reported with its
line number and skipped, it never aborts the document.

The reader accepts this dialect of N-Triples:

- one triple per line, lines split on ``\n`` only, with a ``\r`` before it
  stripped; U+0085 and U+2028 are ordinary characters;
- spaces and tabs between terms are optional;
- ``\uXXXX`` and ``\UXXXXXXXX`` are the only escapes allowed in IRIs;
  literals also allow ``\t \b \n \r \f \" \' \\``;
- an IRI, once its escapes are decoded, must still pass the IRI check, so
  ``<http://a/s\u000A>`` is rejected like any other IRI with a control
  character;
- a ``# comment`` may follow the terminating ``.``, or fill a line;
- any other line is recorded as a ParseError for that line and skipped.

A valid line is read with one whole-line regex whose IRI groups carry the IRI
check, so an IRI without escapes is checked once, by that match, and not
again when it becomes an ``Iri``. Any line that regex does not match, an IRI
that fails the check among them, goes to the term scanner, which reports why.
A document whose lines are all triple lines is read by one scan of the same
grammar over the whole text; any other is read line by line.

Documents retrieved together keep naming the same IRIs, so a fetcher may lend
the parser one IRI table for all the documents of a run (``RUN_IRIS``); they
then share one ``Iri`` per IRI. Without a lent table each document has one of
its own.
"""

from __future__ import annotations

import re
from contextvars import ContextVar
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Union

# Absolute IRI with a scheme, restricted to characters that survive the
# <...> serialization unescaped.
_SCHEME = r"[A-Za-z][A-Za-z0-9+.\-]*:"
_IRI_CHAR = r'[^\x00-\x20<>"{}|^\x60\\]'
_IRI_RE = re.compile(_SCHEME + _IRI_CHAR + "*")
_BNODE_LABEL = r"[A-Za-z_][A-Za-z0-9_\-]*"
_BNODE_LABEL_RE = re.compile(_BNODE_LABEL)

_STRING_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}
# The writer escapes \ " \n \r \t as the reader's table spells them, and
# every other code point below 0x20 as \uXXXX.
_LITERAL_ESCAPES = str.maketrans(
    {chr(c): f"\\u{c:04X}" for c in range(0x20)} | {_STRING_ESCAPES[k]: "\\" + k for k in '\\"nrt'}
)

# The term grammar. Each repeated body is written as an unrolled loop,
# plain* (escape plain*)*, so that a line with no closing quote or bracket
# fails in linear time. \U stops at U+10FFFF.
_UCHAR = r"\\u[0-9A-Fa-f]{4}|\\U(?:000[0-9A-Fa-f]|0010)[0-9A-Fa-f]{4}"
_IRI_BODY = rf"<([^>\\]*(?:(?:{_UCHAR})[^>\\]*)*)>"
_BNODE = rf"_:({_BNODE_LABEL})"
_LITERAL_BODY = rf'"([^"\\]*(?:(?:{_UCHAR}|\\[tbnrf"\'\\])[^"\\]*)*)"'
_LANG = r"@([A-Za-z]+(?:-[A-Za-z0-9]+)*)"
_TERM_RE = re.compile(rf"[ \t]*(?:{_IRI_BODY}|{_BNODE}|{_LITERAL_BODY}(?:{_LANG}|\^\^{_IRI_BODY})?)")
_LINE_END = r"[ \t]*\.[ \t]*(?:#.*)?"
# A whole valid triple line in one match: an IRI or blank-node subject, an
# IRI predicate, any object, then the end. A label or a tag can only be
# followed here by a space, a tab, '<' or '.', none of which could continue
# it, so each group ends where the term scanner ends that term. An IRI group
# is the IRI check's own grammar with \u and \U escapes between its
# characters, so an IRI group without a backslash has passed that check;
# one with escapes is checked again once they are decoded.
_LINE_IRI = rf"<({_SCHEME}{_IRI_CHAR}*(?:(?:{_UCHAR}){_IRI_CHAR}*)*)>"
# Unlike the term grammar's, its literal body takes no \n (a line has none).
_LINE_LITERAL = rf'"([^"\\\n]*(?:(?:{_UCHAR}|\\[tbnrf"\'\\])[^"\\\n]*)*)"'
_LINE_RE = re.compile(
    rf"[ \t]*(?:{_LINE_IRI}|{_BNODE})[ \t]*{_LINE_IRI}"
    rf"[ \t]*(?:{_LINE_IRI}|{_BNODE}|{_LINE_LITERAL}(?:{_LANG}|\^\^{_LINE_IRI})?)"
    + _LINE_END
)
# The line grammar over a whole document, one match per triple line: a match
# runs from the start of a line to its end, with a \r allowed before that
# end. No part of the line grammar takes a \n, so no match crosses a line,
# and the matches are as many as the lines only when every line is one.
_DOC_RE = re.compile("^" + _LINE_RE.pattern + r"\r?$", re.M)
_ESCAPE_RE = re.compile(r"\\(u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|.)")
_BLANK_LINE_RE = re.compile(r"[ \t]*(?:#|$)")
_LINE_END_RE = re.compile(_LINE_END)


class Iri(str):
    """An absolute IRI: a ``str`` whose text passed the IRI check."""

    __slots__ = ()

    def __new__(cls, value: str) -> Iri:
        if not _IRI_RE.fullmatch(value):
            raise ValueError(f"not an absolute IRI: {value!r}")
        return str.__new__(cls, value)

    # A copy of the text as a plain ``str``; the Iri itself is the cheaper key.
    value = property(str.__str__)

    def __repr__(self) -> str:
        return f"Iri({str.__repr__(self)})"


class BlankNode(tuple):
    """A blank node label together with the scope (document) that minted it."""

    __slots__ = ()
    label = property(itemgetter(0))
    scope = property(itemgetter(1))

    def __new__(cls, label: str, scope: str) -> BlankNode:
        if not _BNODE_LABEL_RE.fullmatch(label):
            raise ValueError(f"bad blank node label: {label!r}")
        return tuple.__new__(cls, (label, scope))

    def __reduce__(self):
        return (BlankNode, tuple(self))

    def __repr__(self) -> str:
        return f"BlankNode(label={self[0]!r}, scope={self[1]!r})"


class Literal(tuple):
    """A literal with an optional datatype IRI or language tag (not both)."""

    __slots__ = ()
    lexical = property(itemgetter(0))
    datatype = property(itemgetter(1))
    language = property(itemgetter(2))

    def __new__(cls, lexical: str, datatype: str | None = None, language: str | None = None) -> Literal:
        if datatype is not None and language is not None:
            raise ValueError("literal cannot carry both a datatype and a language tag")
        return tuple.__new__(cls, (lexical, datatype, language))

    def __reduce__(self):
        return (Literal, tuple(self))

    def __repr__(self) -> str:
        return f"Literal(lexical={self[0]!r}, datatype={self[1]!r}, language={self[2]!r})"


Term = Union[Iri, BlankNode, Literal]


class Triple(tuple):
    """An RDF triple: the tuple of its subject, predicate and object terms.

    Pickling rebuilds a triple through the constructor, so it is checked
    again on the way in.
    """

    __slots__ = ()
    subject = property(itemgetter(0))
    predicate = property(itemgetter(1))
    object = property(itemgetter(2))

    def __new__(cls, subject: Term, predicate: Term, object: Term) -> Triple:
        if isinstance(subject, Literal):
            raise ValueError("triple subject cannot be a literal")
        if not isinstance(predicate, Iri):
            raise ValueError("triple predicate must be an IRI")
        return tuple.__new__(cls, (subject, predicate, object))

    def __reduce__(self):
        return (Triple, tuple(self))

    def __repr__(self) -> str:
        return f"Triple(subject={self[0]!r}, predicate={self[1]!r}, object={self[2]!r})"

    def terms(self) -> tuple[Term, Term, Term]:
        return self


@dataclass(frozen=True, slots=True)
class Document:
    """A fetched document: the IRI it was requested under and its triples."""

    iri: str
    triples: tuple[Triple, ...]


@dataclass(frozen=True, slots=True)
class ParseError:
    line: int
    reason: str


# Well-known vocabulary terms.
RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"

RDF_TYPE = Iri(RDF_NS + "type")
RDFS_SUBCLASSOF = Iri(RDFS_NS + "subClassOf")
RDFS_SUBPROPERTYOF = Iri(RDFS_NS + "subPropertyOf")
RDFS_DOMAIN = Iri(RDFS_NS + "domain")
RDFS_RANGE = Iri(RDFS_NS + "range")
RDFS_SEEALSO = Iri(RDFS_NS + "seeAlso")
OWL_SAMEAS = Iri(OWL_NS + "sameAs")


# The IRI table a fetcher lends ``parse_ntriples`` for the documents of one
# run, so that they share one Iri per IRI; None outside a run. It is not a
# parameter because the benchmark's tracer wraps ``parse_ntriples`` as a
# two-argument function, and a third argument would not reach the parser.
RUN_IRIS: ContextVar[dict[str, Iri] | None] = ContextVar("RUN_IRIS", default=None)


class TermScanError(ValueError):
    def __init__(self, msg: str, pos: int) -> None:
        super().__init__(msg)
        self.pos = pos


def _unescape(body: str) -> str:
    return _ESCAPE_RE.sub(_decode_escape, body) if "\\" in body else body


def _decode_escape(m: re.Match) -> str:
    code = m[1]
    return _STRING_ESCAPES.get(code) or chr(int(code[1:], 16))


def scan_term(s: str, i: int, scope: str) -> tuple[Term, int]:
    """Scan one N-Triples term at position i, after any spaces or tabs.

    Returns (term, next). Raises TermScanError where no term starts, and
    ValueError for an IRI that does not validate.
    """
    m = _TERM_RE.match(s, i)
    if m is None:
        raise TermScanError("expected an IRI, a blank node or a literal", i)
    iri, label, lexical, language, datatype = m.groups()
    if iri is not None:
        return Iri(_unescape(iri)), m.end()
    if label is not None:
        return BlankNode(label, scope), m.end()
    if datatype is not None:
        datatype = Iri(_unescape(datatype)).value
    return Literal(_unescape(lexical), datatype, language), m.end()


def _parse_line(line: str, scope: str) -> Triple | None:
    """Parse one line; returns None for blank/comment lines, raises ValueError."""
    if _BLANK_LINE_RE.match(line):
        return None
    subject, i = scan_term(line, 0, scope)
    predicate, i = scan_term(line, i, scope)
    obj, i = scan_term(line, i, scope)
    if not _LINE_END_RE.fullmatch(line, i):
        raise TermScanError("expected '.' and at most a comment after it", i)
    return Triple(subject, predicate, obj)


def parse_ntriples(data: bytes | str, doc_scope: str) -> tuple[list[Triple], list[ParseError]]:
    """Parse N-Triples leniently.

    Every line is attempted independently: malformed lines are collected as
    ParseError(line, reason) and skipped. Blank nodes are scoped to doc_scope.
    Never raises on document content.

    A document whose lines are all triple lines is read by one scan of
    ``_DOC_RE``; any other goes line by line. IRIs come from the table in
    ``RUN_IRIS`` when a fetcher lends one, and from a table of this
    document's own otherwise.
    """
    if isinstance(data, bytes):
        text = data.decode("utf-8", errors="replace")
    else:
        text = data
    triples: list[Triple] = []
    errors: list[ParseError] = []
    iris = RUN_IRIS.get()
    if iris is None:
        iris = {}  # IRI body as written -> its Iri
    known = iris.get

    def iri(body: str) -> Iri:
        if "\\" not in body:  # the line regex has checked it
            got = iris[body] = str.__new__(Iri, body)
        else:  # checked once decoded, and shared with the same IRI written plainly
            decoded = _unescape(body)
            got = iris[body] = iris[decoded] = known(decoded) or Iri(decoded)
        return got

    def triple(row: tuple[str, ...]) -> Triple:
        """The triple of one line grammar match, its absent groups ''; raises
        ValueError for an escaped IRI that fails its check once decoded."""
        s_iri, s_label, p, o_iri, o_label, lexical, language, datatype = row
        # No IRI, label, tag or datatype matches empty, so '' means absent.
        s = (known(s_iri) or iri(s_iri)) if s_iri else BlankNode(s_label, doc_scope)
        p = known(p) or iri(p)
        if o_iri:
            o = known(o_iri) or iri(o_iri)
        elif o_label:
            o = BlankNode(o_label, doc_scope)
        else:
            if datatype and "\\" in datatype:
                datatype = (known(datatype) or iri(datatype)).value
            # The line regex admits a tag or a datatype, never both.
            o = tuple.__new__(Literal, (_unescape(lexical), datatype or None, language or None))
        # The line regex admits no literal subject and only an IRI predicate.
        return tuple.__new__(Triple, (s, p, o))

    rows = _DOC_RE.findall(text)
    if len(rows) == text.count("\n") + (text[-1:] not in ("", "\n")):  # every line a triple line
        for lineno, row in enumerate(rows, start=1):
            try:
                triples.append(triple(row))
            except ValueError as e:
                errors.append(ParseError(lineno, str(e)))
        return triples, errors

    # split on \n / \r\n only: exotic codepoints like U+0085 or U+2028 are
    # ordinary content inside terms, not line breaks
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    line_match = _LINE_RE.fullmatch
    for lineno, line in enumerate(lines, start=1):
        if line.endswith("\r"):
            line = line[:-1]
        m = line_match(line)
        try:
            # no match (blank, comment or malformed): the term scanner decides
            t = _parse_line(line, doc_scope) if m is None else triple(m.groups(""))
        except ValueError as e:  # scan errors and decoded IRIs that fail their check
            errors.append(ParseError(lineno, str(e)))
            continue
        if t is not None:
            triples.append(t)
    return triples, errors


def term_to_text(term: Term, bnode_label: str | None = None) -> str:
    """N-Triples surface form of a term."""
    if isinstance(term, Iri):
        return f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{bnode_label or term.label}"
    lex = f'"{term.lexical.translate(_LITERAL_ESCAPES)}"'
    if term.language is not None:
        return f"{lex}@{term.language}"
    if term.datatype is not None:
        return f"{lex}^^<{term.datatype}>"
    return lex


def serialize_ntriples(triples: Iterable[Triple]) -> str:
    """Serialize triples, one line each.

    Blank node labels are kept when unambiguous; labels reused across
    different scopes are renamed so distinct nodes never share a label.
    """
    assigned: dict[tuple[str, str], str] = {}
    taken: set[str] = set()

    def label_for(b: BlankNode) -> str:
        key = (b.label, b.scope)
        got = assigned.get(key)
        if got is not None:
            return got
        candidate = b.label
        k = 2
        while candidate in taken:
            candidate = f"{b.label}-{k}"
            k += 1
        assigned[key] = candidate
        taken.add(candidate)
        return candidate

    lines: list[str] = []
    for t in triples:
        parts = []
        for term in t.terms():
            if isinstance(term, BlankNode):
                parts.append(term_to_text(term, bnode_label=label_for(term)))
            else:
                parts.append(term_to_text(term))
        lines.append(" ".join(parts) + " .")
    return "\n".join(lines) + ("\n" if lines else "")

