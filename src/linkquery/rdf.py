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

Every document is read by one regex scan over its whole text, one match per
line; a ``>`` put at the end of every line keeps each match on its line. A
valid line matches the line grammar, whose IRI groups take any text up to
the next ``>`` and check nothing. A blank or comment line matches as such.
Any other line, and any line with an IRI that fails its check, goes to the
term scanner, which reports why it is not a triple.

The IRI check runs when an IRI group's text first enters the parser's IRI
table, so it runs once per distinct IRI, not once per occurrence. Documents
retrieved together keep naming the same IRIs, so a caller may pass the
parser one IRI table for many documents; they then share one ``Iri`` per
IRI, checked once while it stays in the table. Without a table passed in,
each document has one of its own.
"""

from __future__ import annotations

import re
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
# is any text up to the next '>', one negated character that ``re`` runs in
# its fastest loop; it ends where the term scanner ends that IRI, and its
# text is checked on the IRI table's miss path (see ``parse_ntriples``).
# Its body is never empty, because an empty group reads as an absent term.
_LINE_IRI = r"<([^>]+)>"
# Unlike the term grammar's, its literal body takes no \n (a line has none).
_LINE_LITERAL = rf'"([^"\\\n]*(?:(?:{_UCHAR}|\\[tbnrf"\'\\])[^"\\\n]*)*)"'
_LINE = (
    rf"[ \t]*(?:{_LINE_IRI}|{_BNODE})[ \t]*{_LINE_IRI}"
    rf"[ \t]*(?:{_LINE_IRI}|{_BNODE}|{_LINE_LITERAL}(?:{_LANG}|\^\^{_LINE_IRI})?)"
    + _LINE_END
)
# The line grammar over a whole document, one match per line. The document
# is scanned with a '>' put before every \n and at its end, so every line
# ends in '>': an IRI group stops at that '>' at the latest and cannot run
# past its line, and no other alternative takes a \n. A match runs from the
# start of a line to that '>', with a \r allowed before it. A triple line
# fills the line grammar's eight groups, a blank or comment line none, and
# any other line only the ninth, which holds the line without its final \r.
_DOC_RE = re.compile(rf"^(?:{_LINE}|[ \t]*(?:#.*)?|(.*?))\r?>$", re.M)
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


def _reason(line: str, scope: str) -> str:
    """Why ``line`` holds no triple, in the term scanner's words.

    ``parse_ntriples`` takes every reason from here. It sends only lines
    the scanner must reject too: lines outside the line grammar, and lines
    with an IRI that fails its check.
    """
    try:
        _parse_line(line, scope)
    except ValueError as e:
        return str(e)
    raise AssertionError(f"the term scanner reads a line the parser rejected: {line!r}")


def parse_ntriples(
    data: bytes | str, doc_scope: str, iris: dict[str, Iri] | None = None
) -> tuple[list[Triple], list[ParseError]]:
    """Parse N-Triples leniently.

    Every line is attempted independently: malformed lines are collected as
    ParseError(line, reason) and skipped. Blank nodes are scoped to doc_scope.
    Never raises on document content.

    One scan of ``_DOC_RE`` reads every line of the document. IRIs come from
    ``iris``, an IRI table that maps IRI group text to its ``Iri`` and that
    the parse adds to, or from a table of this document's own when it is
    None; an IRI group's text is checked only when it is not in the table
    yet.
    """
    if isinstance(data, bytes):
        text = data.decode("utf-8", errors="replace")
    else:
        text = data
    triples: list[Triple] = []
    errors: list[ParseError] = []
    new = tuple.__new__
    append = triples.append
    if iris is None:
        iris = {}
    known = iris.get

    def iri(body: str) -> Iri:
        """The table's miss path: check an IRI group's text and enter its Iri."""
        if "\\" not in body:
            got = iris[body] = Iri(body)
        else:  # read as the term scanner reads it, and shared with the same IRI written plainly
            decoded = scan_term(f"<{body}>", 0, doc_scope)[0]
            got = iris[body] = iris[decoded] = known(decoded) or decoded
        return got

    # No IRI, label, tag or datatype matches empty, so '' means absent. A
    # final \n leaves one blank row after it.
    rows = _DOC_RE.findall(text.replace("\n", ">\n") + ">")
    lines = None  # the document's lines, split at its first rejected triple row
    for lineno, (s_iri, s_label, p, o_iri, o_label, lexical, language, datatype, other) in enumerate(rows, start=1):
        try:
            if s_iri:
                s = known(s_iri) or iri(s_iri)
            elif s_label:
                s = BlankNode(s_label, doc_scope)
            else:
                if other:  # neither a triple nor a blank line to the line grammar
                    errors.append(ParseError(lineno, _reason(other, doc_scope)))
                continue
            p = known(p) or iri(p)
            if o_iri:
                o = known(o_iri) or iri(o_iri)
            elif o_label:
                o = BlankNode(o_label, doc_scope)
            else:
                if "\\" in lexical:
                    lexical = _unescape(lexical)
                if datatype:
                    datatype = (known(datatype) or iri(datatype)).value
                # The line regex admits a tag or a datatype, never both.
                o = new(Literal, (lexical, datatype or None, language or None))
            # The line regex admits no literal subject and only an IRI predicate.
            append(new(Triple, (s, p, o)))
        except ValueError:  # an IRI that fails its check
            if lines is None:
                lines = text.split("\n")
            line = lines[lineno - 1]
            errors.append(ParseError(lineno, _reason(line[:-1] if line[-1:] == "\r" else line, doc_scope)))
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



def read_lines(path) -> list[str]:
    """A UTF-8 text file's lines, split as a document's are: at ``\\n`` only, each without a final ``\\r``.

    The suite and ground-truth readers take their lines from it, so that any IRI a document may
    hold, one with U+0085 or U+2028 say, can also be written on one of their lines.
    """
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    return [line[:-1] if line[-1:] == "\r" else line for line in text.split("\n")]
