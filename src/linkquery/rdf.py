r"""RDF data model and N-Triples I/O.

Terms are immutable. Blank nodes carry a document scope identifier so that
labels coming from different sources never collide once documents are merged
into one store. The parser is line based and lenient: a malformed line is
reported with its line number and skipped, it never aborts the document.

The reader accepts this dialect of N-Triples:

- one triple per line, lines split on ``\n`` only, with a ``\r`` before it
  stripped; U+0085 and U+2028 are ordinary characters;
- spaces and tabs between terms are optional;
- ``\uXXXX`` and ``\UXXXXXXXX`` are the only escapes allowed in IRIs;
  literals also allow ``\t \b \n \r \f \" \' \\``;
- a ``# comment`` may follow the terminating ``.``, or fill a line;
- any other line is recorded as a ParseError for that line and skipped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Union

# Absolute IRI with a scheme, restricted to characters that survive the
# <...> serialization unescaped.
_IRI_RE = re.compile(r'^[A-Za-z][A-Za-z0-9+.\-]*:[^\x00-\x20<>"{}|^\x60\\]*$')
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
_TERM_RE = re.compile(
    rf"[ \t]*(?:{_IRI_BODY}|_:({_BNODE_LABEL})"
    rf'|"([^"\\]*(?:(?:{_UCHAR}|\\[tbnrf"\'\\])[^"\\]*)*)"'
    rf"(?:@([A-Za-z]+(?:-[A-Za-z0-9]+)*)|\^\^{_IRI_BODY})?)"
)
_ESCAPE_RE = re.compile(r"\\(u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|.)")
_BLANK_LINE_RE = re.compile(r"[ \t]*(?:#|$)")
_LINE_END_RE = re.compile(r"[ \t]*\.[ \t]*(?:#.*)?$")


@dataclass(frozen=True, slots=True)
class Iri:
    """An absolute IRI."""

    value: str

    def __post_init__(self) -> None:
        if not _IRI_RE.match(self.value):
            raise ValueError(f"not an absolute IRI: {self.value!r}")

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        return f"Iri({self.value!r})"


@dataclass(frozen=True, slots=True)
class BlankNode:
    """A blank node label together with the scope (document) that minted it."""

    label: str
    scope: str

    def __post_init__(self) -> None:
        if not _BNODE_LABEL_RE.fullmatch(self.label):
            raise ValueError(f"bad blank node label: {self.label!r}")


@dataclass(frozen=True, slots=True)
class Literal:
    """A literal with an optional datatype IRI or language tag (not both)."""

    lexical: str
    datatype: str | None = None
    language: str | None = None

    def __post_init__(self) -> None:
        if self.datatype is not None and self.language is not None:
            raise ValueError("literal cannot carry both a datatype and a language tag")


Term = Union[Iri, BlankNode, Literal]


@dataclass(frozen=True, slots=True)
class Triple:
    """An RDF triple.

    Its hash is computed once, at construction, and kept in ``_hash``: the
    store, the chainer and the evaluator look every triple up in several
    sets and dicts, and a dataclass would hash three terms again each time.
    That hash is derived from ``str`` hashes, which Python salts per
    process, so it must never be copied across a process boundary;
    ``__reduce__`` makes pickling rebuild the triple through the
    constructor, which hashes it afresh.
    """

    subject: Term
    predicate: Term
    object: Term
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.subject, Literal):
            raise ValueError("triple subject cannot be a literal")
        if not isinstance(self.predicate, Iri):
            raise ValueError("triple predicate must be an IRI")
        object.__setattr__(self, "_hash", hash((self.subject, self.predicate, self.object)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Triple, (self.subject, self.predicate, self.object))

    def terms(self) -> tuple[Term, Term, Term]:
        return (self.subject, self.predicate, self.object)


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
    if not _LINE_END_RE.match(line, i):
        raise TermScanError("expected '.' and at most a comment after it", i)
    return Triple(subject, predicate, obj)


def parse_ntriples(data: bytes | str, doc_scope: str) -> tuple[list[Triple], list[ParseError]]:
    """Parse N-Triples leniently.

    Every line is attempted independently: malformed lines are collected as
    ParseError(line, reason) and skipped. Blank nodes are scoped to doc_scope.
    Never raises on document content.
    """
    if isinstance(data, bytes):
        text = data.decode("utf-8", errors="replace")
    else:
        text = data
    triples: list[Triple] = []
    errors: list[ParseError] = []
    # split on \n / \r\n only: exotic codepoints like U+0085 or U+2028 are
    # ordinary content inside terms, not line breaks
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for lineno, line in enumerate(lines, start=1):
        if line.endswith("\r"):
            line = line[:-1]
        try:
            t = _parse_line(line, doc_scope)
        except ValueError as e:  # scan errors and term constructor rejections
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

