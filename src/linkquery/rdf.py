"""RDF data model and N-Triples I/O.

Terms are immutable. Blank nodes carry a document scope identifier so that
labels coming from different sources never collide once documents are merged
into one store. The parser is line based and lenient: a malformed line is
reported with its line number and skipped, it never aborts the document.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Union

# Absolute IRI with a scheme, restricted to characters that survive the
# <...> serialization unescaped.
_IRI_RE = re.compile(r'^[A-Za-z][A-Za-z0-9+.\-]*:[^\x00-\x20<>"{}|^\x60\\]*$')
_BNODE_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*")
_LANG_RE = re.compile(r"[A-Za-z]+(?:-[A-Za-z0-9]+)*")
_HEX = "0123456789abcdefABCDEF"

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


@dataclass(frozen=True, slots=True)
class Iri:
    """An absolute IRI."""

    value: str

    def __post_init__(self) -> None:
        if not _IRI_RE.match(self.value):
            raise ValueError(f"not an absolute IRI: {self.value!r}")

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
    subject: Term
    predicate: Term
    object: Term

    def __post_init__(self) -> None:
        if isinstance(self.subject, Literal):
            raise ValueError("triple subject cannot be a literal")
        if not isinstance(self.predicate, Iri):
            raise ValueError("triple predicate must be an IRI")

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
        self.msg = msg
        self.pos = pos


def skip_ws(s: str, i: int) -> int:
    n = len(s)
    while i < n and s[i] in " \t":
        i += 1
    return i


def _decode_numeric_escape(s: str, i: int, width: int) -> tuple[str, int]:
    # i points at the first hex digit; width is 4 or 8
    end = i + width
    if end > len(s) or any(c not in _HEX for c in s[i:end]):
        raise TermScanError("bad numeric escape", i)
    code = int(s[i:end], 16)
    try:
        return chr(code), end
    except ValueError:
        raise TermScanError("escape out of range", i) from None


def _unescape_iri(raw: str, base_pos: int) -> str:
    if "\\" not in raw:
        return raw
    out: list[str] = []
    i = 0
    while i < len(raw):
        c = raw[i]
        if c != "\\":
            out.append(c)
            i += 1
            continue
        if i + 1 >= len(raw):
            raise TermScanError("dangling escape in IRI", base_pos + i)
        kind = raw[i + 1]
        if kind == "u":
            ch, i = _decode_numeric_escape(raw, i + 2, 4)
        elif kind == "U":
            ch, i = _decode_numeric_escape(raw, i + 2, 8)
        else:
            raise TermScanError("bad escape in IRI", base_pos + i)
        out.append(ch)
    return "".join(out)


def scan_term(s: str, i: int, scope: str) -> tuple[Term, int]:
    """Scan one N-Triples term starting at position i. Returns (term, next)."""
    n = len(s)
    if i >= n:
        raise TermScanError("expected a term", i)
    c = s[i]
    if c == "<":
        j = s.find(">", i + 1)
        if j < 0:
            raise TermScanError("unterminated IRI", i)
        raw = _unescape_iri(s[i + 1 : j], i + 1)
        try:
            return Iri(raw), j + 1
        except ValueError as e:
            raise TermScanError(str(e), i) from None
    if c == "_":
        if i + 1 >= n or s[i + 1] != ":":
            raise TermScanError("expected ':' after '_'", i)
        m = _BNODE_LABEL_RE.match(s, i + 2)
        if not m:
            raise TermScanError("bad blank node label", i)
        return BlankNode(m.group(0), scope), m.end()
    if c == '"':
        out: list[str] = []
        j = i + 1
        while True:
            if j >= n:
                raise TermScanError("unterminated literal", i)
            ch = s[j]
            if ch == '"':
                j += 1
                break
            if ch == "\\":
                if j + 1 >= n:
                    raise TermScanError("dangling escape in literal", j)
                k = s[j + 1]
                if k in _STRING_ESCAPES:
                    out.append(_STRING_ESCAPES[k])
                    j += 2
                elif k == "u":
                    ch2, j = _decode_numeric_escape(s, j + 2, 4)
                    out.append(ch2)
                elif k == "U":
                    ch2, j = _decode_numeric_escape(s, j + 2, 8)
                    out.append(ch2)
                else:
                    raise TermScanError("bad escape in literal", j)
            else:
                out.append(ch)
                j += 1
        lexical = "".join(out)
        if j < n and s[j] == "@":
            m = _LANG_RE.match(s, j + 1)
            if not m:
                raise TermScanError("bad language tag", j)
            return Literal(lexical, language=m.group(0)), m.end()
        if j + 1 < n and s[j] == "^" and s[j + 1] == "^":
            if j + 2 >= n or s[j + 2] != "<":
                raise TermScanError("expected datatype IRI", j)
            dt, j2 = scan_term(s, j + 2, scope)
            assert isinstance(dt, Iri)
            return Literal(lexical, datatype=dt.value), j2
        return Literal(lexical), j
    raise TermScanError(f"unexpected character {c!r}", i)


def _parse_line(line: str, scope: str) -> Triple | None:
    """Parse one line; returns None for blank/comment lines, raises TermScanError."""
    i = skip_ws(line, 0)
    if i >= len(line) or line[i] == "#":
        return None
    subject, i = scan_term(line, i, scope)
    if isinstance(subject, Literal):
        raise TermScanError("literal in subject position", 0)
    i = skip_ws(line, i)
    predicate, i = scan_term(line, i, scope)
    if not isinstance(predicate, Iri):
        raise TermScanError("predicate must be an IRI", i)
    i = skip_ws(line, i)
    obj, i = scan_term(line, i, scope)
    i = skip_ws(line, i)
    if i >= len(line) or line[i] != ".":
        raise TermScanError("expected '.' terminator", i)
    i = skip_ws(line, i + 1)
    if i < len(line) and line[i] != "#":
        raise TermScanError("trailing content after '.'", i)
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
        except TermScanError as e:
            errors.append(ParseError(lineno, e.msg))
            continue
        except ValueError as e:  # term constructor rejections
            errors.append(ParseError(lineno, str(e)))
            continue
        if t is not None:
            triples.append(t)
    return triples, errors


def _escape_literal(s: str) -> str:
    out: list[str] = []
    for ch in s:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\r":
            out.append("\\r")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


def term_to_text(term: Term, bnode_label: str | None = None) -> str:
    """N-Triples surface form of a term."""
    if isinstance(term, Iri):
        return f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{bnode_label or term.label}"
    lex = f'"{_escape_literal(term.lexical)}"'
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

