"""Basic graph pattern queries: model, text syntax, shape classes, seeds.

A query is SELECT over one basic graph pattern. Terms follow N-Triples syntax
plus ?name variables. Two patterns are considered joined when they share a
variable or a constant term, so a query about one entity appearing in both
subject and object position still counts as connected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Union

from .rdf import (
    RDF_TYPE,
    BlankNode,
    Iri,
    Literal,
    Term,
    TermScanError,
    scan_term,
    term_to_text,
)

_VAR_RE = re.compile(r"\?([A-Za-z_][A-Za-z0-9_]*)")


class QueryError(ValueError):
    pass


class QuerySyntaxError(QueryError):
    def __init__(self, msg: str, pos: int = 0) -> None:
        super().__init__(f"{msg} (at offset {pos})")
        self.pos = pos


class UnseedableQueryError(QueryError):
    pass


class DisconnectedQueryError(QueryError):
    pass


@dataclass(frozen=True, slots=True)
class Variable:
    name: str


PatternTerm = Union[Term, Variable]


@dataclass(frozen=True, slots=True)
class TriplePattern:
    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    def __post_init__(self) -> None:
        if isinstance(self.subject, Literal):
            raise QuerySyntaxError("literal in subject position")
        if isinstance(self.predicate, (Literal, BlankNode)):
            raise QuerySyntaxError("pattern predicate must be an IRI or a variable")

    def terms(self) -> tuple[PatternTerm, PatternTerm, PatternTerm]:
        return (self.subject, self.predicate, self.object)

    def variables(self) -> set[str]:
        return {t.name for t in self.terms() if isinstance(t, Variable)}


@dataclass(frozen=True, slots=True)
class BgpQuery:
    query_id: str
    projected: tuple[str, ...]
    patterns: tuple[TriplePattern, ...]

    def variables(self) -> set[str]:
        out: set[str] = set()
        for p in self.patterns:
            out |= p.variables()
        return out


class QueryClass(str, Enum):
    ENTITY_S = "entity-s"
    ENTITY_O = "entity-o"
    ENTITY_SO = "entity-so"
    S_PATH_2 = "s-path-2"
    O_PATH_2 = "o-path-2"
    S_PATH_3 = "s-path-3"
    O_PATH_3 = "o-path-3"
    STAR_S3 = "star-s3"
    STAR_S2_O1 = "star-s2-o1"
    STAR_S1_O1 = "star-s1-o1"
    STAR_S1_O2 = "star-s1-o2"
    STAR_O3 = "star-o3"
    OTHER = "other"


@dataclass(frozen=True, slots=True)
class Seeds:
    """Constant IRIs of a query: entity positions versus predicate position."""

    entities: tuple[Iri, ...]
    predicates: tuple[Iri, ...]


def validate_query(q: BgpQuery) -> None:
    """Enforce structural invariants; raises a QueryError subclass."""
    if not q.patterns:
        raise QuerySyntaxError("query has no patterns")
    if not q.projected:
        raise QuerySyntaxError("query projects no variables")
    allvars = q.variables()
    for name in q.projected:
        if name not in allvars:
            raise QuerySyntaxError(f"projected variable ?{name} not used in any pattern")
    if not any(isinstance(t, Iri) for p in q.patterns for t in p.terms()):
        raise UnseedableQueryError("query holds no constant IRI to start traversal from")
    # Connectivity over shared variables or shared constant terms.
    n = len(q.patterns)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    seen: dict[PatternTerm, int] = {}
    for i, p in enumerate(q.patterns):
        for t in p.terms():
            if t in seen:
                parent[find(i)] = find(seen[t])
            else:
                seen[t] = i
    if len({find(i) for i in range(n)}) > 1:
        raise DisconnectedQueryError("pattern join graph is not connected")


def _scan_pattern_term(s: str, i: int) -> tuple[PatternTerm, int]:
    if s.startswith("?", i):
        m = _VAR_RE.match(s, i)
        if not m:
            raise TermScanError("bad variable name", i)
        return Variable(m.group(1)), m.end()
    return scan_term(s, i, scope="query")


def _skip_ws_comments(s: str, i: int) -> int:
    n = len(s)
    while i < n:
        if s[i] in " \t\r\n":
            i += 1
        elif s[i] == "#":
            j = s.find("\n", i)
            i = n if j < 0 else j + 1
        else:
            break
    return i


def parse_query(text: str, query_id: str = "q") -> BgpQuery:
    """Parse 'SELECT ?v ... WHERE { pattern . pattern . }'."""
    i = _skip_ws_comments(text, 0)
    if not text[i : i + 6].upper() == "SELECT":
        raise QuerySyntaxError("expected SELECT", i)
    i = _skip_ws_comments(text, i + 6)
    projected: list[str] = []
    while i < len(text) and text[i] == "?":
        m = _VAR_RE.match(text, i)
        if not m:
            raise QuerySyntaxError("bad variable in projection", i)
        if m.group(1) not in projected:
            projected.append(m.group(1))
        i = _skip_ws_comments(text, m.end())
    if not projected:
        raise QuerySyntaxError("SELECT needs at least one variable", i)
    if not text[i : i + 5].upper() == "WHERE":
        raise QuerySyntaxError("expected WHERE", i)
    i = _skip_ws_comments(text, i + 5)
    if i >= len(text) or text[i] != "{":
        raise QuerySyntaxError("expected '{'", i)
    i = _skip_ws_comments(text, i + 1)
    patterns: list[TriplePattern] = []
    while i < len(text) and text[i] != "}":
        terms: list[PatternTerm] = []
        for _ in range(3):
            try:
                t, i = _scan_pattern_term(text, i)
            except TermScanError as e:
                raise QuerySyntaxError(str(e), e.pos) from None
            except ValueError as e:
                raise QuerySyntaxError(str(e), i) from None
            terms.append(t)
            i = _skip_ws_comments(text, i)
        patterns.append(TriplePattern(terms[0], terms[1], terms[2]))
        if i < len(text) and text[i] == ".":
            i = _skip_ws_comments(text, i + 1)
        elif i < len(text) and text[i] == "}":
            break
        else:
            raise QuerySyntaxError("expected '.' or '}' after pattern", i)
    if i >= len(text) or text[i] != "}":
        raise QuerySyntaxError("expected '}'", i)
    i = _skip_ws_comments(text, i + 1)
    if i < len(text):
        raise QuerySyntaxError("trailing content after '}'", i)
    q = BgpQuery(query_id=query_id, projected=tuple(projected), patterns=tuple(patterns))
    validate_query(q)
    return q


def seed_iris(q: BgpQuery) -> Seeds:
    """Constant IRIs in subject/object positions, plus predicate IRIs separately.

    Predicate-position IRIs are kept apart: only vocabulary-aware setups look
    them up. Order is first occurrence, deduplicated.
    """
    entities: list[Iri] = []
    predicates: list[Iri] = []
    for p in q.patterns:
        for term, is_pred in ((p.subject, False), (p.predicate, True), (p.object, False)):
            if not isinstance(term, Iri):
                continue
            bucket = predicates if is_pred else entities
            if term not in bucket:
                bucket.append(term)
    return Seeds(entities=tuple(entities), predicates=tuple(predicates))


def _constant(t: PatternTerm) -> bool:
    return not isinstance(t, Variable)


def _as_chain(pats: tuple[TriplePattern, ...]) -> QueryClass | None:
    """Detect subject-seeded or object-seeded chains of length 2 or 3."""
    k = len(pats)
    if k not in (2, 3):
        return None
    if any(not isinstance(p.predicate, Iri) for p in pats):
        return None

    def chain_from(start: TriplePattern, direction: str) -> bool:
        remaining = [p for p in pats if p is not start]
        used_vars: set[str] = set()
        cur = start
        for _ in range(k - 1):
            if direction == "s":
                link = cur.object
            else:
                link = cur.subject
            if not isinstance(link, Variable) or link.name in used_vars:
                return False
            used_vars.add(link.name)
            nxt = None
            for p in remaining:
                anchor = p.subject if direction == "s" else p.object
                if isinstance(anchor, Variable) and anchor.name == link.name:
                    nxt = p
                    break
            if nxt is None:
                return False
            remaining.remove(nxt)
            cur = nxt
        # Free end of the chain must be a fresh variable.
        end = cur.object if direction == "s" else cur.subject
        if not isinstance(end, Variable) or end.name in used_vars:
            return False
        used_vars.add(end.name)
        # No other constants allowed in subject/object positions.
        for p in pats:
            if p is start:
                continue
            for t in (p.subject, p.object):
                if _constant(t):
                    return False
        return True

    starts_s = [p for p in pats if isinstance(p.subject, Iri) and isinstance(p.object, Variable)]
    if len(starts_s) == 1 and chain_from(starts_s[0], "s"):
        return QueryClass.S_PATH_2 if k == 2 else QueryClass.S_PATH_3
    starts_o = [p for p in pats if _constant(p.object) and isinstance(p.subject, Variable)]
    if len(starts_o) == 1 and chain_from(starts_o[0], "o"):
        return QueryClass.O_PATH_2 if k == 2 else QueryClass.O_PATH_3
    return None


_STAR_SHAPES = {
    (3, 0): QueryClass.STAR_S3,
    (2, 1): QueryClass.STAR_S2_O1,
    (1, 1): QueryClass.STAR_S1_O1,
    (1, 2): QueryClass.STAR_S1_O2,
    (0, 3): QueryClass.STAR_O3,
}


def _as_star(pats: tuple[TriplePattern, ...]) -> QueryClass | None:
    """One join variable in every pattern, constants everywhere else."""
    if any(not isinstance(p.predicate, Iri) for p in pats):
        return None
    joinvars = set.intersection(*(p.variables() for p in pats)) if pats else set()
    for name in sorted(joinvars):
        m = n = 0
        ok = True
        for p in pats:
            s_is = isinstance(p.subject, Variable) and p.subject.name == name
            o_is = isinstance(p.object, Variable) and p.object.name == name
            if s_is and not o_is and _constant(p.object):
                m += 1
            elif o_is and not s_is and _constant(p.subject):
                n += 1
            else:
                ok = False
                break
        if ok and (m, n) in _STAR_SHAPES:
            return _STAR_SHAPES[(m, n)]
    return None


def _as_entity_so(pats: tuple[TriplePattern, ...]) -> bool:
    if len(pats) != 2:
        return False
    for a, b in ((pats[0], pats[1]), (pats[1], pats[0])):
        e = a.subject
        if not isinstance(e, Iri) or b.object != e:
            continue
        if isinstance(a.object, Variable) and isinstance(b.subject, Variable):
            if a.object.name == b.subject.name:
                continue  # a cycle through e joins on the variable: star shape
            if isinstance(a.predicate, (Iri, Variable)) and isinstance(b.predicate, (Iri, Variable)):
                return True
    return False


def classify(q: BgpQuery) -> QueryClass:
    """Assign the query to one of the twelve shape classes, or Other.

    Total: every structurally valid query gets a class.
    """
    pats = q.patterns
    if len(pats) == 1:
        p = pats[0]
        pred_ok = isinstance(p.predicate, (Iri, Variable))
        if (
            isinstance(p.subject, Iri)
            and isinstance(p.object, Variable)
            and pred_ok
            and p.object != p.predicate
        ):
            return QueryClass.ENTITY_S
        if (
            _constant(p.object)
            and isinstance(p.subject, Variable)
            and pred_ok
            and p.subject != p.predicate
        ):
            return QueryClass.ENTITY_O
        return QueryClass.OTHER
    if len(pats) == 2 and _as_entity_so(pats):
        return QueryClass.ENTITY_SO
    got = _as_chain(pats)
    if got is not None:
        return got
    if len(pats) in (2, 3):
        got = _as_star(pats)
        if got is not None:
            return got
    return QueryClass.OTHER


def pattern_to_text(p: TriplePattern) -> str:
    parts = []
    for t in p.terms():
        parts.append(f"?{t.name}" if isinstance(t, Variable) else term_to_text(t))
    return " ".join(parts)


def binding_text(mapping: "dict[str, Term]") -> str:
    """Canonical one-line rendering of an answer, used everywhere answers
    are compared or written to files: variables sorted, N-Triples terms,
    tab-separated.  Literal escaping keeps tabs out of the payload."""
    return "\t".join(f"?{v}={term_to_text(t)}" for v, t in sorted(mapping.items()))


def type_class_constants(q: BgpQuery) -> list[Iri]:
    """Constant class IRIs used as objects of rdf:type patterns."""
    out: list[Iri] = []
    for p in q.patterns:
        if p.predicate == RDF_TYPE and isinstance(p.object, Iri) and p.object not in out:
            out.append(p.object)
    return out
