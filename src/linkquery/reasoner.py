"""Inference support: owl:sameAs equivalence and a small RDFS fragment.

Two independent mechanisms, composable:

* ``EquivalenceClasses`` tracks owl:sameAs merges with a union-find whose
  representative is always the lexicographically least member, so the
  canonical form of a triple does not depend on merge order.

* ``rho_df_closure`` forward-chains six rules (subclass transitivity,
  subproperty transitivity, type propagation, triple rewriting, domain,
  range) to a fixpoint.  Schema triples are ordinary data: a subclass
  statement can itself be rewritten by a subproperty axiom.

``ReasoningStore`` combines both incrementally for the engine.  Its view is
exact after every ingest: the canonical forms of all raw triples plus their
closure.  Without owl:sameAs every triple is its own canonical form, so the
view is a set the store keeps anyway: the raw set itself, or with rules the
chainer's facts, which hold every raw triple and its closure.  With
owl:sameAs the view is a set of its own, which without rules is also the set
of canonical forms.  Raw triples and view forms are then
indexed by the IRIs they mention, so a merge takes out only the forms that
mention a retired representative and re-canonicalizes only the raw triples
that touch a moved IRI.  Each ingest canonicalizes each triple it looks at
once and hands the forms to the engine with its delta.  The chainer stays
monotone; a chained fact is in the view only while every IRI in it is a
representative or rule vocabulary.  Most data facts fire no rule: one whose
predicate is neither rule vocabulary nor the subject of a subproperty,
domain or range axiom is only filed by its predicate, where a later axiom
finds it.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Iterator

from .rdf import (
    OWL_SAMEAS,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
    Iri,
    Literal,
    Term,
    Triple,
)

# The terms the six rules match on or conclude with.
RHO_VOCABULARY = frozenset({RDF_TYPE, RDFS_SUBCLASSOF, RDFS_SUBPROPERTYOF, RDFS_DOMAIN, RDFS_RANGE})


class EquivalenceClasses:
    """Union-find over IRIs; the class representative is the least member."""

    def __init__(self) -> None:
        self._rep: dict[Iri, Iri] = {}
        self._members: dict[Iri, set[Iri]] = {}
        self.version = 0  # bumped on every effective merge

    def rep(self, iri: Iri) -> Iri:
        return self._rep.get(iri, iri)

    def members(self, iri: Iri) -> frozenset[Iri]:
        r = self.rep(iri)
        got = self._members.get(r)
        return frozenset(got) if got else frozenset((iri,))

    def classes(self) -> Iterator[frozenset[Iri]]:
        for members in self._members.values():
            yield frozenset(members)

    def merge(self, a: Iri, b: Iri) -> frozenset[Iri]:
        """Merge the classes of a and b; returns IRIs whose rep changed."""
        ra, rb = self.rep(a), self.rep(b)
        if ra == rb:
            # Same class already, but register singletons so members() is
            # consistent after e.g. merge(x, x) on a fresh IRI.
            if ra not in self._members:
                self._rep[a] = ra
                self._members[ra] = {a} if a == b else {a, b}
            return frozenset()
        self.version += 1
        winner, loser = (ra, rb) if ra < rb else (rb, ra)
        moved = self._members.pop(loser, {loser})
        group = self._members.setdefault(winner, {winner})
        group |= moved
        for m in (a, b):
            group.add(m)
        for m in moved | {a, b}:
            self._rep[m] = winner
        return frozenset(moved)


def canonical_term(term: Term, eq: EquivalenceClasses) -> Term:
    return eq.rep(term) if isinstance(term, Iri) else term


def canonical_triple(t: Triple, eq: EquivalenceClasses) -> Triple:
    if not eq.version:  # nothing merged yet: every IRI is its own representative
        return t
    # Only IRIs are keys; blank nodes and literals are tuples, never equal to one.
    rep = eq._rep.get
    s, p, o = t
    cs, cp, co = rep(s, s), rep(p, p), rep(o, o)
    if cs is s and cp is p and co is o:
        return t
    # Representatives of IRIs are IRIs, so the result is a valid triple.
    return tuple.__new__(Triple, (cs, cp, co))


class _RhoChainer:
    """Semi-naive fixpoint over the six-rule fragment.

    Facts are indexed as they are admitted; each admitted fact fires every
    rule it can participate in, joining against the indexes.  A batch is
    admitted in order before any conclusion.  A batch fact whose predicate
    is neither rule vocabulary nor, at that moment, the subject of a
    subproperty, domain or range axiom is inert: no rule can fire on it, so
    it joins only ``facts`` and ``_by_pred``, where an axiom admitted later
    finds it.  Conclusions that would not form a valid triple (non-IRI
    predicate) are dropped; the range rule skips literal objects.
    """

    def __init__(self) -> None:
        self.facts: set[Triple] = set()
        self.rule_counts: Counter[str] = Counter()
        self._by_pred: dict[Iri, set[Triple]] = {}
        self._subclass_out: dict[Term, set[Term]] = {}
        self._subclass_in: dict[Term, set[Term]] = {}
        self._subprop_out: dict[Term, set[Term]] = {}
        self._subprop_in: dict[Term, set[Term]] = {}
        self._instances: dict[Term, set[Term]] = {}
        self._domain_of: dict[Term, set[Term]] = {}
        self._range_of: dict[Term, set[Term]] = {}

    def add(self, triples: Iterable[Triple]) -> list[Triple]:
        """Admit triples, chase to fixpoint, return newly inferred facts."""
        facts, by_pred = self.facts, self._by_pred
        subprop, domain, range_ = self._subprop_out, self._domain_of, self._range_of
        queue: deque[tuple[Triple, str]] = deque()
        queued: set[Triple] = set()
        inferred: list[Triple] = []

        def fire(fact: Triple) -> None:
            self._index(fact)
            for conclusion, via in self._fire(fact):
                if conclusion not in facts and conclusion not in queued:
                    queue.append((conclusion, via))
                    queued.add(conclusion)

        for t in triples:
            if t in facts:
                continue
            facts.add(t)
            p = t[1]
            if p in RHO_VOCABULARY or p in subprop or p in domain or p in range_:
                fire(t)
            else:
                got = by_pred.get(p)
                if got is None:
                    by_pred[p] = {t}
                else:
                    got.add(t)
        while queue:
            fact, rule = queue.popleft()
            if fact in facts:
                continue
            facts.add(fact)
            inferred.append(fact)
            self.rule_counts[rule] += 1
            fire(fact)
        return inferred

    def _index(self, t: Triple) -> None:
        s, p, o = t.terms()
        self._by_pred.setdefault(p, set()).add(t)
        if p == RDFS_SUBCLASSOF:
            self._subclass_out.setdefault(s, set()).add(o)
            self._subclass_in.setdefault(o, set()).add(s)
        elif p == RDFS_SUBPROPERTYOF:
            self._subprop_out.setdefault(s, set()).add(o)
            self._subprop_in.setdefault(o, set()).add(s)
        elif p == RDF_TYPE:
            self._instances.setdefault(o, set()).add(s)
        elif p == RDFS_DOMAIN:
            self._domain_of.setdefault(s, set()).add(o)
        elif p == RDFS_RANGE:
            self._range_of.setdefault(s, set()).add(o)

    def _fire(self, t: Triple) -> Iterator[tuple[Triple, str]]:
        s, p, o = t.terms()
        # Generic-data side of the rewrite/domain/range rules.
        for q in self._subprop_out.get(p, ()):
            if isinstance(q, Iri):
                yield Triple(s, q, o), "subproperty-rewrite"
        for c in self._domain_of.get(p, ()):
            yield Triple(s, RDF_TYPE, c), "domain"
        if not isinstance(o, Literal):
            for c in self._range_of.get(p, ()):
                yield Triple(o, RDF_TYPE, c), "range"
        # Schema side.
        if p == RDFS_SUBCLASSOF:
            for a in self._subclass_in.get(s, ()):
                yield Triple(a, RDFS_SUBCLASSOF, o), "subclass-transitivity"
            for b in self._subclass_out.get(o, ()):
                yield Triple(s, RDFS_SUBCLASSOF, b), "subclass-transitivity"
            for x in self._instances.get(s, ()):
                yield Triple(x, RDF_TYPE, o), "type-propagation"
        elif p == RDFS_SUBPROPERTYOF:
            for a in self._subprop_in.get(s, ()):
                yield Triple(a, RDFS_SUBPROPERTYOF, o), "subproperty-transitivity"
            for b in self._subprop_out.get(o, ()):
                yield Triple(s, RDFS_SUBPROPERTYOF, b), "subproperty-transitivity"
            if isinstance(o, Iri):
                for u in self._by_pred.get(s, ()) if isinstance(s, Iri) else ():
                    yield Triple(u.subject, o, u.object), "subproperty-rewrite"
        elif p == RDF_TYPE:
            for b in self._subclass_out.get(o, ()):
                yield Triple(s, RDF_TYPE, b), "type-propagation"
        elif p == RDFS_DOMAIN:
            if isinstance(s, Iri):
                for u in self._by_pred.get(s, ()):
                    yield Triple(u.subject, RDF_TYPE, o), "domain"
        elif p == RDFS_RANGE:
            if isinstance(s, Iri):
                for u in self._by_pred.get(s, ()):
                    if not isinstance(u.object, Literal):
                        yield Triple(u.object, RDF_TYPE, o), "range"


def rho_df_closure(triples: Iterable[Triple]) -> set[Triple]:
    """All facts derivable from ``triples`` that are not among them."""
    base = set(triples)
    chainer = _RhoChainer()
    chainer.add(base)
    return chainer.facts - base


@dataclass(frozen=True, slots=True)
class FinalState:
    """Exact canonical store after a run ends."""

    data: frozenset[Triple]
    inferred: frozenset[Triple]
    inferred_count: int

    @property
    def triples(self) -> frozenset[Triple]:
        return self.data | self.inferred


class ViewDelta(list):
    """The view forms one ``ingest`` added, in order, and what else it changed.

    ``fresh`` holds the raw triples not seen before.  When owl:sameAs merges
    retire representatives, ``retired`` names them, ``retracted`` holds the
    view forms that mentioned one (they have left the view) and ``rekeyed``
    the earlier raw triples whose canonical form changed; their new forms are
    among the additions.  ``forms`` holds the canonical forms of ``rekeyed +
    fresh``, in that order, as the store computed them; without owl:sameAs it
    is ``fresh`` itself.  ``rechained`` says the merge moved rule vocabulary,
    so every chained fact was retracted, including ones that mention no
    retired term, and chained again.
    """

    __slots__ = ("fresh", "retired", "retracted", "rekeyed", "forms", "rechained")

    def __init__(self, fresh: list[Triple], retired: list[Iri]) -> None:
        super().__init__()
        self.fresh = fresh
        self.retired = retired
        self.retracted: list[Triple] = []
        self.rekeyed: list[Triple] = []
        self.forms = fresh
        self.rechained = False


@dataclass
class ReasoningStore:
    """Incremental canonical+inferred view over a growing raw triple set."""

    use_sameas: bool = False
    use_rhodf: bool = False
    equiv: EquivalenceClasses = field(default_factory=EquivalenceClasses)

    def __post_init__(self) -> None:
        self._raw: set[Triple] = set()
        self._chainer = _RhoChainer()
        # The canonical forms of the raw triples, and the view.  Without sameAs
        # they are sets the store keeps anyway (see the module docstring);
        # with sameAs but no rules the view is exactly the forms.
        self._data: set[Triple] = self._raw
        self._view: set[Triple] = self._chainer.facts if self.use_rhodf else self._raw
        if self.use_sameas:
            self._view = set()
            self._data = set() if self.use_rhodf else self._view
        # With sameAs only: raw triples and view forms by the IRIs they mention.
        self._raw_by_iri: dict[Iri, list[Triple]] = {}
        self._view_by_iri: dict[Iri, list[Triple]] = {}

    def ingest(self, triples: Iterable[Triple]) -> ViewDelta:
        """Absorb raw triples; returns the view additions (canonical + inferred)."""
        raw = self._raw
        fresh = []
        if not self.use_sameas:
            for t in triples:
                if t not in raw:
                    raw.add(t)
                    fresh.append(t)
            delta = ViewDelta(fresh, [])
            if self.use_rhodf:
                # A fresh triple the chainer already holds was inferred earlier
                # and is in the view already.
                facts = self._chainer.facts
                delta += [t for t in fresh if t not in facts]
                delta += self._chainer.add(delta)
            else:
                delta += fresh
            return delta
        raw_by_iri = self._raw_by_iri
        moved: set[Iri] = set()
        retired: list[Iri] = []
        for t in triples:
            if t in raw:
                continue
            raw.add(t)
            fresh.append(t)
            s, p, o = t
            for term in t:
                if isinstance(term, Iri):
                    got = raw_by_iri.get(term)
                    if got is None:
                        raw_by_iri[term] = [t]
                    else:
                        got.append(t)
            if p == OWL_SAMEAS and isinstance(s, Iri) and isinstance(o, Iri):
                gone = self.equiv.merge(s, o)
                if gone:
                    moved |= gone
                    retired.append(min(gone))  # the loser's old representative
        delta = ViewDelta(fresh, retired)
        delta.rechained = self.use_rhodf and not moved.isdisjoint(RHO_VOCABULARY)
        if moved:
            for old in retired:
                for t in self._view_by_iri.pop(old, ()):
                    if t in self._view:
                        self._view.remove(t)
                        self._data.discard(t)
                        delta.retracted.append(t)
            if delta.rechained:
                # Canonicalization no longer fixes the rule vocabulary, so
                # chained facts do not carry over: chain again from the data.
                stale = [t for t in self._view if t not in self._data]
                self._view.difference_update(stale)
                delta.retracted += stale
                counts = self._chainer.rule_counts
                self._chainer = _RhoChainer()
                self._chainer.rule_counts = counts
            # The index already lists this batch, after the earlier triples.
            batch = set(fresh)
            delta.rekeyed = list(dict.fromkeys(
                t for iri in sorted(moved) for t in raw_by_iri.get(iri, ()) if t not in batch
            ))
        forms = delta.forms = [canonical_triple(t, self.equiv) for t in delta.rekeyed + fresh]
        self._admit(forms, delta)
        return delta

    def _admit(self, forms: list[Triple], delta: ViewDelta) -> None:
        """Show the data forms not yet in the view, then what they chain to."""
        view = self._view
        shown = [t for t in dict.fromkeys(forms) if t not in view]
        if self.use_rhodf:
            self._data.update(forms)  # without rules the data is the view itself
            # What the chainer infers is new to it, so none of it is among ``shown``.
            chained = self._chainer.add(self._data if delta.rechained else shown)
            shown += [t for t in chained if t not in view and self._keyed(t)]
        delta += shown
        view.update(shown)
        view_by_iri = self._view_by_iri
        for t in shown:
            for term in t:
                if isinstance(term, Iri):
                    got = view_by_iri.get(term)
                    if got is None:
                        view_by_iri[term] = [t]
                    else:
                        got.append(t)

    def _keyed(self, t: Triple) -> bool:
        """Whether a chained fact is in the closure of the current data.

        The chainer is monotone and keeps facts derived from forms that later
        merges re-keyed.  Canonicalization maps every derivation of the six
        rules onto a derivation as long as it fixes the rule vocabulary, so
        the chained facts in the closure of the data are exactly those whose
        IRIs are all representatives or rule vocabulary.
        """
        rep = self.equiv.rep
        return all(
            not isinstance(term, Iri) or term in RHO_VOCABULARY or rep(term) == term
            for term in t.terms()
        )

    def view(self) -> AbstractSet[Triple]:
        """The live view: canonical forms of the raw triples plus their closure."""
        return self._view

    def canonical(self, term: Term) -> Term:
        return canonical_term(term, self.equiv)

    def rule_counts(self) -> Counter[str]:
        return Counter(self._chainer.rule_counts)

    def finalize(self) -> FinalState:
        """The exact canonical store and its closure, as they stand."""
        data = frozenset(self._data)
        if self.use_sameas:
            inferred_count = sum(1 for t in self._view if t not in self._raw)
        else:  # the view holds the raw set
            inferred_count = len(self._view) - len(self._raw)
        return FinalState(data=data, inferred=frozenset(self._view - data), inferred_count=inferred_count)
