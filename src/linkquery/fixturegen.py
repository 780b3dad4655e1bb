"""Deterministic fixture webs with per-setup ground truth.

Construction rules that make traversal complete relative to a whole-web
oracle:

* Ordinary facts are stated bidirectionally — in the subject's document and
  (when the object is an IRI) in the object's document — so object-seeded
  queries can reach them.
* Hub documents hold extra facts about an entity and are linked only via
  rdfs:seeAlso from the entity's own document.
* Alias documents state facts under an owl:sameAs-equivalent IRI and are
  linked only through the sameAs statement.
* Vocabulary documents carry subsumption axioms; a property family's full
  chain is stated in every member's document, a class states only its own
  upward axiom.
* Some star facts are "split" away from both endpoint documents into hub or
  alias documents, so richer setups answer strictly more.

Ground truth per setup is computed with an independent brute-force oracle
(naive join, naive fixpoint closure, BFS equivalence components) over a
setup-specific document restriction: hub documents are visible only to the
seeAlso-following setups, alias documents only to the sameAs-following
ones.  The generator asserts every planted inequality before writing
anything.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .engine import ALL_SETUPS, plan_order
from .fetch import FakeClock, FixtureResolver
from .query import (
    BgpQuery,
    QueryClass,
    TriplePattern,
    Variable,
    binding_text,
    classify,
    pattern_to_text,
    validate_query,
)
from .rdf import (
    OWL_SAMEAS,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SEEALSO,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
    Iri,
    Literal,
    Term,
    Triple,
    parse_ntriples,
    read_lines,
    serialize_ntriples,
    term_to_text,
)

SETUP_NAMES = tuple(s.value for s in ALL_SETUPS)


class FixtureInvariantError(RuntimeError):
    """A planted property of the generated web failed to hold."""


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise FixtureInvariantError(msg)


# --- independent oracles ------------------------------------------------------


def sameas_components(pairs: Iterable[tuple[Iri, Iri]]) -> dict[Iri, Iri]:
    """Representative map from undirected equivalence pairs, by BFS.

    The representative of each connected component is its least IRI.
    """
    adj: dict[Iri, set[Iri]] = {}
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    rep: dict[Iri, Iri] = {}
    for node in adj:
        if node in rep:
            continue
        comp = {node}
        frontier = [node]
        while frontier:
            nxt = []
            for cur in frontier:
                for other in adj[cur]:
                    if other not in comp:
                        comp.add(other)
                        nxt.append(other)
            frontier = nxt
        least = min(comp, key=lambda i: i.value)
        for member in comp:
            rep[member] = least
    return rep


def naive_rho_closure(triples: Iterable[Triple]) -> set[Triple]:
    """Fixpoint of the six-rule fragment by repeated full passes."""
    given = set(triples)
    facts = set(given)
    while True:
        sub_c = [(t.subject, t.object) for t in facts if t.predicate == RDFS_SUBCLASSOF]
        sub_p = [(t.subject, t.object) for t in facts if t.predicate == RDFS_SUBPROPERTYOF]
        types = [(t.subject, t.object) for t in facts if t.predicate == RDF_TYPE]
        doms = [(t.subject, t.object) for t in facts if t.predicate == RDFS_DOMAIN]
        rngs = [(t.subject, t.object) for t in facts if t.predicate == RDFS_RANGE]
        fresh: set[Triple] = set()
        for a, b in sub_c:
            for c, d in sub_c:
                if b == c:
                    fresh.add(Triple(a, RDFS_SUBCLASSOF, d))
        for p, q in sub_p:
            for r, s in sub_p:
                if q == r:
                    fresh.add(Triple(p, RDFS_SUBPROPERTYOF, s))
        for x, klass in types:
            for a, b in sub_c:
                if klass == a:
                    fresh.add(Triple(x, RDF_TYPE, b))
        for p, q in sub_p:
            if isinstance(p, Iri) and isinstance(q, Iri):
                for t in facts:
                    if t.predicate == p:
                        fresh.add(Triple(t.subject, q, t.object))
        for p, klass in doms:
            if isinstance(p, Iri):
                for t in facts:
                    if t.predicate == p:
                        fresh.add(Triple(t.subject, RDF_TYPE, klass))
        for p, klass in rngs:
            if isinstance(p, Iri):
                for t in facts:
                    if t.predicate == p and not isinstance(t.object, Literal):
                        fresh.add(Triple(t.object, RDF_TYPE, klass))
        fresh -= facts
        if not fresh:
            return facts - given
        facts |= fresh


def _match_into(pattern: TriplePattern, triple: Triple, partial: Mapping[str, Term]) -> dict[str, Term] | None:
    out = dict(partial)
    for pt, tt in zip(pattern.terms(), triple.terms()):
        if isinstance(pt, Variable):
            got = out.get(pt.name)
            if got is None:
                out[pt.name] = tt
            elif got != tt:
                return None
        elif pt != tt:
            return None
    return out


def naive_join(patterns: Sequence[TriplePattern], triples: Iterable[Triple]) -> list[dict[str, Term]]:
    """All bindings satisfying every pattern, by plain backtracking."""
    pool = list(triples)
    by_pred: dict[Term, list[Triple]] = {}
    for t in pool:
        by_pred.setdefault(t.predicate, []).append(t)
    solutions: list[dict[str, Term]] = [{}]
    for pat in patterns:
        candidates = by_pred.get(pat.predicate, []) if isinstance(pat.predicate, Iri) else pool
        grown: list[dict[str, Term]] = []
        for partial in solutions:
            for t in candidates:
                b = _match_into(pat, t, partial)
                if b is not None:
                    grown.append(b)
        solutions = grown
        if not solutions:
            break
    return solutions


def oracle(
    triples: Iterable[Triple], *, use_sameas: bool = False, use_rhodf: bool = False
) -> Callable[[BgpQuery], frozenset[str]]:
    """Answer keys for queries over a fixed triple collection, prepared once."""
    data = set(triples)
    rep: dict[Iri, Iri] = {}
    if use_sameas:
        pairs = [
            (t.subject, t.object)
            for t in data
            if t.predicate == OWL_SAMEAS and isinstance(t.subject, Iri) and isinstance(t.object, Iri)
        ]
        rep = sameas_components(pairs)
        data = {Triple(*(rep.get(term, term) for term in t.terms())) for t in data}
    if use_rhodf:
        data |= naive_rho_closure(data)

    def answers(query: BgpQuery) -> frozenset[str]:
        patterns = [
            TriplePattern(*(t if isinstance(t, Variable) else rep.get(t, t) for t in p.terms()))
            for p in query.patterns
        ]
        return frozenset(binding_text({v: sol[v] for v in query.projected}) for sol in naive_join(patterns, data))

    return answers


def oracle_eval(
    triples: Iterable[Triple],
    query: BgpQuery,
    *,
    use_sameas: bool = False,
    use_rhodf: bool = False,
) -> frozenset[str]:
    """Answer keys for the query over a fixed triple collection."""
    return oracle(triples, use_sameas=use_sameas, use_rhodf=use_rhodf)(query)


# --- web construction ---------------------------------------------------------


@dataclass(frozen=True)
class WebSpec:
    """Knobs for one deterministic web; same spec, same bytes."""

    seed: int = 0
    n_entities: int = 8
    n_hub_entities: int = 3
    n_alias_entities: int = 3
    family_depth: int = 2
    alias_style: str = "suffix"  # "prefixmin" makes the alias the representative
    with_domain_range: bool = True

    def __post_init__(self) -> None:
        if self.n_hub_entities < 2 or self.n_alias_entities < 2:
            raise ValueError("need at least two hub and two alias entities")
        if self.n_entities < self.n_hub_entities + self.n_alias_entities + 1:
            raise ValueError("n_entities too small for disjoint hub/alias/plain pools")
        if self.family_depth < 1:
            raise ValueError("family_depth must be at least 1")
        if self.alias_style not in ("suffix", "prefixmin"):
            raise ValueError("alias_style must be 'suffix' or 'prefixmin'")


@dataclass(frozen=True)
class PlannedQuery:
    query_id: str
    class_name: str
    query: BgpQuery
    # (lesser setup, greater setup): answer count must strictly increase
    gains: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class GeneratedWeb:
    out_dir: Path
    spec: WebSpec
    doc_triples: dict[str, frozenset[Triple]]
    hub_doc_iris: frozenset[str]
    alias_doc_iris: frozenset[str]
    queries: tuple[PlannedQuery, ...]
    ground_truth: dict[tuple[str, str], frozenset[str]]

    @property
    def manifest_path(self) -> Path:
        return self.out_dir / "manifest.tsv"

    @property
    def suite_path(self) -> Path:
        return self.out_dir / "suite.tsv"


def one_line_query(q: BgpQuery) -> str:
    vars_ = " ".join(f"?{v}" for v in q.projected)
    body = " . ".join(pattern_to_text(p) for p in q.patterns)
    return f"SELECT {vars_} WHERE {{ {body} . }}"


class _Builder:
    def __init__(self, spec: WebSpec) -> None:
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.base = f"http://web{spec.seed:03d}.example/"
        self.docs: dict[str, set[Triple]] = {}
        self.hub_doc_iris: set[str] = set()
        self.alias_doc_iris: set[str] = set()
        n = spec.n_entities
        self.entities = [self.iri(f"e/{i}") for i in range(n)]
        self.hub_idx = list(range(spec.n_hub_entities))
        first_alias = spec.n_hub_entities - 1  # one entity carries both
        self.alias_idx = list(range(first_alias, first_alias + spec.n_alias_entities))
        self.plain_idx = [i for i in range(n) if i not in self.hub_idx and i not in self.alias_idx]
        self.hubs: dict[int, Iri] = {}
        self.aliases: dict[int, Iri] = {}

    def iri(self, tail: str) -> Iri:
        return Iri(self.base + tail)

    def state(self, fact: Triple, *doc_iris: Iri) -> None:
        for d in doc_iris:
            self.docs.setdefault(d.value, set()).add(fact)

    def bidi(self, s: Iri, p: Iri, o: Term) -> None:
        fact = Triple(s, p, o)
        self.state(fact, s)
        if isinstance(o, Iri):
            self.state(fact, o)

    def vocab_stub(self, prop: Iri, top: Iri) -> None:
        self.state(Triple(prop, RDFS_SUBPROPERTYOF, top), prop)

    # -- structural layers

    def build_core(self) -> None:
        spec = self.spec
        n = spec.n_entities
        pp = [self.iri(f"p/plain{j}") for j in range(2)]
        label = self.iri("p/label")
        step = [self.iri(f"p/step{j}") for j in (1, 2, 3)]
        self.pp, self.step = pp, step
        plain_top = self.iri("p/plainTop")
        step_top = self.iri("p/stepTop")
        for p in pp:
            self.vocab_stub(p, plain_top)
        for p in step:
            self.vocab_stub(p, step_top)
        self.fam = {
            f: [self.iri(f"p/fam{f}x{l}") for l in range(spec.family_depth + 1)] for f in range(2)
        }
        self.cls = {
            f: [self.iri(f"c/fam{f}x{l}") for l in range(spec.family_depth + 1)] for f in range(2)
        }
        for f in range(2):
            chain = [
                Triple(self.fam[f][l], RDFS_SUBPROPERTYOF, self.fam[f][l + 1])
                for l in range(spec.family_depth)
            ]
            for prop in self.fam[f]:
                for axiom in chain:
                    self.state(axiom, prop)
            for l in range(spec.family_depth):
                self.state(Triple(self.cls[f][l], RDFS_SUBCLASSOF, self.cls[f][l + 1]), self.cls[f][l])
        self.chain_nodes: dict[int, list[Iri]] = {}
        for i, e in enumerate(self.entities):
            ring_next = self.entities[(i + 1) % n]
            self.bidi(e, pp[0], ring_next)
            self.bidi(e, pp[1], self.iri(f"v/p{i}x1"))
            text = Literal(f"entity {i}", language="en") if i % 3 == 0 else Literal(f"entity {i}")
            self.state(Triple(e, label, text), e)
            f = i % 2
            self.bidi(e, RDF_TYPE, self.cls[f][0])
            nodes = [self.iri(f"w/{i}n{j}") for j in (1, 2, 3)]
            self.chain_nodes[i] = nodes
            self.bidi(e, step[0], nodes[0])
            self.bidi(nodes[0], step[1], nodes[1])
            self.bidi(nodes[1], step[2], nodes[2])
            self.bidi(e, self.fam[f][0], nodes[0])

    def build_hubs(self) -> None:
        self.hp = [self.iri(f"p/hub{j}") for j in range(2)]
        hub_top = self.iri("p/hubTop")
        for p in self.hp:
            self.vocab_stub(p, hub_top)
        for i in self.hub_idx:
            e = self.entities[i]
            hub = self.iri(f"hub/e{i}")
            self.hubs[i] = hub
            self.hub_doc_iris.add(hub.value)
            self.state(Triple(e, RDFS_SEEALSO, hub), e)
            for j, p in enumerate(self.hp):
                self.state(Triple(e, p, self.iri(f"hubval/e{i}n{j}")), hub)

    def build_aliases(self) -> None:
        self.ap = [self.iri(f"p/al{j}") for j in range(2)]
        al_top = self.iri("p/alTop")
        for p in self.ap:
            self.vocab_stub(p, al_top)
        for i in self.alias_idx:
            e = self.entities[i]
            if self.spec.alias_style == "suffix":
                alias = Iri(f"{e.value}/same0")  # sorts after e: e stays representative
            else:
                alias = self.iri(f"a/{i}x0")  # sorts before e: merge moves the rep
            self.aliases[i] = alias
            self.alias_doc_iris.add(alias.value)
            self.state(Triple(e, OWL_SAMEAS, alias), e)
            self.state(Triple(alias, OWL_SAMEAS, e), alias)
            for j, p in enumerate(self.ap):
                self.state(Triple(alias, p, self.iri(f"av/e{i}n{j}")), alias)

    def build_domain(self) -> None:
        if not self.spec.with_domain_range:
            return
        self.dom_pred = self.iri("p/dom0")
        self.dom_entities = [self.iri(f"d/{i}") for i in range(2)]
        self.state(Triple(self.dom_pred, RDFS_DOMAIN, self.iri("c/dom")), self.dom_pred)
        self.state(Triple(self.dom_pred, RDFS_RANGE, self.iri("c/domR")), self.dom_pred)
        for i, d in enumerate(self.dom_entities):
            self.bidi(d, self.dom_pred, self.iri(f"d/{i}v"))

    def add_star(
        self,
        tag: str,
        kinds: tuple[str, ...],
        members: list[tuple[int, dict[int, str]]],
    ) -> list[TriplePattern]:
        """Plant a star: kinds[k] is 's' (?x p c) or 'o' (c p ?x) per pattern.

        members: (entity index, {pattern index: 'hub' | 'alias'}) — facts for
        listed pattern indexes are split away into that entity's hub or alias
        document instead of being stated bidirectionally.
        """
        preds = [self.iri(f"p/{tag}{k + 1}") for k in range(len(kinds))]
        consts = [self.iri(f"v/{tag}{k + 1}") for k in range(len(kinds))]
        top = self.iri(f"p/{tag}Top")
        for p in preds:
            self.vocab_stub(p, top)
        x = Variable("x")
        patterns = [
            TriplePattern(x, preds[k], consts[k]) if kinds[k] == "s" else TriplePattern(consts[k], preds[k], x)
            for k in range(len(kinds))
        ]
        lead = plan_order(patterns)[0]
        for idx, splits in members:
            e = self.entities[idx]
            for k, kind in enumerate(kinds):
                s, o = (e, consts[k]) if kind == "s" else (consts[k], e)
                via = splits.get(k)
                if via is None:
                    self.bidi(s, preds[k], o)
                    continue
                _check(patterns[k] != lead, f"star {tag}: split pattern leads the join plan")
                if via == "hub":
                    self.state(Triple(s, preds[k], o), self.hubs[idx])
                else:
                    alias = self.aliases[idx]
                    s2, o2 = (alias, o) if kind == "s" else (s, alias)
                    self.state(Triple(s2, preds[k], o2), alias)
        return patterns

    # -- queries

    def build_queries(self) -> list[PlannedQuery]:
        rng = self.rng
        planned: list[PlannedQuery] = []
        counter = [0]

        def add(cls: QueryClass, patterns: Sequence[TriplePattern], gains: Sequence[tuple[str, str]] = ()) -> None:
            counter[0] += 1
            qid = f"q{counter[0]:02d}"
            proj = tuple(sorted({v for p in patterns for v in p.variables()}))
            q = BgpQuery(query_id=qid, projected=proj, patterns=tuple(patterns))
            validate_query(q)
            _check(classify(q) == cls, f"{qid}: expected class {cls.value}, got {classify(q).value}")
            planned.append(PlannedQuery(qid, cls.value, q, tuple(gains)))

        E = self.entities
        o_, s_, v1, v2, v3 = (Variable(n) for n in ("o", "s", "v1", "v2", "v3"))

        # entity-s: plain, family rewrite, hub-only fact, alias-only fact
        add(QueryClass.ENTITY_S, [TriplePattern(rng.choice(E), self.pp[0], o_)])
        fam_e = rng.choice([i for i in range(len(E)) if i % 2 == 0])
        add(
            QueryClass.ENTITY_S,
            [TriplePattern(E[fam_e], self.fam[0][1], o_)],
            gains=[("select", "rhodf"), ("base", "combined")],
        )
        hub_e = rng.choice(self.hub_idx)
        add(
            QueryClass.ENTITY_S,
            [TriplePattern(E[hub_e], self.hp[0], o_)],
            gains=[("base", "seealso"), ("sameas", "combined")],
        )
        alias_e = rng.choice(self.alias_idx)
        add(
            QueryClass.ENTITY_S,
            [TriplePattern(E[alias_e], self.ap[0], o_)],
            gains=[("base", "sameas"), ("seealso", "combined")],
        )
        if self.spec.with_domain_range:
            add(QueryClass.ENTITY_S, [TriplePattern(self.dom_entities[0], self.dom_pred, o_)])

        # entity-o: ring predecessor, then type instances
        add(QueryClass.ENTITY_O, [TriplePattern(s_, self.pp[0], rng.choice(E))])
        add(QueryClass.ENTITY_O, [TriplePattern(s_, RDF_TYPE, self.cls[0][0])])

        # entity-so around one entity of the plain ring
        so_e = rng.choice(E)
        add(
            QueryClass.ENTITY_SO,
            [TriplePattern(so_e, self.pp[0], o_), TriplePattern(s_, self.pp[0], so_e)],
        )

        # chains, subject-seeded and object-seeded
        ci = rng.randrange(len(E))
        w = self.chain_nodes[ci]
        add(
            QueryClass.S_PATH_2,
            [TriplePattern(E[ci], self.step[0], v1), TriplePattern(v1, self.step[1], v2)],
        )
        fam_ci = rng.choice([i for i in range(len(E)) if i % 2 == 0])
        add(
            QueryClass.S_PATH_2,
            [TriplePattern(E[fam_ci], self.fam[0][1], v1), TriplePattern(v1, self.step[1], v2)],
            gains=[("select", "rhodf"), ("base", "combined")],
        )
        add(
            QueryClass.O_PATH_2,
            [TriplePattern(v1, self.step[1], w[1]), TriplePattern(v2, self.step[0], v1)],
        )
        add(
            QueryClass.S_PATH_3,
            [
                TriplePattern(E[ci], self.step[0], v1),
                TriplePattern(v1, self.step[1], v2),
                TriplePattern(v2, self.step[2], v3),
            ],
        )
        add(
            QueryClass.O_PATH_3,
            [
                TriplePattern(v1, self.step[2], w[2]),
                TriplePattern(v2, self.step[1], v1),
                TriplePattern(v3, self.step[0], v2),
            ],
        )

        # stars; sa carries every split kind, the others stay simpler
        rng_pool = lambda pool, k: [int(i) for i in rng.sample(pool, k)]  # noqa: E731
        hub_only = [i for i in self.hub_idx if i not in self.alias_idx]
        alias_only = [i for i in self.alias_idx if i not in self.hub_idx]
        both = [i for i in self.hub_idx if i in self.alias_idx]
        sa_members: list[tuple[int, dict[int, str]]] = [(i, {}) for i in rng_pool(self.plain_idx, 2)]
        sa_members += [(rng.choice(hub_only), {2: "hub"})]
        sa_members += [(rng.choice(alias_only), {1: "alias"})]
        sa_members += [(both[0], {1: "alias", 2: "hub"})]
        pats = self.add_star("sa", ("s", "s", "s"), sa_members)
        add(
            QueryClass.STAR_S3,
            pats,
            gains=[("base", "seealso"), ("base", "sameas"), ("seealso", "combined"), ("sameas", "combined")],
        )
        pats = self.add_star("sb", ("s", "s", "s"), [(i, {}) for i in rng_pool(range(len(E)), 3)])
        add(QueryClass.STAR_S3, pats)
        sc_members: list[tuple[int, dict[int, str]]] = [(i, {}) for i in rng_pool(self.plain_idx, 2)]
        sc_members += [(rng.choice(alias_only), {1: "alias"}), (rng.choice(hub_only), {0: "hub"})]
        pats = self.add_star("sc", ("s", "s", "o"), sc_members)
        add(QueryClass.STAR_S2_O1, pats, gains=[("base", "seealso"), ("base", "sameas")])
        sd_members: list[tuple[int, dict[int, str]]] = [(i, {}) for i in rng_pool(self.plain_idx, 2)]
        sd_members += [(rng.choice(alias_only), {0: "alias"})]
        pats = self.add_star("sd", ("s", "o"), sd_members)
        add(QueryClass.STAR_S1_O1, pats, gains=[("base", "sameas")])
        pats = self.add_star("se", ("s", "o", "o"), [(i, {}) for i in rng_pool(range(len(E)), 3)])
        add(QueryClass.STAR_S1_O2, pats)
        sf_members: list[tuple[int, dict[int, str]]] = [(i, {}) for i in rng_pool(self.plain_idx, 2)]
        sf_members += [(rng.choice(hub_only), {2: "hub"})]
        pats = self.add_star("sf", ("o", "o", "o"), sf_members)
        add(QueryClass.STAR_O3, pats, gains=[("base", "seealso")])

        return planned


def _restrictions(hub_docs: frozenset[str], alias_docs: frozenset[str]) -> dict[str, tuple[frozenset[str], bool, bool]]:
    return {
        "base": (hub_docs | alias_docs, False, False),
        "select": (hub_docs | alias_docs, False, False),
        "seealso": (alias_docs, False, False),
        "sameas": (hub_docs, True, False),
        "rhodf": (hub_docs | alias_docs, False, True),
        "combined": (frozenset(), True, True),
    }


def ground_truth_for(
    doc_triples: Mapping[str, frozenset[Triple]],
    hub_docs: frozenset[str],
    alias_docs: frozenset[str],
    queries: Sequence[BgpQuery],
) -> list[dict[str, frozenset[str]]]:
    """Each query's answer keys per setup; each setup restriction is prepared once."""
    out: list[dict[str, frozenset[str]]] = [{} for _ in queries]
    answerers: dict[tuple, Callable[[BgpQuery], frozenset[str]]] = {}
    for setup, restriction in _restrictions(hub_docs, alias_docs).items():
        if restriction not in answerers:
            excluded, sameas, rhodf = restriction
            visible = set().union(*(ts for iri, ts in doc_triples.items() if iri not in excluded))
            answerers[restriction] = oracle(visible, use_sameas=sameas, use_rhodf=rhodf)
        for per_setup, query in zip(out, queries):
            per_setup[setup] = answerers[restriction](query)
    return out


def generate_web(spec: WebSpec, out_dir: str | Path) -> GeneratedWeb:
    builder = _Builder(spec)
    builder.build_core()
    builder.build_hubs()
    builder.build_aliases()
    builder.build_domain()
    queries = builder.build_queries()

    doc_triples = {iri: frozenset(ts) for iri, ts in builder.docs.items()}
    hub_docs = frozenset(builder.hub_doc_iris)
    alias_docs = frozenset(builder.alias_doc_iris)
    _check(len(doc_triples) <= 200, f"web too large: {len(doc_triples)} documents")

    gt: dict[tuple[str, str], frozenset[str]] = {}
    truths = ground_truth_for(doc_triples, hub_docs, alias_docs, [pq.query for pq in queries])
    for pq, per_setup in zip(queries, truths):
        for setup, keys in per_setup.items():
            gt[(pq.query_id, setup)] = keys
        # planted strict gains
        for lesser, greater in pq.gains:
            _check(
                len(per_setup[greater]) > len(per_setup[lesser]),
                f"{pq.query_id}: expected |{greater}| > |{lesser}|, "
                f"got {len(per_setup[greater])} vs {len(per_setup[lesser])}",
            )
        # recall monotonicity along the planned comparisons
        _check(per_setup["base"] <= per_setup["seealso"], f"{pq.query_id}: base not within seealso")
        _check(per_setup["select"] <= per_setup["rhodf"], f"{pq.query_id}: select not within rhodf")
        _check(per_setup["base"] == per_setup["select"], f"{pq.query_id}: base/select ground truths differ")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    docs_dir = out / "docs"
    docs_dir.mkdir(exist_ok=True)
    manifest_lines = []
    for n, iri in enumerate(sorted(doc_triples)):
        rel = f"docs/d{n:04d}.nt"
        ordered = sorted(
            doc_triples[iri],
            key=lambda t: (term_to_text(t.subject), term_to_text(t.predicate), term_to_text(t.object)),
        )
        (out / rel).write_text(serialize_ntriples(ordered), encoding="utf-8")
        manifest_lines.append(f"{iri}\tFILE {rel}")
    (out / "manifest.tsv").write_text("\n".join(manifest_lines) + "\n", encoding="utf-8")
    suite_lines = [f"{pq.query_id}\t{pq.class_name}\t{one_line_query(pq.query)}" for pq in queries]
    (out / "suite.tsv").write_text("\n".join(suite_lines) + "\n", encoding="utf-8")
    gt_lines = []
    for pq in queries:
        for setup in SETUP_NAMES:
            for key in sorted(gt[(pq.query_id, setup)]):
                gt_lines.append(f"{pq.query_id}\t{setup}\t{key}")
    (out / "ground_truth.tsv").write_text("\n".join(gt_lines) + ("\n" if gt_lines else ""), encoding="utf-8")
    meta = {
        "spec": asdict(spec),
        "documents": len(doc_triples),
        "hub_documents": sorted(hub_docs),
        "alias_documents": sorted(alias_docs),
        "queries": {pq.query_id: {"class": pq.class_name, "gains": list(map(list, pq.gains))} for pq in queries},
    }
    (out / "webspec.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    return GeneratedWeb(
        out_dir=out,
        spec=spec,
        doc_triples=doc_triples,
        hub_doc_iris=hub_docs,
        alias_doc_iris=alias_docs,
        queries=tuple(queries),
        ground_truth=gt,
    )


def load_fixture_documents(web_dir: str | Path) -> dict[str, list[Triple]]:
    """The documents a run is handed on the web: each IRI of its ``FixtureResolver`` whose hop
    answers 2xx (a ``FILE`` row, bare or behind ``DELAY``, or an empty 2xx ``STATUS``), in manifest
    order, with blank nodes scoped by that IRI.  An unreadable ``FILE`` raises ``TransportError``."""
    resolver = FixtureResolver(web_dir, clock=FakeClock())  # a DELAY costs nothing
    docs: dict[str, list[Triple]] = {}
    for iri in resolver:
        resp = resolver.resolve(iri, timeout_s=float("inf"))
        if 200 <= resp.status < 300:
            triples, errors = parse_ntriples(resp.body, doc_scope=iri)
            if errors:
                raise ValueError(f"{iri}: {len(errors)} parse errors")
            docs[iri] = triples
    return docs


def load_ground_truth(path: str | Path) -> dict[tuple[str, str], frozenset[str]]:
    """Read answer keys back; (query_id, setup) pairs with no row are empty."""
    acc: dict[tuple[str, str], set[str]] = {}
    for line in read_lines(path):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) < 3:
            raise ValueError(f"bad ground truth row: {line!r}")
        acc.setdefault((parts[0], parts[1]), set()).add("\t".join(parts[2:]))
    return {k: frozenset(v) for k, v in acc.items()}
