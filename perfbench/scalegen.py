#!/usr/bin/env python3
"""Seeded chain webs for the linkquery benchmark.

A chain web is a set of components.  Component ``c`` holds ``L_c`` entities
linked in a line by ``p/next``; every entity is typed with the component's
class, whose document lists all members (the type fact is stated in both the
entity's and the class's document) and the class's full superclass chain.
Each entity document carries ``filler`` literal triples.  With aliases on,
each entity also states ``owl:sameAs`` to an alias that has a document of
its own; in every other component the alias IRI sorts *before* the entity,
so merging it moves an IRI that the traversal has already seen.

Each component has one class-seeded query,
``SELECT ?x ?y WHERE { ?x rdf:type C_c . ?x p/next ?y . }``, whose answers
are known by construction: every (entity, next entity) pair, written under
the least IRI of each sameAs class for the setups that merge aliases.

Component lengths are log-uniform between ``min_len`` and ``max_len`` and
fixed by the spec, and alias sides alternate along that length order.  The
seed picks every IRI, the order of components and the filler text, so two
seeds give different webs with the same cost profile.

The output directory holds a fixture ``manifest.tsv``, ``docs/``,
``suite.tsv`` (id, class, query), ``expected.tsv`` (id, setup, answer key)
and ``spec.json``.  Only the standard library is used, so the program under
test sees nothing from this generator but the files.

    python3 perfbench/scalegen.py --workload long-chain --seed 1 --out WEB_DIR
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS_SUBCLASSOF = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
OWL_SAMEAS = "http://www.w3.org/2002/07/owl#sameAs"

# The query shape `?x rdf:type C . ?x next ?y` as linkquery.query.classify
# names it; the tests check that the two agree.
QUERY_CLASS = "other"
SAMEAS_SETUPS = ("sameas", "combined")


@dataclass(frozen=True)
class ChainSpec:
    components: int
    min_len: int
    max_len: int
    filler: int          # literal triples per entity document
    class_depth: int     # superclass levels above each component class
    aliases: bool
    setups: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.components < 2 or not 2 <= self.min_len <= self.max_len:
            raise ValueError("need at least two components of at least two entities")
        if self.filler < 0 or self.class_depth < 0:
            raise ValueError("filler and class_depth must not be negative")


PRESETS = {
    "sameas-chain": ChainSpec(
        components=60, min_len=8, max_len=32, filler=2, class_depth=2,
        aliases=True, setups=("sameas", "combined"),
    ),
    "long-chain": ChainSpec(
        components=40, min_len=12, max_len=72, filler=20, class_depth=3,
        aliases=False, setups=("base", "select", "rhodf"),
    ),
}


def component_lengths(spec: ChainSpec) -> list[int]:
    """Log-uniform lengths, shortest first: many short components, few long."""
    n, lo, hi = spec.components, spec.min_len, spec.max_len
    return [round(lo * (hi / lo) ** (k / (n - 1))) for k in range(n)]


def _nt(s: str, p: str, o: str) -> str:
    return f"<{s}> <{p}> {o} .\n"


def _word(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(6, 14)))


def generate(spec: ChainSpec, seed: int, out_dir: str | Path) -> Path:
    """Write the web for (spec, seed) into out_dir, replacing what was there."""
    rng = random.Random(seed)
    base = f"http://chain{seed}.example/"
    nxt, label = base + "p/next", base + "p/label"
    filler_preds = [f"{base}p/f{k}" for k in range(spec.filler)]
    docs: dict[str, list[str]] = {}

    def state(line: str, *doc_iris: str) -> None:
        for d in doc_iris:
            docs.setdefault(d, []).append(line)

    lengths = component_lengths(spec)
    order = list(range(spec.components))
    rng.shuffle(order)  # component id -> position in the length schedule
    suite: list[str] = []
    expected: list[str] = []
    for cid, rank in enumerate(order):
        length = lengths[rank]
        alias_first = spec.aliases and rank % 2 == 1
        klass = f"{base}class/{cid:03d}"
        chain = [klass] + [f"{base}class/h{lvl}/{cid >> (2 * lvl)}" for lvl in range(1, spec.class_depth + 1)]
        for lvl in range(len(chain)):
            for a, b in zip(chain[lvl:], chain[lvl + 1 :]):
                state(_nt(a, RDFS_SUBCLASSOF, f"<{b}>"), chain[lvl])
        tokens = rng.sample(range(16**6), length)
        ents = [f"{base}n/{cid:03d}/{tok:06x}" for tok in tokens]
        rep = {e: e for e in ents}
        for i, e in enumerate(ents):
            state(_nt(e, RDF_TYPE, f"<{klass}>"), e, klass)
            if i + 1 < length:
                state(_nt(e, nxt, f"<{ents[i + 1]}>"), e, ents[i + 1])
            for p in filler_preds:
                state(_nt(e, p, f'"{_word(rng)}"'), e)
            if spec.aliases:
                alias = f"{base}a/{cid:03d}/{tokens[i]:06x}" if alias_first else f"{e}/same"
                state(_nt(e, OWL_SAMEAS, f"<{alias}>"), e)
                state(_nt(alias, OWL_SAMEAS, f"<{e}>"), alias)
                state(_nt(alias, label, f'"{_word(rng)}"'), alias)
                rep[e] = min(e, alias)
        qid = f"q{cid:03d}"
        suite.append(
            f"{qid}\t{QUERY_CLASS}\tSELECT ?x ?y WHERE {{ ?x <{RDF_TYPE}> <{klass}> . ?x <{nxt}> ?y . }}"
        )
        for setup in spec.setups:
            canon = rep if setup in SAMEAS_SETUPS else {e: e for e in ents}
            for a, b in zip(ents, ents[1:]):
                expected.append(f"{qid}\t{setup}\t?x=<{canon[a]}>\t?y=<{canon[b]}>")

    out = Path(out_dir)
    shutil.rmtree(out, ignore_errors=True)
    (out / "docs").mkdir(parents=True)
    manifest = []
    for n, iri in enumerate(sorted(docs)):
        rel = f"docs/d{n:05d}.nt"
        (out / rel).write_text("".join(sorted(set(docs[iri]))), encoding="utf-8")
        manifest.append(f"{iri}\tFILE {rel}\n")
    (out / "manifest.tsv").write_text("".join(manifest), encoding="utf-8")
    (out / "suite.tsv").write_text("".join(line + "\n" for line in suite), encoding="utf-8")
    (out / "expected.tsv").write_text("".join(line + "\n" for line in sorted(expected)), encoding="utf-8")
    meta = {"seed": seed, "spec": asdict(spec), "lengths": lengths, "documents": len(docs)}
    (out / "spec.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write a seeded chain web.")
    parser.add_argument("--workload", choices=sorted(PRESETS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="output directory (replaced)")
    args = parser.parse_args(argv)
    generate(PRESETS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
