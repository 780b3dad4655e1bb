#!/usr/bin/env python3
"""A/B timing of two linkquery source trees in one process, job by job.

    python3 scripts/ab_inprocess.py OLD_ROOT NEW_ROOT --workload long-chain --seed 7 --passes 5

Run-to-run shifts of the host (CPU frequency, neighbours, cache state) can
move the median of one benchmark process against another by more than a
10% gain, so two trees timed in separate processes, even alternately, need
many pairs to tell such a gain apart.  This script times both trees in one
process instead, each job on both trees back to back, so that both see the
same host state.

Each root's ``src/linkquery`` is copied into a temporary directory as the
packages ``lq_old`` and ``lq_new``; this works because every import inside
the package is relative.  The chain web of ``--workload`` and ``--seed`` is
written once by this checkout's ``perfbench/scalegen.py``, and each tree
reads it with its own ``FixtureResolver`` and suite, under the workload's
setups and ``FetchConfig(max_parallel=2)``, as the benchmark does.  A pass
runs every (query, setup) job on both trees, in an order drawn per job from
a generator seeded with ``--seed``, and a full garbage collection comes
before each execution, so that neither tree pays for the other's garbage.
Every execution's answer keys are checked against the web's
``expected.tsv``, and the four counts of the two trees against each other.

It prints, per tree, the median and the 90th percentile of the wall time
per execution and the median time to the first answer, and per setup the
median over its executions of the wall time per retrieved document (the
run's fetch events with status ``ok``) in microseconds; then the median over
the executions of the ratio NEW/OLD of the two walls of one job.  It exits 1
when an answer or a count was wrong.

    python3 scripts/ab_inprocess.py OLD_ROOT NEW_ROOT --workload long-chain --seed 7 --passes 15 --parse

With ``--parse`` it times only the two trees' ``parse_ntriples``, on the
web's ``.nt`` documents in three variants: as written, with one comment line
put first, and with one bad line put last.  A pass parses every document of
a variant on both trees, in an order drawn per pass, in groups of
``PARSE_GROUP`` documents that share one IRI table, passed as
``parse_ntriples``'s third argument, as the documents of a run do.  It
prints, per variant, each tree's median CPU milliseconds per pass and the
median over the passes of the ratio NEW/OLD, and exits 1 when the two trees'
triples, or the line numbers or reasons of their errors, differ on some
document.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import random
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve()
WORKLOADS = ("long-chain", "sameas-chain")
WARMUP_JOBS = 5
PARSE_GROUP = 35  # documents per IRI table under --parse
PARSE_VARIANTS = {
    "as written": lambda doc: doc,
    "one comment line": lambda doc: b"# a comment\n" + doc,
    "one bad line": lambda doc: doc + b"not a triple\n",
}


def load_tree(root: Path, name: str, into: Path):
    """Import ``root``'s linkquery under the package name ``name``."""
    shutil.copytree(root / "src" / "linkquery", into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def read_answers(path: Path) -> dict[tuple[str, str], frozenset[str]]:
    """Rows 'query_id<TAB>setup<TAB>answer key'; the key itself holds tabs."""
    acc: dict[tuple[str, str], set[str]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line:
            qid, setup, key = line.split("\t", 2)
            acc.setdefault((qid, setup), set()).add(key)
    return {k: frozenset(v) for k, v in acc.items()}


class Tree:
    """One tree's jobs on the web, and its timings."""

    def __init__(self, pkg, web: Path, setups: tuple[str, ...]) -> None:
        bench, engine, fetch = (importlib.import_module(f"{pkg.__name__}.{m}") for m in ("bench", "engine", "fetch"))
        self.resolver = fetch.FixtureResolver(web / "manifest.tsv")
        self.config = fetch.FetchConfig(max_parallel=2)
        self.execute = engine.execute
        entries = bench.load_suite(web / "suite.tsv")
        self.jobs = [(e.query_id, e.query, engine.Setup(s)) for e in entries for s in setups]
        self.walls: list[float] = []
        self.firsts: list[float] = []
        self.per_doc: dict[str, list[float]] = {s: [] for s in setups}  # µs per retrieved document

    def run(self, k: int, expected: frozenset[str]) -> tuple[bool, tuple[int, ...]]:
        """Run job ``k``; whether its answers were right, and its four counts."""
        _, query, setup = self.jobs[k]
        t0 = perf_counter()
        run = self.execute(query, setup, self.resolver, config=self.config)
        wall = perf_counter() - t0
        self.walls.append(wall)
        docs = len(run.retrieved_iris())
        if docs:
            self.per_doc[setup.value].append(1e6 * wall / docs)
        m = run.metrics
        if m.first_s is not None:
            self.firsts.append(m.first_s)
        counts = (m.results, m.http_lookups, m.retrieved_triples, m.inferred_triples)
        return not m.truncated and run.answer_keys() == expected, counts


def parse_pass(rdf, docs: list[bytes]) -> tuple[float, list]:
    """Parse ``docs`` in groups that share an IRI table: the CPU seconds, and each parse."""
    parsed = []
    t0 = process_time()
    for start in range(0, len(docs), PARSE_GROUP):
        table = {}
        parsed += [rdf.parse_ntriples(doc, "d", table) for doc in docs[start:start + PARSE_GROUP]]
    return process_time() - t0, parsed


def compare_parsers(label: str, rdfs: dict, web: Path, passes: int, seed: int) -> int:
    """Time both trees' parser on the web's documents; 1 if their parses differ."""
    written = [path.read_bytes() for path in sorted(web.rglob("*.nt"))]
    rng = random.Random(seed)
    print(f"{label}: {len(written)} documents, {passes} passes, groups of {PARSE_GROUP} per IRI table")
    differ = 0
    for variant, change in PARSE_VARIANTS.items():
        docs = [change(doc) for doc in written]
        outcome = {name: parse_pass(rdf, docs)[1] for name, rdf in rdfs.items()}  # also the warm-up
        for (old_t, old_e), (new_t, new_e) in zip(outcome["old"], outcome["new"]):
            differ += old_t != new_t or [(e.line, e.reason) for e in old_e] != [(e.line, e.reason) for e in new_e]
        cpu: dict[str, list[float]] = {name: [] for name in rdfs}
        for _ in range(passes):
            for name in sorted(rdfs, key=lambda _: rng.random()):
                gc.collect()
                cpu[name].append(parse_pass(rdfs[name], docs)[0])
        ratio = statistics.median(n / o for o, n in zip(cpu["old"], cpu["new"]))
        medians = "  ".join(f"{name} {1000 * statistics.median(runs):.1f} ms" for name, runs in cpu.items())
        print(f"  {variant}: {medians}  median ratio new/old {ratio:.3f}")
    print(f"  documents parsed differently {differ}")
    return 1 if differ else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("old_root", type=Path)
    parser.add_argument("new_root", type=Path)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7, help="web seed, and the seed of the run order (default 7)")
    parser.add_argument("--passes", type=int, default=5,
                        help="passes over every job, or over the documents with --parse (default 5)")
    parser.add_argument("--parse", action="store_true", help="time only the parsers, on the web's documents")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent.parent / "perfbench"))
    import scalegen

    with tempfile.TemporaryDirectory(prefix="ab-inprocess-") as tmp:
        tmp_path = Path(tmp)
        sys.path.insert(0, str(tmp_path))
        spec = scalegen.PRESETS[args.workload]
        web = scalegen.generate(spec, args.seed, tmp_path / "web")
        if args.parse:
            for name, root in (("old", args.old_root), ("new", args.new_root)):
                load_tree(root.resolve(), f"lq_{name}", tmp_path)
            rdfs = {name: importlib.import_module(f"lq_{name}.rdf") for name in ("old", "new")}
            return compare_parsers(f"{args.workload}, seed {args.seed}", rdfs, web, args.passes, args.seed)
        trees = {name: Tree(load_tree(root.resolve(), f"lq_{name}", tmp_path), web, spec.setups)
                 for name, root in (("old", args.old_root), ("new", args.new_root))}
        old, new = trees["old"], trees["new"]
        expected = read_answers(web / "expected.tsv")
        wanted = [expected.get((qid, setup.value), frozenset()) for qid, _, setup in old.jobs]
        for tree in (old, new):
            for k in range(WARMUP_JOBS):
                tree.run(k, wanted[k])
            tree.walls.clear()
            tree.firsts.clear()
            for runs in tree.per_doc.values():
                runs.clear()

        rng = random.Random(args.seed)
        wrong = mismatched = 0
        ratios = []
        for _ in range(args.passes):
            for k in range(len(old.jobs)):
                order = (old, new) if rng.random() < 0.5 else (new, old)
                outcome = {}
                for tree in order:
                    gc.collect()
                    outcome[tree] = tree.run(k, wanted[k])
                wrong += sum(not ok for ok, _ in outcome.values())
                mismatched += outcome[old][1] != outcome[new][1]
                ratios.append(new.walls[-1] / old.walls[-1])

    print(f"{args.workload}, seed {args.seed}: {args.passes} passes x {len(old.jobs)} jobs "
          f"= {len(ratios)} executions per tree")
    for name, tree in trees.items():
        print(f"  {name}: query_ms_p50 {1000 * statistics.median(tree.walls):.3f}  "
              f"query_ms_p90 {1000 * statistics.quantiles(tree.walls, n=10)[-1]:.3f}  "
              f"first_answer_ms_p50 {1000 * statistics.median(tree.firsts):.3f}")
        print("        us_per_doc_p50 " + "  ".join(
            f"{setup} {statistics.median(runs):.1f}" for setup, runs in tree.per_doc.items() if runs))
    print(f"  median per-job ratio new/old {statistics.median(ratios):.3f}")
    print(f"  wrong answers {wrong}, count mismatches {mismatched}")
    return 1 if wrong or mismatched else 0


if __name__ == "__main__":
    raise SystemExit(main())
