#!/usr/bin/env python3
"""Run-by-run comparison of two linkquery source trees on the same webs.

    python3 scripts/compare_runs.py OLD_ROOT NEW_ROOT [--seeds 0-19] [--chain-seed 7]

Each root runs in a subprocess of its own whose ``PYTHONPATH`` is that root's
``src``.  Both run the same webs: the fixturegen webs of every seed in
``--seeds`` in both alias styles (suffix and prefixmin), written once by
OLD_ROOT's generator, with every suite query under all six setups; with
``--chain-seed N``, also the ``long-chain`` and ``sameas-chain`` webs of
``perfbench/scalegen.py`` for seed N, under their workloads' setups.  Every
run uses ``FetchConfig(max_parallel=2)`` and default engine options, as the
benchmark does.

For each (web, query, setup) run it compares the answer keys, the four
counts (Results, HTTP, Retrieved, Inferred), ``truncated``, the retrieved
IRIs, the reason each IRI was requested for, and digests of
``FinalState.data`` and ``FinalState.inferred``.  It prints the first
difference and exits 1; it exits 0 when every run matched.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve()
CHAIN_WORKLOADS = ("long-chain", "sameas-chain")
FIELDS = ("answers", "counts", "truncated", "retrieved", "reasons", "data", "inferred")


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def in_root(root: Path, *argv: str) -> subprocess.Popen:
    """This script, as a worker that imports linkquery from ``root/src``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    return subprocess.Popen([sys.executable, str(HERE), "_worker", str(root), *argv], env=env)


def wait_ok(*procs: subprocess.Popen) -> None:
    codes = [p.wait() for p in procs]
    if any(codes):
        raise SystemExit(f"a worker failed with exit codes {codes}")


# --- worker side: runs with one root's linkquery ----------------------------


def _term_text(term) -> str:
    from linkquery.rdf import BlankNode, term_to_text

    return f"_:{term.label}@{term.scope}" if isinstance(term, BlankNode) else term_to_text(term)


def _digest(triples) -> str:
    lines = sorted(" ".join(_term_text(x) for x in (t.subject, t.predicate, t.object)) for t in triples)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def generate_fixture_webs(seeds: list[int], workdir: Path) -> list[dict]:
    from linkquery.engine import ALL_SETUPS
    from linkquery.fixturegen import WebSpec, generate_web

    webs = []
    for seed in seeds:
        for style in ("suffix", "prefixmin"):
            web = generate_web(WebSpec(seed=seed, alias_style=style), workdir / f"{style}{seed:03d}")
            webs.append({"name": f"{style}{seed:03d}", "manifest": str(web.manifest_path),
                         "suite": str(web.suite_path), "setups": [s.value for s in ALL_SETUPS]})
    return webs


def run_webs(webs: list[dict], out) -> None:
    from linkquery.bench import load_suite
    from linkquery.engine import execute
    from linkquery.fetch import FetchConfig, FixtureResolver

    config = FetchConfig(max_parallel=2)
    for web in webs:
        resolver = FixtureResolver(web["manifest"])
        for entry in load_suite(web["suite"]):
            for setup in web["setups"]:
                run = execute(entry.query, setup, resolver, config=config)
                m = run.metrics
                out.write(json.dumps({
                    "run": [web["name"], entry.query_id, setup],
                    "answers": sorted(run.answer_keys()),
                    "counts": [m.results, m.http_lookups, m.retrieved_triples, m.inferred_triples],
                    "truncated": m.truncated,
                    "retrieved": sorted(i.value for i in run.retrieved_iris()),
                    "reasons": sorted([e.iri.value, e.reason] for e in run.events),
                    "data": _digest(run.final.data),
                    "inferred": _digest(run.final.inferred),
                }) + "\n")


def worker(argv: list[str]) -> int:
    root, mode, workdir = Path(argv[0]).resolve(), argv[1], Path(argv[2])
    import linkquery

    if not Path(linkquery.__file__).resolve().is_relative_to(root):
        raise SystemExit(f"imported {linkquery.__file__}, not the linkquery of {root}")
    if mode == "gen":
        webs = generate_fixture_webs(seed_range(argv[3]), workdir)
        (workdir / "webs.json").write_text(json.dumps(webs), encoding="utf-8")
    else:
        webs = json.loads((workdir / "webs.json").read_text(encoding="utf-8"))
        with open(workdir / f"runs-{mode}.jsonl", "w", encoding="utf-8") as out:
            run_webs(webs, out)
    return 0


# --- driver side ------------------------------------------------------------


def add_chain_webs(seed: int, workdir: Path) -> list[dict]:
    sys.path.insert(0, str(HERE.parent.parent / "perfbench"))
    import scalegen

    webs = []
    for name in CHAIN_WORKLOADS:
        out = scalegen.generate(scalegen.PRESETS[name], seed, workdir / f"{name}{seed:03d}")
        webs.append({"name": f"{name}{seed:03d}", "manifest": str(out / "manifest.tsv"),
                     "suite": str(out / "suite.tsv"), "setups": list(scalegen.PRESETS[name].setups)})
    return webs


def compare(old_path: Path, new_path: Path) -> int:
    with open(old_path, encoding="utf-8") as old_fh, open(new_path, encoding="utf-8") as new_fh:
        n = 0
        for old_line, new_line in zip(old_fh, new_fh, strict=True):
            old, new = json.loads(old_line), json.loads(new_line)
            if old["run"] != new["run"]:
                print(f"runs out of step: {old['run']} against {new['run']}")
                return 1
            for name in FIELDS:
                if old[name] != new[name]:
                    print(f"DIFF {'/'.join(old['run'])} {name}:\n  old {str(old[name])[:400]}\n  new {str(new[name])[:400]}")
                    return 1
            n += 1
    print(f"{n} runs identical")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["_worker"]:
        return worker(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("old_root", type=Path)
    parser.add_argument("new_root", type=Path)
    parser.add_argument("--seeds", default="0-19", help="fixturegen seeds, as N or A-B (default 0-19)")
    parser.add_argument("--chain-seed", type=int, help="also run this seed's long-chain and sameas-chain webs")
    parser.add_argument("--workdir", type=Path, help="where webs and run records go (default: a temporary directory)")
    args = parser.parse_args(argv)
    roots = [args.old_root.resolve(), args.new_root.resolve()]
    with tempfile.TemporaryDirectory(prefix="compare-runs-") as tmp:
        workdir = (args.workdir or Path(tmp)).resolve()
        workdir.mkdir(parents=True, exist_ok=True)
        wait_ok(in_root(roots[0], "gen", str(workdir), args.seeds))
        if args.chain_seed is not None:
            webs = json.loads((workdir / "webs.json").read_text(encoding="utf-8"))
            webs += add_chain_webs(args.chain_seed, workdir)
            (workdir / "webs.json").write_text(json.dumps(webs), encoding="utf-8")
        wait_ok(in_root(roots[0], "old", str(workdir)), in_root(roots[1], "new", str(workdir)))
        return compare(workdir / "runs-old.jsonl", workdir / "runs-new.jsonl")


if __name__ == "__main__":
    raise SystemExit(main())
