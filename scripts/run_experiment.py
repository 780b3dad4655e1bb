#!/usr/bin/env python3
"""End-to-end demo: generate fixture webs, run every setup, print the table.

Writes the generated webs and the aggregated tables (LaTeX + CSV + one row
per run) under --workdir, then prints the LaTeX table to stdout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from linkquery.bench import aggregate, emit_csv, emit_latex, load_suite, run_suite, write_per_query_csv
from linkquery.fetch import FixtureResolver
from linkquery.fixturegen import WebSpec, generate_web


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workdir", default="experiment", help="output directory")
    parser.add_argument("--webs", type=int, default=4, help="number of fixture webs")
    parser.add_argument("--seed", type=int, default=0, help="seed of the first web")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    records = []
    for n in range(args.webs):
        seed = args.seed + n
        style = "suffix" if seed % 2 == 0 else "prefixmin"
        web = generate_web(WebSpec(seed=seed, alias_style=style), workdir / f"web{seed:03d}")
        entries = load_suite(web.suite_path)
        records += run_suite(entries, FixtureResolver(web.manifest_path))
        print(f"web{seed:03d}: {len(web.doc_triples)} documents, {len(entries)} queries", file=sys.stderr)

    rows = aggregate(records)
    with open(workdir / "results.tex", "w", encoding="utf-8") as fh:
        emit_latex(rows, fh)
    with open(workdir / "results.csv", "w", encoding="utf-8") as fh:
        emit_csv(rows, fh)
    with open(workdir / "per_query.csv", "w", encoding="utf-8") as fh:
        write_per_query_csv(records, fh)
    emit_latex(rows, sys.stdout)
    print(f"\nwrote {workdir}/results.tex, results.csv, per_query.csv", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
