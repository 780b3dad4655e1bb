#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --seeds 10 [--workload NAME ...] [--out FILE]

Runs the command from BENCHMARK.json once per seed and workload (untraced),
then prints for each metric the median, the quartiles of the runs as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound.  A spread at or above the bound is flagged ``WIDE``; one at
or above a third of it is flagged ``wide``; a ``WIDE`` metric, ``setup_s``
included, makes the tool exit 1.  ``--out`` writes the same
figures as JSON.  Run it from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Measure run-to-run spread per workload.")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    report: dict[str, dict] = {}
    ok = True
    for name in args.workload or names:
        runs: list[dict] = []
        for seed in range(1, args.seeds + 1):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"{name} seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
        report[name] = {}
        for metric in spec["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "WIDE" if spread >= metric["bound"] else "wide" if spread >= metric["bound"] / 3 else "ok"
            if flag == "WIDE":
                ok = False
            report[name][metric["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": metric["bound"], "runs": values,
            }
            print(f"  {name:<16} {metric['name']:<22} median {med:>12.5g} {metric['unit']:<6} "
                  f"q1 {q1:>12.5g} q3 {q3:>12.5g} spread {spread:7.4f} / bound {metric['bound']} {flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
