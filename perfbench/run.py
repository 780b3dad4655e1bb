#!/usr/bin/env python3
"""The linkquery benchmark: one workload as a closed loop, one client.

    python3 perfbench/run.py --workload fixture-latency --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  After set-up (see ``workloads.py``) the client runs *passes*: one
pass executes every (query, setup) job of the workload once, each
``execute`` call waiting for the previous one to finish.  Rounds of passes
repeat, at least ``MIN_PASSES`` passes with traced ones counted, while the
next round is expected to end within ``--seconds``.  Set-up is timed at
least ``SETUP_REPEATS`` times and for ``SETUP_SECONDS`` before the first
round, and again for ``SETUP_SECONDS_BETWEEN`` after each round, so that its
median covers the whole run.

Every execution's answer keys are checked against the workload's reference,
and the per-pass totals of Results, HTTP, Retrieved and Inferred must repeat
exactly across passes and across runs of the same seed on the same code; the
first such run records them in
``.perfbench_out/totals-<workload>-seed<seed>-<code hash>.json``, where the
hash covers the sources of ``src/linkquery`` and of the benchmark.

``--trace 0`` reports the end-to-end metrics over the untraced executions.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics per pass, with ``trace.overhead_frac`` comparing the two
kinds of pass; its spans are written to
``.perfbench_out/trace-<workload>.jsonl``.

Human-readable lines go to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every check passed, 1 when one failed, and 2 when the program or
the arguments are missing.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
SETUP_SECONDS_BETWEEN = 0.3
MIN_PASSES = 2
WARMUP_JOBS = 5


@dataclass
class PassResult:
    walls: list[float] = field(default_factory=list)    # seconds per execution
    firsts: list[float] = field(default_factory=list)   # first_s of executions with answers
    docs: int = 0                                       # OK documents retrieved
    failed: int = 0
    totals: tuple[int, int, int, int] = (0, 0, 0, 0)    # Results, HTTP, Retrieved, Inferred


def run_pass(jobs, execute, resolvers=None) -> PassResult:
    """Run ``execute(query, setup, resolver)`` for every job, one after another.

    ``resolvers`` maps ``id(job.resolver)`` to the resolver to use instead.
    """
    out = PassResult()
    results = http = retrieved = inferred = 0
    for job in jobs:
        resolver = resolvers[id(job.resolver)] if resolvers else job.resolver
        t0 = perf_counter()
        try:
            run = execute(job.entry.query, job.setup, resolver)
        except Exception:  # a failed execution is counted, and the loop goes on
            out.failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        out.walls.append(perf_counter() - t0)
        m = run.metrics
        if m.first_s is not None:
            out.firsts.append(m.first_s)
        out.docs += len(run.retrieved_iris())
        if m.truncated or run.answer_keys() != job.expected:
            out.failed += 1
            print(f"wrong answers: {job.entry.query_id}/{job.setup.value} truncated={m.truncated} "
                  f"got {m.results}, expected {len(job.expected)}", file=sys.stderr)
        results += m.results
        http += m.http_lookups
        retrieved += m.retrieved_triples
        inferred += m.inferred_triples
    out.totals = (results, http, retrieved, inferred)
    return out


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def pass_seconds(passes: list[PassResult]) -> float:
    return statistics.mean(sum(p.walls) for p in passes)


def end_to_end(passes: list[PassResult], setup_times: list[float]) -> dict[str, tuple[float, str]]:
    walls = [w for p in passes for w in p.walls]
    firsts = [f for p in passes for f in p.firsts]
    return {
        "query_ms_p50": (1000 * statistics.median(walls), "ms"),
        "query_ms_p90": (1000 * p90(walls), "ms"),
        "first_answer_ms_p50": (1000 * statistics.median(firsts), "ms"),
        "docs_per_s": (sum(p.docs for p in passes) / sum(walls), "1/s"),
        "lookups": (passes[0].totals[1], "count"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def code_hash() -> str:
    """A hash of the program's and the benchmark's sources."""
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "linkquery").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()[:12]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one linkquery benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "linkquery" / "__init__.py").is_file():
        print(f"linkquery sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads
    from linkquery.engine import execute

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = workloads.Workload(args.workload, args.seed, work)
        workload.set_up_again(SETUP_REPEATS - 1, SETUP_SECONDS)
        jobs = workload.jobs
        plain = functools.partial(execute, config=workloads.FETCH_CONFIG)
        tracer = tracing.Tracer()
        run_ids = itertools.count()

        def traced_execute(*a):
            return tracer.run(next(run_ids), plain, *a)

        resolvers = {id(j.resolver): tracing.TimedResolver(j.resolver, tracer) for j in jobs}
        run_pass(jobs[:WARMUP_JOBS], plain)
        passes: list[PassResult] = []
        traced: list[PassResult] = []
        start = perf_counter()
        while True:
            round_start = perf_counter()
            passes.append(run_pass(jobs, plain))
            if args.trace:
                with tracing.installed(tracer):
                    traced.append(run_pass(jobs, traced_execute, resolvers))
            workload.set_up_again(1, SETUP_SECONDS_BETWEEN)
            now = perf_counter()
            expected_end = now + (now - round_start) - start
            if len(passes) + len(traced) >= MIN_PASSES and expected_end > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    everything = passes + traced
    attempted = len(jobs) * len(everything)
    failed = sum(p.failed for p in everything)
    consistent = all(p.totals == everything[0].totals for p in everything)
    totals = dict(zip(("Results", "HTTP", "Retrieved", "Inferred"), everything[0].totals))
    totals_path = OUT / f"totals-{args.workload}-seed{args.seed}-{code_hash()}.json"
    if totals_path.is_file():
        recorded = json.loads(totals_path.read_text(encoding="utf-8"))
        if recorded != totals:
            print(f"totals differ from an earlier run of this seed and code: {recorded}", file=sys.stderr)
            consistent = False
    elif consistent:
        OUT.mkdir(exist_ok=True)
        totals_path.write_text(json.dumps(totals) + "\n", encoding="utf-8")
    if args.trace:
        out_path = OUT / f"trace-{args.workload}.jsonl"
        tracer.write_jsonl(out_path)
        layer = tracing.layer_metrics(tracer, len(traced), len(jobs) * len(traced))
        layer.update({part: statistics.median(secs) for part, secs in workload.parts.items()})
        layer["trace.overhead_frac"] = pass_seconds(traced) / pass_seconds(passes) - 1
        metrics = {name: (layer[name], unit) for name, unit in tracing.LAYER_UNITS.items()}
    else:
        metrics = end_to_end(passes, workload.setup_times())

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(everything)} passes x {len(jobs)} executions = {attempted} samples "
          f"({len(passes)} untraced), FetchConfig(max_parallel={workloads.FETCH_CONFIG.max_parallel})")
    print("  per pass: " + " ".join(f"{k}={v}" for k, v in totals.items())
          + ("" if consistent else "  MISMATCH"))
    print(f"  failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    if not args.trace:
        firsts = [f for p in passes for f in p.firsts]
        print(f"  first-answer samples = {len(firsts)}, p90 = {1000 * p90(firsts):.6g} ms (not gated), "
              f"set-up repeats = {len(workload.setup_times())}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    if args.trace:
        print(f"  spans written to {out_path.relative_to(ROOT)}")
    correct = failed == 0 and consistent
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
