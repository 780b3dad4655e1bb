"""Tests of the benchmark itself: generator, reference answers, tracing.

    python3 -m pytest perfbench/tests -q
"""

import functools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import scalegen
import tracing
import workloads
from linkquery import engine, fetch
from linkquery.engine import execute
from linkquery.fixturegen import load_fixture_documents, oracle_eval
from linkquery.query import classify

ALL_SETUPS = ("base", "select", "seealso", "sameas", "rhodf", "combined")
SMALL_SAMEAS = scalegen.ChainSpec(
    components=4, min_len=3, max_len=7, filler=2, class_depth=2, aliases=True, setups=ALL_SETUPS
)
SMALL_LONG = scalegen.ChainSpec(
    components=3, min_len=4, max_len=9, filler=3, class_depth=3, aliases=False,
    setups=("base", "select", "rhodf"),
)


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_same_seed_same_bytes(tmp_path):
    a = scalegen.generate(SMALL_SAMEAS, 7, tmp_path / "a")
    b = scalegen.generate(SMALL_SAMEAS, 7, tmp_path / "b")
    c = scalegen.generate(SMALL_SAMEAS, 8, tmp_path / "c")
    assert _files(a) == _files(b)
    assert _files(a) != _files(c)


def test_presets_keep_their_cost_profile():
    long = scalegen.component_lengths(scalegen.PRESETS["long-chain"])
    assert (len(long), long[0], long[-1]) == (40, 12, 72)
    short = scalegen.component_lengths(scalegen.PRESETS["sameas-chain"])
    assert (len(short), short[0], short[-1]) == (60, 8, 32)


@pytest.mark.parametrize("spec", [SMALL_SAMEAS, SMALL_LONG], ids=["aliases", "no-aliases"])
def test_answers_by_construction_equal_oracle(tmp_path, spec):
    web = scalegen.generate(spec, 3, tmp_path / "web")
    triples = {t for ts in load_fixture_documents(web).values() for t in ts}
    jobs = workloads.chain_jobs(web, spec.setups, workloads.SetupTimer())
    assert len(jobs) == spec.components * len(spec.setups)
    for job in jobs:
        assert classify(job.entry.query).value == job.entry.class_name == scalegen.QUERY_CLASS
        setup = job.setup.value
        want = oracle_eval(
            triples, job.entry.query,
            use_sameas=setup in ("sameas", "combined"), use_rhodf=setup in ("rhodf", "combined"),
        )
        assert job.expected == want, (job.entry.query_id, setup)
        assert job.expected


def test_alias_sides_alternate(tmp_path):
    web = scalegen.generate(SMALL_SAMEAS, 5, tmp_path / "web")
    truth = workloads.read_answers(web / "expected.tsv")
    moved = {qid for (qid, setup), keys in truth.items() if setup == "sameas" and "/a/" in next(iter(keys))}
    assert len(moved) == SMALL_SAMEAS.components // 2


def _passes(jobs):
    execute_pinned = functools.partial(execute, config=workloads.FETCH_CONFIG)
    plain = run.run_pass(jobs, execute_pinned)
    tracer = tracing.Tracer()
    resolvers = {id(j.resolver): tracing.TimedResolver(j.resolver, tracer) for j in jobs}
    ids = iter(range(len(jobs)))
    originals = (engine.IncrementalEvaluator, engine.ReasoningStore, engine.DereferenceManager,
                 engine.wait, fetch.parse_ntriples)
    with tracing.installed(tracer):
        traced = run.run_pass(jobs, lambda *a: tracer.run(next(ids), execute_pinned, *a), resolvers)
    assert (engine.IncrementalEvaluator, engine.ReasoningStore, engine.DereferenceManager,
            engine.wait, fetch.parse_ntriples) == originals
    return plain, traced, tracing.layer_metrics(tracer, 1, len(jobs)), tracer


@pytest.mark.parametrize("spec", [SMALL_SAMEAS, SMALL_LONG], ids=["aliases", "no-aliases"])
def test_traced_run_matches_untraced(tmp_path, spec):
    web = scalegen.generate(spec, 11, tmp_path / "web")
    jobs = workloads.chain_jobs(web, spec.setups, workloads.SetupTimer())
    plain, traced, layer, tracer = _passes(jobs)
    assert plain.failed == traced.failed == 0
    assert plain.totals == traced.totals
    assert plain.docs == traced.docs
    assert layer["rdf.parse.triples"] == plain.totals[2]
    assert layer["reasoner.inferred"] == plain.totals[3]
    assert layer["fetch.resolve.calls"] == plain.totals[1]
    executes = [s for s in tracer.spans if s.name == "engine.execute"]
    assert len(executes) == len(jobs)
    assert {s.run for s in tracer.spans} == {s.run for s in executes}
    if spec.aliases:
        assert layer["reasoner.merges"] > 0 and layer["engine.rebuilds"] > 0
        assert layer["engine.eval.replay_ratio"] > 1
    else:
        assert layer["reasoner.merges"] == layer["engine.rebuilds"] == 0
        assert layer["engine.eval.replay_ratio"] == 1.0


def test_traced_fixture_latency_matches_untraced(tmp_path):
    jobs = workloads._fixture_latency(0, tmp_path, workloads.SetupTimer())
    jobs = random.Random(0).sample(jobs, 24)
    plain, traced, layer, _ = _passes(jobs)
    assert plain.failed == traced.failed == 0
    assert plain.totals == traced.totals
    assert layer["fetch.wait_s"] > 0.5 * layer["engine.execute.busy_s"]


def test_spans_written_with_self_time(tmp_path):
    tracer = tracing.Tracer()
    tracer.run(0, lambda: tracer.call("engine.eval", lambda: tracer.call("rdf.parse", lambda: None)))
    tracer.write_jsonl(tmp_path / "t.jsonl")
    rows = [json.loads(line) for line in (tmp_path / "t.jsonl").read_text().splitlines()]
    by_name = {r["name"]: r for r in rows}
    assert by_name["rdf.parse"]["parent"] == by_name["engine.eval"]["id"]
    assert by_name["engine.eval"]["parent"] == by_name["engine.execute"]["id"]
    for r in rows:
        assert 0 <= r["self"] <= r["end"] - r["start"]


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.LAYER_UNITS)
    assert [m["unit"] for m in spec["per_layer"]] == list(tracing.LAYER_UNITS.values())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    one = run.PassResult(walls=[0.01 * i for i in range(1, 21)], firsts=[0.001] * 20, docs=5,
                         totals=(1, 2, 3, 4))
    e2e = run.end_to_end([one], [0.5])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(k, u) for k, (_, u) in e2e.items()]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(Path(run.ROOT) / "perfbench", tmp_path / "perfbench")
    shutil.copy(Path(run.ROOT) / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long-chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
