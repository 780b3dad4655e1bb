"""The benchmark's three workloads and their set-up.

Set-up makes a workload ready to run: its webs are on disk, each web has one
``FixtureResolver`` (the manifest is parsed once and the resolver is shared
by every execution on that web), and its suite is parsed.  The timed part of
set-up is the program's own work — ``fixturegen.generate_web`` with its
brute-force ground truth, the ``FixtureResolver`` manifest parse and
``load_suite`` — and never the benchmark's generator.

Every execution uses ``FETCH_CONFIG``: the fetch pool is pinned to two
workers and every other fetch and engine option keeps its default.
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from linkquery.bench import SuiteEntry, load_suite
from linkquery.engine import ALL_SETUPS, Setup
from linkquery.fetch import FetchConfig, FixtureResolver
from linkquery.fixturegen import WebSpec, generate_web

import scalegen

FETCH_CONFIG = FetchConfig(max_parallel=2)
FIXTURE_WEBS = 4
DELAY_MS = (5, 10)  # per-document fixture latency, each value equally often

WORKLOADS = ("fixture-latency", "sameas-chain", "long-chain")


@dataclass(frozen=True)
class Job:
    """One (query, setup) execution and the answer keys it must return."""

    entry: SuiteEntry
    setup: Setup
    resolver: FixtureResolver
    expected: frozenset[str]


def read_answers(path: Path) -> dict[tuple[str, str], frozenset[str]]:
    """Rows 'query_id<TAB>setup<TAB>answer key'; the key itself holds tabs."""
    acc: dict[tuple[str, str], set[str]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line:
            qid, setup, key = line.split("\t", 2)
            acc.setdefault((qid, setup), set()).add(key)
    return {k: frozenset(v) for k, v in acc.items()}


def write_delayed_manifest(web_dir: Path, rng: random.Random) -> Path:
    """Copy the manifest with every directive behind a seeded DELAY.

    Every delay in ``DELAY_MS`` is used equally often and the seed only
    shuffles which document gets which.  Independent draws from 2-10 ms made
    the median query time differ by up to a fifth between seeds.
    """
    rows = [line.split("\t", 1) for line in (web_dir / "manifest.tsv").read_text(encoding="utf-8").splitlines()]
    lo, hi = DELAY_MS
    delays = [lo + i % (hi - lo + 1) for i in range(len(rows))]
    rng.shuffle(delays)
    path = web_dir / "manifest.delay.tsv"
    path.write_text("".join(f"{iri}\tDELAY {ms} THEN {directive}\n" for (iri, directive), ms in zip(rows, delays)),
                    encoding="utf-8")
    return path


class SetupTimer:
    """Adds the time of each program call to its per-layer set-up metric."""

    def __init__(self) -> None:
        self.parts = {"setup.fixturegen_s": 0.0, "setup.resolver_s": 0.0, "setup.suite_s": 0.0}

    def __call__(self, part: str, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        self.parts[part] += perf_counter() - t0
        return out


def _fixture_latency(seed: int, work: Path, timer: SetupTimer) -> list[Job]:
    jobs = []
    for k in range(FIXTURE_WEBS):
        web_seed = seed * FIXTURE_WEBS + k
        web_dir = work / f"web{k}"
        shutil.rmtree(web_dir, ignore_errors=True)
        spec = WebSpec(seed=web_seed, alias_style="suffix" if k % 2 == 0 else "prefixmin")
        web = timer("setup.fixturegen_s", generate_web, spec, web_dir)
        manifest = write_delayed_manifest(web_dir, random.Random(web_seed))
        resolver = timer("setup.resolver_s", FixtureResolver, manifest)
        entries = timer("setup.suite_s", load_suite, web.suite_path)
        truth = read_answers(web_dir / "ground_truth.tsv")
        jobs += [
            Job(e, s, resolver, truth.get((e.query_id, s.value), frozenset()))
            for e in entries
            for s in ALL_SETUPS
        ]
    return jobs


def chain_jobs(web_dir: Path, setups: tuple[str, ...], timer: SetupTimer) -> list[Job]:
    resolver = timer("setup.resolver_s", FixtureResolver, web_dir / "manifest.tsv")
    entries = timer("setup.suite_s", load_suite, web_dir / "suite.tsv")
    expected = read_answers(web_dir / "expected.tsv")
    return [
        Job(e, Setup(s), resolver, expected.get((e.query_id, s), frozenset()))
        for e in entries
        for s in setups
    ]


class Workload:
    """A workload set up for one run, with the timings of every set-up.

    The jobs come from the first set-up.  ``set_up_again`` repeats the timed
    set-up and keeps only its timings; a ``fixture-latency`` repeat writes its
    webs into a directory of its own, so the webs in use stay untouched.
    """

    def __init__(self, name: str, seed: int, work: Path) -> None:
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name, self.seed, self.work = name, seed, work
        work.mkdir(parents=True, exist_ok=True)
        if name != "fixture-latency":
            # A separate process, so neither its time nor its memory is the program's.
            subprocess.run(
                [sys.executable, str(Path(scalegen.__file__)), "--workload", name,
                 "--seed", str(seed), "--out", str(work / "web")],
                check=True,
            )
        # Seconds per set-up, keyed by the per-layer metric name.
        self.parts: dict[str, list[float]] = {}
        self.jobs = self._set_up(work)

    def _set_up(self, where: Path) -> list[Job]:
        timer = SetupTimer()
        if self.name == "fixture-latency":
            jobs = _fixture_latency(self.seed, where, timer)
        else:
            jobs = chain_jobs(self.work / "web", scalegen.PRESETS[self.name].setups, timer)
        for part, secs in timer.parts.items():
            self.parts.setdefault(part, []).append(secs)
        return jobs

    def set_up_again(self, min_repeats: int, min_seconds: float) -> None:
        """Repeat set-up at least ``min_repeats`` times and for ``min_seconds``."""
        start, done = perf_counter(), 0
        while done < min_repeats or perf_counter() - start < min_seconds:
            self._set_up(self.work / "again")
            done += 1

    def setup_times(self) -> list[float]:
        return [sum(rep) for rep in zip(*self.parts.values())]
