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

None of these manifests holds a ``DELAY``, so an engine that serves the hops
of a resolver that never blocks on the calling thread runs them all there.
Each chain web therefore runs a second time, as ``<name>-delay0``, through a
copy of its manifest with every directive behind ``DELAY 0``, which sends
its hops to the fetch pool; both ways are compared with OLD_ROOT's runs of
the same copy.  Nor does any of them hold a ``REDIRECT``, so each chain web
also has a redirect copy, ``<name>-redirect``, run both ways as well: there
the documents of each two consecutive manifest IRIs are joined into one,
served at ``<first IRI>/doc``, and both IRIs redirect to it, so roots share
redirect targets.  The script prints how many runs had two roots reach one.

The manifest stage comes first.  OLD_ROOT also writes a manifest corpus
once: ``CORPUS_MANIFESTS`` seeded manifests of 1 to 12 lines, put together
from IRIs, keywords in several cases, relative, absolute and drive paths,
the arguments of every directive and of the wrong one, Unicode and ASCII
whitespace around each field, comments, blank lines, rows without a tab,
and ``\n`` and ``\r\n`` line ends.  Each root builds a ``FixtureResolver``
for every manifest of the webs (the ``-delay0`` and ``-redirect`` copies
included) and of the corpus; the stage compares each one's actions and
``may_block``, or its error text.

The parse stage follows.  OLD_ROOT also writes a parse corpus once:
``CORPUS_LINES`` seeded lines put together from N-Triples term fragments,
good and bad escapes, language tags, datatypes, term boundaries and stray
characters; ``CORPUS_DOCS`` documents of 20 to 60 lines, nearly all of them
triple lines, some ending in a newline or a blank line, so that the
parser's reading of a fuzzed line among triple lines, and its line numbers
across a document, are compared; and ``CORPUS_BYTES`` seeded random byte
strings.  Each root
parses every corpus entry and every ``.nt`` document of the webs with
``parse_ntriples``; the stage compares each entry's triples (term text plus
blank-node scope) and the line number and reason of each of its errors.

The run stage comes next.  For each (web, query, setup) run it compares the
answer keys, the four counts (Results, HTTP, Retrieved, Inferred),
``truncated``, the retrieved IRIs, the reason each IRI was requested for,
and digests of ``FinalState.data`` and ``FinalState.inferred``.  For a run
whose hops are served on the calling thread (every web but the ``-delay0``
copies), whose fetch order is therefore fixed, it also compares the ordered
sequence of its fetch events as (IRI, reason, status); the sorted fields
above cannot see a change of fetch order.

Each child then runs each web's suite a second time on the same resolver,
so that every run of that pass may find its documents already parsed by an
earlier run on the resolver.  The warm stage compares NEW_ROOT's second
pass, field by field as above, with its own first pass and with OLD_ROOT's
second pass.

The order stage comes last.  NEW_ROOT runs each ``-delay0`` copy, of the
chain webs and of their ``-redirect`` copies, once more with
``FetchConfig(max_parallel=1)``.  A run lists its events in the order their
roots were taken from the frontier, and one worker completes the hops in
the order they were requested, so the stage compares each of these runs'
ordered fetch events with NEW_ROOT's own inline run of the same web, query
and setup.  Roots that share a redirect target may have their documents
processed in another order on the pool, but they share one body, so the
later of them adds nothing and the frontier grows as inline.  OLD_ROOT's
runs are not compared there: an older engine may list a root skipped under
the budget, or the roots of hops that complete between two waits, in
another order.

Each stage prints the first difference and exits 1; the script exits 0 when
every parse and every run matched.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve()
CHAIN_WORKLOADS = ("long-chain", "sameas-chain")
FIELDS = ("answers", "counts", "truncated", "retrieved", "reasons", "events", "data", "inferred")
PARSE_FIELDS = ("triples", "errors")
CORPUS_LINES = 100_000
CORPUS_DOCS = 3_000
DOC_LINES = (20, 60)
CORPUS_BYTES = 10_000
CORPUS_SEED = 20140225
CORPUS_MANIFESTS = 3_000
MANIFEST_FIELDS = ("actions", "may_block", "error")

# Fragments the corpus lines are put together from, each as a pair of
# (well-formed, near misses), so that both sides of every rule of the term
# grammar are exercised while about half of the lines still parse.  The
# near misses include the term boundaries where a whole-line match could end
# a term elsewhere than the term scanner: a label running into another blank
# node, a tag followed by '-' or '.', and (with the empty separator and the
# '.' end) terms and ends with no space between them.  The IRIs also sit on
# both edges of the IRI check: a one-letter scheme with nothing after it, an
# escaped scheme, a scheme starting with a digit, excluded characters, and an
# escape that decodes to one.
IRIS = (("<http://a.example/s>", "<http://a/p>", "<urn:x>", "<http://a/\\u0041>", "<http://a/\\U0001F600>",
         "<http://a/\\U0010FFFF>", "<http://a/\u0085>", "<http://a/\\uD800>", "<a:>", "<\\u0068ttp://a/>"),
        ("<http://a/\\u003E>", "<http://a/\\u00>", "<http://a/\\U00110000>", "<http://a/\\t>", "<http://a/\\>",
         "<http://a/\t>", "<rel>", "<>", "<http://a/ b>", "<http://a", "<<http://a/>>", "<1a:b>", "<http://a/{x}>",
         "<http://a/|>", "<http://a/^>", "<http://a/`>", "<http://a/\\u007B>"))
BNODES = (("_:b0", "_:x_1-2", "_:_", "_:a_", "_:a-"), ("_:-x", "_:", "_x", "_:\u00e9", "_:a_:b"))
BODIES = (("", "plain", "sp ace", "\\t", "\\b\\n\\r\\f", '\\"', "\\'", "\\\\", "\\u00E9", "\\U0001F600",
           "\\U0010FFFF", "\u0085", "\u2028", "\r", "\t", "<", ">", "'", "#", "@", "^"),
          ("\\u00", "\\U00110000", "\\x", "\\", '"'))
TAGS = (("", "", "", "@en", "@en-US", "@en-1a", "^^<http://a/dt>", "^^<http://a/\\u0041>"),
        ("@en1", "@", "@-x", "@en-", "@en-1a.", "@en-_:b", "^", "^^", "^^<>", "^^x", "^^_:b",
         "@en^^<http://a/dt>"))
SEPS = (("", " ", " ", "\t", "  "), ("\r", "\u0085", "\u2028"))
ENDS = ((" .", ".", " . # c", " .# c", " . \t"), (" . x", "", " ..", " #c", " .\r", ". ."))
STRAYS = ("<", ">", '"', "\\", "\r", "\u0085", "\u2028", "@", "^", "_", ":", ".", "#", " ", "\t", "\\u")
# Chance of an IRI, a blank node or a literal in subject, predicate and
# object position.
TERM_WEIGHTS = ((60, 35, 5), (95, 3, 2), (40, 20, 40))
# The IRIs of the corpus documents: the well-formed ones that the line
# grammar matches (all but the escaped scheme, which only the term scanner
# reads), and, now and then, escapes that the line grammar matches but that
# fail the IRI check once decoded.
DOC_IRIS = (tuple(i for i in IRIS[0] if not i.startswith("<\\")), ("<http://a/\\u003E>", "<http://a/\\u007B>"))
DOC_GAPS = (" ", "\t", "  ")
DOC_TAILS = ("", "\n", "\n", "\r\n", "\n\n", "\n \n")
# Fragments of the manifest corpus.  Its lines end in \n or \r\n, and no
# fragment holds a character that str.splitlines ends a line at, so that a
# manifest reader that splits lines only at \n reads these manifests as one
# that splits at every line boundary does.  The pads are whitespace to
# str.strip and str.split, Unicode spaces included.
MANIFEST_PADS = ("", "", "", " ", "  ", "\t", "\u00a0", "\u3000", "\u2003")
MANIFEST_IRIS = ("http://m.example/a", "http://m.example/b", "http://m.example/c/", "urn:d", "", "#e", "a#b",
                 "http://m.example/\u00e9")
MANIFEST_GAPS = (" ", " ", " ", "  ", "\t", "\u00a0", "\u3000")
MANIFEST_PATHS = ("doc.nt", "sub/d.nt", "../up.nt", "/abs/d.nt", "C:d.nt", "\\d.nt", "a b.nt", "#d.nt", "d\u00e9.nt",
                  "./d.nt")
# Each keyword in the spellings the reader accepts, with arguments it accepts.
MANIFEST_DIRECTIVES = {
    ("FILE", "file", "File", "fILE", "\ufb01le"): MANIFEST_PATHS,
    ("REDIRECT", "redirect"): ("http://m.example/b", "/rel", "http://m.example/a b"),
    ("STATUS", "status"): ("200", "410", "503", "+301", "0404"),
    ("DELAY", "Delay"): ("5 THEN FILE doc.nt", "0 then status 410", "1\tTHEN\u00a0REDIRECT http://m.example/a",
                         "5 THEN FILE /abs.nt", "007 THEN FILE  sub/d.nt"),
}
MANIFEST_BAD = (("BOGUS", "FILEX", "", "STATUS", "DELAY", "FILE", "REDIRECT"),
                ("", "99", "600", "abc", "-1", "-1 THEN FILE doc.nt", "x THEN FILE doc.nt",
                 "5 THEN DELAY 1 THEN STATUS 200", "5 THEN", "5", "5 THEN BOGUS x", "doc.nt"))
MANIFEST_SPECIALS = ("", "   ", "# comment", "  # c", "\u00a0# c", "\t# c", "#\tFILE doc.nt", "no tab here",
                     "\tFILE doc.nt", " \tFILE doc.nt")


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


def pick(rng: random.Random, fragments: tuple[tuple[str, ...], tuple[str, ...]]) -> str:
    good, bad = fragments
    return rng.choice(bad if rng.random() < 0.04 else good)


def corpus_term(rng: random.Random, position: int) -> str:
    kind = rng.choices(range(3), TERM_WEIGHTS[position])[0]
    if kind < 2:
        return pick(rng, (IRIS, BNODES)[kind])
    body = "".join(pick(rng, BODIES) for _ in range(rng.randrange(4)))
    return f'"{body}"{pick(rng, TAGS)}'


def corpus_line(rng: random.Random) -> str:
    if rng.random() < 0.05:
        return "".join(rng.choice(STRAYS + IRIS[1] + BNODES[1] + TAGS[1]) for _ in range(rng.randrange(8)))
    parts = [pick(rng, SEPS)]
    for position in range(3):
        parts += [corpus_term(rng, position), pick(rng, SEPS)]
    parts.append(pick(rng, ENDS))
    line = list("".join(parts))
    for _ in range(rng.choice((0, 0, 0, 0, 0, 1, 2))):
        at = rng.randrange(len(line) + 1)
        if rng.random() < 0.5 and at < len(line):
            del line[at]
        else:
            line.insert(at, rng.choice(STRAYS))
    return "".join(line)


def doc_line(rng: random.Random) -> str:
    """A triple line of well-formed terms, with spaces or a tab between them."""
    def iri() -> str:
        good, fails = DOC_IRIS
        return rng.choice(fails if rng.random() < 0.01 else good)

    subject = iri() if rng.random() < 0.7 else rng.choice(BNODES[0])
    kind = rng.random()
    if kind < 0.4:
        obj = iri()
    elif kind < 0.5:
        obj = rng.choice(BNODES[0])
    else:
        obj = '"' + "".join(rng.choice(BODIES[0]) for _ in range(rng.randrange(4))) + '"' + rng.choice(TAGS[0])
    p_gap, o_gap = rng.choice(DOC_GAPS), rng.choice(DOC_GAPS)
    return f"{rng.choice(SEPS[0])}{subject}{p_gap}{iri()}{o_gap}{obj}{rng.choice(ENDS[0])}"


def corpus_doc(rng: random.Random) -> str:
    """A document of 20-60 lines, most of them triple lines and now and then
    a fuzzed line among them."""
    lines = [corpus_line(rng) if rng.random() < 0.02 else doc_line(rng) for _ in range(rng.randint(*DOC_LINES))]
    return rng.choice(("\n", "\r\n")).join(lines) + rng.choice(DOC_TAILS)


def write_corpus(path: Path) -> None:
    """Seeded fuzzed lines (several to an entry, now and then), documents of
    mostly triple lines, and random bytes."""
    rng = random.Random(CORPUS_SEED)
    entries: list[bytes] = []
    n_lines = 0
    while n_lines < CORPUS_LINES:
        lines = [corpus_line(rng) for _ in range(rng.choice((1, 1, 1, 2, 3)))]
        entries.append(rng.choice(("\n", "\r\n")).join(lines).encode("utf-8"))
        n_lines += len(lines)
    entries += [corpus_doc(rng).encode("utf-8") for _ in range(CORPUS_DOCS)]
    syntax = b'<>"_:@^\\ .#\r\n\tuU0123456789abcdefABCDEF/'
    for _ in range(CORPUS_BYTES):
        alphabet = syntax if rng.random() < 0.5 else bytes(range(256))
        entries.append(bytes(rng.choice(alphabet) for _ in range(rng.randrange(80))))
    path.write_text(json.dumps([e.decode("latin-1") for e in entries]), encoding="utf-8")


def manifest_line(rng: random.Random) -> str:
    """A manifest row, now and then a comment, a blank line or a malformed row."""
    kind = rng.random()
    if kind < 0.1:
        return rng.choice(MANIFEST_SPECIALS)
    iri, gap, pads = rng.choice(MANIFEST_IRIS), rng.choice(MANIFEST_GAPS), [rng.choice(MANIFEST_PADS) for _ in range(4)]
    if kind < 0.55:  # the row of a generated web, give or take its spacing and its path
        return f"{iri}\tFILE{gap}{rng.choice(MANIFEST_PATHS)}{pads[0]}"
    separator = "\t"
    if kind < 0.93:
        keywords, args = rng.choice(list(MANIFEST_DIRECTIVES.items()))
        directive = f"{rng.choice(keywords)}{gap}{rng.choice(args)}"
    else:  # malformed, mostly
        keywords, args = MANIFEST_BAD
        separator = rng.choice(("\t", "\t", " ", "\t\t", ""))
        directive = f"{rng.choice(keywords)}{rng.choice(MANIFEST_GAPS + ('',))}{rng.choice(args)}"
    return f"{pads[0]}{iri}{pads[1]}{separator}{pads[2]}{directive}{pads[3]}"


def write_manifest_corpus(folder: Path) -> None:
    """Seeded fuzzed manifests of 1 to 12 lines, in ``folder``."""
    rng = random.Random(CORPUS_SEED)
    folder.mkdir()
    for n in range(CORPUS_MANIFESTS):
        lines = [manifest_line(rng) for _ in range(rng.randint(1, 12))]
        ends = [rng.choice(("\n", "\n", "\r\n")) for _ in lines]
        if rng.random() < 0.2:
            ends[-1] = ""
        (folder / f"m{n:05d}.tsv").write_bytes("".join(line + end for line, end in zip(lines, ends)).encode("utf-8"))


def read_all_manifests(workdir: Path, webs: list[dict], out) -> None:
    from linkquery.fetch import FixtureResolver

    manifests = [(web["name"], Path(web["manifest"])) for web in webs]
    manifests += [(path.stem, path) for path in sorted((workdir / "manifests").iterdir())]
    for name, path in manifests:
        try:
            resolver = FixtureResolver(path)
        except ValueError as e:
            record = {"actions": None, "may_block": None, "error": str(e)}
        else:
            record = {"actions": list(resolver._actions.items()), "may_block": resolver.may_block, "error": None}
        out.write(json.dumps({"run": [name], **record}) + "\n")


def parse_all(workdir: Path, webs: list[dict], out) -> None:
    from linkquery.rdf import parse_ntriples

    def record(name: str, data: bytes) -> None:
        triples, errors = parse_ntriples(data, doc_scope=name)
        out.write(json.dumps({
            "run": [name],
            "triples": [" ".join(_term_text(x) for x in t.terms()) for t in triples],
            "errors": [[e.line, e.reason] for e in errors],
        }) + "\n")

    corpus = json.loads((workdir / "corpus.json").read_text(encoding="utf-8"))
    for n, entry in enumerate(corpus):
        record(f"corpus{n}", entry.encode("latin-1"))
    # A web's directory is named after it; the -delay0 copies share theirs.
    for folder in dict.fromkeys(Path(web["manifest"]).parent for web in webs):
        for doc in sorted(folder.rglob("*.nt")):
            record(f"{folder.name}/{doc.name}", doc.read_bytes())


def run_webs(webs: list[dict], *passes, workers: int = 2) -> None:
    """Run each web's suite once per file in ``passes``, on one resolver per web."""
    from linkquery.bench import load_suite
    from linkquery.engine import execute
    from linkquery.fetch import DerefStatus, FetchConfig, FixtureResolver

    config = FetchConfig(max_parallel=workers)
    for web in webs:
        resolver = FixtureResolver(web["manifest"])
        # Served on the calling thread, or by one worker: in a fixed order.
        ordered = not resolver.may_block or workers == 1
        redirects = web.get("redirects", {})
        for out in passes:
            for entry in load_suite(web["suite"]):
                for setup in web["setups"]:
                    run = execute(entry.query, setup, resolver, config=config)
                    m = run.metrics
                    targets = [redirects[e.iri.value] for e in run.events
                               if e.iri.value in redirects and e.status != DerefStatus.SKIPPED]
                    out.write(json.dumps({
                        "run": [web["name"], entry.query_id, setup],
                        "answers": sorted(run.answer_keys()),
                        "counts": [m.results, m.http_lookups, m.retrieved_triples, m.inferred_triples],
                        "truncated": m.truncated,
                        "retrieved": sorted(i.value for i in run.retrieved_iris()),
                        "reasons": sorted([e.iri.value, e.reason] for e in run.events),
                        "events": [[e.iri.value, e.reason, e.status.value] for e in run.events] if ordered else None,
                        "data": _digest(run.final.data),
                        "inferred": _digest(run.final.inferred),
                        "shared": len(targets) > len(set(targets)),
                    }) + "\n")


def worker(argv: list[str]) -> int:
    root, mode, workdir = Path(argv[0]).resolve(), argv[1], Path(argv[2])
    import linkquery

    if not Path(linkquery.__file__).resolve().is_relative_to(root):
        raise SystemExit(f"imported {linkquery.__file__}, not the linkquery of {root}")
    if mode == "gen":
        webs = generate_fixture_webs(seed_range(argv[3]), workdir)
        (workdir / "webs.json").write_text(json.dumps(webs), encoding="utf-8")
        write_corpus(workdir / "corpus.json")
        write_manifest_corpus(workdir / "manifests")
    else:
        webs = json.loads((workdir / "webs.json").read_text(encoding="utf-8"))
        with open(workdir / f"manifests-{mode}.jsonl", "w", encoding="utf-8") as out:
            read_all_manifests(workdir, webs, out)
        with open(workdir / f"parses-{mode}.jsonl", "w", encoding="utf-8") as out:
            parse_all(workdir, webs, out)
        with (open(workdir / f"runs-{mode}.jsonl", "w", encoding="utf-8") as out,
              open(workdir / f"runs-{mode}-warm.jsonl", "w", encoding="utf-8") as warm):
            run_webs(webs, out, warm)
        if mode == "new":
            with open(workdir / "runs-new-one-worker.jsonl", "w", encoding="utf-8") as out:
                run_webs([{**web, "name": web["ordered_as"]} for web in webs if "ordered_as" in web], out, workers=1)
    return 0


# --- driver side ------------------------------------------------------------


def delayed(manifest: Path) -> Path:
    """A copy of the manifest with every directive behind ``DELAY 0``."""
    rows = (line.split("\t", 1) for line in manifest.read_text(encoding="utf-8").splitlines())
    pooled = manifest.with_suffix(".delay0.tsv")
    pooled.write_text("".join(f"{iri}\tDELAY 0 THEN {directive}\n" for iri, directive in rows), encoding="utf-8")
    return pooled


def redirected(manifest: Path) -> tuple[Path, dict[str, str]]:
    """A copy of the manifest whose IRIs redirect, two by two, to joined documents.

    Returns the copy and its redirects.  The documents of each two
    consecutive IRIs are joined into one, served at the first IRI plus
    ``/doc``, a path no chain web uses.
    """
    rows = [line.split("\t", 1) for line in manifest.read_text(encoding="utf-8").splitlines()]
    folder = manifest.parent / "redirect"
    folder.mkdir(exist_ok=True)
    redirects: dict[str, str] = {}
    lines = []
    for k in range(0, len(rows), 2):
        pair = rows[k : k + 2]
        target = f"{pair[0][0]}/doc"
        body = "".join((manifest.parent / directive.removeprefix("FILE ")).read_text(encoding="utf-8")
                       for _, directive in pair)
        (folder / f"r{k:05d}.nt").write_text(body, encoding="utf-8")
        lines.append(f"{target}\tFILE redirect/r{k:05d}.nt\n")
        for iri, _ in pair:
            redirects[iri] = target
            lines.append(f"{iri}\tREDIRECT {target}\n")
    copy = manifest.with_suffix(".redirect.tsv")
    copy.write_text("".join(lines), encoding="utf-8")
    return copy, redirects


def add_chain_webs(seed: int, workdir: Path) -> list[dict]:
    sys.path.insert(0, str(HERE.parent.parent / "perfbench"))
    import scalegen

    webs = []
    for name in CHAIN_WORKLOADS:
        out = scalegen.generate(scalegen.PRESETS[name], seed, workdir / f"{name}{seed:03d}")
        web = {"name": f"{name}{seed:03d}", "manifest": str(out / "manifest.tsv"),
               "suite": str(out / "suite.tsv"), "setups": list(scalegen.PRESETS[name].setups)}
        copy, redirects = redirected(out / "manifest.tsv")
        via = {**web, "name": f"{web['name']}-redirect", "manifest": str(copy), "redirects": redirects}
        for w in (web, via):
            pooled = {**w, "name": f"{w['name']}-delay0", "manifest": str(delayed(Path(w["manifest"]))),
                      "ordered_as": w["name"]}
            webs += [w, pooled]
    return webs


def compare(old_path: Path, new_path: Path, fields: tuple[str, ...], what: str) -> int:
    with open(old_path, encoding="utf-8") as old_fh, open(new_path, encoding="utf-8") as new_fh:
        n = 0
        for old_line, new_line in zip(old_fh, new_fh, strict=True):
            old, new = json.loads(old_line), json.loads(new_line)
            if old["run"] != new["run"]:
                print(f"runs out of step: {old['run']} against {new['run']}")
                return 1
            for name in fields:
                if old[name] != new[name]:
                    print(f"DIFF {'/'.join(old['run'])} {name}:\n  old {str(old[name])[:400]}\n  new {str(new[name])[:400]}")
                    return 1
            n += 1
    print(f"{n} {what} identical")
    return 0


def compare_order(inline_path: Path, one_worker_path: Path) -> int:
    """Compare each one-worker pooled run's ordered events with the inline run of its web, query and setup."""
    with open(one_worker_path, encoding="utf-8") as fh:
        pooled = {tuple(rec["run"]): rec["events"] for rec in map(json.loads, fh)}
    n = 0
    with open(inline_path, encoding="utf-8") as fh:
        for rec in map(json.loads, fh):
            events = pooled.get(tuple(rec["run"]))
            if events is None:
                continue
            if events != rec["events"]:
                print(f"DIFF {'/'.join(rec['run'])} events at one worker:\n  inline {str(rec['events'])[:400]}\n"
                      f"  pooled {str(events)[:400]}")
                return 1
            n += 1
    if n != len(pooled):
        print(f"{len(pooled) - n} one-worker runs have no inline run")
        return 1
    print(f"{n} pooled runs at one worker identical in event order to the inline runs")
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
        old, new, old_warm, new_warm = (workdir / f"runs-{name}.jsonl"
                                        for name in ("old", "new", "old-warm", "new-warm"))
        failed = (compare(workdir / "manifests-old.jsonl", workdir / "manifests-new.jsonl", MANIFEST_FIELDS, "manifests")
                  or compare(workdir / "parses-old.jsonl", workdir / "parses-new.jsonl", PARSE_FIELDS, "parses")
                  or compare(old, new, FIELDS, "runs")
                  or compare(new, new_warm, FIELDS, "warm runs (against the first pass)")
                  or compare(old_warm, new_warm, FIELDS, "warm runs (against OLD_ROOT's)")
                  or compare_order(new, workdir / "runs-new-one-worker.jsonl"))
        with open(workdir / "runs-new.jsonl", encoding="utf-8") as fh:
            print(f"{sum(json.loads(line)['shared'] for line in fh)} runs had two roots redirected to one target")
        return failed


if __name__ == "__main__":
    raise SystemExit(main())
