"""Command line front end.

Subcommands:

* ``query``       — run one query under one setup and print its answers
* ``bench``       — run a suite file under several setups and emit a table
* ``gen-fixture`` — write deterministic fixture webs with ground truth
* ``record``      — run against a resolver while taping every response

Resolvers are named by spec strings: ``fixture:DIR``, ``replay:ARCHIVE`` or
``live``.  ``LINKQUERY_RESOLVER`` supplies the default.  Exit codes: 0 on
success, 2 for bad input, 3 for environment failures.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Sequence, TextIO

from .bench import EMITTERS, SuiteEntry, aggregate, load_suite, run_suite, write_per_query_csv
from .engine import ALL_SETUPS, EngineOptions, QueryRun, Setup, execute
from .fetch import FetchConfig, RecordResolver, parse_resolver_spec
from .fixturegen import WebSpec, generate_web
from .query import BgpQuery, QueryError, parse_query

log = logging.getLogger(__name__)


class UsageError(Exception):
    pass


def _add_resolver_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--resolver",
        default=os.environ.get("LINKQUERY_RESOLVER"),
        help="resolver spec: fixture:DIR, replay:ARCHIVE or live "
        "(default: $LINKQUERY_RESOLVER)",
    )


def _add_fetch_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--timeout-ms", type=int, default=None)
    p.add_argument("--deadline-ms", type=int, default=None)
    p.add_argument("--redirect-limit", type=int, default=None)
    p.add_argument("--max-lookups", type=int, default=None)
    p.add_argument("--max-parallel", type=int, default=None)
    p.add_argument("--politeness-ms", type=int, default=None)
    p.add_argument("--deref-predicates", action="store_true", help="also look up predicate IRIs")
    p.add_argument(
        "--extensions-on-select",
        action="store_true",
        help="run the link-following extensions on top of the reachability-restricted setup",
    )


def _fetch_config(args: argparse.Namespace) -> FetchConfig:
    overrides = {
        "timeout_ms": args.timeout_ms,
        "deadline_ms": args.deadline_ms,
        "redirect_limit": args.redirect_limit,
        "max_lookups": args.max_lookups,
        "max_parallel": args.max_parallel,
        "politeness_delay_ms": args.politeness_ms,
    }
    kwargs = {k: v for k, v in overrides.items() if v is not None}
    try:
        return FetchConfig(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _engine_options(args: argparse.Namespace) -> EngineOptions:
    return EngineOptions(
        deref_predicates=args.deref_predicates,
        extensions_on_select=args.extensions_on_select,
    )


def _resolver(args: argparse.Namespace):
    if not args.resolver:
        raise UsageError("no resolver: pass --resolver or set LINKQUERY_RESOLVER")
    try:
        return parse_resolver_spec(args.resolver)
    except (ValueError, OSError) as exc:
        raise UsageError(f"bad resolver spec {args.resolver!r}: {exc}") from exc


def _query(args: argparse.Namespace) -> BgpQuery:
    try:
        return parse_query(args.query, query_id=args.query_id)
    except QueryError as exc:
        raise UsageError(f"bad query: {exc}") from exc


def _suite(args: argparse.Namespace) -> list[SuiteEntry]:
    try:
        return load_suite(args.suite)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _setups(text: str) -> list[Setup]:
    out = []
    for name in text.split(","):
        name = name.strip()
        if not name:
            continue
        try:
            out.append(Setup(name))
        except ValueError as exc:
            known = ", ".join(s.value for s in ALL_SETUPS)
            raise UsageError(f"unknown setup {name!r} (known: {known})") from exc
    if not out:
        raise UsageError("empty setup list")
    return out


def _print_run(run: QueryRun, out: TextIO, as_json: bool) -> None:
    m = run.metrics
    if as_json:
        doc = {
            "query_id": run.query.query_id,
            "setup": run.setup.value,
            "answers": [b.as_dict_text() for b in run.answers],
            "metrics": {
                "results": m.results,
                "time_s": m.time_s,
                "first_s": m.first_s,
                "http": m.http_lookups,
                "retrieved": m.retrieved_triples,
                "inferred": m.inferred_triples,
                "truncated": m.truncated,
            },
        }
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return
    for binding in sorted(run.answers, key=lambda b: b.key()):
        out.write(binding.key() + "\n")
    first = f"{m.first_s:.3f}" if m.first_s is not None else "-"
    out.write(
        f"# results={m.results} time_s={m.time_s:.3f} first_s={first} "
        f"http={m.http_lookups} retrieved={m.retrieved_triples} "
        f"inferred={m.inferred_triples} truncated={m.truncated}\n"
    )


def _cmd_query(args: argparse.Namespace) -> int:
    resolver = _resolver(args)
    query = _query(args)
    setup = _setups(args.setup)
    if len(setup) != 1:
        raise UsageError("query takes exactly one setup")
    run = execute(query, setup[0], resolver, config=_fetch_config(args), options=_engine_options(args))
    _print_run(run, sys.stdout, args.json)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    resolver = _resolver(args)
    records = run_suite(
        _suite(args),
        resolver,
        _setups(args.setups),
        config=_fetch_config(args),
        options=_engine_options(args),
    )
    rows = aggregate(records)
    emit = EMITTERS[args.format]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            emit(rows, fh)
        log.info("wrote %s", args.out)
    else:
        emit(rows, sys.stdout)
    if args.per_query:
        with open(args.per_query, "w", encoding="utf-8") as fh:
            write_per_query_csv(records, fh)
    return 0


def _cmd_gen_fixture(args: argparse.Namespace) -> int:
    for n in range(args.count):
        seed = args.seed + n
        spec = WebSpec(
            seed=seed,
            n_entities=args.entities,
            n_hub_entities=args.hubs,
            n_alias_entities=args.aliases,
            family_depth=args.depth,
            alias_style=args.alias_style,
            with_domain_range=not args.no_domain_range,
        )
        out_dir = args.out if args.count == 1 else os.path.join(args.out, f"web{seed:03d}")
        web = generate_web(spec, out_dir)
        print(f"{web.out_dir}: {len(web.doc_triples)} documents, {len(web.queries)} queries")
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    inner = _resolver(args)
    config = _fetch_config(args)
    options = _engine_options(args)
    setups = _setups(args.setups)
    with RecordResolver(inner, args.archive) as recorder:
        if args.query:
            query = _query(args)
            for setup in setups:
                run = execute(query, setup, recorder, config=config, options=options)
                _print_run(run, sys.stdout, as_json=False)
        else:
            run_suite(_suite(args), recorder, setups, config=config, options=options)
        print(f"# recorded {recorder.records_written} responses to {args.archive}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="linkquery", description=__doc__.split("\n", 1)[0])
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("query", help="run one query under one setup")
    p.add_argument("query", help="query text, e.g. 'SELECT ?o WHERE { <iri> <iri> ?o . }'")
    p.add_argument("--setup", default=Setup.BASE.value)
    p.add_argument("--query-id", default="q")
    p.add_argument("--json", action="store_true")
    _add_resolver_arg(p)
    _add_fetch_args(p)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("bench", help="run a suite and aggregate per class and setup")
    p.add_argument("--suite", required=True)
    p.add_argument("--setups", default=",".join(s.value for s in ALL_SETUPS))
    p.add_argument("--format", choices=sorted(EMITTERS), default="latex")
    p.add_argument("--out", default=None)
    p.add_argument("--per-query", default=None, help="also write one CSV row per run")
    _add_resolver_arg(p)
    _add_fetch_args(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("gen-fixture", help="generate deterministic fixture webs")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1, help="number of webs (seed, seed+1, ...)")
    p.add_argument("--entities", type=int, default=8)
    p.add_argument("--hubs", type=int, default=3)
    p.add_argument("--aliases", type=int, default=3)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--alias-style", choices=("suffix", "prefixmin"), default="suffix")
    p.add_argument("--no-domain-range", action="store_true")
    p.set_defaults(func=_cmd_gen_fixture)

    p = sub.add_parser("record", help="run while taping responses into an archive")
    p.add_argument("--archive", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--query", default=None)
    group.add_argument("--suite", default=None)
    p.add_argument("--setups", default=",".join(s.value for s in ALL_SETUPS))
    p.add_argument("--query-id", default="q")
    _add_resolver_arg(p)
    _add_fetch_args(p)
    p.set_defaults(func=_cmd_record)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"environment error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
