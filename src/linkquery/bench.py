"""Benchmark harness: run query suites, aggregate per class, emit tables.

Aggregation is mean plus population standard deviation per query class and
setup, across six metrics: answer count, total seconds, seconds to first
answer, HTTP lookups, and retrieved/inferred triples in thousands.  Queries
that produced no answer contribute nothing to the first-answer column.

Table cells follow two rounding rules (both round half up to two decimals):
counts-and-seconds columns then drop trailing zeros ("10.20" prints as
"10.2", "0.00" as "0"), while the triple columns keep two decimals unless
exactly zero ("10.3" prints as "10.30", zero as "0").
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from statistics import mean, pstdev
from typing import Iterable, Sequence, TextIO

from .engine import ALL_SETUPS, EngineOptions, QueryRun, Setup, execute
from .fetch import FetchConfig, Resolver, forget_parses
from .query import BgpQuery, parse_query
from .rdf import read_lines

log = logging.getLogger(__name__)

SETUP_LABELS = {
    Setup.BASE: "base",
    Setup.SELECT: "select",
    Setup.SEEALSO: "seeAlso",
    Setup.SAMEAS: "sameAs",
    Setup.RHODF: "$\\rho$DF",
    Setup.COMBINED: "combined",
}

METRIC_NAMES = ("results", "time_s", "first_s", "http", "retrieved_k", "inferred_k")


@dataclass(frozen=True, slots=True)
class SuiteEntry:
    query_id: str
    class_name: str
    query: BgpQuery


def load_suite(path: str | Path) -> list[SuiteEntry]:
    """Read a suite file: one query per line, 'id<TAB>class<TAB>query text'."""
    entries: list[SuiteEntry] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t", 2)
        if len(parts) != 3:
            raise ValueError(f"suite line {lineno}: expected 'id<TAB>class<TAB>query'")
        qid, class_name, text = parts
        entries.append(SuiteEntry(qid.strip(), class_name.strip(), parse_query(text, query_id=qid.strip())))
    return entries


@dataclass(frozen=True, slots=True)
class RunRecord:
    query_id: str
    class_name: str
    setup: Setup
    results: int
    time_s: float
    first_s: float | None
    http: int
    retrieved: int
    inferred: int
    truncated: bool

    @classmethod
    def from_run(cls, entry: SuiteEntry, run: QueryRun) -> "RunRecord":
        m = run.metrics
        return cls(
            query_id=entry.query_id,
            class_name=entry.class_name,
            setup=run.setup,
            results=m.results,
            time_s=m.time_s,
            first_s=m.first_s,
            http=m.http_lookups,
            retrieved=m.retrieved_triples,
            inferred=m.inferred_triples,
            truncated=m.truncated,
        )


def run_suite(
    entries: Sequence[SuiteEntry],
    resolver: Resolver,
    setups: Sequence[Setup] = ALL_SETUPS,
    *,
    config: FetchConfig | None = None,
    options: EngineOptions | None = None,
) -> list[RunRecord]:
    records: list[RunRecord] = []
    for entry in entries:
        for setup in setups:
            forget_parses()  # each run parses what it retrieves, so no setup's Time gains from another's
            run = execute(entry.query, setup, resolver, config=config, options=options)
            records.append(RunRecord.from_run(entry, run))
            log.debug(
                "%s/%s: results=%d http=%d retrieved=%d inferred=%d",
                entry.query_id,
                setup.value,
                run.metrics.results,
                run.metrics.http_lookups,
                run.metrics.retrieved_triples,
                run.metrics.inferred_triples,
            )
    return records


@dataclass(frozen=True, slots=True)
class AggregateRow:
    class_name: str
    setup: Setup
    n_queries: int
    cells: tuple[tuple[float, float], ...]  # (mean, pstdev) per metric, METRIC_NAMES order


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    if not values:
        return (0.0, 0.0)
    if len(values) == 1:
        return (float(values[0]), 0.0)
    return (mean(values), pstdev(values))


def aggregate(records: Iterable[RunRecord]) -> list[AggregateRow]:
    """Per (class, setup) means and population standard deviations.

    Class order follows first appearance in the records; setups follow the
    canonical order.  Retrieved/inferred are scaled to thousands first.
    """
    by_class: dict[str, dict[Setup, list[RunRecord]]] = {}
    class_order: list[str] = []
    for r in records:
        if r.class_name not in by_class:
            by_class[r.class_name] = {}
            class_order.append(r.class_name)
        by_class[r.class_name].setdefault(r.setup, []).append(r)
    rows: list[AggregateRow] = []
    for class_name in class_order:
        for setup in ALL_SETUPS:
            group = by_class[class_name].get(setup)
            if not group:
                continue
            cells = (
                _mean_std([float(r.results) for r in group]),
                _mean_std([r.time_s for r in group]),
                _mean_std([r.first_s for r in group if r.first_s is not None]),
                _mean_std([float(r.http) for r in group]),
                _mean_std([r.retrieved / 1000.0 for r in group]),
                _mean_std([r.inferred / 1000.0 for r in group]),
            )
            rows.append(AggregateRow(class_name, setup, len(group), cells))
    return rows


# --- cell formatting ----------------------------------------------------------


def format_plain(x: float) -> str:
    """Half-up to 2 decimals, then trailing zeros (and a bare dot) dropped."""
    d = Decimal(str(x)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
    if d == 0:
        return "0"
    s = format(d, "f")
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    return s


def format_padded(x: float) -> str:
    """Half-up to 2 decimals, kept zero-padded; exact zero prints bare."""
    d = Decimal(str(x)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
    if d == 0:
        return "0"
    return format(d, "f")


_CELL_FORMATS = (format_plain, format_plain, format_plain, format_plain, format_padded, format_padded)


def latex_row(row: AggregateRow) -> str:
    parts = [f"{{\\tt {SETUP_LABELS[row.setup]}}}"]
    for (m, s), fmt in zip(row.cells, _CELL_FORMATS):
        parts.append(f"& {fmt(m)}&($\\pm${fmt(s)})")
    return "".join(parts) + "\\\\"


def latex_class_header(class_name: str, n_queries: int) -> str:
    return (
        f"\\multicolumn{{13}}{{|l|}}{{Query class \\textbf{{{class_name}}} "
        f"with {n_queries} queries}}\\\\\\hline"
    )


def emit_latex(rows: Sequence[AggregateRow], out: TextIO) -> None:
    out.write("\\begin{tabular}{|l|rl|rl|rl|rl|rl|rl|}\n\\hline\n")
    out.write(
        "& \\multicolumn{2}{c|}{Results}& \\multicolumn{2}{c|}{Time}"
        "& \\multicolumn{2}{c|}{First}& \\multicolumn{2}{c|}{HTTP}"
        "& \\multicolumn{2}{c|}{Retrieved (k)}& \\multicolumn{2}{c|}{Inferred (k)}\\\\\\hline\n"
    )
    current: str | None = None
    for row in rows:
        if row.class_name != current:
            if current is not None:
                out.write("\\hline\n")
            out.write(latex_class_header(row.class_name, row.n_queries) + "\n")
            current = row.class_name
        out.write(latex_row(row) + "\n")
    out.write("\\hline\n\\end{tabular}\n")


def emit_csv(rows: Sequence[AggregateRow], out: TextIO) -> None:
    writer = csv.writer(out, lineterminator="\n")
    header = ["class", "setup", "queries"]
    for name in METRIC_NAMES:
        header += [f"{name}_mean", f"{name}_std"]
    writer.writerow(header)
    for row in rows:
        record: list[object] = [row.class_name, row.setup.value, row.n_queries]
        for m, s in row.cells:
            record += [repr(m), repr(s)]
        writer.writerow(record)


def emit_markdown(rows: Sequence[AggregateRow], out: TextIO) -> None:
    cols = ["setup"] + [f"{n} (±σ)" for n in METRIC_NAMES]
    current: str | None = None
    for row in rows:
        if row.class_name != current:
            if current is not None:
                out.write("\n")
            out.write(f"**{row.class_name}** ({row.n_queries} queries)\n\n")
            out.write("| " + " | ".join(cols) + " |\n")
            out.write("|" + "---|" * len(cols) + "\n")
            current = row.class_name
        cells = [SETUP_LABELS[row.setup].replace("$\\rho$DF", "ρDF")]
        for (m, s), fmt in zip(row.cells, _CELL_FORMATS):
            cells.append(f"{fmt(m)} (±{fmt(s)})")
        out.write("| " + " | ".join(cells) + " |\n")


EMITTERS = {"latex": emit_latex, "csv": emit_csv, "markdown": emit_markdown}


def write_per_query_csv(records: Sequence[RunRecord], out: TextIO) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["query_id", "class", "setup", "results", "time_s", "first_s", "http", "retrieved", "inferred", "truncated"]
    )
    for r in records:
        writer.writerow(
            [
                r.query_id,
                r.class_name,
                r.setup.value,
                r.results,
                repr(r.time_s),
                "" if r.first_s is None else repr(r.first_s),
                r.http,
                r.retrieved,
                r.inferred,
                int(r.truncated),
            ]
        )
