"""Link-traversal query execution over webs of RDF documents.

The engine evaluates basic graph patterns by dereferencing IRIs as they are
discovered, under six setups that differ in which IRIs are looked up and in
whether owl:sameAs equivalence or a small RDFS fragment is applied.
"""

from .bench import (
    AggregateRow,
    RunRecord,
    SuiteEntry,
    aggregate,
    emit_csv,
    emit_latex,
    emit_markdown,
    load_suite,
    run_suite,
)
from .engine import (
    ALL_SETUPS,
    Binding,
    EngineOptions,
    QueryMetrics,
    QueryRun,
    Setup,
    execute,
)
from .fetch import (
    DereferenceManager,
    DerefResult,
    DerefStatus,
    FetchConfig,
    FixtureResolver,
    LiveResolver,
    RecordResolver,
    ReplayResolver,
    parse_resolver_spec,
)
from .fixturegen import GeneratedWeb, WebSpec, generate_web
from .query import (
    BgpQuery,
    QueryClass,
    TriplePattern,
    Variable,
    classify,
    parse_query,
    seed_iris,
)
from .rdf import BlankNode, Iri, Literal, Triple, parse_ntriples, serialize_ntriples
from .reasoner import EquivalenceClasses, ReasoningStore, rho_df_closure

__version__ = "0.1.0"

__all__ = [
    "ALL_SETUPS",
    "AggregateRow",
    "BgpQuery",
    "Binding",
    "BlankNode",
    "DereferenceManager",
    "DerefResult",
    "DerefStatus",
    "EngineOptions",
    "EquivalenceClasses",
    "FetchConfig",
    "FixtureResolver",
    "GeneratedWeb",
    "Iri",
    "Literal",
    "LiveResolver",
    "QueryClass",
    "QueryMetrics",
    "QueryRun",
    "RecordResolver",
    "ReplayResolver",
    "RunRecord",
    "Setup",
    "SuiteEntry",
    "Triple",
    "TriplePattern",
    "Variable",
    "WebSpec",
    "aggregate",
    "classify",
    "emit_csv",
    "emit_latex",
    "emit_markdown",
    "execute",
    "generate_web",
    "load_suite",
    "parse_ntriples",
    "parse_query",
    "parse_resolver_spec",
    "rho_df_closure",
    "run_suite",
    "seed_iris",
    "serialize_ntriples",
    "__version__",
]
