"""Document retrieval: resolvers, redirects, budgets, politeness.

A resolver performs exactly one HTTP-ish hop for an IRI and never follows
redirects itself; ``DereferenceManager`` drives the hop loop and owns every
cross-cutting policy (lookup budget, wall-clock deadline, per-host
politeness).  It decides everything on the thread that drives it, and looks
each hop IRI up at most once per run; only ``request``, which performs one
hop, may run on a pool worker.  ``timeout_ms`` bounds that request, never
how long a root waits for a hop another root asked for first.  Resolvers
come in four flavours:

* ``FixtureResolver`` serves a manifest-described web from local files,
* ``ReplayResolver`` serves a previously recorded archive,
* ``RecordResolver`` wraps another resolver and writes such an archive,
* ``LiveResolver`` talks real HTTP (imported lazily, only flavour that does).

Each resolver also states, as the read-only ``may_block``, whether a hop can
wait on something outside the process: a fixture web can when its manifest
holds a ``DELAY`` directive, a replay archive never does, live HTTP always
does, and a recorder says what the resolver it wraps says.  The engine
serves the hops of a resolver that never blocks on the calling thread, and
overlaps the hops of one that can on a pool of ``max_parallel`` workers.

Archive layout, per hop record, little-endian:
u32 iri length, iri bytes, u32 final-iri length, final-iri bytes (the
redirect target for 3xx hops, the iri itself otherwise), u16 status
(0 marks a transport failure), u32 body length, body bytes.
"""

from __future__ import annotations

import logging
import struct
import threading
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import BinaryIO, Generator, Iterator, Protocol
from urllib.parse import urljoin, urlsplit

from .rdf import RUN_IRIS, Document, Iri, parse_ntriples

log = logging.getLogger(__name__)


class Clock(Protocol):
    def now(self) -> float: ...

    def sleep(self, seconds: float) -> None: ...


class RealClock:
    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


class FakeClock:
    """Test clock: sleeping advances time instead of waiting."""

    def __init__(self, start: float = 0.0) -> None:
        self._t = start

    def now(self) -> float:
        return self._t

    def sleep(self, seconds: float) -> None:
        self._t += max(0.0, seconds)

    def advance(self, seconds: float) -> None:
        self.sleep(seconds)


class TransportError(Exception):
    """Request never produced a response (timeout, refused, dead socket)."""


@dataclass(frozen=True, slots=True)
class RawResponse:
    status: int
    body: bytes = b""
    location: str | None = None


class Resolver(Protocol):
    is_local: bool

    @property
    def may_block(self) -> bool:
        """Whether a hop can wait on something outside the process.

        A network request can, and so can a fixture ``DELAY``; a lookup in
        memory or a read of a local file cannot.  The resolver fixes it and
        no caller sets it.  The engine takes a resolver that does not
        declare it to block.
        """

    def resolve(self, iri: str, timeout_s: float) -> RawResponse: ...


# --- fixture webs -----------------------------------------------------------

_Action = tuple  # ("file", Path) | ("redirect", str) | ("status", int) | ("delay", int, _Action)


def _parse_directive(text: str, base_dir: Path, lineno: int) -> _Action:
    parts = text.split(None, 1)
    if not parts:
        raise ValueError(f"manifest line {lineno}: empty directive")
    kind = parts[0].upper()
    rest = parts[1] if len(parts) > 1 else ""
    if kind == "FILE":
        if not rest:
            raise ValueError(f"manifest line {lineno}: FILE needs a path")
        return ("file", base_dir / rest)
    if kind == "REDIRECT":
        if not rest:
            raise ValueError(f"manifest line {lineno}: REDIRECT needs a target")
        return ("redirect", rest.strip())
    if kind == "STATUS":
        try:
            return ("status", int(rest.strip()))
        except ValueError:
            raise ValueError(f"manifest line {lineno}: bad STATUS code {rest!r}") from None
    if kind == "DELAY":
        sub = rest.split(None, 2)
        if len(sub) < 3 or sub[1].upper() != "THEN":
            raise ValueError(f"manifest line {lineno}: DELAY wants 'DELAY <ms> THEN <directive>'")
        try:
            ms = int(sub[0])
        except ValueError:
            raise ValueError(f"manifest line {lineno}: bad DELAY duration {sub[0]!r}") from None
        inner = _parse_directive(sub[2], base_dir, lineno)
        if inner[0] == "delay":
            raise ValueError(f"manifest line {lineno}: nested DELAY")
        return ("delay", ms, inner)
    raise ValueError(f"manifest line {lineno}: unknown directive {kind!r}")


class FixtureResolver:
    """Serves a local web described by a tab-separated manifest.

    Each line maps an IRI to a directive: ``FILE relative/path.nt``,
    ``REDIRECT <iri>``, ``STATUS <code>``, or ``DELAY <ms> THEN <directive>``.
    IRIs absent from the manifest 404.  It may block exactly when some line
    is a ``DELAY``.
    """

    is_local = True

    def __init__(self, manifest: str | Path, clock: Clock | None = None) -> None:
        path = Path(manifest)
        if path.is_dir():
            path = path / "manifest.tsv"
        self._clock: Clock = clock or RealClock()
        self._actions: dict[str, _Action] = {}
        self._may_block = False
        base = path.parent
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            try:
                iri, directive = line.split("\t", 1)
            except ValueError:
                raise ValueError(f"manifest line {lineno}: expected '<iri>\\t<directive>'") from None
            action = self._actions[iri.strip()] = _parse_directive(directive.strip(), base, lineno)
            self._may_block |= action[0] == "delay"

    @property
    def may_block(self) -> bool:
        return self._may_block

    def __len__(self) -> int:
        return len(self._actions)

    def resolve(self, iri: str, timeout_s: float) -> RawResponse:
        action = self._actions.get(iri)
        if action is None:
            return RawResponse(404)
        return self._apply(action)

    def _apply(self, action: _Action) -> RawResponse:
        kind = action[0]
        if kind == "delay":
            self._clock.sleep(action[1] / 1000.0)
            return self._apply(action[2])
        if kind == "file":
            try:
                return RawResponse(200, body=action[1].read_bytes())
            except OSError as e:
                raise TransportError(f"fixture file unreadable: {e}") from e
        if kind == "redirect":
            return RawResponse(303, location=action[1])
        return RawResponse(action[1])


# --- record / replay archives -----------------------------------------------

_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")


def append_record(fh: BinaryIO, iri: str, final: str, status: int, body: bytes) -> None:
    for text in (iri, final):
        raw = text.encode("utf-8")
        fh.write(_U32.pack(len(raw)))
        fh.write(raw)
    fh.write(_U16.pack(status))
    fh.write(_U32.pack(len(body)))
    fh.write(body)


def read_records(path: str | Path) -> Iterator[tuple[str, str, int, bytes]]:
    with open(path, "rb") as fh:
        while True:
            head = fh.read(4)
            if not head:
                return
            if len(head) < 4:
                raise ValueError("truncated archive")

            def take(n: int) -> bytes:
                chunk = fh.read(n)
                if len(chunk) < n:
                    raise ValueError("truncated archive")
                return chunk

            iri = take(_U32.unpack(head)[0]).decode("utf-8")
            final = take(_U32.unpack(take(4))[0]).decode("utf-8")
            status = _U16.unpack(take(2))[0]
            body = take(_U32.unpack(take(4))[0])
            yield iri, final, status, body


class RecordResolver:
    """Wraps a resolver and appends every hop it performs to an archive."""

    def __init__(self, inner: Resolver, archive: str | Path) -> None:
        self._inner = inner
        self._path = Path(archive)
        self._fh: BinaryIO = open(self._path, "wb")
        self._lock = threading.Lock()
        self.records_written = 0

    @property
    def is_local(self) -> bool:
        return self._inner.is_local

    @property
    def may_block(self) -> bool:
        return getattr(self._inner, "may_block", True)

    def resolve(self, iri: str, timeout_s: float) -> RawResponse:
        try:
            resp = self._inner.resolve(iri, timeout_s)
        except TransportError:
            self._write(iri, iri, 0, b"")
            raise
        final = resp.location if resp.location and 300 <= resp.status < 400 else iri
        self._write(iri, final, resp.status, resp.body)
        return resp

    def _write(self, iri: str, final: str, status: int, body: bytes) -> None:
        with self._lock:
            append_record(self._fh, iri, final, status, body)
            self._fh.flush()
            self.records_written += 1

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "RecordResolver":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class ReplayResolver:
    """Serves hops from an archive; unknown IRIs 404 with a warning."""

    is_local = True

    def __init__(self, archive: str | Path) -> None:
        self._responses: dict[str, tuple[str, int, bytes]] = {}
        for iri, final, status, body in read_records(archive):
            # First record wins; a well-formed archive has one per hop IRI.
            self._responses.setdefault(iri, (final, status, body))

    @property
    def may_block(self) -> bool:
        return False

    def __len__(self) -> int:
        return len(self._responses)

    def resolve(self, iri: str, timeout_s: float) -> RawResponse:
        hit = self._responses.get(iri)
        if hit is None:
            log.warning("replay archive has no record for %s; serving 404", iri)
            return RawResponse(404)
        final, status, body = hit
        if status == 0:
            raise TransportError(f"recorded transport failure for {iri}")
        if 300 <= status < 400:
            return RawResponse(status, location=final)
        return RawResponse(status, body=body)


class LiveResolver:
    """Real HTTP, one hop per call.  Only used when explicitly requested."""

    is_local = False

    @property
    def may_block(self) -> bool:
        return True

    def __init__(self) -> None:
        import requests  # deferred so offline use never needs it

        self._session = requests.Session()
        self._requests = requests

    def resolve(self, iri: str, timeout_s: float) -> RawResponse:
        try:
            resp = self._session.get(
                iri,
                allow_redirects=False,
                timeout=timeout_s,
                headers={"Accept": "application/n-triples, text/plain;q=0.5"},
            )
        except self._requests.RequestException as e:
            raise TransportError(str(e)) from e
        return RawResponse(resp.status_code, body=resp.content, location=resp.headers.get("Location"))


def parse_resolver_spec(spec: str) -> Resolver:
    """Build a resolver from 'live', 'fixture:PATH', or 'replay:PATH'."""
    if spec == "live":
        return LiveResolver()
    if spec.startswith("fixture:"):
        return FixtureResolver(spec[len("fixture:") :])
    if spec.startswith("replay:"):
        return ReplayResolver(spec[len("replay:") :])
    raise ValueError(f"unknown resolver spec {spec!r} (want live, fixture:PATH, or replay:PATH)")


# --- the manager -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FetchConfig:
    timeout_ms: int = 10_000
    deadline_ms: int = 600_000
    redirect_limit: int = 5
    max_lookups: int = 2_000
    max_parallel: int = 8
    politeness_delay_ms: int = 500

    def __post_init__(self) -> None:
        for name in ("timeout_ms", "deadline_ms", "redirect_limit", "max_lookups", "max_parallel"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.politeness_delay_ms < 0:
            raise ValueError("politeness_delay_ms must not be negative")


class DerefStatus(str, Enum):
    OK = "ok"
    HTTP_ERROR = "http-error"
    PARSE_FAILURE = "parse-failure"
    TIMED_OUT = "timed-out"
    TOO_MANY_REDIRECTS = "too-many-redirects"
    SKIPPED = "skipped"


@dataclass(frozen=True, slots=True)
class DerefResult:
    """One root's outcome; on the pool, ``elapsed_s`` includes the time its hops waited for a worker."""

    iri: Iri
    status: DerefStatus
    document: Document | None = None
    http_status: int | None = None
    final_iri: Iri | None = None
    hops: int = 0
    elapsed_s: float = 0.0
    detail: str = ""


_TIMEOUT = object()  # hop outcome for transport failures


class DereferenceManager:
    """Turns root IRIs into parsed documents under global fetch policies.

    One per run, driven from one thread: the deadline, the lookup budget,
    hop de-duplication, redirects and parsing are all decided in ``chase``
    on that thread.  ``request`` performs one hop and is the only method
    that may run on a pool worker.  Each hop IRI is looked up at most once
    per run, so redirecting roots that share a target pay for it once.
    It also owns the run's IRI table, which it lends the parser for each
    document (``rdf.RUN_IRIS``), so that the run's documents share one
    ``Iri`` per IRI; the table goes with the manager, at the end of the run.
    """

    def __init__(self, resolver: Resolver, config: FetchConfig | None = None, clock: Clock | None = None) -> None:
        self._resolver = resolver
        self._cfg = config or FetchConfig()
        self._clock: Clock = clock or RealClock()
        self._start = self._clock.now()
        self.lookups_used = 0
        self._outcomes: dict[str, object] = {}  # hop IRI -> RawResponse or _TIMEOUT, None while out
        self._host_locks: dict[str, threading.Lock] = {}
        self._host_last: dict[str, float] = {}
        self._iris: dict[str, Iri] = {}  # the run's IRI table, lent to the parser

    def dereference(self, root: Iri) -> DerefResult:
        """Chase ``root``, performing each hop with ``request`` on this thread."""
        chase, outcome = self.chase(root), None
        while True:
            try:
                hop = chase.send(outcome)
            except StopIteration as stop:
                return stop.value
            outcome = self.request(hop)

    def chase(self, root: Iri) -> Generator[str, object, DerefResult]:
        """Yield each hop of ``root`` whose outcome is unknown, to be sent it (a ``RawResponse``
        or ``_TIMEOUT``), and return the result.  Budget is reserved on a hop's first yield."""
        t_start = self._clock.now()
        here = root  # the checked IRI of the current hop
        current = root.value  # and its text, which scopes the document's blank nodes
        hops = 0
        follows = 0
        deadline_s = self._cfg.deadline_ms / 1000.0

        def done(status: DerefStatus, **kw: object) -> DerefResult:
            return DerefResult(
                iri=root,
                status=status,
                hops=hops,
                elapsed_s=self._clock.now() - t_start,
                **kw,  # type: ignore[arg-type]
            )

        while True:
            if self._clock.now() - self._start > deadline_s:
                return done(DerefStatus.SKIPPED, detail="deadline exhausted")
            if current not in self._outcomes:
                if self.lookups_used >= self._cfg.max_lookups:
                    return done(DerefStatus.SKIPPED, detail="lookup budget exhausted")
                self.lookups_used += 1
                self._outcomes[current] = None
            outcome = self._outcomes[current]
            if outcome is None:
                outcome = self._outcomes[current] = yield current
            hops += 1
            if outcome is _TIMEOUT:
                return done(DerefStatus.TIMED_OUT, detail=current)
            resp: RawResponse = outcome  # type: ignore[assignment]
            if 300 <= resp.status < 400:
                if not resp.location:
                    return done(DerefStatus.HTTP_ERROR, http_status=resp.status, detail="redirect without location")
                follows += 1
                if follows > self._cfg.redirect_limit:
                    return done(DerefStatus.TOO_MANY_REDIRECTS, http_status=resp.status, detail=current)
                try:
                    here = Iri(urljoin(current, resp.location))
                except ValueError:
                    return done(DerefStatus.HTTP_ERROR, http_status=resp.status, detail="bad redirect location")
                current = here.value
                continue
            if not 200 <= resp.status < 300:
                return done(DerefStatus.HTTP_ERROR, http_status=resp.status)
            lent = RUN_IRIS.set(self._iris)
            try:
                triples, errors = parse_ntriples(resp.body, doc_scope=current)
            finally:
                RUN_IRIS.reset(lent)
            if resp.body.strip() and not triples and errors:
                return done(
                    DerefStatus.PARSE_FAILURE,
                    http_status=resp.status,
                    detail=f"{len(errors)} parse errors, no triples",
                )
            doc = Document(iri=root.value, triples=tuple(triples))
            return done(DerefStatus.OK, document=doc, http_status=resp.status, final_iri=here)

    def request(self, iri: str):
        """Perform one hop: its ``RawResponse``, or ``_TIMEOUT`` on a transport failure or an overrun."""
        if not self._resolver.is_local and self._cfg.politeness_delay_ms:
            host = urlsplit(iri).netloc
            with self._host_locks.setdefault(host, threading.Lock()):  # atomic, as workers call this
                last = self._host_last.get(host)
                if last is not None:
                    wait = self._cfg.politeness_delay_ms / 1000.0 - (self._clock.now() - last)
                    if wait > 0:
                        self._clock.sleep(wait)
                self._host_last[host] = self._clock.now()
                return self._request(iri)
        return self._request(iri)

    def _request(self, iri: str):
        timeout_s = self._cfg.timeout_ms / 1000.0
        t0 = self._clock.now()
        try:
            resp = self._resolver.resolve(iri, timeout_s)
        except TransportError as e:
            log.debug("transport failure for %s: %s", iri, e)
            return _TIMEOUT
        if self._clock.now() - t0 > timeout_s:
            # Local resolvers do not enforce the timeout themselves; a
            # fixture delay longer than the timeout still counts as one.
            return _TIMEOUT
        return resp
