"""Document retrieval: resolvers, redirects, budgets, politeness.

A resolver performs exactly one HTTP-ish hop for an IRI and never follows
redirects itself; ``DereferenceManager`` drives the hop loop and owns every
cross-cutting policy (lookup budget, wall-clock deadline, per-host
politeness).  It decides the budget, the deadline and redirects on the
thread that drives it, and looks each hop IRI up at most once per run; only
``request``, which performs one hop, may run on a pool worker.  Politeness
is decided there, in ``request``: for a remote host, the worker holds that
host's lock over the hop, and sleeps under it until ``politeness_delay_ms``
has passed since the host's last hop started, so one host has one hop out
at a time and its hops start at least the delay apart.  ``timeout_ms``
bounds the hop itself, not that wait, and never how long a root waits for a
hop another root asked for first.

``parse_ntriples`` owns the parse state of the process.  Its one
least-recently-used cache of parses is keyed by a body's exact bytes and
blank-node scope and holds at most ``PARSED_BUDGET`` bytes of bodies: a body
served again, in any run on any resolver, is looked up again but not parsed
again.  Its one IRI table, which it hands the parser, gives the documents it
parses one ``Iri`` per IRI; the table is emptied once it holds more than
``PARSED_BUDGET // 64`` IRIs.  ``forget_parses`` empties both.

Resolvers come in four flavours:

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
u32 iri length, iri bytes, u32 location length, location bytes (the
response's Location, empty when it had none), u16 status (as ``perform``
gave it, which the run acted on: 0 for no response, 1 for an overrun of
``timeout_ms``), u32 body length, body bytes.
"""

from __future__ import annotations

import logging
import os
import struct
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import BinaryIO, Generator, Iterator, Protocol
from urllib.parse import urljoin, urlsplit

from . import rdf
from .rdf import Document, Iri

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


class HopTimeout(TransportError):
    """Request ran past its timeout before it produced a response."""


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

    def resolve(self, iri: str, timeout_s: float) -> RawResponse:
        """One hop, or ``TransportError``; statuses 0 and 1 are reserved for the outcomes of ``perform``."""


# --- fixture webs -----------------------------------------------------------

_Action = tuple  # ("file", str) | ("redirect", str) | ("status", int) | ("delay", int, _Action)

# Binary mode where the platform has a text mode for descriptors.
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)


def _read_file(path: str) -> bytes:
    """The whole file, read to its end on one descriptor; no file object is made."""
    fd = os.open(path, _READ_FLAGS)
    try:
        chunk = os.fstat(fd).st_size + 1  # one read for the body, one to see the end
        parts = []
        while part := os.read(fd, chunk):
            parts.append(part)
        return b"".join(parts)
    finally:
        os.close(fd)


def _parse_directive(text: str, base_dir: str, lineno: int) -> _Action:
    parts = text.split(None, 1)
    if not parts:
        raise ValueError(f"manifest line {lineno}: empty directive")
    kind = parts[0].upper()
    rest = parts[1] if len(parts) > 1 else ""
    if kind == "FILE":
        if not rest:
            raise ValueError(f"manifest line {lineno}: FILE needs a path")
        return ("file", os.path.join(base_dir, rest))
    if kind == "REDIRECT":
        if not rest:
            raise ValueError(f"manifest line {lineno}: REDIRECT needs a target")
        return ("redirect", rest.strip())
    if kind == "STATUS":
        try:
            code = int(rest.strip())
        except ValueError:
            code = 0
        if not 100 <= code <= 599:  # RFC 9110 §15; 0 and 1 are the reserved outcomes
            raise ValueError(f"manifest line {lineno}: bad STATUS code {rest!r}")
        return ("status", code)
    if kind == "DELAY":
        sub = rest.split(None, 2)
        if len(sub) < 3 or sub[1].upper() != "THEN":
            raise ValueError(f"manifest line {lineno}: DELAY wants 'DELAY <ms> THEN <directive>'")
        try:
            ms = int(sub[0])
        except ValueError:
            ms = -1
        if ms < 0:
            raise ValueError(f"manifest line {lineno}: bad DELAY duration {sub[0]!r}")
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
    is a ``DELAY``.  Lines end at ``\n`` only, as a document's do.
    """

    is_local = True

    def __init__(self, manifest: str | Path, clock: Clock | None = None) -> None:
        path = Path(manifest)
        if path.is_dir():
            path = path / "manifest.tsv"
        self._clock: Clock = clock or RealClock()
        self._actions: dict[str, _Action] = {}
        self._may_block = False
        base = os.fspath(path.parent)
        prefix = os.path.join(base, "")  # joins a relative path by concatenation
        # Split at \n only, as documents are; a \r before it is whitespace, which each field's strip drops.
        for lineno, line in enumerate(path.read_bytes().decode("utf-8").split("\n"), start=1):
            # The row of every generated web, 'IRI<TAB>FILE rel/path', read without a directive parse; any
            # other row (a comment, another keyword or spelling, an absolute or drive path) takes the general way.
            iri, tab, directive = line.partition("\t")
            key, rel = iri.strip(), directive[5:].strip()
            if directive[:5] == "FILE " and key[:1] != "#" and rel and rel[0] not in "/\\" and rel[1:2] != ":":
                self._actions[key] = ("file", prefix + rel)
                continue
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            if not tab:
                raise ValueError(f"manifest line {lineno}: expected '<iri>\\t<directive>'")
            action = self._actions[key] = _parse_directive(directive.strip(), base, lineno)
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
                return RawResponse(200, body=_read_file(action[1]))
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
    """Wraps a resolver, and appends to an archive and returns each hop's outcome as ``perform``
    gives it on a ``RealClock``, the clock of ``execute``."""

    def __init__(self, inner: Resolver, archive: str | Path) -> None:
        self._inner = inner
        self._clock = RealClock()
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
        resp = perform(self._inner, iri, timeout_s, self._clock)
        with self._lock:
            append_record(self._fh, iri, resp.location or "", resp.status, resp.body)
            self._fh.flush()
            self.records_written += 1
        return resp

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "RecordResolver":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class ReplayResolver:
    """Serves hops from an archive, outcomes included; unknown IRIs 404 with a warning."""

    is_local = True

    def __init__(self, archive: str | Path) -> None:
        self._responses: dict[str, RawResponse] = {}
        for iri, location, status, body in read_records(archive):
            # First record wins; a well-formed archive has one per hop IRI.
            self._responses.setdefault(iri, RawResponse(status, body, location or None))

    @property
    def may_block(self) -> bool:
        return False

    def __len__(self) -> int:
        return len(self._responses)

    def resolve(self, iri: str, timeout_s: float) -> RawResponse:
        resp = self._responses.get(iri)
        if resp is None:
            log.warning("replay archive has no record for %s; serving 404", iri)
            return RawResponse(404)
        return resp


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
        except self._requests.Timeout as e:
            raise HopTimeout(str(e)) from e
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
    TRANSPORT_FAILURE = "transport-failure"
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


PARSED_BUDGET = 256 * 1024  # body bytes whose parses the process's cache keeps


class _ParsedCache:
    """Parsed documents, (body, scope) -> (triples, errors), least recently used first."""

    def __init__(self) -> None:
        self._lock = threading.Lock()  # runs may run on several threads
        self.docs: OrderedDict[tuple[bytes, str], tuple[tuple, tuple]] = OrderedDict()
        self.size = 0  # body bytes in ``docs``

    def get(self, key: tuple[bytes, str]) -> tuple[tuple, tuple] | None:
        with self._lock:
            got = self.docs.get(key)
            if got is not None:
                self.docs.move_to_end(key)
            return got

    def put(self, key: tuple[bytes, str], parsed: tuple[tuple, tuple]) -> None:
        with self._lock:
            if len(key[0]) <= PARSED_BUDGET and key not in self.docs:
                self.docs[key] = parsed
                self.size += len(key[0])
            while self.size > PARSED_BUDGET:
                self.size -= len(self.docs.popitem(last=False)[0][0])

    def clear(self) -> None:
        with self._lock:
            self.docs.clear()
            self.size = 0


_PARSED = _ParsedCache()
# IRI group text -> its Iri, for every parse here.  Its reads and writes are
# single dict operations, so runs on several threads may share it: at worst
# two of them enter equal Iri objects for one IRI.
_IRIS: dict[str, Iri] = {}


def parse_ntriples(data: bytes, doc_scope: str) -> tuple[tuple, tuple]:
    """``rdf.parse_ntriples`` as tuples, taken from the process's cache when it holds them."""
    key = (data, doc_scope)
    parsed = _PARSED.get(key)
    if parsed is None:
        found, bad = rdf.parse_ntriples(data, doc_scope, _IRIS)
        if len(_IRIS) > PARSED_BUDGET // 64:
            _IRIS.clear()
        parsed = (tuple(found), tuple(bad))
        _PARSED.put(key, parsed)
    return parsed


def forget_parses() -> None:
    """Empty the cache of parses and the IRI table: the next run parses every body it retrieves."""
    _PARSED.clear()
    _IRIS.clear()


NO_RESPONSE = 0  # status of a hop that produced no response
OVERRAN = 1  # status of a hop that ran past its timeout


def perform(resolver: Resolver, iri: str, timeout_s: float, clock: Clock) -> RawResponse:
    """Perform one hop: its response, ``OVERRAN`` on an overrun of ``timeout_s``, or ``NO_RESPONSE``."""
    t0 = clock.now()
    try:
        resp = resolver.resolve(iri, timeout_s)
    except HopTimeout:
        return RawResponse(OVERRAN)
    except TransportError as e:
        log.debug("transport failure for %s: %s", iri, e)
        resp = RawResponse(NO_RESPONSE)
    if clock.now() - t0 > timeout_s:
        # Local resolvers do not enforce the timeout themselves; a
        # fixture delay longer than the timeout still counts as one,
        # whatever the hop then served or failed with.
        return RawResponse(OVERRAN)
    return resp


class DereferenceManager:
    """Turns root IRIs into parsed documents under global fetch policies.

    One per run, driven from one thread: the deadline, the lookup budget,
    hop de-duplication, redirects and parsing are all decided in ``chase``
    on that thread.  ``request`` performs one hop and is the only method
    that may run on a pool worker.  Each hop IRI is looked up at most once
    per run, so redirecting roots that share a target pay for it once.
    """

    def __init__(self, resolver: Resolver, config: FetchConfig | None = None, clock: Clock | None = None) -> None:
        self._resolver = resolver
        self._cfg = config or FetchConfig()
        self._clock: Clock = clock or RealClock()
        self.deadline = self._clock.now() + self._cfg.deadline_ms / 1000.0  # on this clock; no hop starts after it
        self.lookups_used = 0
        self._outcomes: dict[str, RawResponse | None] = {}  # hop IRI -> its outcome, None while out
        self._host_locks: dict[str, threading.Lock] = {}
        self._host_last: dict[str, float] = {}

    def dereference(self, root: Iri) -> DerefResult:
        """Chase ``root``, performing each hop with ``request`` on this thread."""
        chase, outcome = self.chase(root), None
        while True:
            try:
                hop = chase.send(outcome)
            except StopIteration as stop:
                return stop.value
            outcome = self.request(hop)

    def chase(self, root: Iri) -> Generator[str, RawResponse | None, DerefResult]:
        """Yield each hop of ``root`` whose outcome is unknown, to be sent it (the ``RawResponse`` of
        ``request``, or None past the deadline), and return the result.  Budget is reserved on a hop's first yield."""
        t_start = self._clock.now()
        here = root  # the checked IRI of the current hop
        current = root.value  # and its text, which scopes the document's blank nodes
        hops = 0
        follows = 0

        def done(status: DerefStatus, **kw: object) -> DerefResult:
            return DerefResult(
                iri=root,
                status=status,
                hops=hops,
                elapsed_s=self._clock.now() - t_start,
                **kw,  # type: ignore[arg-type]
            )

        while True:
            if self._clock.now() > self.deadline:
                return done(DerefStatus.SKIPPED, detail="deadline exhausted")
            if current not in self._outcomes:
                if self.lookups_used >= self._cfg.max_lookups:
                    return done(DerefStatus.SKIPPED, detail="lookup budget exhausted")
                self.lookups_used += 1
                self._outcomes[current] = None
            resp = self._outcomes[current]
            if resp is None:
                resp = yield current
                if resp is None:  # the driver gave up on the hop at the deadline
                    return done(DerefStatus.SKIPPED, detail="deadline exhausted")
                self._outcomes[current] = resp
            hops += 1
            if resp.status == OVERRAN:
                return done(DerefStatus.TIMED_OUT, detail=current)
            if resp.status == NO_RESPONSE:
                return done(DerefStatus.TRANSPORT_FAILURE, detail=current)
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
            triples, errors = parse_ntriples(resp.body, doc_scope=current)
            if errors and not triples and resp.body.strip():
                return done(
                    DerefStatus.PARSE_FAILURE,
                    http_status=resp.status,
                    detail=f"{len(errors)} parse errors, no triples",
                )
            doc = Document(iri=root.value, triples=tuple(triples))
            return done(DerefStatus.OK, document=doc, http_status=resp.status, final_iri=here)

    def request(self, iri: str) -> RawResponse:
        """Perform one hop with ``perform``, after the politeness delay of a remote host."""
        timeout_s = self._cfg.timeout_ms / 1000.0
        if not self._resolver.is_local and self._cfg.politeness_delay_ms:
            host = urlsplit(iri).netloc
            with self._host_locks.setdefault(host, threading.Lock()):  # atomic, as workers call this
                last = self._host_last.get(host)
                if last is not None:
                    wait = self._cfg.politeness_delay_ms / 1000.0 - (self._clock.now() - last)
                    if wait > 0:
                        self._clock.sleep(wait)
                self._host_last[host] = self._clock.now()
                return perform(self._resolver, iri, timeout_s, self._clock)
        return perform(self._resolver, iri, timeout_s, self._clock)
