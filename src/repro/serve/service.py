"""The serving core: HTTP-shaped request resolution, no sockets.

:class:`ArtifactService` maps read-only API requests onto the artifact
registry, the :class:`~repro.api.session.Study` session, and the
warehouse.  Every route is one row of :data:`ROUTES` (its path, handler,
declared query parameters, and whether the config overrides apply), and
:func:`parse_query` is the one query parser: a route's query becomes
typed handler arguments and the effective :class:`StudyConfig`, or a 400.

Responses are canonical JSON bytes with a strong ``ETag`` derived from
the content digest; ``If-None-Match`` revalidation returns ``304``, and a
body is gzipped the first time a client that accepts gzip asks for it.
Resolution is a three-tier read: an in-memory **hot cache** of encoded
responses, then the warehouse's rendered-artifact entries, then an
actual compute through the session (which itself reads through the
warehouse for layer payloads and writes freshly rendered artifacts
behind).  A view of an artifact (one contrast row, a filtered event
feed) that misses the hot cache derives from its parent artifact's hot
entry when there is one, so it renders, reads and decodes nothing.

The class is deliberately socket-free -- the asyncio front end
(:mod:`repro.serve.http`) calls :meth:`handle`, and tests can drive the
full semantics (routing, ETags, gzip, error suggestions) without a
server.  Everything here is thread-safe: the hot path holds one short
lock around each hot-cache lookup and never waits on a build, and
computes serialize behind one build lock, so the event loop can answer
cached and derivable requests while an executor thread renders a cold
one.
"""

from __future__ import annotations

import dataclasses
import difflib
import gzip
import hashlib
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.api import Study, StudyConfig, jsonify, registry
from repro.api.session import _WRITE_BEHIND_FAILURES, OVERRIDE_KEYS
from repro.datasets.scenarios import SCALE_PRESETS
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import fault_hook
from repro.sentinel.config import SEVERITIES, keeps_event
from repro.telemetry import (
    counts,
    recent_spans,
    registry as _metrics_registry,
    span,
    span_tree,
)

#: Bodies below this size are served identity-encoded even to
#: gzip-accepting clients (the header overhead would exceed the win).
MIN_GZIP_BYTES = 256

#: Serving-tier instruments.  ``serve_requests_total`` is the name the
#: CI serve-smoke greps out of ``/metrics``; the hot-cache and 304
#: counters are the acceptance signals that caching actually engaged
#: under load.
_REQUESTS = _metrics_registry().counter(
    "serve_requests_total", "HTTP requests handled, per endpoint", ("endpoint",)
)
_RESPONSES = _metrics_registry().counter(
    "serve_responses_total", "HTTP responses sent, per status", ("status",)
)
_REQUEST_SECONDS = _metrics_registry().histogram(
    "serve_request_seconds", "request resolution latency, per endpoint",
    ("endpoint",),
)
_HOT_HITS = _metrics_registry().counter(
    "serve_hot_cache_hits_total", "requests answered from the hot cache"
)
_HOT_MISSES = _metrics_registry().counter(
    "serve_hot_cache_misses_total", "hot-cache probes that fell through"
)
_HOT_ENTRIES = _metrics_registry().gauge(
    "serve_hot_cache_entries", "encoded responses in the hot cache"
)
_NOT_MODIFIED = _metrics_registry().counter(
    "serve_not_modified_total", "requests revalidated with 304 Not Modified"
)
_DEGRADED = _metrics_registry().counter(
    "serve_degraded_total",
    "degraded serves, per mode (stale | shed | slow_build | breaker_open)",
    ("mode",),
)


def _server_version() -> str:
    import repro

    return f"repro-serve/{getattr(repro, '__version__', '0')}"


def artifact_document(study: Study, name: str) -> dict:
    """The wire-format document of one artifact: config + rendered result.

    The single definition shared by the serving path and ``repro store
    warm`` -- a document rendered into the warehouse offline is
    byte-identical to what a cold server would have computed, so ETags
    agree no matter which side did the work.
    """
    result = study.artifact(name)
    config = dataclasses.asdict(study.config)
    # ``parallel`` affects build speed, never results (and it does not
    # key the store) -- normalize it so documents rendered by a
    # parallel warm and a sequential server are byte-identical.
    config["parallel"] = None
    return {"config": jsonify(config), **result.to_dict()}


@dataclass(frozen=True)
class Response:
    """One resolved response: status, headers, body bytes."""

    status: int
    headers: tuple[tuple[str, str], ...]
    body: bytes

    def header(self, name: str) -> str | None:
        wanted = name.lower()
        for key, value in self.headers:
            if key.lower() == wanted:
                return value
        return None

    def json(self) -> Any:
        """Decode the (possibly gzipped) body as JSON -- test helper."""
        body = self.body
        if self.header("Content-Encoding") == "gzip":
            body = gzip.decompress(body)
        return json.loads(body.decode("utf-8"))


class ServiceError(Exception):
    """A request that resolves to an error response."""

    def __init__(
        self,
        status: int,
        payload: dict,
        headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        super().__init__(payload.get("error", f"HTTP {status}"))
        self.status = status
        self.payload = payload
        self.headers = headers


# -- the request grammar -----------------------------------------------------


def _refuse(status: int, error: str, **fields: Any) -> ServiceError:
    """An error response: ``error``, then each of ``fields`` not ``None``."""
    return ServiceError(
        status, {"error": error, **{k: v for k, v in fields.items() if v is not None}}
    )


@dataclass(frozen=True)
class Param:
    """One query parameter a route declares: ``kind`` is ``"count"`` (an
    integer >= 0), ``"text"`` (non-empty after stripping), ``"int"`` (a
    config field, which :class:`StudyConfig` validates) or the tuple of
    choices, which errors call ``noun``.  Omitted, it is ``default``."""

    name: str
    kind: str | tuple[str, ...]
    default: Any = None
    noun: str = ""

    def parse(self, raw: str) -> Any:
        """The typed value of one raw query value, or a 400."""
        if isinstance(self.kind, tuple):
            if raw in self.kind:
                return raw
            raise _refuse(400, f"unknown {self.noun or self.name} {raw!r}", known=list(self.kind))
        if self.kind == "text":
            if raw.strip():
                return raw
            raise _refuse(400, f"parameter {self.name!r} must not be empty")
        try:
            value = int(raw)
        except ValueError:
            raise _refuse(400, f"parameter {self.name!r} needs an integer, got {raw!r}") from None
        if self.kind == "count" and value < 0:
            raise _refuse(400, f"{self.name!r} must be >= 0")
        return value


#: What a route the config overrides apply to accepts besides its own
#: parameters: a scale preset, then the config fields a request may set.
CONFIG_PARAMS = (
    Param("scale", tuple(sorted(SCALE_PRESETS))),
    *(Param(key, "int") for key in OVERRIDE_KEYS),
)


class Route:
    """One row of the route table: a ``path`` whose trailing ``<arg>``
    takes the rest of the request path, and the :class:`ArtifactService`
    ``handler`` that answers.  It gets the arg and each of ``params`` by
    name, plus the effective ``config`` and ``hot_only`` if the config
    overrides apply.  ``prefix``, ``arg`` and ``declared`` are derived once."""

    def __init__(
        self, path: str, handler: str, params: tuple[Param, ...] = (), config: bool = False
    ) -> None:
        self.path, self.handler, self.params, self.config = path, handler, params, config
        self.prefix, _, arg = path.partition("<")
        self.arg = arg.removesuffix(">")
        accepted = (*params, *(CONFIG_PARAMS if config else ()))
        self.declared = {param.name: param for param in accepted}


#: The route table: dispatch, metric labels and :data:`ENDPOINTS` all
#: derive from it.
ROUTES = (
    Route("/healthz", "_healthz"),
    Route("/metrics", "_metrics_endpoint"),
    Route("/v1/artifacts", "_listing"),
    Route("/v1/artifact/<name>", "_artifact", config=True),
    Route("/v1/contrast/<country>", "_contrast", config=True),
    Route("/v1/events", "_events", (
        Param("since", "count", 0),
        Param("country", "text"),
        Param("min_severity", SEVERITIES, SEVERITIES[0], "severity"),
    ), config=True),
    Route("/v1/profile", "_profile_endpoint", (
        Param("span", "text"),
        Param("format", ("tree", "speedscope"), "tree"),
        Param("last", "count"),
    )),
    Route("/v1/trace", "_trace_endpoint", (Param("last", "count"),)),
)

#: The public endpoint list (rendered into listings and 404 bodies).
ENDPOINTS = tuple(route.path for route in ROUTES)

_EXACT_ROUTES = {route.path: route for route in ROUTES if not route.arg}
_ARG_ROUTES = tuple(route for route in ROUTES if route.arg)
#: What a path no route names matches: a 404, labelled ``<other>``.
_NO_ROUTE = Route("<other>", "")


def match_route(path: str) -> tuple[Route, str]:
    """The route a path names and its ``<arg>``, ignoring one trailing slash."""
    route = _EXACT_ROUTES.get(path.removesuffix("/"))
    if route is not None:
        return route, ""
    for route in _ARG_ROUTES:
        if path.startswith(route.prefix):
            return route, path[len(route.prefix):].removesuffix("/")
    return _NO_ROUTE, ""


def endpoint_label(path: str) -> str:
    """The ``endpoint`` label :meth:`ArtifactService.handle` records for a path:
    its route's, so the label space stays bounded (no series per typo'd URL)."""
    return match_route(path)[0].path


def parse_query(
    route: Route, query: str, base: StudyConfig
) -> tuple[dict[str, Any], StudyConfig]:
    """A route's query as typed handler arguments and the effective config.

    The config is ``base`` with the scale preset, then the explicit
    overrides applied, whatever their order.  An undeclared, repeated or
    ill-typed parameter, or a config :class:`StudyConfig` rejects, is a
    400 :class:`ServiceError`.
    """
    values = {param.name: param.default for param in route.params}
    if not query:
        return values, base
    overrides: dict[str, int] = {}
    seen: set[str] = set()
    for name, raw in parse_qsl(query, keep_blank_values=True):
        param = route.declared.get(name)
        if param is None:
            close = difflib.get_close_matches(name, route.declared, n=3, cutoff=0.5)
            raise _refuse(
                400, f"unknown parameter {name!r}", known=list(route.declared),
                did_you_mean=close or None,
            )
        if name in seen:
            raise _refuse(400, f"parameter {name!r} is repeated")
        seen.add(name)
        value = param.parse(raw)
        if name == "scale":
            preset = SCALE_PRESETS[value]
            overrides = {"days": preset.days, "sites": preset.sites, **overrides}
        elif param.kind == "int":
            overrides[name] = value
        else:
            values[name] = value
    try:
        return values, base.replace(**overrides) if overrides else base
    except ValueError as exc:
        raise _refuse(400, str(exc)) from None


@dataclass(frozen=True)
class _Encoded:
    """One cacheable response body: canonical JSON, ETag, gzip twin.

    ``document`` is what a JSON body was encoded from; a view derives from
    it instead of decoding ``body`` again, and it takes no part in
    comparisons.  ``stale`` marks a last-known-good document served
    because the builder is degraded: it carries a ``Warning`` header, is
    never hot-cached, and never ETag-revalidates (a later fresh render
    must win).  ``cache=False`` marks an inherently uncacheable body
    (``/metrics``, ``/v1/trace``: every scrape is a new observation) --
    no ETag, no revalidation.
    """

    body: bytes
    etag: str
    stale: bool = False
    content_type: str = "application/json; charset=utf-8"
    cache: bool = True
    document: Any = field(default=None, compare=False, repr=False)

    @property
    def gzipped(self) -> bytes | None:
        """The gzip twin, compressed the first time a client asks for it
        (``None`` below :data:`MIN_GZIP_BYTES`).

        Kept in the instance dict with no lock (``functools.cached_property``
        holds one lock for every instance on 3.11, so one thread's first
        compress would wait on another's): two threads racing on the same
        body each compress it, and the first result stays."""
        if len(self.body) < MIN_GZIP_BYTES:
            return None
        twin = self.__dict__.get("_gzipped")
        if twin is None:
            twin = gzip.compress(self.body, compresslevel=6, mtime=0)
            twin = self.__dict__.setdefault("_gzipped", twin)
        return twin

    @classmethod
    def from_document(cls, document: dict, stale: bool = False) -> "_Encoded":
        body = json.dumps(document, separators=(",", ":")).encode("utf-8")
        etag = f'"{hashlib.sha256(body).hexdigest()[:20]}"'
        return cls(body=body, etag=etag, stale=stale, document=document)

    @classmethod
    def from_text(cls, text: str, content_type: str) -> "_Encoded":
        """A non-JSON, never-cached body (the Prometheus exposition)."""
        return cls(
            body=text.encode("utf-8"),
            etag='"uncached"',
            content_type=content_type,
            cache=False,
        )


def etag_matches(if_none_match: str | None, etag: str) -> bool:
    """RFC 9110 ``If-None-Match`` comparison (weak tags compare equal)."""
    if not if_none_match:
        return False
    if if_none_match.strip() == "*":
        return True
    for candidate in if_none_match.split(","):
        candidate = candidate.strip()
        if candidate.startswith("W/"):
            candidate = candidate[2:]
        if candidate == etag:
            return True
    return False


@dataclass
class WarmerState:
    """Progress of the background warmer (reported by ``/healthz``)."""

    enabled: bool = True
    done: bool = False
    warmed: int = 0
    total: int = 0
    errors: list[str] = field(default_factory=list)


class ArtifactService:
    """Resolves API requests against one base configuration.

    Args:
        config: the default :class:`StudyConfig` requests resolve
            against; query parameters fork per-request copies.
        store: warehouse for layer payloads and rendered artifacts
            (``None`` uses the process-wide active store, which may
            itself be ``None`` -- the service then serves from memory
            only).
        hot_limit: max encoded responses kept in the in-memory cache.
        build_deadline_s: how long a request waits for the build lock
            (and how long a build may run before the breaker counts it
            as a failure).  ``None`` (default) waits indefinitely --
            the pre-degradation behaviour.
        max_build_queue: how many requests may queue on the build lock
            before new cold requests are shed (503 + ``Retry-After``,
            or stale if a last-known-good document exists).
    """

    def __init__(
        self,
        config: StudyConfig | None = None,
        store: Any = None,
        hot_limit: int = 512,
        build_deadline_s: float | None = None,
        max_build_queue: int = 8,
    ) -> None:
        from repro.observatory.vantage import build_vantage_fleet
        from repro.store.warehouse import active_store

        self.config = config if config is not None else StudyConfig()
        #: The ``config`` section of ``/healthz`` and the listing.
        self._config_document = jsonify(dataclasses.asdict(self.config))
        self.store = store if store is not None else active_store()
        self.hot_limit = hot_limit
        self.build_deadline_s = build_deadline_s
        self.max_build_queue = max_build_queue
        # replint: allow[REP001] serving telemetry (healthz uptime), never artifact data
        self.started_at = time.time()
        self.warmer = WarmerState()
        self._hot: OrderedDict[tuple, _Encoded] = OrderedDict()
        self._hot_lock = threading.Lock()
        self._build_lock = threading.Lock()
        # Last-known-good documents (per artifact+config), what serve-
        # stale degrades to; evicted LRU like the hot cache.
        self._good: OrderedDict[tuple, dict] = OrderedDict()
        self._breakers: dict[str, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        self._build_waiters = 0
        #: The contrast's rows: the vantage fleet's countries, sorted.
        self.countries = tuple(sorted({vantage.country for vantage in build_vantage_fleet()}))

    # -- request entry points ----------------------------------------------

    def handle(
        self,
        method: str,
        target: str,
        headers: dict[str, str] | None = None,
        hot_only: bool = False,
    ) -> Response | None:
        """Resolve one request; the single entry point of the service.

        ``hot_only=True`` is the event loop's fast path: it returns
        ``None`` instead of computing, so the caller can retry in an
        executor thread without ever blocking the loop on a build.

        Every completed request runs inside a ``serve:request`` span
        and lands in the request counters/histogram; a ``hot_only``
        probe that misses discards its span and counts no hot-cache miss
        (the executor retry records both), so a request is never
        double-counted.
        """
        headers = {k.lower(): v for k, v in (headers or {}).items()}
        try:
            split = urlsplit(target)
            path, query = unquote(split.path), split.query
        except ValueError:
            path, query = target, ""
        route, arg = match_route(path)
        with span("serve:request", method=method, endpoint=route.path) as req_span:
            response = self._handle(method, path, route, arg, query, headers, hot_only)
            if response is None:
                req_span.discard()
                return None  # hot_only miss: caller re-runs off-loop
            req_span.labels["status"] = str(response.status)
        _REQUESTS.inc(endpoint=route.path)
        _RESPONSES.inc(status=str(response.status))
        _REQUEST_SECONDS.observe(req_span.duration_s, endpoint=route.path)
        if response.status == 304:
            _NOT_MODIFIED.inc()
        return response

    def _handle(
        self, method: str, path: str, route: Route, arg: str, query: str,
        headers: dict[str, str], hot_only: bool,
    ) -> Response | None:
        try:
            if method not in ("GET", "HEAD"):
                raise _refuse(
                    405, f"method {method} not allowed; this API is read-only",
                    allow=["GET", "HEAD"],
                )
            if route is _NO_ROUTE:
                raise _refuse(404, f"unknown path {path!r}", endpoints=list(ENDPOINTS))
            arguments, config = parse_query(route, query, self.config)
            if route.arg:
                arguments[route.arg] = arg
            if route.config:
                arguments.update(config=config, hot_only=hot_only)
            encoded = getattr(self, route.handler)(**arguments)
            if encoded is None:
                return None  # hot_only miss: caller re-runs off-loop
        except ServiceError as error:
            encoded = _Encoded.from_document(error.payload)
            return self._respond(
                error.status, encoded, method, headers, cache=False,
                extra=error.headers,
            )
        except Exception as exc:  # never kill the connection on a bug
            encoded = _Encoded.from_document(
                {"error": f"internal error: {type(exc).__name__}: {exc}"}
            )
            return self._respond(500, encoded, method, headers, cache=False)
        return self._respond(
            200, encoded, method, headers,
            cache=encoded.cache and not encoded.stale,
        )

    def _respond(
        self,
        status: int,
        encoded: _Encoded,
        method: str,
        headers: dict[str, str],
        cache: bool,
        extra: tuple[tuple[str, str], ...] = (),
    ) -> Response:
        out: list[tuple[str, str]] = [
            ("Content-Type", encoded.content_type),
            ("Server", _server_version()),
            *extra,
        ]
        if encoded.stale:
            # RFC 9111 "Response is Stale": the body is a last-known-
            # good document, served because the builder is degraded.
            out.append(("Warning", '110 repro-serve "response is stale"'))
        if cache:
            out.append(("ETag", encoded.etag))
            out.append(("Cache-Control", "public, max-age=0, must-revalidate"))
            out.append(("Vary", "Accept-Encoding"))
            if etag_matches(headers.get("if-none-match"), encoded.etag):
                return Response(status=304, headers=tuple(out), body=b"")
        body = encoded.body
        twin = encoded.gzipped if "gzip" in headers.get("accept-encoding", "").lower() else None
        if twin is not None:
            out.append(("Content-Encoding", "gzip"))
            body = twin
        if method == "HEAD":
            out.append(("Content-Length", str(len(body))))
            body = b""
        return Response(status=status, headers=tuple(out), body=body)

    # -- endpoints ----------------------------------------------------------

    def health(self) -> dict:
        """The ``/healthz`` document (always computed fresh, never cached).

        ``status`` is ``"degraded"`` while any artifact's circuit
        breaker is not closed or the warmer hit errors; the
        ``resilience`` section carries the per-subsystem detail
        (breakers, retry counters, pool fallbacks/resubmissions, and
        how often this process degraded a serve, per mode).  Request and
        degraded counts are process-wide registry counts.
        """
        from repro.prof import build_peaks, process_document
        from repro.util.procpool import fallback_contexts, resubmitted_shards

        with self._hot_lock:
            hot = len(self._hot)
        with self._breaker_lock:
            breakers = {
                name: breaker.snapshot()
                for name, breaker in sorted(self._breakers.items())
            }
        degraded = bool(self.warmer.errors) or any(
            snapshot["state"] != "closed" for snapshot in breakers.values()
        )
        # The store's index (one manifest read) gives its gauges and the
        # store side of the per-layer memory breakdown; the heap side
        # comes from build_peak_bytes (populated only when memory
        # profiling ran).
        store_gauges = None
        store_layer_bytes: dict[str, int] = {}
        if self.store is not None:
            try:
                entries, total, indexed = self.store.refresh_gauges()
                store_gauges = {"entries": entries, "bytes": total}
                by_layer: dict[str, int] = {}
                for info in indexed.values():
                    if info.get("kind") == "layer":
                        name = info["name"]
                        by_layer[name] = by_layer.get(name, 0) + info.get("bytes", 0)
                store_layer_bytes = by_layer
            # Same contract as the /metrics scrape path: a health poll
            # must not fail over a damaged manifest; store verify/gc is
            # the repair surface.
            # replint: allow[REP007] health path: the store side simply stays empty
            except Exception:  # pragma: no cover - defensive
                pass
        heap_peaks = build_peaks()
        memory_breakdown = {
            layer: {
                "store_bytes": store_layer_bytes.get(layer),
                "build_peak_bytes": heap_peaks.get(layer),
            }
            for layer in sorted({*store_layer_bytes, *heap_peaks})
        }
        # replint: allow[REP001] serving telemetry (healthz uptime), never artifact data
        uptime_s = round(time.time() - self.started_at, 3)
        degraded_counts = dict(sorted(counts("serve_degraded_total").items()))
        return {
            "status": "degraded" if degraded else "ok",
            "uptime_s": uptime_s,
            "requests": sum(counts("serve_requests_total").values()),
            "artifacts": len(registry.names()),
            "hot_cache": hot,
            "store": str(self.store.root) if self.store is not None else None,
            "warmer": {
                "enabled": self.warmer.enabled,
                "done": self.warmer.done,
                "warmed": self.warmer.warmed,
                "total": self.warmer.total,
            },
            "resilience": {
                "breakers": breakers,
                "build_deadline_s": self.build_deadline_s,
                "max_build_queue": self.max_build_queue,
                "counts": degraded_counts,
                "retry_counts": dict(sorted(counts("retries_total").items())),
                "pool": {
                    "fallback_contexts": list(fallback_contexts()),
                    "resubmitted_shards": [
                        list(item) for item in resubmitted_shards()
                    ],
                },
            },
            "process": {**process_document(), "uptime_s": uptime_s},
            "memory": memory_breakdown,
            "telemetry": {
                "degraded_total": degraded_counts,
                "write_behind_failures": int(_WRITE_BEHIND_FAILURES.value()),
                "store_gauges": store_gauges,
                "metrics": "/metrics",
                "trace": "/v1/trace",
                "profile": "/v1/profile",
            },
            "config": self._config_document,
        }

    def _healthz(self) -> _Encoded:
        return _Encoded.from_document(self.health())

    def _metrics_endpoint(self) -> _Encoded:
        """``GET /metrics``: the whole registry, Prometheus text format."""
        from repro.prof import refresh_process_gauges

        refresh_process_gauges()
        with self._hot_lock:
            _HOT_ENTRIES.set(len(self._hot))
        if self.store is not None:
            try:
                self.store.refresh_gauges()
            # A scrape must not fail (or warn on every poll) over a
            # damaged manifest; store verify/gc is the repair surface
            # and the stale gauge values are themselves the signal.
            # replint: allow[REP007] scrape path: gauges simply stay at their last values
            except Exception:  # pragma: no cover - defensive
                pass
        return _Encoded.from_text(
            _metrics_registry().render_prometheus(),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    def _trace_endpoint(self, last: int | None) -> _Encoded:
        """``GET /v1/trace?last=N``: recent request/build span trees."""
        spans = recent_spans(last)
        document = {
            "last": last,
            "count": len(spans),
            "spans": [span_tree(node) for node in spans],
        }
        return dataclasses.replace(_Encoded.from_document(document), cache=False)

    def _profile_endpoint(
        self, span: str | None, format: str, last: int | None
    ) -> _Encoded:
        """``GET /v1/profile?span=<pattern>&format=...&last=N``.

        The span-profiling surface: every recent span carrying a
        cProfile capture (the server must run with profiling enabled
        -- ``repro serve --profile`` -- or nothing matches and the
        empty document is the valid answer).  ``format=tree`` (default)
        returns the compact call-tree documents; ``format=speedscope``
        returns one speedscope file ready to load in the UI.  Always
        uncacheable: every request observes the live span ring.
        """
        from repro.prof import (
            profile_entries,
            profiled_spans,
            profiling_enabled,
            speedscope_document,
        )

        captured = profiled_spans(recent_spans(last), span)
        if format == "speedscope":
            document = speedscope_document(
                [(node.name, node.profile) for node in captured]
            )
        else:
            config = profiling_enabled()
            document = {
                "span": span,
                "last": last,
                "count": len(captured),
                "profiling": {
                    "enabled": config is not None,
                    "spans": list(config.spans) if config is not None else [],
                },
                "profiles": profile_entries(captured),
            }
        return dataclasses.replace(_Encoded.from_document(document), cache=False)

    def _listing(self) -> _Encoded:
        key = ("listing",)
        hit = self._hot_get(key)
        if hit is not None:
            return hit
        document = {
            "endpoints": list(ENDPOINTS),
            "config": self._config_document,
            "artifacts": [
                {
                    "name": spec.name,
                    "title": spec.title,
                    "needs": sorted(spec.needs),
                    "paper": spec.paper,
                    "description": spec.description,
                    "href": f"/v1/artifact/{spec.name}",
                }
                for spec in registry.specs()
            ],
        }
        return self._hot_put(key, _Encoded.from_document(document))

    def _artifact(
        self, name: str, config: StudyConfig, hot_only: bool
    ) -> _Encoded | None:
        if not name or "/" in name:
            raise _refuse(404, f"bad artifact path {name!r}", endpoints=list(ENDPOINTS))
        if name not in registry.names():
            raise _refuse(
                404, f"unknown artifact {name!r}",
                did_you_mean=registry.suggest(name) or None, see="/v1/artifacts",
            )
        return self._view(("artifact", name), name, config, hot_only)

    def _contrast(
        self, country: str, config: StudyConfig, hot_only: bool
    ) -> _Encoded | None:
        code = country.strip().upper()
        if code not in self.countries:
            close = difflib.get_close_matches(code, self.countries, n=3, cutoff=0.3)
            raise _refuse(
                404, f"unknown country {country!r}", countries=self.countries,
                did_you_mean=close or None,
            )

        def country_row(rows: list[dict]) -> tuple[dict, dict]:
            [row] = [row for row in rows if row["country"] == code]
            return {"country": code}, {"row": row}

        return self._view(("contrast", code), "contrast", config, hot_only, country_row)

    def _events(
        self, since: int, country: str | None, min_severity: str,
        config: StudyConfig, hot_only: bool,
    ) -> _Encoded | None:
        """``GET /v1/events``: a filtered view of ``sentinel_events``; an
        empty ``events`` list is a valid 200 ("silence is valid data")."""
        code = country.strip().upper() if country is not None else None

        def feed(rows: list[dict]) -> tuple[dict, dict]:
            events = [
                row for row in rows
                if keeps_event(row["day"], row["scope"], row["severity"], since, code, min_severity)
            ]
            head = {"since": since, "country": code, "min_severity": min_severity}
            return {**head, "count": len(events)}, {"events": events}

        key = ("events", since, code, min_severity)
        return self._view(key, "sentinel_events", config, hot_only, feed)

    # -- resolution helpers -------------------------------------------------

    def _view(
        self, key: tuple, artifact: str, config: StudyConfig, hot_only: bool,
        derive: Callable[[list[dict]], tuple[dict, dict]] | None = None,
    ) -> _Encoded | None:
        """An artifact, or the head and body fields ``derive`` takes from its
        rows, framed by its config, columns and metadata.  Hot-cached under
        ``key`` plus the config's result key.

        A view that misses derives from its parent artifact's hot entry
        when there is one (on this thread, ``hot_only`` included: the
        work is bounded by the parent's rows).  Otherwise the parent
        renders off-loop and, if fresh, enters the hot cache itself; a
        stale render's view stays marked stale, and uncached."""
        key = (*key, config.result_key)
        hit = self._hot_lookup(key)
        if hit is not None:
            _HOT_HITS.inc()
            return hit
        parent_key = ("artifact", artifact, config.result_key)
        parent = self._hot_lookup(parent_key) if derive is not None else None
        if parent is None and hot_only:
            return None  # rendering may build; the off-loop retry counts the miss
        _HOT_MISSES.inc()
        if parent is None:
            parent = self._render_artifact(artifact, config)
            if not parent.stale:
                self._hot_put(parent_key, parent)
        if derive is None:
            return parent
        full = parent.document
        head, body = derive(full["rows"])
        document = {
            **head, "config": full["config"], "columns": full["columns"], **body,
            "metadata": full["metadata"], "source": f"/v1/artifact/{artifact}",
        }
        if parent.stale:
            document["degraded"] = full.get("degraded", {"stale": True})
            return _Encoded.from_document(document, stale=True)  # never hot-cached
        return self._hot_put(key, _Encoded.from_document(document))

    def _render_artifact(self, name: str, config: StudyConfig) -> _Encoded:
        """Warehouse -> compute: the slow tiers of the artifact path.

        Store reads run under the shared retry policy (a disk hiccup is
        not an outage); a corrupt entry stays a miss and recomputes.
        The compute tier degrades instead of queueing forever: see
        :meth:`_build_fresh`.
        """
        from repro.resilience.retry import STORE_POLICY, call_with_retry
        from repro.store.warehouse import StoreReadError, artifact_key

        good_key = (name, config.result_key)
        store_key = artifact_key(config, name) if self.store is not None else None
        if self.store is not None:
            try:
                document = call_with_retry(
                    lambda: self.store.load_artifact(name, store_key),
                    label=f"serve:{name}",
                    policy=STORE_POLICY,
                    retryable=(StoreReadError, OSError),
                )
            except Exception:
                # A corrupt warehouse entry is a miss, not an outage --
                # recompute and serve (the same degrade-to-rebuild
                # contract the session's layer tier has); `store gc`
                # is the repair path for the damaged entry itself.
                document = None
            if document is not None:
                self._remember_good(good_key, document)
                return _Encoded.from_document(document)
        return self._build_fresh(name, config, good_key, store_key)

    def _build_fresh(
        self, name: str, config: StudyConfig, good_key: tuple, store_key: Any
    ) -> _Encoded:
        """The compute tier, degraded gracefully under pressure.

        In order: an open circuit breaker or a saturated build queue
        degrades immediately (stale if we have it, 503 + ``Retry-After``
        if not); a build-lock wait longer than ``build_deadline_s``
        degrades too.  A build that *fails* trips the breaker and
        degrades; a build that finishes but blew the deadline serves
        fresh -- the work is done -- while still counting against the
        breaker so sustained slowness eventually sheds instead of
        queueing.
        """
        breaker = self._breaker(name)
        if not breaker.allow():
            _DEGRADED.inc(mode="breaker_open")
            return self._degrade(
                name, good_key, "circuit breaker open",
                retry_after=breaker.reset_after_s,
            )
        with self._breaker_lock:
            if self._build_waiters >= self.max_build_queue:
                return self._degrade(
                    name, good_key, "build queue saturated", retry_after=1.0
                )
            self._build_waiters += 1
        acquired = False
        try:
            timeout = -1 if self.build_deadline_s is None else self.build_deadline_s
            acquired = self._build_lock.acquire(timeout=timeout)
            if not acquired:
                breaker.record_failure()
                return self._degrade(
                    name, good_key, "cold-build deadline exceeded",
                    retry_after=self.build_deadline_s or 1.0,
                )
            started = time.monotonic()
            try:
                fault_hook("slow-build", name)
                fault_hook("build-error", name)
                document = artifact_document(Study(config), name)
            except ServiceError:
                raise  # request-shaped failures are not builder health
            except Exception as exc:
                breaker.record_failure()
                stale = self._recall_good(good_key)
                if stale is None:
                    raise
                return self._stale_encoded(stale, f"build failed: {exc}")
            elapsed = time.monotonic() - started
            if self.build_deadline_s is not None and elapsed > self.build_deadline_s:
                _DEGRADED.inc(mode="slow_build")
                breaker.record_failure()
            else:
                breaker.record_success()
        finally:
            if acquired:
                self._build_lock.release()
            with self._breaker_lock:
                self._build_waiters -= 1
        self._remember_good(good_key, document)
        if self.store is not None:
            try:
                self.store.save_artifact(name, store_key, document)
            except Exception as exc:
                # Write-behind is best-effort -- the fresh render still
                # serves -- but the degradation must leave a trace.
                import warnings

                _WRITE_BEHIND_FAILURES.inc()
                warnings.warn(
                    f"serve: could not persist artifact {name!r} ({exc}); "
                    "serving the render without write-behind",
                    RuntimeWarning,
                )
        return _Encoded.from_document(document)

    # -- degradation helpers --------------------------------------------------

    def _breaker(self, name: str) -> CircuitBreaker:
        """This artifact's circuit breaker (created closed on first use)."""
        with self._breaker_lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = self._breakers[name] = CircuitBreaker(
                    failure_threshold=3,
                    reset_after_s=self.build_deadline_s or 5.0,
                )
            return breaker

    def _degrade(
        self, name: str, good_key: tuple, reason: str, retry_after: float
    ) -> _Encoded:
        """Serve stale if we can; shed (503 + ``Retry-After``) if we cannot."""
        stale = self._recall_good(good_key)
        if stale is not None:
            return self._stale_encoded(stale, reason)
        _DEGRADED.inc(mode="shed")
        raise ServiceError(
            503,
            {
                "error": f"artifact {name!r} temporarily unavailable: {reason}",
                "retry_after_s": retry_after,
            },
            headers=(("Retry-After", str(max(1, round(retry_after)))),),
        )

    def _stale_encoded(self, document: dict, reason: str) -> _Encoded:
        _DEGRADED.inc(mode="stale")
        marked = {**document, "degraded": {"stale": True, "reason": reason}}
        return _Encoded.from_document(marked, stale=True)

    def _remember_good(self, key: tuple, document: dict) -> None:
        with self._hot_lock:
            self._good[key] = document
            self._good.move_to_end(key)
            while len(self._good) > self.hot_limit:
                self._good.popitem(last=False)

    def _recall_good(self, key: tuple) -> dict | None:
        with self._hot_lock:
            return self._good.get(key)

    def drop_hot(self) -> int:
        """Evict the whole hot cache (drill/test hook); last-known-good stays.

        Forces the next request of every artifact back through the
        warehouse/compute tiers, which is how the chaos drill makes
        store faults actually fire instead of being absorbed by the
        hot tier.
        """
        with self._hot_lock:
            dropped = len(self._hot)
            self._hot.clear()
        return dropped

    def _hot_get(self, key: tuple) -> _Encoded | None:
        """A request's hot-cache probe: counts one hit or one miss."""
        encoded = self._hot_lookup(key)
        if encoded is not None:
            _HOT_HITS.inc()
        else:
            _HOT_MISSES.inc()
        return encoded

    def _hot_lookup(self, key: tuple) -> _Encoded | None:
        """The hot entry under ``key``, refreshed in the LRU order; uncounted."""
        with self._hot_lock:
            encoded = self._hot.get(key)
            if encoded is not None:
                self._hot.move_to_end(key)
        return encoded

    def _hot_put(self, key: tuple, encoded: _Encoded) -> _Encoded:
        with self._hot_lock:
            self._hot[key] = encoded
            self._hot.move_to_end(key)
            while len(self._hot) > self.hot_limit:
                self._hot.popitem(last=False)
            _HOT_ENTRIES.set(len(self._hot))
        return encoded

    # -- the warmer ----------------------------------------------------------

    def warm(self, names: Iterable[str] | None = None) -> int:
        """Precompute (or load from the warehouse) the default artifact set.

        Runs synchronously; the HTTP front end calls it from an executor
        thread at startup so the server answers ``/healthz`` immediately
        and artifact requests as they become warm.  Returns the number
        of artifacts now hot.
        """
        wanted = list(names) if names is not None else registry.names()
        self.warmer.total = len(wanted)
        for name in wanted:
            try:
                self._artifact(name, self.config, hot_only=False)
                self.warmer.warmed += 1
            except Exception as exc:  # pragma: no cover - defensive
                self.warmer.errors.append(f"{name}: {exc}")
        self.warmer.done = True
        return self.warmer.warmed
