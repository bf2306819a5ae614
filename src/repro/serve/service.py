"""The serving core: HTTP-shaped request resolution, no sockets.

:class:`ArtifactService` maps read-only API requests onto the artifact
registry, the :class:`~repro.api.session.Study` session, and the
warehouse::

    GET /healthz                      liveness + cache/warmer state
    GET /v1/artifacts                 the registry listing (names, layers)
    GET /v1/artifact/<name>?days=7    one rendered artifact as JSON
    GET /v1/contrast/<country>        one country's three-way contrast row

Responses are canonical JSON bytes with a strong ``ETag`` derived from
the content digest; ``If-None-Match`` revalidation returns ``304``, and
bodies compress with gzip when the client accepts it.  Resolution is a
three-tier read: an in-memory **hot cache** of encoded responses, then
the warehouse's rendered-artifact entries, then an actual compute
through the session (which itself reads through the warehouse for layer
payloads and writes freshly rendered artifacts behind).

The class is deliberately socket-free -- the asyncio front end
(:mod:`repro.serve.http`) calls :meth:`handle`, and tests can drive the
full semantics (routing, ETags, gzip, error suggestions) without a
server.  Everything here is thread-safe: the hot path takes no locks
and computes serialize behind one build lock, so the event loop can
answer cached requests while an executor thread renders a cold one.
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Iterable
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.api import Study, StudyConfig, jsonify, registry
from repro.api.session import _WRITE_BEHIND_FAILURES
from repro.datasets.scenarios import SCALE_PRESETS
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import fault_hook
from repro.telemetry import (
    counts,
    recent_spans,
    registry as _metrics_registry,
    span,
    span_tree,
)

#: Config fields a request may override via query parameters -- the
#: same set the CLI's ``name@key=value`` overrides accept.
QUERY_OVERRIDES = (
    "days",
    "sites",
    "seed",
    "link_clicks",
    "probe_targets",
    "probe_interval_days",
)

#: Bodies below this size are served identity-encoded even to
#: gzip-accepting clients (the header overhead would exceed the win).
MIN_GZIP_BYTES = 256

#: The public endpoint table (rendered into listings and 404 bodies).
ENDPOINTS = (
    "/healthz",
    "/metrics",
    "/v1/artifacts",
    "/v1/artifact/<name>",
    "/v1/contrast/<country>",
    "/v1/events",
    "/v1/profile",
    "/v1/trace",
)

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


def endpoint_label(path: str) -> str:
    """Collapse a request path onto its endpoint family (metric label).

    Raw paths would explode the ``serve_requests_total`` label space
    (every artifact name, every typo'd URL its own series); the label
    is the route, not the route's argument.
    """
    if path in ("/healthz", "/health"):
        return "/healthz"
    if path == "/metrics":
        return "/metrics"
    if path in ("/v1/artifacts", "/v1/artifacts/"):
        return "/v1/artifacts"
    if path.startswith("/v1/artifact/"):
        return "/v1/artifact/<name>"
    if path.startswith("/v1/contrast/"):
        return "/v1/contrast/<country>"
    if path in ("/v1/events", "/v1/events/"):
        return "/v1/events"
    if path in ("/v1/profile", "/v1/profile/"):
        return "/v1/profile"
    if path in ("/v1/trace", "/v1/trace/"):
        return "/v1/trace"
    return "<other>"


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


@dataclass(frozen=True)
class _Encoded:
    """One cacheable response body: canonical JSON, gzip twin, ETag.

    ``stale`` marks a last-known-good document served because the
    builder is degraded: it carries a ``Warning`` header, is never hot-
    cached, and never ETag-revalidates (a later fresh render must win).
    ``cache=False`` marks an inherently uncacheable body (``/metrics``,
    ``/v1/trace``: every scrape is a new observation) -- no ETag, no
    revalidation.
    """

    body: bytes
    gzipped: bytes | None
    etag: str
    stale: bool = False
    content_type: str = "application/json; charset=utf-8"
    cache: bool = True

    @classmethod
    def from_document(cls, document: dict) -> "_Encoded":
        body = json.dumps(document, separators=(",", ":")).encode("utf-8")
        etag = f'"{hashlib.sha256(body).hexdigest()[:20]}"'
        gzipped = (
            gzip.compress(body, compresslevel=6, mtime=0)
            if len(body) >= MIN_GZIP_BYTES
            else None
        )
        return cls(body=body, gzipped=gzipped, etag=etag)

    @classmethod
    def from_text(cls, text: str, content_type: str) -> "_Encoded":
        """A non-JSON, never-cached body (the Prometheus exposition)."""
        body = text.encode("utf-8")
        gzipped = (
            gzip.compress(body, compresslevel=6, mtime=0)
            if len(body) >= MIN_GZIP_BYTES
            else None
        )
        return cls(
            body=body,
            gzipped=gzipped,
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
        from repro.store.warehouse import active_store

        self.config = config if config is not None else StudyConfig()
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
        probe that misses discards its span (the executor retry records
        the real one), so a request is never double-counted.
        """
        headers = {k.lower(): v for k, v in (headers or {}).items()}
        try:
            split = urlsplit(target)
            path, query = unquote(split.path), split.query
        except ValueError:
            path, query = target, ""
        endpoint = endpoint_label(path)
        with span("serve:request", method=method, endpoint=endpoint) as req_span:
            response = self._handle(method, path, query, headers, hot_only)
            if response is None:
                req_span.discard()
                return None  # hot_only miss: caller re-runs off-loop
            req_span.labels["status"] = str(response.status)
        _REQUESTS.inc(endpoint=endpoint)
        _RESPONSES.inc(status=str(response.status))
        _REQUEST_SECONDS.observe(req_span.duration_s, endpoint=endpoint)
        if response.status == 304:
            _NOT_MODIFIED.inc()
        return response

    def _handle(
        self,
        method: str,
        path: str,
        query: str,
        headers: dict[str, str],
        hot_only: bool,
    ) -> Response | None:
        try:
            if method not in ("GET", "HEAD"):
                raise ServiceError(
                    405,
                    {
                        "error": f"method {method} not allowed; this API is read-only",
                        "allow": ["GET", "HEAD"],
                    },
                )
            encoded = self._resolve(path, query, hot_only)
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

    def _resolve(self, path: str, query: str, hot_only: bool) -> _Encoded | None:
        if path in ("/healthz", "/health"):
            return _Encoded.from_document(self.health())
        if path == "/metrics":
            return self._metrics_endpoint(query)
        if path in ("/v1/trace", "/v1/trace/"):
            return self._trace_endpoint(query)
        if path in ("/v1/profile", "/v1/profile/"):
            return self._profile_endpoint(query)
        if path in ("/v1/artifacts", "/v1/artifacts/"):
            return self._listing()
        if path.startswith("/v1/artifact/"):
            name = path[len("/v1/artifact/"):]
            return self._artifact(name, query, hot_only)
        if path.startswith("/v1/contrast/"):
            country = path[len("/v1/contrast/"):]
            return self._contrast(country, query, hot_only)
        if path in ("/v1/events", "/v1/events/"):
            return self._events(query, hot_only)
        raise ServiceError(
            404,
            {"error": f"unknown path {path!r}", "endpoints": list(ENDPOINTS)},
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
        if (
            encoded.gzipped is not None
            and "gzip" in headers.get("accept-encoding", "").lower()
        ):
            out.append(("Content-Encoding", "gzip"))
            body = encoded.gzipped
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
        store_gauges = None
        if self.store is not None:
            try:
                entries, size = self.store.refresh_gauges()
                store_gauges = {"entries": entries, "bytes": size}
            # Same contract as the /metrics scrape path: a health poll
            # must not fail over a damaged manifest; store verify/gc is
            # the repair surface.
            # replint: allow[REP007] health path: gauges simply stay at their last values
            except Exception:  # pragma: no cover - defensive
                pass
        # Per-layer bytes on disk vs peak heap while building: the
        # store side comes from the warehouse index, the heap side from
        # build_peak_bytes (populated only when memory profiling ran).
        store_layer_bytes: dict[str, int] = {}
        if self.store is not None:
            try:
                for entry in self.store.entries():
                    if entry.kind == "layer":
                        store_layer_bytes[entry.name] = (
                            store_layer_bytes.get(entry.name, 0)
                            + entry.total_bytes
                        )
            # replint: allow[REP007] health path: the breakdown simply omits the store side
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
            "config": jsonify(dataclasses.asdict(self.config)),
        }

    def _metrics_endpoint(self, query: str) -> _Encoded:
        """``GET /metrics``: the whole registry, Prometheus text format."""
        if query:
            raise ServiceError(400, {"error": "/metrics takes no parameters"})
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

    def _trace_endpoint(self, query: str) -> _Encoded:
        """``GET /v1/trace?last=N``: recent request/build span trees."""
        last: int | None = None
        for param, raw in parse_qsl(query, keep_blank_values=True):
            if param != "last":
                raise ServiceError(
                    400,
                    {"error": f"unknown parameter {param!r}", "known": ["last"]},
                )
            try:
                last = int(raw)
            except ValueError:
                raise ServiceError(
                    400,
                    {"error": f"parameter 'last' needs an integer, got {raw!r}"},
                ) from None
            if last < 0:
                raise ServiceError(400, {"error": "'last' must be >= 0"})
        spans = recent_spans(last)
        document = {
            "last": last,
            "count": len(spans),
            "spans": [span_tree(node) for node in spans],
        }
        return dataclasses.replace(_Encoded.from_document(document), cache=False)

    def _profile_endpoint(self, query: str) -> _Encoded:
        """``GET /v1/profile?span=<pattern>&format=...&last=N``.

        The span-profiling surface: every recent span carrying a
        cProfile capture (the server must run with profiling enabled
        -- ``repro serve --profile`` -- or nothing matches and the
        empty document is the valid answer).  ``format=tree`` (default)
        returns the compact call-tree documents; ``format=speedscope``
        returns one speedscope file ready to load in the UI.  Always
        uncacheable: every request observes the live span ring.
        """
        from repro.prof import profiled_spans, profiling_enabled, speedscope_document

        span_filter: str | None = None
        fmt = "tree"
        last: int | None = None
        for param, raw in parse_qsl(query, keep_blank_values=True):
            if param == "span":
                if not raw:
                    raise ServiceError(
                        400, {"error": "parameter 'span' must not be empty"}
                    )
                span_filter = raw
            elif param == "format":
                if raw not in ("tree", "speedscope"):
                    raise ServiceError(
                        400,
                        {
                            "error": f"unknown format {raw!r}",
                            "known": ["tree", "speedscope"],
                        },
                    )
                fmt = raw
            elif param == "last":
                try:
                    last = int(raw)
                except ValueError:
                    raise ServiceError(
                        400,
                        {"error": f"parameter 'last' needs an integer, got {raw!r}"},
                    ) from None
                if last < 0:
                    raise ServiceError(400, {"error": "'last' must be >= 0"})
            else:
                raise ServiceError(
                    400,
                    {
                        "error": f"unknown parameter {param!r}",
                        "known": ["span", "format", "last"],
                    },
                )
        captured = profiled_spans(recent_spans(last), span_filter)
        if fmt == "speedscope":
            document = speedscope_document(
                [(node.name, node.profile) for node in captured]
            )
        else:
            config = profiling_enabled()
            document = {
                "span": span_filter,
                "last": last,
                "count": len(captured),
                "profiling": {
                    "enabled": config is not None,
                    "spans": list(config.spans) if config is not None else [],
                },
                "profiles": [
                    {
                        "span": node.name,
                        "labels": dict(sorted(node.labels.items())),
                        "duration_ms": round(node.duration_s * 1000.0, 3),
                        "peak_bytes": node.peak_bytes,
                        "profile": node.profile,
                    }
                    for node in captured
                ],
            }
        return dataclasses.replace(_Encoded.from_document(document), cache=False)

    def _listing(self) -> _Encoded:
        key = ("listing",)
        hit = self._hot_get(key)
        if hit is not None:
            return hit
        document = {
            "endpoints": list(ENDPOINTS),
            "config": jsonify(dataclasses.asdict(self.config)),
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

    def _artifact(self, name: str, query: str, hot_only: bool) -> _Encoded | None:
        if not name or "/" in name:
            raise ServiceError(
                404,
                {"error": f"bad artifact path {name!r}", "endpoints": list(ENDPOINTS)},
            )
        if name not in registry.names():
            close = registry.suggest(name)
            payload: dict[str, Any] = {"error": f"unknown artifact {name!r}"}
            if close:
                payload["did_you_mean"] = close
            payload["see"] = "/v1/artifacts"
            raise ServiceError(404, payload)
        config = self._config_from_query(query)
        key = ("artifact", name, config.result_key)
        hit = self._hot_get(key)
        if hit is not None:
            return hit
        if hot_only:
            return None
        encoded = self._render_artifact(name, config)
        if encoded.stale:
            return encoded  # never hot-cache a degraded body
        return self._hot_put(key, encoded)

    def _contrast(self, country: str, query: str, hot_only: bool) -> _Encoded | None:
        config = self._config_from_query(query)
        code = country.strip().upper()
        key = ("contrast", code, config.result_key)
        hit = self._hot_get(key)
        if hit is not None:
            return hit
        if hot_only:
            return None  # rendering the contrast may build; go off-loop
        contrast = self._render_artifact("contrast", config)
        full = json.loads(contrast.body.decode("utf-8"))
        rows = {row["country"]: row for row in full["rows"]}
        if code not in rows:
            import difflib

            close = difflib.get_close_matches(code, sorted(rows), n=3, cutoff=0.3)
            payload: dict[str, Any] = {
                "error": f"unknown country {country!r}",
                "countries": sorted(rows),
            }
            if close:
                payload["did_you_mean"] = close
            raise ServiceError(404, payload)
        document = {
            "country": code,
            "config": full["config"],
            "columns": full["columns"],
            "row": rows[code],
            "metadata": full["metadata"],
            "source": "/v1/artifact/contrast",
        }
        if contrast.stale:
            # Derived from a stale full table: stays marked, stays uncached.
            document["degraded"] = full.get("degraded", {"stale": True})
            return dataclasses.replace(_Encoded.from_document(document), stale=True)
        return self._hot_put(key, _Encoded.from_document(document))

    def _events(self, query: str, hot_only: bool) -> _Encoded | None:
        """``GET /v1/events?since=<day>&country=<CC>&min_severity=<s>``.

        A filtered view over the ``sentinel_events`` artifact, so it
        inherits the warehouse/compute tiers and the degraded path; an
        empty ``events`` list is a valid 200 ("silence is valid data").
        All three filter parameters are validated to 400s -- bad input
        must never surface as a 500 from ``int()``.
        """
        from urllib.parse import urlencode

        from repro.sentinel.config import SEVERITIES, severity_rank

        since = 0
        country: str | None = None
        min_severity = SEVERITIES[0]
        scale_pairs: list[tuple[str, str]] = []
        for param, raw in parse_qsl(query, keep_blank_values=True):
            if param == "since":
                try:
                    since = int(raw)
                except ValueError:
                    raise ServiceError(
                        400,
                        {"error": f"parameter 'since' needs an integer, got {raw!r}"},
                    ) from None
                if since < 0:
                    raise ServiceError(400, {"error": "'since' must be >= 0"})
            elif param == "country":
                country = raw.strip().upper()
                if not country:
                    raise ServiceError(
                        400, {"error": "parameter 'country' must not be empty"}
                    )
            elif param == "min_severity":
                if raw not in SEVERITIES:
                    raise ServiceError(
                        400,
                        {
                            "error": f"unknown severity {raw!r}",
                            "known": list(SEVERITIES),
                        },
                    )
                min_severity = raw
            else:
                # Scale/override parameters fall through to the shared
                # config parser, which 400s anything it doesn't know.
                scale_pairs.append((param, raw))
        config = self._config_from_query(urlencode(scale_pairs))
        key = ("events", since, country, min_severity, config.result_key)
        hit = self._hot_get(key)
        if hit is not None:
            return hit
        if hot_only:
            return None  # rendering the feed may build; go off-loop
        full_encoded = self._render_artifact("sentinel_events", config)
        full = json.loads(full_encoded.body.decode("utf-8"))
        min_rank = severity_rank(min_severity)
        events = [
            row
            for row in full["rows"]
            if row["day"] >= since
            and (country is None or row["scope"] == country)
            and severity_rank(row["severity"]) >= min_rank
        ]
        document = {
            "since": since,
            "country": country,
            "min_severity": min_severity,
            "count": len(events),
            "config": full["config"],
            "columns": full["columns"],
            "events": events,
            "metadata": full["metadata"],
            "source": "/v1/artifact/sentinel_events",
        }
        if full_encoded.stale:
            # Derived from a stale feed: stays marked, stays uncached.
            document["degraded"] = full.get("degraded", {"stale": True})
            return dataclasses.replace(_Encoded.from_document(document), stale=True)
        return self._hot_put(key, _Encoded.from_document(document))

    # -- resolution helpers -------------------------------------------------

    def _config_from_query(self, query: str) -> StudyConfig:
        """The request's effective config: base + scale preset + overrides."""
        if not query:
            return self.config
        overrides: dict[str, int] = {}
        config = self.config
        for param, raw in parse_qsl(query, keep_blank_values=True):
            if param == "scale":
                if raw not in SCALE_PRESETS:
                    raise ServiceError(
                        400,
                        {
                            "error": f"unknown scale {raw!r}",
                            "known": sorted(SCALE_PRESETS),
                        },
                    )
                preset = SCALE_PRESETS[raw]
                overrides.setdefault("days", preset.days)
                overrides.setdefault("sites", preset.sites)
                continue
            if param not in QUERY_OVERRIDES:
                import difflib

                close = difflib.get_close_matches(
                    param, [*QUERY_OVERRIDES, "scale"], n=3, cutoff=0.5
                )
                payload: dict[str, Any] = {
                    "error": f"unknown parameter {param!r}",
                    "known": ["scale", *QUERY_OVERRIDES],
                }
                if close:
                    payload["did_you_mean"] = close
                raise ServiceError(400, payload)
            try:
                overrides[param] = int(raw)
            except ValueError:
                raise ServiceError(
                    400,
                    {"error": f"parameter {param!r} needs an integer, got {raw!r}"},
                ) from None
        if overrides:
            try:
                config = config.replace(**overrides)
            except ValueError as exc:
                raise ServiceError(400, {"error": str(exc)}) from None
        return config

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
        return dataclasses.replace(_Encoded.from_document(marked), stale=True)

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
        with self._hot_lock:
            encoded = self._hot.get(key)
            if encoded is not None:
                self._hot.move_to_end(key)
        if encoded is not None:
            _HOT_HITS.inc()
        else:
            _HOT_MISSES.inc()
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
                self._artifact(name, "", hot_only=False)
                self.warmer.warmed += 1
            except Exception as exc:  # pragma: no cover - defensive
                self.warmer.errors.append(f"{name}: {exc}")
        self.warmer.done = True
        return self.warmer.warmed
