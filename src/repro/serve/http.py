"""The asyncio HTTP/1.1 front end over :class:`ArtifactService`.

Pure stdlib (``asyncio`` streams plus :mod:`http` for status phrases):
an accept loop, a minimal request parser (GET/HEAD, header dict,
keep-alive), and a two-tier dispatch -- requests answerable from the
service's hot cache resolve inline on the event loop, and so do views
(a contrast row, a filtered event feed) whose parent artifact is hot,
since they derive from it without rendering; anything that might
compute (a cold artifact, a fresh scale) runs in the default executor
so one expensive render never stalls the cached fast path.

Startup optionally launches the **warmer** in an executor thread: the
server binds and answers ``/healthz`` immediately while the default
artifact set loads from the warehouse (or computes and writes behind).

    from repro.serve import ArtifactService, run_server

    run_server(ArtifactService(StudyConfig(days=14, sites=300)),
               host="127.0.0.1", port=8080)
"""

from __future__ import annotations

import asyncio
from http import HTTPStatus
from typing import Awaitable, Callable

from repro.serve.service import ArtifactService, Response

#: Per-connection idle timeout: keep-alive connections are dropped when
#: silent this long (protects the fd budget of long-lived fleets).
IDLE_TIMEOUT_S = 30.0

#: Cap on request-line/header lines (stdlib StreamReader default limit).
_MAX_LINE = 65536

#: Largest request body we drain to keep a keep-alive connection in
#: sync; anything bigger (or chunked) gets a 400 and a close.
_MAX_DRAIN_BODY = 1 << 20

#: Read failures that mean "the peer is gone or silent", not "the peer
#: sent garbage": a keep-alive connection half-closing mid-request head
#: (:class:`asyncio.IncompleteReadError`), the idle timeout expiring
#: (``TimeoutError``, which ``asyncio.timeout`` raises), or a reset
#: (:class:`ConnectionError`).  Each ends the connection quietly -- no
#: traceback, no 400.
_QUIET_READ_ERRORS = (TimeoutError, asyncio.IncompleteReadError, ConnectionError)


def _reason(status: int) -> str:
    try:
        return HTTPStatus(status).phrase
    except ValueError:  # pragma: no cover - non-standard status
        return "Unknown"


def _encode_response(
    response: Response, *, keep_alive: bool, head: bool
) -> bytes:
    """Serialize one response; 304s and HEADs carry no body bytes."""
    body = b"" if head else response.body
    lines = [f"HTTP/1.1 {response.status} {_reason(response.status)}"]
    has_length = False
    for name, value in response.headers:
        if name.lower() == "content-length":
            has_length = True
        lines.append(f"{name}: {value}")
    if response.status != 304 and not has_length:
        lines.append(f"Content-Length: {len(body)}")
    lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


async def _read(read: Awaitable[bytes]) -> bytes | None:
    """One read under the idle deadline; ``None`` if the peer went quiet.

    ``asyncio.timeout`` bounds the read in place, where ``wait_for``
    would wrap each read (every header line) in a task of its own.
    """
    try:
        async with asyncio.timeout(IDLE_TIMEOUT_S):
            return await read
    except _QUIET_READ_ERRORS:
        return None


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, str, dict[str, str]] | None:
    """Parse one request head; ``None`` on clean EOF/idle close."""
    line = await _read(reader.readline())
    if not line:
        return None
    parts = line.decode("latin-1", "replace").strip().split()
    if len(parts) != 3:
        raise ValueError(f"malformed request line: {line[:80]!r}")
    method, target, version = parts
    headers: dict[str, str] = {}
    while True:
        header_line = await _read(reader.readline())
        if header_line is None:
            return None
        if header_line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = header_line.decode("latin-1", "replace").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    # Drain any request body: this API ignores bodies (GET/HEAD, and
    # POSTs only ever earn a 405), but leaving the bytes unread would
    # desync the next request on a keep-alive connection.
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise ValueError("chunked request bodies are not supported")
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise ValueError("malformed Content-Length") from None
    if length < 0 or length > _MAX_DRAIN_BODY:
        raise ValueError(f"unreasonable Content-Length {length}")
    if length and await _read(reader.readexactly(length)) is None:
        return None
    return method, target, version, headers


async def handle_connection(
    service: ArtifactService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one (possibly keep-alive) client connection."""
    loop = asyncio.get_running_loop()
    try:
        while True:
            try:
                request = await _read_request(reader)
            except ValueError:
                writer.write(
                    b"HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n"
                    b"Connection: close\r\n\r\n"
                )
                await writer.drain()
                break
            if request is None:
                break
            method, target, version, headers = request
            # Hot tier inline; anything that may build goes off-loop so
            # cached requests keep flowing during a cold render.
            response = service.handle(method, target, headers, hot_only=True)
            if response is None:
                response = await loop.run_in_executor(
                    None, service.handle, method, target, headers
                )
            assert response is not None
            keep_alive = (
                version != "HTTP/1.0"
                and headers.get("connection", "").lower() != "close"
            )
            writer.write(
                _encode_response(
                    response, keep_alive=keep_alive, head=(method == "HEAD")
                )
            )
            await writer.drain()
            if not keep_alive:
                break
    except _QUIET_READ_ERRORS:  # pragma: no cover - client went away mid-write
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError):
            # CancelledError lands here when the event loop tears the
            # server down mid-close; ending the handler normally keeps
            # asyncio's stream callback from logging a spurious
            # "exception was never retrieved" for every connection.
            pass


async def start_server(
    service: ArtifactService,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    warm: bool = True,
) -> asyncio.AbstractServer:
    """Bind and start serving; optionally kick off the background warmer.

    Returns the started :class:`asyncio.AbstractServer` (query
    ``server.sockets[0].getsockname()`` for the bound port when 0 was
    requested).  The warmer runs in the default executor and fills the
    hot cache while requests are already being answered.
    """
    server = await asyncio.start_server(
        lambda reader, writer: handle_connection(service, reader, writer),
        host,
        port,
        limit=_MAX_LINE,
    )
    service.warmer.enabled = warm
    if warm:
        loop = asyncio.get_running_loop()
        loop.run_in_executor(None, service.warm)
    else:
        service.warmer.done = True
    return server


def run_server(
    service: ArtifactService,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    warm: bool = True,
    log: Callable[[str], None] | None = None,
) -> int:
    """Blocking entry point: serve until interrupted (the CLI's ``serve``)."""

    async def _main() -> None:
        server = await start_server(service, host, port, warm=warm)
        if log is not None:
            bound = server.sockets[0].getsockname()
            log(
                f"repro-serve listening on http://{bound[0]}:{bound[1]} "
                f"(store: {service.store.root if service.store else 'none'}, "
                f"warm: {'on' if warm else 'off'})"
            )
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        if log is not None:
            log("repro-serve: shutting down")
    return 0
