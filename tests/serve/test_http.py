"""The asyncio front end, exercised over real sockets.

Each test runs a scenario coroutine against a server bound to an
ephemeral port (no pytest-asyncio needed -- ``asyncio.run`` per test).
The client is raw streams: write HTTP/1.1 bytes, parse the head, read
``Content-Length`` bytes, so keep-alive and 304-has-no-body semantics
are verified at the protocol level rather than through a forgiving
client library.
"""

import asyncio
import json

import repro.serve.http as serve_http
from repro.api import StudyConfig
from repro.serve import ArtifactService, start_server

CONFIG = StudyConfig(days=4, sites=110, probe_targets=50, parallel=False)


def run(scenario):
    """Start a warm=False server, run the scenario coroutine, tear down."""

    async def main():
        service = ArtifactService(CONFIG, store=None)
        server = await start_server(service, "127.0.0.1", 0, warm=False)
        port = server.sockets[0].getsockname()[1]
        try:
            return await asyncio.wait_for(scenario(port, service), timeout=60)
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(main())


async def request(reader, writer, target, extra_headers=(), method="GET"):
    """One request on an existing connection; returns (status, headers, body)."""
    lines = [f"{method} {target} HTTP/1.1", "Host: test"]
    lines.extend(extra_headers)
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode())
    await writer.drain()
    head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1")
    status = int(head.split(" ", 2)[1])
    headers = {}
    for line in head.split("\r\n")[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0))
    # HEAD responses advertise the length but carry no payload bytes.
    if method == "HEAD":
        length = 0
    body = await reader.readexactly(length) if length else b""
    return status, headers, body


class TestHttpServer:
    def test_healthz_and_artifact_over_keepalive(self):
        async def scenario(port, service):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            status, headers, body = await request(reader, writer, "/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "ok"
            # Same connection, second request: keep-alive works.
            status, headers, body = await request(
                reader, writer, "/v1/artifact/obs_availability"
            )
            assert status == 200
            assert headers["content-type"].startswith("application/json")
            document = json.loads(body)
            assert document["name"] == "obs_availability"
            etag = headers["etag"]
            # Third request revalidates: 304, no body, connection stays up.
            status, headers, body = await request(
                reader,
                writer,
                "/v1/artifact/obs_availability",
                [f"If-None-Match: {etag}"],
            )
            assert status == 304
            assert body == b""
            assert headers["etag"] == etag
            status, _, _ = await request(reader, writer, "/healthz")
            assert status == 200
            writer.close()
            await writer.wait_closed()

        run(scenario)

    def test_gzip_negotiation_on_the_wire(self):
        import gzip as gzip_module

        async def scenario(port, service):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            status, headers, body = await request(
                reader,
                writer,
                "/v1/artifact/obs_availability",
                ["Accept-Encoding: gzip, br"],
            )
            assert status == 200
            assert headers["content-encoding"] == "gzip"
            assert headers["vary"] == "Accept-Encoding"
            json.loads(gzip_module.decompress(body))
            writer.close()
            await writer.wait_closed()

        run(scenario)

    def test_errors_and_malformed_requests(self):
        async def scenario(port, service):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            status, _, body = await request(reader, writer, "/v1/artifact/contrst")
            assert status == 404
            assert "contrast" in json.loads(body)["did_you_mean"]
            status, _, body = await request(
                reader, writer, "/v1/artifact/table1?dayz=1"
            )
            assert status == 400
            writer.close()
            await writer.wait_closed()

            # A garbage request line gets a 400 and a closed connection.
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"NOT-HTTP\r\n\r\n")
            await writer.drain()
            head = (await reader.readuntil(b"\r\n\r\n")).decode()
            assert " 400 " in head.splitlines()[0]
            assert await reader.read() == b""  # server closed it
            writer.close()
            await writer.wait_closed()

        run(scenario)

    def test_request_body_is_drained_on_keepalive(self):
        """A 405'd POST with a body must not desync the next request."""

        async def scenario(port, service):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            body = b'{"ignored": true}'
            writer.write(
                b"POST /v1/artifact/contrast HTTP/1.1\r\nHost: t\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            await writer.drain()
            head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1")
            assert " 405 " in head.splitlines()[0]
            length = int(
                [l for l in head.split("\r\n") if l.lower().startswith("content-length")][0]
                .split(":")[1]
            )
            await reader.readexactly(length)
            # The body bytes were drained: the connection parses the
            # next request cleanly instead of reading `{"ignored"...`
            # as a request line.
            status, _, payload = await request(reader, writer, "/healthz")
            assert status == 200
            assert json.loads(payload)["status"] == "ok"
            writer.close()
            await writer.wait_closed()

        run(scenario)

    def test_chunked_request_body_rejected(self):
        async def scenario(port, service):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                b"POST /healthz HTTP/1.1\r\nHost: t\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
            )
            await writer.drain()
            head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1")
            assert " 400 " in head.splitlines()[0]
            assert await reader.read() == b""  # connection closed
            writer.close()
            await writer.wait_closed()

        run(scenario)

    def test_connection_close_honoured(self):
        async def scenario(port, service):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            status, _, _ = await request(
                reader, writer, "/healthz", ["Connection: close"]
            )
            assert status == 200
            assert await reader.read() == b""  # EOF: server hung up
            writer.close()
            await writer.wait_closed()

        run(scenario)

    def test_head_request_on_the_wire(self):
        async def scenario(port, service):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            status, headers, body = await request(
                reader, writer, "/healthz", method="HEAD"
            )
            # our client reads content-length bytes; HEAD sends none, so
            # the next request must still parse cleanly
            assert status == 200
            assert body == b""  # no payload followed
            writer.close()
            await writer.wait_closed()

        run(scenario)

    def test_truncated_request_body_closes_quietly(self):
        """A client that dies mid-body gets a clean close, not a 4xx/5xx.

        The promised ``Content-Length`` never arrives
        (:class:`asyncio.IncompleteReadError` on the drain read); the
        server must not answer a half request -- no response bytes at
        all -- and the connection after it must be unaffected.
        """

        async def scenario(port, service):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                b"GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 64\r\n\r\nonly this"
            )
            await writer.drain()
            writer.write_eof()  # body stops 55 bytes short
            assert await reader.read() == b""  # quiet close, zero bytes sent
            writer.close()
            await writer.wait_closed()

            # The listener survives: a fresh connection still serves.
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            status, _headers, _body = await request(reader, writer, "/healthz")
            assert status == 200
            writer.close()
            await writer.wait_closed()

        run(scenario)

    def test_half_a_head_is_closed_quietly_at_the_idle_deadline(self, monkeypatch):
        """A client that stops mid-head is dropped once a read outlasts
        ``IDLE_TIMEOUT_S``: no response bytes, and the listener lives on."""
        monkeypatch.setattr(serve_http, "IDLE_TIMEOUT_S", 0.2)

        async def scenario(port, service):
            for partial in (b"GET /healthz HTTP/1.1\r\nHost: t\r\n", b"GET /hea"):
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(partial)  # and then nothing, without closing
                await writer.drain()
                assert await asyncio.wait_for(reader.read(), 10) == b""
                writer.close()
                await writer.wait_closed()

            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            status, _headers, _body = await request(reader, writer, "/healthz")
            assert status == 200
            writer.close()
            await writer.wait_closed()

        run(scenario)

    def test_connect_and_leave_closes_quietly(self):
        """A connection that sends nothing gets EOF back, not an error."""

        async def scenario(port, service):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write_eof()  # health checkers and port scanners do this
            assert await reader.read() == b""
            writer.close()
            await writer.wait_closed()

        run(scenario)

    def test_warmer_reports_through_healthz(self):
        async def scenario(port, service):
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, service.warm, ["fig5", "fig6"])
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            status, _, body = await request(reader, writer, "/healthz")
            assert status == 200
            document = json.loads(body)
            assert document["warmer"]["done"] is True
            assert document["warmer"]["warmed"] == 2
            writer.close()
            await writer.wait_closed()

        run(scenario)
