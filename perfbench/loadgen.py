"""Open-loop HTTP/1.1 load generator for the serve_mixed workload.

One process, at most ``nproc`` (2) keep-alive connections, no program
imports.  Requests are due on a fixed schedule; each is timed from its
due time, so a stall that delays later requests counts against them.
Lateness is the generator's own delay: send time minus the later of the
due time and the moment its connection became free.

The server runs calibration slices on request of the generator, which
asks only while no request is in flight and the next one is due well
after the slice ends, so a slice never delays a request.
"""

from __future__ import annotations

import gc
import hashlib
import math
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Callable

#: Wake this long before a due time, then spin, so sends start on time.
SPIN_S = 0.0005

#: Ask for a slice only when the next send is at least this far away.
SLICE_ROOM_S = 0.006

#: At most one slice per this interval during the open loop.
SLICE_EVERY_S = 0.05


@dataclass
class Request:
    due: float
    conn: int
    kind: str
    target: str
    headers: tuple[tuple[str, str], ...] = ()
    expect: int = 200
    done: float = -1.0
    late: float = 0.0
    status: int = 0
    digest: str = ""
    etag: str = ""
    body: bytes = field(default=b"", repr=False)

    @property
    def latency(self) -> float:
        return self.done - self.due

    def encode(self) -> bytes:
        lines = [f"GET {self.target} HTTP/1.1", "Host: bench"]
        lines.extend(f"{name}: {value}" for name, value in self.headers)
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


class _Conn:
    def __init__(self, sock: socket.socket, queue: list[Request]) -> None:
        self.sock = sock
        self.queue = queue
        self.next = 0
        self.inflight: Request | None = None
        self.free_since = 0.0
        self.buffer = bytearray()

    def pending(self) -> Request | None:
        if self.inflight is None and self.next < len(self.queue):
            return self.queue[self.next]
        return None

    def parse(self, keep_body: bool) -> bool:
        """Complete the in-flight response from the buffer, if it is all here."""
        head_end = self.buffer.find(b"\r\n\r\n")
        if head_end < 0:
            return False
        head = self.buffer[:head_end].decode("latin-1").split("\r\n")
        length = 0
        etag = ""
        for line in head[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "etag":
                etag = value.strip()
        end = head_end + 4 + length
        if len(self.buffer) < end:
            return False
        request = self.inflight
        assert request is not None
        request.etag = etag
        request.status = int(head[0].split(" ", 2)[1])
        body = bytes(self.buffer[head_end + 4:end])
        request.digest = hashlib.sha256(body).hexdigest()
        if keep_body:
            request.body = body
        del self.buffer[:end]
        return True


def connect(port: int, count: int) -> list[socket.socket]:
    socks = []
    for _ in range(count):
        sock = socket.create_connection(("127.0.0.1", port))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        socks.append(sock)
    return socks


def drive(
    socks: list[socket.socket],
    requests: list[Request],
    on_idle: Callable[[], None] | None = None,
    keep_bodies: bool = False,
    timeout_s: float = 60.0,
) -> None:
    """Send ``requests`` on their schedule, each ``due`` seconds after the start.

    All-zero due times make a closed loop: each connection sends its next
    request as soon as the previous response is in.  ``on_idle`` is
    called in the gaps where a calibration slice fits.
    """
    conns = [
        _Conn(sock, [r for r in requests if r.conn == index])
        for index, sock in enumerate(socks)
    ]
    # select(2) takes microsecond timeouts; epoll rounds up to whole ms.
    selector = selectors.SelectSelector()
    for conn in conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    # A collection over the generator's own heap would show as lateness.
    gc.collect()
    gc.disable()
    clock = time.perf_counter
    start = clock()
    last_slice = 0.0
    remaining = len(requests)
    try:
        while remaining:
            now = clock() - start
            if now > timeout_s:
                raise TimeoutError(f"{remaining} requests unanswered after {timeout_s} s")
            next_due = None
            for conn in conns:
                request = conn.pending()
                if request is None:
                    continue
                if request.due <= now:
                    request.late = now - max(request.due, conn.free_since)
                    conn.sock.sendall(request.encode())
                    conn.inflight = request
                    conn.next += 1
                elif next_due is None or request.due < next_due:
                    next_due = request.due
            idle = all(conn.inflight is None for conn in conns)
            if (
                on_idle is not None
                and idle
                and next_due is not None
                and next_due - now > SLICE_ROOM_S
                and now - last_slice > SLICE_EVERY_S
            ):
                on_idle()
                last_slice = now
            if next_due is None:
                wait = 1.0
            else:
                wait = max(0.0, next_due - now - SPIN_S)
            for key, _ in selector.select(wait):
                conn = key.data
                chunk = conn.sock.recv(1 << 20)
                if not chunk:
                    raise ConnectionError("server closed a keep-alive connection")
                conn.buffer += chunk
                while conn.inflight is not None and conn.parse(keep_bodies):
                    done = clock() - start
                    conn.inflight.done = done
                    conn.inflight = None
                    conn.free_since = done
                    remaining -= 1
                    request = conn.pending()
                    if request is not None and request.due <= done:
                        request.late = 0.0
                        conn.sock.sendall(request.encode())
                        conn.inflight = request
                        conn.next += 1
    finally:
        gc.enable()
        selector.close()


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (which need not be sorted)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]

