"""Traffic draws and their realization into a router's flow log.

Traffic synthesis runs in two steps.  The generator's session loop
(:meth:`~repro.traffic.generate.TrafficGenerator.draw`) makes every
random draw and records it here, per residence, as column tables in
append order:

* each connection: device, server (service index and index in its
  fleet), start, end, protocol, destination port, bytes each way, the
  variates of its Happy Eyeballs race (both handshake latencies and the
  slow-AAAA coin) and of the dual-SYN exchange it may leave behind (the
  coin, its duration and its bytes);
* each ICMP probe: device, server, the IPv6 coin, echo id, probe count;
* each LAN-to-LAN flow: its endpoints, family and counters.

:func:`realize` turns such draws into the :class:`~repro.flowmon.
monitor.FlowLog`, deciding every race at once with the closed form
:func:`~repro.happyeyeballs.algorithm.race_winners`.

The tables are *total*.  The loop draws race, dual-SYN and ICMP-family
variates only where the drawing world needs them: a device with WAN
IPv6 meeting a dual-stack server.  :meth:`TrafficDraws.completed` fills
the rest in one vectorized draw from a dedicated substream.  So one set
of draws can be realized under other device capabilities, server fleets
and timers -- the traffic what-ifs -- and the worlds then share every
household, session, server, size and timing, differing only in IPv6
negotiation (common random numbers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.flowmon.conntrack import Protocol, default_packets
from repro.flowmon.frame import first_appearance
from repro.flowmon.monitor import FlowLog
from repro.happyeyeballs.algorithm import (
    DEFAULT_RESOLUTION_TIME,
    NO_FAMILY,
    HappyEyeballsConfig,
    race_winners,
)
from repro.net.addr import Family, IpAddress

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.traffic.devices import Device
    from repro.traffic.universe import ServerEndpoint, ServiceUniverse
    from repro.util.rng import RngStream

#: Wire protocol numbers, as the flow log stores them.
TCP, UDP, ICMP = Protocol.TCP.value, Protocol.UDP.value, Protocol.ICMP.value

#: Handshake latency model of one race: (mean, std) per family, floored.
V6_LATENCY = (0.028, 0.008)
V4_LATENCY = (0.032, 0.010)
MIN_LATENCY = 0.004

#: Probability the AAAA answer arrives too late for the resolution delay.
SLOW_AAAA_PROB = 0.08
SLOW_AAAA_LATENCY = 0.200

#: A dual-SYN exchange left behind by an aggressive race: its duration
#: range (seconds) and its byte ranges (inclusive) each way.
DUAL_SYN_DURATION = (0.1, 1.0)
ABORTED_FLOW_BYTES = (300, 1500)
DUAL_SYN_BYTES_OUT = (100, 400)

#: Probability an ICMP probe between IPv6-capable ends goes over IPv6.
ICMP_V6_PROB = 0.5

#: Ephemeral source ports: each residence counts up from ``SPORT_BASE``
#: (its first flow gets ``SPORT_BASE + 1``) and wraps from ``SPORT_MAX``
#: back to ``SPORT_BASE``, so a residence's ports are the same whether
#: it is generated alone, after others, or on a worker process.
SPORT_BASE = 20000
SPORT_MAX = 60000

#: Destination port of LAN-to-LAN flows (file shares).
INTERNAL_PORT = 445

CONNECTION_DTYPE = np.dtype(
    [
        ("device", np.int16),
        ("service", np.int16),  # index into the universe's catalog
        ("server", np.int32),  # index into the service's fleet
        ("protocol", np.uint8),
        ("dport", np.uint16),
        ("start", np.float64),
        ("end", np.float64),
        ("bytes_out", np.int64),
        ("bytes_in", np.int64),
        ("v4_latency", np.float64),
        ("v6_latency", np.float64),
        ("slow_aaaa", np.bool_),
        ("dual_syn", np.bool_),
        ("syn_duration", np.float64),
        ("syn_bytes_out", np.int16),
        ("syn_bytes_in", np.int16),
    ]
)

PROBE_DTYPE = np.dtype(
    [
        ("device", np.int16),
        ("service", np.int16),
        ("server", np.int32),
        ("v6", np.bool_),
        ("icmp_id", np.uint16),
        ("probes", np.int16),
        ("start", np.float64),
    ]
)

INTERNAL_DTYPE = np.dtype(
    [
        ("src", np.int16),  # device indices
        ("dst", np.int16),
        ("v6", np.bool_),
        ("protocol", np.uint8),
        ("start", np.float64),
        ("end", np.float64),
        ("bytes_out", np.int64),
        ("bytes_in", np.int64),
    ]
)

#: Codes of :attr:`TrafficDraws.order`.
CONNECTION, PROBE, INTERNAL = 0, 1, 2


@dataclass(eq=False)
class TrafficDraws:
    """One residence's draws, as column tables in append order.

    Attributes:
        connections: :data:`CONNECTION_DTYPE` rows.
        probes: :data:`PROBE_DTYPE` rows.
        internal: :data:`INTERNAL_DTYPE` rows.
        order: the kind (:data:`CONNECTION`, :data:`PROBE`,
            :data:`INTERNAL`) of every draw, in the order the loop made
            them, which is the order their flows enter the log.
    """

    connections: np.ndarray
    probes: np.ndarray
    internal: np.ndarray
    order: np.ndarray

    @classmethod
    def concatenate(cls, parts: Sequence["TrafficDraws"]) -> "TrafficDraws":
        """Consecutive draws (say, one table per day) as one table."""
        return cls(
            *(
                np.concatenate([getattr(part, name) for part in parts])
                for name in ("connections", "probes", "internal", "order")
            )
        )

    def sequence(self, kind: int) -> np.ndarray:
        """Each ``kind`` row's position among all draws."""
        return np.flatnonzero(self.order == kind)

    def completed(
        self,
        devices: Sequence["Device"],
        universe: "ServiceUniverse",
        dual_syn_probability: float,
        rng: "RngStream",
    ) -> "TrafficDraws":
        """The total table: variates the drawing world did not need,
        drawn from ``rng``'s ``counterfactual`` substream.

        ``devices`` and ``universe`` must be the drawing world's: they
        say which connections raced (and so drew their race variates and
        dual-SYN coin) and which probes drew their family coin.  The
        dual-SYN duration and bytes were drawn only where the coin came
        up; the rest are filled too, so every row is complete.
        """
        gen = rng.substream("counterfactual").generator()
        conn = self.connections.copy()
        probes = self.probes.copy()
        capable, _servers, dual, offsets = _world(devices, universe)
        n = conn.size
        raced = capable[conn["device"]] & dual[offsets[conn["service"]] + conn["server"]]
        drawn_syn = raced & conn["dual_syn"]
        fills = (
            ("v6_latency", np.maximum(MIN_LATENCY, gen.normal(*V6_LATENCY, n)), raced),
            ("v4_latency", np.maximum(MIN_LATENCY, gen.normal(*V4_LATENCY, n)), raced),
            ("slow_aaaa", gen.random(n) < SLOW_AAAA_PROB, raced),
            ("dual_syn", gen.random(n) < dual_syn_probability, raced),
            ("syn_duration", gen.uniform(*DUAL_SYN_DURATION, n), drawn_syn),
            ("syn_bytes_in", _randints(gen, ABORTED_FLOW_BYTES, n), drawn_syn),
            ("syn_bytes_out", _randints(gen, DUAL_SYN_BYTES_OUT, n), drawn_syn),
        )
        for name, values, drawn in fills:
            conn[name] = np.where(drawn, conn[name], values)
        probe_both_v6 = (
            capable[probes["device"]] & dual[offsets[probes["service"]] + probes["server"]]
        )
        probes["v6"] = np.where(
            probe_both_v6, probes["v6"], gen.random(probes.size) < ICMP_V6_PROB
        )
        return TrafficDraws(conn, probes, self.internal, self.order)


def _randints(gen: np.random.Generator, bounds: tuple[int, int], n: int) -> np.ndarray:
    low, high = bounds
    return gen.integers(low, high + 1, n)


class DrawLog:
    """The session loop's side of :class:`TrafficDraws`: rows appended
    as tuples (fields in dtype order), columnized once by :meth:`seal`."""

    def __init__(self) -> None:
        self.order: list[int] = []
        self.connections: list[tuple] = []
        self.probes: list[tuple] = []
        self.internal: list[tuple] = []

    def connection(self, row: tuple) -> None:
        self.order.append(CONNECTION)
        self.connections.append(row)

    def probe(self, row: tuple) -> None:
        self.order.append(PROBE)
        self.probes.append(row)

    def internal_flow(self, row: tuple) -> None:
        self.order.append(INTERNAL)
        self.internal.append(row)

    def seal(self) -> TrafficDraws:
        return TrafficDraws(
            connections=np.array(self.connections, dtype=CONNECTION_DTYPE),
            probes=np.array(self.probes, dtype=PROBE_DTYPE),
            internal=np.array(self.internal, dtype=INTERNAL_DTYPE),
            order=np.array(self.order, dtype=np.int8),
        )


def _world(
    devices: Sequence["Device"], universe: "ServiceUniverse"
) -> tuple[np.ndarray, list["ServerEndpoint"], np.ndarray, np.ndarray]:
    """What a realization reads of a world: per device, WAN IPv6
    capability; every server (catalog order, then fleet order) and
    whether it is dual-stack; per service, its first server's index."""
    capable = np.array([device.ipv6_capable for device in devices], dtype=bool)
    fleets = [universe.servers_of(service) for service in universe.catalog]
    servers = [server for fleet in fleets for server in fleet]
    dual = np.array([server.dual_stack for server in servers], dtype=bool)
    sizes = np.array([len(fleet) for fleet in fleets], dtype=np.int64)
    return capable, servers, dual, np.cumsum(sizes) - sizes


def realize(
    draws: TrafficDraws,
    devices: Sequence["Device"],
    universe: "ServiceUniverse",
    he_config: HappyEyeballsConfig | None = None,
) -> FlowLog:
    """The flow log a world makes of ``draws``, built column-wise.

    A connection races when its device has WAN IPv6 and its server is
    dual-stack; it then goes over the family :func:`race_winners` picks
    under ``he_config`` (``None``: RFC 8305 defaults) and is dropped
    when no attempt completes in time.  Otherwise it goes over IPv4.  A
    connection that raced and kept its flow leaves a dual-SYN flow over
    the other family when its coin says so.  Source ports count up over
    the non-ICMP flows in log order, and addresses are interned in log
    order, source before destination -- exactly as appending the flows
    one by one would.  Every seal check runs on the result.
    """
    conn, probes, internal = draws.connections, draws.probes, draws.internal
    capable, servers, dual, offsets = _world(devices, universe)
    server_base = 2 * len(devices)  # address codes: devices first, then servers

    conn_server = offsets[conn["service"]] + conn["server"]
    raced = capable[conn["device"]] & dual[conn_server]
    resolution = np.where(conn["slow_aaaa"], SLOW_AAAA_LATENCY, DEFAULT_RESOLUTION_TIME)
    winner = race_winners(conn["v4_latency"], conn["v6_latency"], resolution, he_config)
    v6 = raced & (winner == Family.V6.value)
    kept = ~raced | (winner != NO_FAMILY)
    syn = kept & raced & conn["dual_syn"]
    conn_seq = draws.sequence(CONNECTION)

    probe_server = offsets[probes["service"]] + probes["server"]
    probe_v6 = capable[probes["device"]] & dual[probe_server] & probes["v6"]
    probe_count = probes["probes"].astype(np.int64)
    probe_bytes = 64 * probe_count

    # Each field a flow reads is gathered on its own, not whole rows.
    kept_at, syn_at = np.flatnonzero(kept), np.flatnonzero(syn)
    kept_v6, syn_v6 = v6[kept_at], ~v6[syn_at]
    syn_start = conn["start"][syn_at]
    parts = (
        _part(  # each kept connection's flow
            2 * conn_seq[kept_at], conn["protocol"][kept_at],
            _device_code(conn["device"][kept_at], kept_v6),
            _server_code(server_base, conn_server[kept_at], kept_v6),
            conn["dport"][kept_at], conn["start"][kept_at], conn["end"][kept_at],
            conn["bytes_out"][kept_at], conn["bytes_in"][kept_at],
        ),
        _part(  # the dual-SYN flow right after it, over the other family
            2 * conn_seq[syn_at] + 1, TCP,
            _device_code(conn["device"][syn_at], syn_v6),
            _server_code(server_base, conn_server[syn_at], syn_v6),
            conn["dport"][syn_at], syn_start, syn_start + conn["syn_duration"][syn_at],
            conn["syn_bytes_out"][syn_at], conn["syn_bytes_in"][syn_at],
        ),
        _part(  # ICMP echo requests: type 8, code 0
            2 * draws.sequence(PROBE), ICMP,
            _device_code(probes["device"], probe_v6),
            _server_code(server_base, probe_server, probe_v6),
            0, probes["start"], probes["start"] + probe_count,
            probe_bytes, probe_bytes, probe_count, probe_count,
            icmp=(8, 0, probes["icmp_id"]),
        ),
        _part(
            2 * draws.sequence(INTERNAL), internal["protocol"],
            _device_code(internal["src"], internal["v6"]),
            _device_code(internal["dst"], internal["v6"]),
            INTERNAL_PORT, internal["start"], internal["end"],
            internal["bytes_out"], internal["bytes_in"],
        ),
    )
    order = np.argsort(np.concatenate([part.pop("key") for part in parts]), kind="stable")
    # Popped column by column, so a kind's columns are freed as merged.
    rows = {
        name: np.concatenate([part.pop(name) for part in parts])[order]
        for name in list(parts[0])
    }

    ported = rows["protocol"] != ICMP
    count = np.cumsum(ported)
    rows["sport"] = np.where(ported, SPORT_BASE + count % (SPORT_MAX - SPORT_BASE + 1), 0)

    ends = np.empty(2 * order.size, dtype=np.int64)
    ends[0::2], ends[1::2] = rows["src"], rows["dst"]
    codes, ids = first_appearance(ends)
    rows["src"], rows["dst"] = ids[0::2], ids[1::2]
    addresses = [_address(code, devices, servers, server_base) for code in codes.tolist()]

    return FlowLog.from_columns(addresses, rows)


def _device_code(device: np.ndarray, v6: np.ndarray) -> np.ndarray:
    return 2 * device.astype(np.int64) + v6


def _server_code(base: int, server: np.ndarray, v6: np.ndarray) -> np.ndarray:
    return base + 2 * server.astype(np.int64) + v6


def _address(
    code: int,
    devices: Sequence["Device"],
    servers: Sequence["ServerEndpoint"],
    server_base: int,
) -> IpAddress:
    if code < server_base:
        device = devices[code // 2]
        address = device.v6 if code % 2 else device.v4
    else:
        server = servers[(code - server_base) // 2]
        address = server.v6 if code % 2 else server.v4
    assert address is not None, "a flow endpoint lacks the family it was realized in"
    return address


def _part(
    key: np.ndarray,
    protocol: np.ndarray | int,
    src: np.ndarray,
    dst: np.ndarray,
    dport: np.ndarray | int,
    start: np.ndarray,
    end: np.ndarray,
    bytes_out: np.ndarray,
    bytes_in: np.ndarray,
    packets_out: np.ndarray | None = None,
    packets_in: np.ndarray | None = None,
    icmp: tuple[int, int, np.ndarray | int] = (-1, 0, 0),
) -> dict[str, np.ndarray]:
    """One kind's flows as full columns (scalars broadcast), keyed for
    the merge into log order."""
    n = key.size
    bytes_out = bytes_out.astype(np.int64)
    bytes_in = bytes_in.astype(np.int64)
    icmp_type, icmp_code, icmp_id = icmp
    columns = {
        "key": key,
        "protocol": protocol,
        "src": src,
        "dst": dst,
        "dport": dport,
        "icmp_type": icmp_type,
        "icmp_code": icmp_code,
        "icmp_id": icmp_id,
        "start": start,
        "end": end,
        "bytes_out": bytes_out,
        "bytes_in": bytes_in,
        "packets_out": default_packets(bytes_out) if packets_out is None else packets_out,
        "packets_in": default_packets(bytes_in) if packets_in is None else packets_in,
    }
    return {name: np.broadcast_to(value, (n,)) for name, value in columns.items()}
