"""Flow synthesis: from household schedules to the router's flow log.

:class:`TrafficGenerator` turns a :class:`ResidenceProfile` plus the
:class:`ServiceUniverse` into nine months of flows, as the paper's router
monitor would record them: every connection runs Happy Eyeballs against
the chosen server's addresses, and every resulting flow (including
cancelled extra SYNs) is appended to the :class:`FlowMonitor`'s column
log with its 5-tuple, timing and per-direction counters.

Flows do not pass through a :class:`~repro.flowmon.conntrack.
ConntrackTable` on the way.  That path built five objects per flow that
no analysis read, and it checked nothing the log does not: sealing the
log at the end of :meth:`TrafficGenerator.generate` runs the key, record
and timestamp checks over every row at once.  The table's one extra
check, a duplicate live key, cannot fire here: each flow would be
created and destroyed in a single call, so the table is empty whenever
a flow starts.  Packet counts use the table's estimate,
:func:`~repro.flowmon.conntrack.default_packets`.

Protocol choice is *emergent*, not assigned: a flow is IPv6 when the
device has IPv6, the server fleet member is dual-stack, and IPv6 wins the
race.  That is what makes the downstream analyses meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.flowmon.conntrack import Protocol, default_packets
from repro.flowmon.monitor import FlowLog, FlowMonitor, FlowScope, RouterConfig
from repro.happyeyeballs.algorithm import (
    HappyEyeballs,
    HappyEyeballsConfig,
    StaticConnectivity,
)
from repro.net.addr import Family
from repro.traffic.apps import (
    ApplicationKind,
    ServiceProfile,
    TrafficShape,
    build_service_catalog,
)
from repro.traffic.devices import Device
from repro.traffic.residences import ResidenceProfile
from repro.traffic.universe import ServerEndpoint, ServiceUniverse
from repro.util.procpool import map_in_pool, resolve_worker_count
from repro.util.rng import RngStream
from repro.util.timeutil import DAY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flowmon.frame import FlowFrame

#: Download (server-to-client) share of a flow's bytes, by application.
INBOUND_FRACTION: dict[ApplicationKind, float] = {
    ApplicationKind.WEB: 0.88,
    ApplicationKind.SOCIAL: 0.85,
    ApplicationKind.STREAMING: 0.97,
    ApplicationKind.DOWNLOAD: 0.98,
    ApplicationKind.CONFERENCING: 0.55,
    ApplicationKind.GAMING: 0.60,
    ApplicationKind.BACKGROUND: 0.75,
    ApplicationKind.STORAGE: 0.50,
}

#: Flow duration ranges (seconds), by application.
DURATION_RANGE: dict[ApplicationKind, tuple[float, float]] = {
    ApplicationKind.WEB: (2.0, 40.0),
    ApplicationKind.SOCIAL: (20.0, 400.0),
    ApplicationKind.STREAMING: (600.0, 7200.0),
    ApplicationKind.DOWNLOAD: (60.0, 1800.0),
    ApplicationKind.CONFERENCING: (1200.0, 5400.0),
    ApplicationKind.GAMING: (900.0, 7200.0),
    ApplicationKind.BACKGROUND: (2.0, 90.0),
    ApplicationKind.STORAGE: (30.0, 600.0),
}

#: Well-known destination port, by application (TCP unless QUIC/UDP drawn).
SERVICE_PORT: dict[ApplicationKind, int] = {
    ApplicationKind.WEB: 443,
    ApplicationKind.SOCIAL: 443,
    ApplicationKind.STREAMING: 443,
    ApplicationKind.DOWNLOAD: 443,
    ApplicationKind.CONFERENCING: 8801,
    ApplicationKind.GAMING: 27015,
    ApplicationKind.BACKGROUND: 443,
    ApplicationKind.STORAGE: 445,
}

#: LAN-to-LAN sessions: small file shares, printing, NAS syncs.
INTERNAL_SHAPE = TrafficShape(
    flows_per_session=4,
    median_flow_bytes=150_000,
    sigma=1.6,
    heavy_flow_bytes=30_000_000,
    heavy_flow_prob=0.02,
    udp_fraction=0.05,
)

#: Wire protocol numbers, as the flow log stores them.
TCP, UDP, ICMP = Protocol.TCP.value, Protocol.UDP.value, Protocol.ICMP.value

#: Size of the token exchange left behind by a cancelled/duplicate SYN race.
ABORTED_FLOW_BYTES = (300, 1500)

#: Machine-traffic diet shared by all residences (updates, telemetry).
BACKGROUND_WEIGHTS: dict[str, float] = {
    "Microsoft Updates": 3.0,
    "Apple Engineering": 2.0,
    "Windows Telemetry": 2.0,
    "IoT Telemetry": 1.5,
}

#: Probability a background session is an ICMP health probe.
ICMP_PROBE_PROB = 0.05

#: Probability the AAAA answer arrives too late for the resolution delay.
SLOW_AAAA_PROB = 0.08
SLOW_AAAA_LATENCY = 0.200


@dataclass
class ResidenceDataset:
    """Everything generated for one residence.

    Attributes:
        profile: the residence's study configuration.
        monitor: the flow monitor holding the residence's flow log.
        universe: service-side attribution data (shared across residences).
        num_days: length of the observation window in days.
    """

    profile: ResidenceProfile
    monitor: FlowMonitor
    universe: ServiceUniverse
    num_days: int
    devices: list[Device] = field(default_factory=list)
    _frame: "FlowFrame | None" = field(default=None, repr=False, compare=False)
    _frame_version: int = field(default=-1, repr=False, compare=False)

    def external_records(self):
        return self.monitor.records(scope=FlowScope.EXTERNAL)

    def internal_records(self):
        return self.monitor.records(scope=FlowScope.INTERNAL)

    def frame(self) -> "FlowFrame":
        """The attributed columnar view of this residence's flow log.

        Built once (core columns from the monitor, AS/domain attribution
        resolved per unique external peer against this dataset's
        universe) and cached; rebuilt only if the monitor logs new flows.
        """
        monitor = self.monitor
        if self._frame is None or self._frame_version != monitor.version:
            frame = monitor.frame().with_attribution(
                self.universe.routing, self.universe.rdns
            )
            self._frame = frame
            self._frame_version = monitor.version
        return self._frame


class TrafficGenerator:
    """Synthesizes flow datasets for residences against one universe."""

    #: Ephemeral source-port range; reset per residence so a residence's
    #: flows are identical whether it is generated alone, sequentially
    #: after others, or on a worker process.
    SPORT_BASE = 20000

    def __init__(
        self,
        universe: ServiceUniverse | None = None,
        seed: int = 0,
        he_config: HappyEyeballsConfig | None = None,
    ) -> None:
        self.universe = universe or ServiceUniverse(build_service_catalog())
        self.seed = seed
        self._he_config = he_config
        self._he = HappyEyeballs(he_config)
        self._services = {s.name: s for s in self.universe.catalog}
        self._sport = self.SPORT_BASE

    # -- public API -----------------------------------------------------

    def generate(self, profile: ResidenceProfile, num_days: int) -> ResidenceDataset:
        """Generate ``num_days`` of traffic for one residence."""
        if num_days < 1:
            raise ValueError("num_days must be >= 1")
        self._sport = self.SPORT_BASE
        devices = profile.build_devices()
        monitor = FlowMonitor(_router_config(profile))
        log = monitor.log
        activity = profile.activity_model()
        rng = RngStream(self.seed, f"residence:{profile.name}")

        human_services = self._weighted_services(profile.service_weights, human=True)
        background_services = self._weighted_services(BACKGROUND_WEIGHTS, human=False)
        interactive = [d for d in devices if d.kind.interactive]
        if not interactive:
            raise ValueError(f"residence {profile.name} has no interactive devices")

        for day in range(num_days):
            day_rng = rng.substream(f"day:{day}")
            for start in activity.human_session_times(day, day_rng):
                device = self._pick_device(interactive, day_rng)
                service = day_rng.weighted_choice(*human_services)
                self._run_session(log, profile, device, service, start, day_rng)
            for start in activity.background_session_times(day, day_rng):
                device = self._pick_device(devices, day_rng)
                service = day_rng.weighted_choice(*background_services)
                self._run_session(log, profile, device, service, start, day_rng)
            self._run_internal_sessions(log, profile, devices, day, day_rng)

        log.seal()  # every key and record check, over all rows at once
        return ResidenceDataset(
            profile=profile,
            monitor=monitor,
            universe=self.universe,
            num_days=num_days,
            devices=devices,
        )

    def generate_all(
        self,
        profiles: list[ResidenceProfile],
        num_days: int,
        parallel: bool | int | None = None,
    ) -> dict[str, ResidenceDataset]:
        """Generate datasets for several residences (shared universe).

        Args:
            profiles: residences to generate, in output (dict) order.
            num_days: observation length for every residence.
            parallel: ``None`` (default) fans residences out across a
                :class:`~concurrent.futures.ProcessPoolExecutor` when the
                machine has more than one CPU; ``True`` forces processes,
                an ``int`` picks the worker count, and ``False``/``0``/
                ``1`` stays sequential.  Results are identical either
                way: every residence draws from its own seeded RNG
                substream and allocates source ports from its own range,
                so generation order cannot leak between residences.  If a
                pool cannot be created or breaks (sandboxes, missing
                semaphores), generation warns once
                (:func:`repro.util.procpool.warn_pool_fallback`) and
                falls back to the sequential path.
        """
        workers = self._resolve_workers(parallel, len(profiles))
        tasks = [
            (self.universe.catalog, self.seed, self._he_config, profile, num_days)
            for profile in profiles
        ]
        results = map_in_pool(
            _generate_residence, tasks, workers, "traffic generation"
        )
        if results is None:
            return {p.name: self.generate(p, num_days) for p in profiles}
        datasets: dict[str, ResidenceDataset] = {}
        for profile, (name, log, devices) in zip(profiles, results):
            # Workers rebuild an identical universe from the catalog;
            # rebind to the parent's so every dataset shares one
            # attribution substrate (registry identity included).
            datasets[name] = ResidenceDataset(
                profile=profile,
                monitor=FlowMonitor(_router_config(profile), log),
                universe=self.universe,
                num_days=num_days,
                devices=devices,
            )
        return datasets

    @staticmethod
    def _resolve_workers(parallel: bool | int | None, num_profiles: int) -> int:
        return resolve_worker_count(parallel, num_profiles)

    # -- session machinery ------------------------------------------------

    def _weighted_services(
        self, weights: dict[str, float], human: bool
    ) -> tuple[list[ServiceProfile], list[float]]:
        services: list[ServiceProfile] = []
        values: list[float] = []
        for name, weight in sorted(weights.items()):
            service = self._services.get(name)
            if service is None:
                raise KeyError(f"unknown service in diet: {name!r}")
            if service.human_driven != human:
                continue
            services.append(service)
            values.append(weight)
        if not services:
            raise ValueError("service diet selects no services")
        return services, values

    def _pick_device(self, devices: list[Device], rng: RngStream) -> Device:
        return rng.weighted_choice(devices, [d.activity_weight for d in devices])

    def _next_sport(self) -> int:
        self._sport += 1
        if self._sport > 60000:
            self._sport = 20000
        return self._sport

    def _run_session(
        self,
        log: FlowLog,
        profile: ResidenceProfile,
        device: Device,
        service: ServiceProfile,
        start: float,
        rng: RngStream,
    ) -> None:
        if rng.bernoulli(ICMP_PROBE_PROB) and service.kind is ApplicationKind.BACKGROUND:
            self._run_icmp_probe(log, device, service, start, rng)
            return
        shape = service.shape
        flow_count = max(1, rng.poisson(shape.flows_per_session))
        offset = 0.0
        for _ in range(flow_count):
            flow_start = start + offset
            offset += rng.exponential(5.0)
            self._run_connection(log, profile, device, service, flow_start, rng)

    def _run_connection(
        self,
        log: FlowLog,
        profile: ResidenceProfile,
        device: Device,
        service: ServiceProfile,
        start: float,
        rng: RngStream,
    ) -> None:
        server = rng.choice(self.universe.servers_of(service))
        family = self._negotiate_family(device, server, rng)
        shape = service.shape
        volume = shape.draw_flow_bytes(rng)
        inbound = INBOUND_FRACTION[service.kind]
        low, high = DURATION_RANGE[service.kind]
        duration = rng.uniform(low, high)
        protocol = UDP if rng.bernoulli(shape.udp_fraction) else TCP
        self._record_flow(
            log,
            device=device,
            server=server,
            family=family,
            protocol=protocol,
            dport=SERVICE_PORT[service.kind],
            start=start,
            duration=duration,
            bytes_in=int(volume * inbound),
            bytes_out=volume - int(volume * inbound),
        )
        # Aggressive Happy Eyeballs implementations leave a second-family
        # SYN exchange behind (section 3.2's flow-count inflation).
        if family is not None and device.ipv6_capable and server.dual_stack:
            if rng.bernoulli(profile.dual_syn_probability):
                other = Family.V4 if family is Family.V6 else Family.V6
                self._record_flow(
                    log,
                    device=device,
                    server=server,
                    family=other,
                    protocol=TCP,
                    dport=SERVICE_PORT[service.kind],
                    start=start,
                    duration=rng.uniform(0.1, 1.0),
                    bytes_in=rng.randint(*ABORTED_FLOW_BYTES),
                    bytes_out=rng.randint(100, 400),
                )

    def _negotiate_family(
        self, device: Device, server: ServerEndpoint, rng: RngStream
    ) -> Family | None:
        """Pick the wire family for one connection via Happy Eyeballs."""
        if not device.ipv6_capable or not server.dual_stack:
            return Family.V4
        v6_latency = max(0.004, rng.normal(0.028, 0.008))
        v4_latency = max(0.004, rng.normal(0.032, 0.010))
        v6_resolution = 0.010
        if rng.bernoulli(SLOW_AAAA_PROB):
            v6_resolution = SLOW_AAAA_LATENCY
        connectivity = StaticConnectivity(
            latencies={server.v4: v4_latency, server.v6: v6_latency}
        )
        result = self._he.connect(
            [server.v4],
            [server.v6],
            connectivity,
            v4_resolution_time=0.010,
            v6_resolution_time=v6_resolution,
        )
        return result.used_family

    def _record_flow(
        self,
        log: FlowLog,
        device: Device,
        server: ServerEndpoint,
        family: Family | None,
        protocol: int,
        dport: int,
        start: float,
        duration: float,
        bytes_in: int,
        bytes_out: int,
    ) -> None:
        if family is None:
            return  # connection never established; nothing observable
        src = device.address(family)
        dst = server.v4 if family is Family.V4 else server.v6
        if src is None or dst is None:  # pragma: no cover - guarded upstream
            return
        log.append(
            protocol, src, dst, self._next_sport(), dport, start, start + duration,
            bytes_out, bytes_in, default_packets(bytes_out), default_packets(bytes_in),
        )

    def _run_icmp_probe(
        self,
        log: FlowLog,
        device: Device,
        service: ServiceProfile,
        start: float,
        rng: RngStream,
    ) -> None:
        server = rng.choice(self.universe.servers_of(service))
        use_v6 = device.ipv6_capable and server.dual_stack and rng.bernoulli(0.5)
        src = device.address(Family.V6 if use_v6 else Family.V4)
        dst = server.v6 if use_v6 else server.v4
        if src is None or dst is None:
            return
        icmp = (8, 0, rng.randint(0, 0xFFFF))  # echo request: type 8, code 0
        probes = rng.randint(1, 5)
        log.append(
            ICMP, src, dst, 0, 0, start, start + probes,
            64 * probes, 64 * probes, probes, probes, icmp,
        )

    def _run_internal_sessions(
        self,
        log: FlowLog,
        profile: ResidenceProfile,
        devices: list[Device],
        day: int,
        rng: RngStream,
    ) -> None:
        if len(devices) < 2:
            return
        for _ in range(rng.poisson(profile.internal_sessions)):
            first = rng.choice(devices)
            second = rng.choice(devices)
            while second is first:
                second = rng.choice(devices)
            # LAN IPv6 works even when the WAN path is broken (section
            # 3.2: internal and external shares are not well correlated).
            both_v6 = first.lan_ipv6 and second.lan_ipv6
            use_v6 = both_v6 and rng.bernoulli(profile.internal_ipv6_preference)
            family = Family.V6 if use_v6 else Family.V4
            start = (day + rng.random()) * DAY
            for _ in range(max(1, rng.poisson(INTERNAL_SHAPE.flows_per_session))):
                volume = INTERNAL_SHAPE.draw_flow_bytes(rng)
                protocol = UDP if rng.bernoulli(INTERNAL_SHAPE.udp_fraction) else TCP
                src = first.address(family)
                dst = second.address(family)
                if src is None or dst is None:  # pragma: no cover
                    continue
                sport = self._next_sport()
                end = start + rng.uniform(5.0, 300.0)
                bytes_out = volume // 2
                bytes_in = volume - bytes_out
                log.append(
                    protocol, src, dst, sport, 445, start, end, bytes_out, bytes_in,
                    default_packets(bytes_out), default_packets(bytes_in),
                )
                start += rng.exponential(10.0)


def _router_config(profile: ResidenceProfile) -> RouterConfig:
    return RouterConfig(name=profile.name, lan_v4=profile.lan_v4, lan_v6=profile.lan_v6)


def _generate_residence(
    task: tuple[
        list[ServiceProfile], int, HappyEyeballsConfig | None, ResidenceProfile, int
    ],
) -> tuple[str, FlowLog, list[Device]]:
    """Worker-process entry: generate one residence from first principles.

    Rebuilds the (deterministic) service universe from the pickled
    catalog, so only the catalog, profile, and scalars cross the process
    boundary on the way in and only the sealed flow log (its column
    array and address table) and the devices on the way out.  Because
    every residence draws from the RNG substream ``(seed,
    "residence:<name>")``, the result is bit-identical to the sequential
    path.
    """
    catalog, seed, he_config, profile, num_days = task
    generator = TrafficGenerator(
        ServiceUniverse(catalog), seed=seed, he_config=he_config
    )
    dataset = generator.generate(profile, num_days)
    return profile.name, dataset.monitor.log, dataset.devices
