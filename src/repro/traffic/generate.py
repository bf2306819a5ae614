"""Flow synthesis: from household schedules to the router's flow log.

:class:`TrafficGenerator` turns a :class:`ResidenceProfile` plus the
:class:`ServiceUniverse` into nine months of flows, as the paper's router
monitor would record them, in two steps:

* **draw** (:meth:`TrafficGenerator.draw`): the session loop walks each
  day's sessions and makes every random draw -- devices, services,
  servers, sizes, timings, and the variates of each connection's Happy
  Eyeballs race and dual-SYN exchange -- recording them as a
  :class:`~repro.traffic.draws.TrafficDraws` column table instead of
  racing connection by connection;
* **realize** (:func:`~repro.traffic.draws.realize`): one vectorized
  pass decides every race with the closed form of RFC 8305 and builds
  the monitor's column log, cancelled extra SYNs included, with each
  flow's 5-tuple, timing and per-direction counters.

A baseline build is draw + realize.  The traffic what-ifs re-realize a
baseline's draws under transformed devices, servers or timers, without
drawing again (:mod:`repro.whatif.overlay`).

The generator writes finished flows, what a conntrack DESTROY event
carries, straight into the log: the realized log runs the key, record
and timestamp checks over every row at once.  Packet counts use the
bytes-based estimate :func:`~repro.flowmon.conntrack.default_packets`.

Protocol choice is *emergent*, not assigned: a flow is IPv6 when the
device has IPv6, the server fleet member is dual-stack, and IPv6 wins the
race.  That is what makes the downstream analyses meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.flowmon.monitor import FlowLog, FlowMonitor, RouterConfig
from repro.traffic.apps import (
    ApplicationKind,
    ServiceProfile,
    TrafficShape,
    build_service_catalog,
)
from repro.traffic.devices import Device
from repro.traffic.draws import (
    ABORTED_FLOW_BYTES,
    DUAL_SYN_BYTES_OUT,
    DUAL_SYN_DURATION,
    ICMP_V6_PROB,
    MIN_LATENCY,
    SLOW_AAAA_PROB,
    TCP,
    UDP,
    V4_LATENCY,
    V6_LATENCY,
    DrawLog,
    TrafficDraws,
    realize,
)
from repro.traffic.residences import ResidenceProfile
from repro.traffic.universe import ServiceUniverse
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

#: Machine-traffic diet shared by all residences (updates, telemetry).
BACKGROUND_WEIGHTS: dict[str, float] = {
    "Microsoft Updates": 3.0,
    "Apple Engineering": 2.0,
    "Windows Telemetry": 2.0,
    "IoT Telemetry": 1.5,
}

#: Probability a background session is an ICMP health probe.
ICMP_PROBE_PROB = 0.05


@dataclass
class ResidenceDataset:
    """Everything generated for one residence.

    Attributes:
        profile: the residence's study configuration.
        monitor: the flow monitor holding the residence's flow log.
        universe: service-side attribution data (shared across residences).
        num_days: length of the observation window in days.
        devices: the residence's device fleet.
        draws: the draws the log was realized from; a what-if overlay
            re-realizes them.  ``None`` for datasets that are themselves
            realizations of another dataset's draws, which never fork.
    """

    profile: ResidenceProfile
    monitor: FlowMonitor
    universe: ServiceUniverse
    num_days: int
    devices: list[Device] = field(default_factory=list)
    draws: TrafficDraws | None = field(default=None, repr=False, compare=False)
    _frame: "FlowFrame | None" = field(default=None, repr=False, compare=False)

    def frame(self) -> "FlowFrame":
        """The attributed columnar view of this residence's flow log.

        Built once (core columns from the monitor, AS/domain attribution
        resolved per unique external peer against this dataset's
        universe) and cached.
        """
        if self._frame is None:
            self._frame = self.monitor.frame().with_attribution(
                self.universe.routing, self.universe.rdns
            )
        return self._frame


class TrafficGenerator:
    """Synthesizes flow datasets for residences against one universe."""

    def __init__(self, universe: ServiceUniverse | None = None, seed: int = 0) -> None:
        self.universe = universe or ServiceUniverse(build_service_catalog())
        self.seed = seed
        self._index = {s.name: i for i, s in enumerate(self.universe.catalog)}
        self._fleets = [self.universe.servers_of(s) for s in self.universe.catalog]
        #: Per catalog index: what the session loop reads of the service.
        self._plans = [
            (
                s.kind,
                s.shape,
                INBOUND_FRACTION[s.kind],
                DURATION_RANGE[s.kind],
                SERVICE_PORT[s.kind],
            )
            for s in self.universe.catalog
        ]

    # -- public API -----------------------------------------------------

    def generate(self, profile: ResidenceProfile, num_days: int) -> ResidenceDataset:
        """Generate ``num_days`` of traffic for one residence: its draws,
        realized."""
        devices = profile.build_devices()
        draws = self.draw(profile, devices, num_days)
        return ResidenceDataset(
            profile=profile,
            monitor=FlowMonitor(router_config(profile), realize(draws, devices, self.universe)),
            universe=self.universe,
            num_days=num_days,
            devices=devices,
            draws=draws,
        )

    def draw(
        self, profile: ResidenceProfile, devices: list[Device], num_days: int
    ) -> TrafficDraws:
        """Every random draw of ``num_days`` of one residence's traffic.

        Draws come from the residence's own substream ``(seed,
        "residence:<name>")`` in session order, so they do not depend
        on which residences were drawn before.  The table is completed
        (:meth:`TrafficDraws.completed`) against this generator's
        universe and ``devices``.
        """
        if num_days < 1:
            raise ValueError("num_days must be >= 1")
        activity = profile.activity_model()
        rng = RngStream(self.seed, f"residence:{profile.name}")

        human_services = self._weighted_services(profile.service_weights, human=True)
        background_services = self._weighted_services(BACKGROUND_WEIGHTS, human=False)
        interactive = [i for i, d in enumerate(devices) if d.kind.interactive]
        if not interactive:
            raise ValueError(f"residence {profile.name} has no interactive devices")
        everyone = list(range(len(devices)))
        interactive_weights = [devices[i].activity_weight for i in interactive]
        everyone_weights = [d.activity_weight for d in devices]

        days: list[TrafficDraws] = []
        for day in range(num_days):
            log = DrawLog()
            day_rng = rng.substream(f"day:{day}")
            for start in activity.human_session_times(day, day_rng):
                device = day_rng.weighted_choice(interactive, interactive_weights)
                service = day_rng.weighted_choice(*human_services)
                self._run_session(log, profile, devices, device, service, start, day_rng)
            for start in activity.background_session_times(day, day_rng):
                device = day_rng.weighted_choice(everyone, everyone_weights)
                service = day_rng.weighted_choice(*background_services)
                self._run_session(log, profile, devices, device, service, start, day_rng)
            self._run_internal_sessions(log, profile, devices, day, day_rng)
            days.append(log.seal())  # columnized daily: no run of row tuples builds up

        return TrafficDraws.concatenate(days).completed(
            devices, self.universe, profile.dual_syn_probability, rng
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
            (self.universe.catalog, self.seed, profile, num_days) for profile in profiles
        ]
        results = map_in_pool(
            _generate_residence, tasks, workers, "traffic generation"
        )
        if results is None:
            return {p.name: self.generate(p, num_days) for p in profiles}
        datasets: dict[str, ResidenceDataset] = {}
        for profile, (name, log, devices, draws) in zip(profiles, results):
            # Workers rebuild an identical universe from the catalog;
            # rebind to the parent's so every dataset shares one
            # attribution substrate (registry identity included).
            datasets[name] = ResidenceDataset(
                profile=profile,
                monitor=FlowMonitor(router_config(profile), log),
                universe=self.universe,
                num_days=num_days,
                devices=devices,
                draws=draws,
            )
        return datasets

    @staticmethod
    def _resolve_workers(parallel: bool | int | None, num_profiles: int) -> int:
        return resolve_worker_count(parallel, num_profiles)

    # -- session machinery ------------------------------------------------

    def _weighted_services(
        self, weights: dict[str, float], human: bool
    ) -> tuple[list[int], list[float]]:
        """Catalog indices of a diet's services, with their weights."""
        services: list[int] = []
        values: list[float] = []
        for name, weight in sorted(weights.items()):
            index = self._index.get(name)
            if index is None:
                raise KeyError(f"unknown service in diet: {name!r}")
            if self.universe.catalog[index].human_driven != human:
                continue
            services.append(index)
            values.append(weight)
        if not services:
            raise ValueError("service diet selects no services")
        return services, values

    def _run_session(
        self,
        log: DrawLog,
        profile: ResidenceProfile,
        devices: list[Device],
        device: int,
        service: int,
        start: float,
        rng: RngStream,
    ) -> None:
        kind, shape = self._plans[service][:2]
        if rng.bernoulli(ICMP_PROBE_PROB) and kind is ApplicationKind.BACKGROUND:
            self._run_icmp_probe(log, devices, device, service, start, rng)
            return
        flow_count = max(1, rng.poisson(shape.flows_per_session))
        offset = 0.0
        for _ in range(flow_count):
            flow_start = start + offset
            offset += rng.exponential(5.0)
            self._run_connection(log, profile, devices, device, service, flow_start, rng)

    def _run_connection(
        self,
        log: DrawLog,
        profile: ResidenceProfile,
        devices: list[Device],
        device: int,
        service: int,
        start: float,
        rng: RngStream,
    ) -> None:
        fleet = self._fleets[service]
        server = rng.randint(0, len(fleet) - 1)  # the draw of rng.choice(fleet)
        raced = devices[device].ipv6_capable and fleet[server].dual_stack
        v4_latency = v6_latency = 0.0
        slow_aaaa = False
        if raced:
            v6_latency = max(MIN_LATENCY, rng.normal(*V6_LATENCY))
            v4_latency = max(MIN_LATENCY, rng.normal(*V4_LATENCY))
            slow_aaaa = rng.bernoulli(SLOW_AAAA_PROB)
        _kind, shape, inbound_fraction, (low, high), dport = self._plans[service]
        volume = shape.draw_flow_bytes(rng)
        inbound = int(volume * inbound_fraction)
        duration = rng.uniform(low, high)
        protocol = UDP if rng.bernoulli(shape.udp_fraction) else TCP
        # Aggressive Happy Eyeballs implementations leave a second-family
        # SYN exchange behind (section 3.2's flow-count inflation).  The
        # coin is drawn whenever the connection raced, winner or not.
        # Only a won race can leave the exchange behind, but under the
        # default 10 s overall timeout every race here is won, so the
        # baseline's draws and bytes are those of drawing after a win.
        dual_syn = False
        syn_duration = 0.0
        syn_bytes_out = syn_bytes_in = 0
        if raced and rng.bernoulli(profile.dual_syn_probability):
            dual_syn = True
            syn_duration = rng.uniform(*DUAL_SYN_DURATION)
            syn_bytes_in = rng.randint(*ABORTED_FLOW_BYTES)
            syn_bytes_out = rng.randint(*DUAL_SYN_BYTES_OUT)
        log.connection((
            device, service, server, protocol, dport,
            start, start + duration, volume - inbound, inbound,
            v4_latency, v6_latency, slow_aaaa,
            dual_syn, syn_duration, syn_bytes_out, syn_bytes_in,
        ))

    def _run_icmp_probe(
        self,
        log: DrawLog,
        devices: list[Device],
        device: int,
        service: int,
        start: float,
        rng: RngStream,
    ) -> None:
        fleet = self._fleets[service]
        server = rng.randint(0, len(fleet) - 1)
        both_v6 = devices[device].ipv6_capable and fleet[server].dual_stack
        use_v6 = both_v6 and rng.bernoulli(ICMP_V6_PROB)
        icmp_id = rng.randint(0, 0xFFFF)
        probes = rng.randint(1, 5)
        log.probe((device, service, server, use_v6, icmp_id, probes, start))

    def _run_internal_sessions(
        self,
        log: DrawLog,
        profile: ResidenceProfile,
        devices: list[Device],
        day: int,
        rng: RngStream,
    ) -> None:
        if len(devices) < 2:
            return
        everyone = range(len(devices))
        for _ in range(rng.poisson(profile.internal_sessions)):
            first = rng.choice(everyone)
            second = rng.choice(everyone)
            while second == first:
                second = rng.choice(everyone)
            # LAN IPv6 works even when the WAN path is broken (section
            # 3.2: internal and external shares are not well correlated).
            both_v6 = devices[first].lan_ipv6 and devices[second].lan_ipv6
            use_v6 = both_v6 and rng.bernoulli(profile.internal_ipv6_preference)
            start = (day + rng.random()) * DAY
            for _ in range(max(1, rng.poisson(INTERNAL_SHAPE.flows_per_session))):
                volume = INTERNAL_SHAPE.draw_flow_bytes(rng)
                protocol = UDP if rng.bernoulli(INTERNAL_SHAPE.udp_fraction) else TCP
                end = start + rng.uniform(5.0, 300.0)
                bytes_out = volume // 2
                log.internal_flow(
                    (first, second, use_v6, protocol, start, end, bytes_out, volume - bytes_out)
                )
                start += rng.exponential(10.0)


def router_config(profile: ResidenceProfile) -> RouterConfig:
    """The router addressing of ``profile``'s residence."""
    return RouterConfig(name=profile.name, lan_v4=profile.lan_v4, lan_v6=profile.lan_v6)


def _generate_residence(
    task: tuple[list[ServiceProfile], int, ResidenceProfile, int],
) -> tuple[str, FlowLog, list[Device], TrafficDraws | None]:
    """Worker-process entry: generate one residence from first principles.

    Rebuilds the (deterministic) service universe from the pickled
    catalog, so only the catalog, profile, and scalars cross the process
    boundary on the way in, and only the flow log (its column array and
    address table), the devices and the draws on the way out.
    Because every residence draws from the RNG substream ``(seed,
    "residence:<name>")``, the result is bit-identical to the sequential
    path.
    """
    catalog, seed, profile, num_days = task
    generator = TrafficGenerator(ServiceUniverse(catalog), seed=seed)
    dataset = generator.generate(profile, num_days)
    return profile.name, dataset.monitor.log, dataset.devices, dataset.draws
