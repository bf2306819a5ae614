"""Observatory aggregations: availability tables, takeoff, contrast.

Everything here is a ``np.bincount`` group-by over the
:class:`~repro.observatory.frame.ProbeFrame`'s integer codes, mirroring
the columnar style of :mod:`repro.core.client`.  The headline
:func:`three_way_contrast` closes the paper's non-binary loop: for each
country it puts the **binary** availability share (what a longitudinal
observatory would report), the **graded** census readiness of the same
probed sites, and the **usage** side (client traffic IPv6 byte fraction)
side by side -- three numbers that would coincide if IPv6 adoption were
binary, and don't.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.readiness import SiteClass, classify_site
from repro.crawler.records import CrawlDataset
from repro.datasets.scenarios import ResidenceStudy
from repro.flowmon.monitor import FlowScope
from repro.observatory.probe import ProbeVerdict
from repro.observatory.rounds import ObservatoryStudy, fleet_country_codes
from repro.observatory.vantage import NetworkPolicy


def _share(count: float, total: float) -> float:
    return count / total if total > 0 else 0.0


# -- per-country availability ------------------------------------------------


@dataclass(frozen=True)
class CountryAvailability:
    """One country's row of the binary availability table."""

    country: str
    vantages: int
    probes: int
    aaaa_observed: int
    available: int
    synthesized: int
    client_used_v6: int

    @property
    def available_share(self) -> float:
        return _share(self.available, self.probes)

    @property
    def aaaa_share(self) -> float:
        return _share(self.aaaa_observed, self.probes)

    @property
    def client_v6_share(self) -> float:
        return _share(self.client_used_v6, self.probes)


def country_availability(obs: ObservatoryStudy) -> list[CountryAvailability]:
    """The per-country binary availability table, across all rounds."""
    frame = obs.frame
    n = len(obs.countries)
    country = frame.country
    vantage_codes, _ = fleet_country_codes(obs.fleet)
    vantages_per_country = np.bincount(vantage_codes, minlength=n)
    probes = np.bincount(country, minlength=n)
    aaaa = np.bincount(country[frame.aaaa], minlength=n)
    available = np.bincount(country[frame.available], minlength=n)
    synth = np.bincount(country[frame.synthesized], minlength=n)
    client_v6 = np.bincount(country[frame.client_used_v6], minlength=n)
    return [
        CountryAvailability(
            country=name,
            vantages=int(vantages_per_country[i]),
            probes=int(probes[i]),
            aaaa_observed=int(aaaa[i]),
            available=int(available[i]),
            synthesized=int(synth[i]),
            client_used_v6=int(client_v6[i]),
        )
        for i, name in enumerate(obs.countries)
    ]


# -- the takeoff curve -------------------------------------------------------


@dataclass(frozen=True)
class TakeoffSeries:
    """Availability share per probe round ("watching the takeoff").

    Attributes:
        days: the round schedule (day index per round).
        overall: fleet-wide available share per round.
        by_country: country -> per-round available shares.
    """

    days: tuple[int, ...]
    overall: tuple[float, ...]
    by_country: dict[str, tuple[float, ...]]


def takeoff_series(obs: ObservatoryStudy) -> TakeoffSeries:
    """Availability across rounds, overall and per country."""
    frame = obs.frame
    rounds = obs.num_rounds
    n = len(obs.countries)
    key = frame.round.astype(np.int64) * n + frame.country
    minlength = rounds * n
    probes = np.bincount(key, minlength=minlength).reshape(rounds, n)
    available = np.bincount(key[frame.available], minlength=minlength).reshape(
        rounds, n
    )
    overall = tuple(
        _share(float(available[r].sum()), float(probes[r].sum()))
        for r in range(rounds)
    )
    by_country = {
        name: tuple(
            _share(float(available[r, i]), float(probes[r, i]))
            for r in range(rounds)
        )
        for i, name in enumerate(obs.countries)
    }
    return TakeoffSeries(
        days=tuple(obs.config.round_days), overall=overall, by_country=by_country
    )


# -- per-policy verdict taxonomy ---------------------------------------------


@dataclass(frozen=True)
class PolicyVerdicts:
    """What one access-network policy does to the binary answer."""

    policy: NetworkPolicy
    vantages: int
    probes: int
    verdict_counts: dict[ProbeVerdict, int]

    @property
    def available_share(self) -> float:
        return _share(self.verdict_counts.get(ProbeVerdict.V6_OK, 0), self.probes)


def policy_verdicts(obs: ObservatoryStudy) -> list[PolicyVerdicts]:
    """Verdict distribution per network policy, in fleet order."""
    frame = obs.frame
    policies: list[NetworkPolicy] = []
    policy_of_vantage: list[int] = []
    for vantage in obs.fleet:
        if vantage.policy not in policies:
            policies.append(vantage.policy)
        policy_of_vantage.append(policies.index(vantage.policy))
    policy_lookup = np.asarray(policy_of_vantage, dtype=np.int64)
    per_probe_policy = policy_lookup[frame.vantage]
    n_policies = len(policies)
    n_verdicts = len(ProbeVerdict)
    key = per_probe_policy * n_verdicts + frame.verdict.astype(np.int64)
    counts = np.bincount(key, minlength=n_policies * n_verdicts).reshape(
        n_policies, n_verdicts
    )
    vantages_per_policy = np.bincount(policy_lookup, minlength=n_policies)
    rows = []
    for index, policy in enumerate(policies):
        verdict_counts = {
            verdict: int(counts[index, verdict.value])
            for verdict in ProbeVerdict
            if counts[index, verdict.value]
        }
        rows.append(
            PolicyVerdicts(
                policy=policy,
                vantages=int(vantages_per_policy[index]),
                probes=int(counts[index].sum()),
                verdict_counts=verdict_counts,
            )
        )
    return rows


# -- cross-country site spread -----------------------------------------------


@dataclass(frozen=True)
class SiteSpread:
    """How (dis)agreeing the per-country binary answers are, per site.

    ``histogram[k]`` counts sites reported IPv6-available from exactly
    ``k`` of the fleet's countries in the final round; ``contested`` are
    sites with at least one country saying yes and one saying no -- the
    population a single-vantage binary study silently misreports.
    """

    countries: int
    sites: int
    histogram: tuple[int, ...]
    unanimous_yes: int
    unanimous_no: int
    contested: int


def site_spread(obs: ObservatoryStudy) -> SiteSpread:
    """Final-round cross-country agreement on the binary answer."""
    last = obs.frame.select(round_index=obs.num_rounds - 1)
    n_countries = len(obs.countries)
    n_targets = len(obs.targets)
    # A site is "available from country C" if any of C's vantages
    # connected (a study with one vantage per country would see C's
    # single answer; max() models the optimistic aggregation).
    key = last.target.astype(np.int64) * n_countries + last.country
    available_any = np.zeros(n_targets * n_countries, dtype=bool)
    np.logical_or.at(available_any, key, last.available)
    per_site = available_any.reshape(n_targets, n_countries).sum(axis=1)
    histogram = np.bincount(per_site, minlength=n_countries + 1)
    return SiteSpread(
        countries=n_countries,
        sites=n_targets,
        histogram=tuple(int(c) for c in histogram),
        unanimous_yes=int(histogram[n_countries]),
        unanimous_no=int(histogram[0]),
        contested=int(n_targets - histogram[0] - histogram[n_countries]),
    )


# -- the three-way contrast --------------------------------------------------


@dataclass(frozen=True)
class ContrastRow:
    """One country's binary / graded / usage triple."""

    country: str
    probes: int
    #: Binary: share of probed sites "IPv6 available" from this country.
    available_share: float
    #: Graded: census readiness of the same probed sites (global truth).
    census_full_share: float
    census_partial_share: float
    census_v4only_share: float
    #: Usage: external IPv6 byte fraction of the client traffic study.
    traffic_v6_byte_fraction: float

    @property
    def binary_minus_graded(self) -> float:
        """How much the binary check overstates full readiness."""
        return self.available_share - self.census_full_share


def _census_classes(
    dataset: CrawlDataset, probed: set[str]
) -> tuple[int, int, int]:
    """(full, partial, v4only) counts among the probed, classified sites."""
    full = partial = v4only = 0
    for result in dataset.results:
        if result.site not in probed:
            continue
        site_class = classify_site(result)
        if site_class is SiteClass.IPV6_FULL:
            full += 1
        elif site_class is SiteClass.IPV6_PARTIAL:
            partial += 1
        elif site_class is SiteClass.IPV4_ONLY:
            v4only += 1
    return full, partial, v4only


def final_round_availability(obs: ObservatoryStudy) -> np.ndarray:
    """Final-round per-country available share, aligned to ``obs.countries``.

    The "current" binary answer each country's observatory would
    publish -- the availability column of :func:`three_way_contrast`
    and of every what-if delta (one definition, so the two can never
    silently diverge).
    """
    last = obs.frame.select(round_index=obs.num_rounds - 1)
    n = len(obs.countries)
    probes = np.bincount(last.country, minlength=n).astype(np.float64)
    available = np.bincount(last.country[last.available], minlength=n)
    with np.errstate(invalid="ignore"):
        return np.where(probes > 0, available / probes, 0.0)


def census_readiness_shares(
    dataset: CrawlDataset, probed: set[str]
) -> tuple[float, float, float]:
    """(full, partial, v4only) shares among probed, classified sites.

    The graded-readiness columns of :func:`three_way_contrast`, shared
    with the what-if deltas.
    """
    full, partial, v4only = _census_classes(dataset, probed)
    classified = full + partial + v4only
    return (
        _share(full, classified),
        _share(partial, classified),
        _share(v4only, classified),
    )


def traffic_v6_byte_fraction(traffic: ResidenceStudy) -> float:
    """External IPv6 byte fraction aggregated over every residence.

    Reads each monitor's core frame: the signal needs no AS or domain,
    so no peer is attributed for it.
    """
    total = 0
    v6 = 0
    for dataset in traffic.datasets.values():
        frame = dataset.monitor.frame()
        external = frame.rows_matching(scope=FlowScope.EXTERNAL)
        volume = frame.total_bytes[external]
        total += int(volume.sum())
        v6 += int(volume[frame.is_v6[external]].sum())
    return _share(v6, total)


def three_way_contrast(
    obs: ObservatoryStudy,
    census_dataset: CrawlDataset,
    traffic: ResidenceStudy,
) -> list[ContrastRow]:
    """Binary availability vs graded readiness vs actual usage, per country.

    Availability uses the final probe round (the "current" binary
    answer each country's observatory would publish); readiness grades
    the *same* probed sites through the census; usage is the traffic
    study's external IPv6 byte fraction.  The spread across the three
    columns -- and across countries within the first column -- is the
    paper's argument rendered as one table.
    """
    last = obs.frame.select(round_index=obs.num_rounds - 1)
    n = len(obs.countries)
    probes = np.bincount(last.country, minlength=n)
    availability = final_round_availability(obs)

    probed = {target.etld1 for target in obs.targets}
    full_share, partial_share, v4only_share = census_readiness_shares(
        census_dataset, probed
    )
    usage = traffic_v6_byte_fraction(traffic)

    return [
        ContrastRow(
            country=name,
            probes=int(probes[i]),
            available_share=float(availability[i]),
            census_full_share=full_share,
            census_partial_share=partial_share,
            census_v4only_share=v4only_share,
            traffic_v6_byte_fraction=usage,
        )
        for i, name in enumerate(obs.countries)
    ]
