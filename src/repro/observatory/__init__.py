"""The active-measurement observatory (binary availability, per country).

Where the census grades readiness and the traffic study measures usage,
the observatory produces the third perspective the paper contrasts them
with: the classic **binary** "is IPv6 available?" answer, measured the
way longitudinal observatories measure it -- AAAA lookup plus a TCP/443
handshake from fixed vantage points, aggregated per country, repeated in
rounds across the study window.

Vantage points carry access-network policies (NAT64, lossy resolvers,
broken PMTU, policy firewalls...) so the binary answer diverges from the
graded and usage views for modelled reasons::

    from repro.api import Study

    study = Study(days=28, sites=1500)
    obs = study.observatory                  # built lazily, cached
    print(study.artifact("contrast").to_text())
"""

from repro.observatory.analysis import (
    ContrastRow,
    CountryAvailability,
    PolicyVerdicts,
    SiteSpread,
    TakeoffSeries,
    census_readiness_shares,
    country_availability,
    final_round_availability,
    policy_verdicts,
    site_spread,
    takeoff_series,
    three_way_contrast,
    traffic_v6_byte_fraction,
)
from repro.observatory.frame import PROBE_DTYPE, ProbeFrame
from repro.observatory.probe import PolicyConnectivity, ProbeTarget, ProbeVerdict
from repro.observatory.resolver import nat64_embedded_v4, nat64_synthesize
from repro.observatory.rounds import (
    ObservatoryConfig,
    ObservatoryStudy,
    adoption_schedule,
    build_targets,
    fleet_country_codes,
    run_observatory,
)
from repro.observatory.vantage import NetworkPolicy, VantagePoint, build_vantage_fleet

__all__ = [
    "ContrastRow",
    "CountryAvailability",
    "PolicyVerdicts",
    "SiteSpread",
    "TakeoffSeries",
    "census_readiness_shares",
    "country_availability",
    "final_round_availability",
    "policy_verdicts",
    "site_spread",
    "takeoff_series",
    "three_way_contrast",
    "traffic_v6_byte_fraction",
    "PROBE_DTYPE",
    "ProbeFrame",
    "PolicyConnectivity",
    "ProbeTarget",
    "ProbeVerdict",
    "nat64_embedded_v4",
    "nat64_synthesize",
    "ObservatoryConfig",
    "ObservatoryStudy",
    "adoption_schedule",
    "build_targets",
    "fleet_country_codes",
    "run_observatory",
    "NetworkPolicy",
    "VantagePoint",
    "build_vantage_fleet",
]
