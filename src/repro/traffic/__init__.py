"""Residential traffic substrate.

Synthesizes the nine-month, five-residence traffic study of the paper's
section 3.  The generative model encodes the causal structure the paper
identifies, so the analyses recover the paper's findings from first
principles rather than by construction:

* services differ in IPv6 support (:mod:`repro.traffic.apps`), so the mix
  of services a household uses drives its IPv6 fraction;
* humans are home evenings and weekends (:mod:`repro.traffic.activity`),
  and human-driven services are the IPv6-capable ones, so the IPv6
  fraction is diurnal while background (machine) traffic leans IPv4;
* devices vary in IPv6 capability (:mod:`repro.traffic.devices`), so a
  residence with broken CPE sees low IPv6 everywhere (Residence C);
* Happy Eyeballs picks the wire protocol per connection, inflating IPv4
  flow counts relative to bytes.
"""

from repro.traffic.activity import ActivityModel, OccupancyPattern, VacationWindow
from repro.traffic.apps import (
    ApplicationKind,
    ServiceProfile,
    TrafficShape,
    build_service_catalog,
)
from repro.traffic.devices import Device, DeviceKind
from repro.traffic.draws import TrafficDraws, realize
from repro.traffic.generate import ResidenceDataset, TrafficGenerator
from repro.traffic.residences import ResidenceProfile, build_paper_residences
from repro.traffic.universe import ServerEndpoint, ServiceUniverse

__all__ = [
    "ActivityModel",
    "OccupancyPattern",
    "VacationWindow",
    "ApplicationKind",
    "ServiceProfile",
    "TrafficShape",
    "build_service_catalog",
    "Device",
    "DeviceKind",
    "TrafficDraws",
    "realize",
    "ResidenceDataset",
    "TrafficGenerator",
    "ResidenceProfile",
    "build_paper_residences",
    "ServerEndpoint",
    "ServiceUniverse",
]
