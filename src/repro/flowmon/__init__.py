"""The router flow monitor: finished flows, daily logs, anonymized export.

This is the measurement apparatus of the paper's section 3.1: a lightweight
monitor on the home router that records flow beginnings and ends from
connection-tracking events (conntrack NEW and DESTROY), with per-direction
byte accounting (``nf_conntrack_acct``), identifies flows by their 5-tuple
(plus ICMP type/code/id), logs them daily, and uploads CryptoPAN-anonymized
records to the collection server.

There is one log with two views.  The log is :class:`FlowLog`, one
set of NumPy columns (one row per finished flow, addresses
interned): each row holds what a conntrack DESTROY event carries, and the
traffic generator writes its finished flows into the log directly.  The
views derive from it on first use: the columnar
:class:`~repro.flowmon.frame.FlowFrame` (:meth:`FlowMonitor.frame`; day,
scope, family, protocol, bytes, packets, duration, interned peer / AS /
domain ids) that the vectorized analyses read, and the :class:`FlowRecord`
projection (:meth:`FlowMonitor.records`) for the exporter.  Both follow the
canonical order -- days ascending, scopes in declaration order, log
order within -- so record-loop and columnar analyses agree bit-for-bit.
"""

from repro.flowmon.conntrack import FlowKey, FlowRecord, IcmpInfo, Protocol
from repro.flowmon.export import AnonymizedRecord, FlowExporter
from repro.flowmon.frame import FLOW_DTYPE, FlowFrame
from repro.flowmon.monitor import LOG_DTYPE, FlowLog, FlowMonitor, FlowScope, RouterConfig

__all__ = [
    "FLOW_DTYPE",
    "FlowFrame",
    "FlowKey",
    "FlowLog",
    "FlowRecord",
    "IcmpInfo",
    "LOG_DTYPE",
    "Protocol",
    "AnonymizedRecord",
    "FlowExporter",
    "FlowMonitor",
    "FlowScope",
    "RouterConfig",
]
