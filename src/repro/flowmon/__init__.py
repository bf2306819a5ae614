"""The router flow monitor: finished flows, logged as columns.

This is the measurement apparatus of the paper's section 3.1: a lightweight
monitor on the home router that records flow beginnings and ends from
connection-tracking events (conntrack NEW and DESTROY), with per-direction
byte accounting (``nf_conntrack_acct``), and identifies flows by their
5-tuple (plus ICMP type/code/id).  The paper's routers also uploaded
CryptoPAN-anonymized daily logs (appendix A); that upload is not
modelled, because nothing downstream reads it.

There is one log with one view.  The log is :class:`FlowLog`, one set
of NumPy columns (one row per finished flow, addresses interned): each
row holds what a conntrack DESTROY event carries, and the traffic
generator writes its finished flows into the log directly.  The view
derives from it on first use: the columnar
:class:`~repro.flowmon.frame.FlowFrame` (:meth:`FlowMonitor.frame`; day,
scope, family, protocol, bytes, packets, duration, interned peer / AS /
domain ids) that every analysis reads, in the canonical order -- days
ascending, scopes in declaration order, log order within.
"""

from repro.flowmon.conntrack import Protocol
from repro.flowmon.frame import FLOW_DTYPE, FlowFrame
from repro.flowmon.monitor import LOG_DTYPE, FlowLog, FlowMonitor, FlowScope, RouterConfig

__all__ = [
    "FLOW_DTYPE",
    "FlowFrame",
    "FlowLog",
    "LOG_DTYPE",
    "Protocol",
    "FlowMonitor",
    "FlowScope",
    "RouterConfig",
]
