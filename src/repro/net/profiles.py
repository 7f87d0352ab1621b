"""Latency and bandwidth profiles for the simulated network fabric.

The paper's evaluation (Section 6.6) contrasts a 40 Gbit QDR InfiniBand
fabric using RDMA against 10 Gbit Ethernet through the kernel TCP stack,
and finds more than a 6x throughput difference for Tell's synchronous
processing model.  Two effects drive that difference and both are modelled
here:

* *Wire/switch latency*: RDMA completes a small request in a few
  microseconds; kernel TCP needs tens of microseconds per hop.
* *CPU cost per message*: RDMA bypasses the OS, while the TCP stack burns
  measurable CPU on both endpoints for every message, which steals cycles
  from query processing and storage service.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvalidState


@dataclass(frozen=True)
class NetworkProfile:
    """Cost model of one network technology.

    Attributes:
        name: human-readable identifier used in experiment configs.
        one_way_us: fixed one-way latency for a small message (wire,
            switch, NIC), in microseconds.
        bytes_per_us: usable bandwidth, bytes per microsecond
            (1000 bytes/us == 8 Gbit/s).
        client_cpu_per_msg_us: CPU charged to the sending node's core pool
            per message (OS stack cost; ~0 for RDMA).
        server_cpu_per_msg_us: CPU added to the serving node's handling
            time per message.
    """

    name: str
    one_way_us: float
    bytes_per_us: float
    client_cpu_per_msg_us: float
    server_cpu_per_msg_us: float

    def one_way(self, size_bytes: int = 64) -> float:
        """One-way message latency including serialization delay."""
        return self.one_way_us + size_bytes / self.bytes_per_us

    def round_trip(self, request_bytes: int = 64, response_bytes: int = 64) -> float:
        """Request/response wire time, excluding server processing."""
        return self.one_way(request_bytes) + self.one_way(response_bytes)


#: 40 Gbit QDR InfiniBand with RDMA verbs (the paper's primary fabric).
#: RAMCloud-style RPC over Infiniband completes small reads in ~5 us
#: round trip; effective point-to-point bandwidth ~3.2 GB/s.
INFINIBAND_QDR = NetworkProfile(
    name="infiniband",
    one_way_us=2.2,
    bytes_per_us=3200.0,
    client_cpu_per_msg_us=0.4,
    server_cpu_per_msg_us=0.0,
)

#: 10 Gbit Ethernet through the kernel TCP stack.  Small-message RTTs of
#: 50-80 us and a per-message CPU tax on both endpoints.
ETHERNET_10G = NetworkProfile(
    name="ethernet-10g",
    one_way_us=28.0,
    bytes_per_us=1100.0,
    client_cpu_per_msg_us=8.0,
    server_cpu_per_msg_us=6.0,
)

_PROFILES = {profile.name: profile
             for profile in (INFINIBAND_QDR, ETHERNET_10G)}


def profile_by_name(name: str) -> NetworkProfile:
    """Look up a profile; raises :class:`InvalidState` for unknown names."""
    try:
        return _PROFILES[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_PROFILES))
        raise InvalidState(f"unknown network profile {name!r} (known: {known})")
