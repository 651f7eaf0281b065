"""Program counters read through public stats after each op.

The experiment entry points do not hand back every network or transport
endpoint they create (``mp_unit`` returns only numbers), so the benchmark
records them as they are built: one hook on ``HvcNetwork.__init__`` and one
on ``Device.register_flow``. Both run once per network or connection, never
per packet, so untraced timings are unaffected. After the op the counters
are read from ``Simulator.events_processed``, ``LinkStats``, ``DeviceStats``,
``ConnectionStats`` and the channels' outage counts. For a given op they
repeat exactly from run to run.
"""

from __future__ import annotations

from typing import Dict, List


class Capture:
    """Records the networks and transport endpoints an op creates."""

    def __init__(self) -> None:
        self.nets: List[object] = []
        self.endpoints: List[object] = []
        self._saved: List[tuple] = []

    def install(self) -> "Capture":
        from repro.core.api import HvcNetwork
        from repro.net.node import Device

        nets = self.nets
        endpoints = self.endpoints
        net_init = HvcNetwork.__init__
        register_flow = Device.register_flow

        def capture_net(net, *args, **kwargs):
            net_init(net, *args, **kwargs)
            nets.append(net)

        def capture_endpoint(device, flow_id, handler):
            inner = getattr(handler, "__wrapped__", handler)
            owner = getattr(inner, "__self__", None)
            if owner is not None:
                endpoints.append(owner)
            return register_flow(device, flow_id, handler)

        self._saved = [(HvcNetwork, "__init__", net_init), (Device, "register_flow", register_flow)]
        HvcNetwork.__init__ = capture_net
        Device.register_flow = capture_endpoint
        return self

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved = []

    def reset(self) -> None:
        del self.nets[:]
        del self.endpoints[:]

    def counters(self) -> Dict[str, float]:
        """Raw counters of everything the op built (sums; ratios come later)."""
        c: Dict[str, float] = {
            "core.builds": len(self.nets),
            "sim.events": 0,
            "sim.seconds": 0.0,
            "net.send_calls": 0,
            "net.queue_drops": 0,
            "net.received": 0,
            "net.dup_discards": 0,
            "net.busy_s": 0.0,
            "net.link_s": 0.0,
            "net.link_sent": 0,
            "steering.urllc_sent": 0,
            "faults.outages": 0,
            "transport.bytes_acked": 0,
            "transport.retransmissions": 0,
        }
        for net in self.nets:
            now = net.sim.now
            c["sim.events"] += net.sim.events_processed
            c["sim.seconds"] += now
            for device in (net.client, net.server):
                stats = device.stats
                c["net.send_calls"] += stats.packets_sent + stats.send_drops
                c["net.received"] += stats.packets_received
                c["net.dup_discards"] += stats.duplicates_discarded
            for channel in net.channels:
                c["faults.outages"] += channel.outage_count
                for link in (channel.uplink, channel.downlink):
                    stats = link.stats
                    c["net.queue_drops"] += stats.overflow_drops + stats.flushed
                    c["net.busy_s"] += stats.busy_time
                    c["net.link_s"] += now
                    c["net.link_sent"] += stats.sent
                    if channel.name == "urllc":
                        c["steering.urllc_sent"] += stats.sent
        for endpoint in self.endpoints:
            stats = getattr(endpoint, "stats", None)
            if hasattr(stats, "bytes_acked"):  # Connection
                c["transport.bytes_acked"] += stats.bytes_acked
                c["transport.retransmissions"] += stats.retransmissions
            elif hasattr(endpoint, "subflows"):  # MultipathConnection
                c["transport.bytes_acked"] += endpoint.bytes_acked
                c["transport.retransmissions"] += endpoint.retransmissions
        return c


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def derived(c: Dict[str, float]) -> Dict[str, float]:
    """The ratio metrics the raw counters give."""
    return {
        "net.dup_ratio": ratio(c["net.dup_discards"], c["net.received"] + c["net.dup_discards"]),
        "net.link_busy_frac": ratio(c["net.busy_s"], c["net.link_s"]),
        "steering.urllc_pkt_share": ratio(c["steering.urllc_sent"], c["net.link_sent"]),
    }
