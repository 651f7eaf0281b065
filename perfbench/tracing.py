"""Per-layer spans recorded from the benchmark's own files.

:class:`Tracer` wraps the public functions at each layer boundary of the
simulator (see :meth:`Tracer.install`) for the duration of one traced op, without
any change to the program. Every call through a wrapper is a span (name,
start, end, parent, op id). A span's self time is its duration minus the
time its child spans cover; summed per layer it gives ``<layer>.self_s``.
The op itself is the root span, whose self time is ``other`` (experiment
glue outside every boundary). By construction the layer self times add up
to the op's traced wall time.

Private kernel callbacks (link serialization and delivery events, timers)
are not boundaries, so their time stays in ``sim``'s self time, the residual
of ``Simulator.run``.

Aggregates cover every span. Span records are kept in memory up to
``SPAN_CAP`` per run and written out by :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Dict, List, Tuple

LAYERS = (
    "sim", "net", "steering", "transport", "cc", "core",
    "traces", "apps", "fleet", "faults", "other",
)

#: Span records kept for the written trace; aggregates are never capped.
SPAN_CAP = 50_000

CC_HOOKS = ("on_ack", "on_sent", "on_loss", "on_lost", "on_timeout")


def _subclasses(cls) -> List[type]:
    seen, todo = [], [cls]
    while todo:
        klass = todo.pop()
        if klass not in seen:
            seen.append(klass)
            todo.extend(klass.__subclasses__())
    return seen


class Tracer:
    """Span aggregates and records for the ops traced in one run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_layer: List[int] = []
        self._index: Dict[str, int] = {}
        #: Self seconds, inclusive seconds and layer entries per span name.
        self.self_s: List[float] = []
        self.total_s: List[float] = []
        self.calls: List[int] = []
        #: Packet counts taken at the boundaries.
        self.data_packets = 0
        self.data_retransmits = 0
        self.data_bytes = 0
        self.acks_handled = 0
        self.records: List[Tuple] = []
        self.spans = 0
        self._stack: List[list] = []
        self._ids = [0]
        self._patches: List[Tuple[object, str, object]] = []
        self.op_id = -1
        self.root = self._name("op", "other")

    # ------------------------------------------------------------------
    def _name(self, name: str, layer: str) -> int:
        index = self._index.get(name)
        if index is None:
            index = self._index[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(LAYERS.index(layer))
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.calls.append(0)
        return index

    def wrap(self, fn: Callable, name: str, layer: str, after=None) -> Callable:
        """``fn`` timed as a span; ``after(args)`` runs outside the span."""
        index = self._name(name, layer)
        layer_index = self.name_layer[index]
        clock = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        total_s = self.total_s
        calls = self.calls
        records = self.records
        ids = self._ids
        tracer = self

        def span(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            sid = ids[0] = ids[0] + 1
            frame = [0.0, sid, layer_index]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent = stack[-1]
                duration = end - start
                self_s[index] += duration - frame[0]
                total_s[index] += duration
                parent[0] += duration
                if parent[2] != layer_index:
                    calls[index] += 1
                if len(records) < SPAN_CAP:
                    records.append((sid, index, start, end, parent[1], tracer.op_id))
                if after is not None:
                    after(args)

        span.__wrapped__ = fn
        return span

    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_method(self, cls, attr: str, name: str, layer: str, after=None) -> None:
        if attr in cls.__dict__:
            self._patch(cls, attr, self.wrap(cls.__dict__[attr], name, layer, after))

    def _patch_function(self, module_name: str, attr: str, layer: str) -> None:
        """Wrap a module function everywhere a ``repro`` module imported it."""
        original = getattr(sys.modules[module_name], attr)
        wrapped = self.wrap(original, attr, layer)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "repro" and getattr(module, attr, None) is original:
                self._patch(module, attr, wrapped)

    def install(self) -> None:
        """Wrap every layer boundary; :meth:`uninstall` restores the originals."""
        import repro.steering  # noqa: F401  (registers every steerer class)
        import repro.transport.cc  # noqa: F401  (registers every CCA)
        import repro.apps.web.browser  # noqa: F401  (patched by name below)
        import repro.traces.catalog  # noqa: F401  (patched by name below)
        from repro.core.api import HvcNetwork
        from repro.fleet.fluid import FluidBackground
        from repro.net.channel import Channel
        from repro.net.link import Link
        from repro.net.node import Device
        from repro.net.packet import PacketType
        from repro.net.resequencer import Resequencer
        from repro.sim.kernel import Simulator
        from repro.steering.base import Steerer
        from repro.transport.cc.base import CongestionControl
        from repro.transport.connection import Connection
        from repro.transport.multipath import MultipathConnection

        data, ack = PacketType.DATA, PacketType.ACK
        tracer = self

        def count_send(args) -> None:
            packet = args[1]
            if packet.ptype == data:
                tracer.data_packets += 1
                tracer.data_bytes += packet.payload_bytes
                if packet.is_retransmission:
                    tracer.data_retransmits += 1

        def count_ack(args) -> None:
            if args[0].ptype == ack:
                tracer.acks_handled += 1

        self._patch_method(Simulator, "run", "Simulator.run", "sim")
        self._patch_method(Device, "send", "Device.send", "net", after=count_send)
        self._patch_method(Link, "send", "Link.send", "net")
        self._patch_method(Resequencer, "push", "Resequencer.push", "net")

        link_connect = Link.__dict__["connect"]

        def connect(link, receiver):
            link_connect(link, tracer.wrap(receiver, "Link.receiver", "net"))

        self._patch(Link, "connect", connect)

        register_flow = Device.register_flow

        def register(device, flow_id, handler):
            wrapped = tracer.wrap(handler, "flow_handler", "transport", after=count_ack)
            return register_flow(device, flow_id, wrapped)

        self._patch(Device, "register_flow", register)
        self._patch_method(Connection, "send_message", "Connection.send_message", "transport")
        self._patch_method(
            MultipathConnection, "send_message", "MultipathConnection.send_message", "transport"
        )
        for cls in _subclasses(Steerer):
            self._patch_method(cls, "choose", "choose", "steering")
        for cls in _subclasses(CongestionControl):
            for hook in CC_HOOKS:
                self._patch_method(cls, hook, hook, "cc")

        self._patch_method(HvcNetwork, "__init__", "HvcNetwork.__init__", "core")
        self._patch_method(HvcNetwork, "open_connection", "open_connection", "core")
        self._patch_method(FluidBackground, "step", "FluidBackground.step", "fleet")
        self._patch_method(Channel, "fail", "Channel.fail", "faults")
        self._patch_method(Channel, "restore", "Channel.restore", "faults")
        self._patch_function("repro.traces.catalog", "get_trace", "traces")
        self._patch_function("repro.apps.web.browser", "load_page", "apps")

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []

    # ------------------------------------------------------------------
    def run_op(self, op_id: int, fn: Callable[[], object]) -> Tuple[object, float]:
        """Run ``fn`` as the root span of op ``op_id``; returns (result, wall s)."""
        self.op_id = op_id
        sid = self._ids[0] = self._ids[0] + 1
        root = [0.0, sid, LAYERS.index("other")]
        self._stack.append(root)
        self.install()
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            self.uninstall()
            self._stack.pop()
            self.self_s[self.root] += (end - start) - root[0]
            self.calls[self.root] += 1
            if len(self.records) < SPAN_CAP:
                self.records.append((sid, self.root, start, end, 0, op_id))
        self.spans = self._ids[0]
        return result, end - start

    # ------------------------------------------------------------------
    def layer_self_s(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for index, seconds in enumerate(self.self_s):
            out[LAYERS[self.name_layer[index]]] += seconds
        return out

    def calls_of(self, name: str) -> int:
        index = self._index.get(name)
        return self.calls[index] if index is not None else 0

    def self_of(self, name: str) -> float:
        index = self._index.get(name)
        return self.self_s[index] if index is not None else 0.0

    def total_of(self, name: str) -> float:
        """Inclusive seconds of every span named ``name``."""
        index = self._index.get(name)
        return self.total_s[index] if index is not None else 0.0

    def write_spans(self, path: str) -> None:
        """A header line naming the fields, then one JSON array per recorded span."""
        with open(path, "w") as handle:
            handle.write(json.dumps({
                "fields": ["id", "name", "start", "end", "parent", "op"],
                "names": self.names,
                "layers": [LAYERS[i] for i in self.name_layer],
                "spans": self.spans,
                "recorded": len(self.records),
            }) + "\n")
            for record in self.records:
                handle.write(json.dumps(record) + "\n")
