"""A reliable, full-duplex, message-aware transport connection.

The design is TCP-shaped (byte sequence space, cumulative + selective ACKs,
Jacobson RTO, SACK-based loss recovery per RFC 6675) with two QUIC-shaped
additions the paper needs:

* **Message boundaries & priorities.** Applications write *messages*;
  segments never straddle a boundary and every packet carries its message's
  id/priority/remaining-bytes tags, so cross-layer steering policies can act
  on them (§3.3). Policies that ignore the tags see plain packets (§3.1).
* **Channel echo.** Pure ACKs echo which channel the acked data travelled
  on, giving HVC-aware congestion control per-channel RTT attribution
  (§3.2) — information a real multi-channel transport would have.

The connection is simulation-native: it owns no socket, it just exchanges
:class:`~repro.net.packet.Packet` objects through its host's
:class:`~repro.net.node.Device` (where steering happens).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro._compat import hot_dataclass
from repro.errors import TransportError
from repro.net.node import Device
from repro.net.packet import Packet, PacketType
from repro.obs.probes import probe_for
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.transport.cc import make_cc
from repro.transport.cc.base import AckSample, CongestionControl
from repro.transport.rtx import RttEstimator
from repro.units import DEFAULT_MSS

DUP_ACK_THRESHOLD = 3
#: RFC 6675-style reordering allowance: a hole is "lost" once data this many
#: bytes above it has been selectively acknowledged.
SACK_REORDER_BYTES_FACTOR = 3
#: Number of SACK ranges an ACK carries (TCP fits ~3 in options).
MAX_SACK_RANGES = 3


@hot_dataclass
class Segment:
    """Sender-side record of one transmitted segment."""

    seq: int
    end_seq: int
    sent_at: float
    delivered_at_send: int
    retransmitted: bool = False
    sacked: bool = False
    #: Declared lost (awaiting retransmission); excluded from the pipe.
    lost: bool = False
    #: Don't re-declare lost before this time (post-retransmit grace).
    no_remark_until: float = 0.0
    channel: Optional[int] = None
    message_id: Optional[int] = None
    message_priority: Optional[int] = None
    message_last: bool = False
    message_start: Optional[int] = None
    #: Total size of the message this segment belongs to (schedulers use it
    #: to recognize latency-bound small messages from their first segment).
    message_size: Optional[int] = None

    @property
    def size(self) -> int:
        return self.end_seq - self.seq


@hot_dataclass
class OutgoingMessage:
    """One application message queued on the send side."""

    start: int
    end: int
    message_id: int
    priority: Optional[int]
    on_acked: Optional[Callable[["OutgoingMessage", float], None]] = None
    acked_at: Optional[float] = None

    @property
    def size(self) -> int:
        return self.end - self.start


@hot_dataclass
class MessageReceipt:
    """Receiver-side notification for one completed message."""

    message_id: int
    priority: Optional[int]
    size: int
    completed_at: float


@hot_dataclass
class RttRecord:
    """One RTT measurement, kept for analysis (Fig. 1b)."""

    time: float
    rtt: float
    data_channel: Optional[int]
    ack_channel: Optional[int]


@dataclass
class ConnectionStats:
    """Lifetime accounting for one connection endpoint."""

    bytes_sent: int = 0
    bytes_acked: int = 0
    bytes_received: int = 0
    segments_sent: int = 0
    retransmissions: int = 0
    timeouts: int = 0
    #: RTOs that fired while *every* channel was down. Retransmitting into a
    #: blackout is pointless and would poison the congestion controller, so
    #: these back off the timer without touching cwnd.
    blackout_timeouts: int = 0
    #: Fast retransmissions issued right after a channel came back up.
    recovery_probes: int = 0
    fast_retransmits: int = 0
    rtt_records: List[RttRecord] = field(default_factory=list)
    #: (time, cumulative bytes delivered) checkpoints for throughput series.
    delivered_timeline: List[Tuple[float, int]] = field(default_factory=list)


class Connection:
    """One endpoint of a reliable connection.

    Create one at each host with the same ``flow_id``; they find each other
    through the channel set. The side that calls :meth:`send_message` first
    drives data; both directions may send concurrently.
    """

    def __init__(
        self,
        sim: Simulator,
        device: Device,
        flow_id: int,
        cc: str = "cubic",
        mss: int = DEFAULT_MSS,
        min_rto: float = 0.2,
        flow_priority: Optional[int] = None,
        handshake: bool = False,
        on_message: Optional[Callable[[MessageReceipt], None]] = None,
        ack_bytes: int = 0,
        tenant_id: Optional[int] = None,
        sack: bool = True,
        pacing: bool = True,
        blackout_suppression: bool = True,
    ) -> None:
        self.sim = sim
        self.device = device
        self.flow_id = flow_id
        self.mss = mss
        self.cc: CongestionControl = make_cc(cc, mss=mss) if isinstance(cc, str) else cc
        self.rtt = RttEstimator(min_rto=min_rto)
        self.flow_priority = flow_priority
        #: Fleet-mode tenant this connection belongs to (``None`` outside
        #: multi-tenant runs); lets experiments attribute foreground flows
        #: to tenants and requirement classes.
        self.tenant_id = tenant_id
        self.on_message = on_message
        #: Payload bytes a pure ACK carries (0 = genuinely pure). Setting
        #: this >0 models "data tacked onto the ACK" (§3.2 discussion).
        self.ack_bytes = ack_bytes
        #: Component switches for the ablation harness. Off means: ACKs
        #: carry no SACK ranges / the pacer never gates a send / RTOs
        #: during total blackout take the normal timeout path.
        self.sack_enabled = sack
        self.pacing_enabled = pacing
        self.blackout_suppression = blackout_suppression
        self.stats = ConnectionStats()
        #: Transport probe (:class:`repro.obs.ConnectionProbe`), attached
        #: automatically when the device is wired into an observability
        #: context with probes enabled; ``None`` otherwise.
        self.obs = probe_for(device, flow_id)

        # --- send state ---
        self._write_end = 0
        self._snd_una = 0
        self._snd_nxt = 0
        self._segments: List[Segment] = []  # outstanding, ordered by seq
        #: Loss-scan cursor: every segment below this index is sacked or
        #: already marked lost, so ``_detect_losses`` never re-reads the
        #: settled prefix. Shrinks with prefix deletions; resets to 0 when
        #: a retransmission clears a ``lost`` flag (the only way a
        #: settled segment becomes scannable again).
        self._scan_lo = 0
        #: Loss-sweep high-water mark: every unsacked segment with
        #: ``end_seq <= _loss_swept`` has already been examined against
        #: the SACK-reordering threshold (the threshold is monotone, so
        #: each ACK only needs to sweep the newly uncovered span). The
        #: deferred leftovers — segments below the mark whose
        #: ``no_remark_until`` was still in the future — wait in
        #: ``_remark_pending`` instead of forcing a re-walk of the whole
        #: sacked scoreboard.
        self._loss_swept = float("-inf")
        self._remark_pending: List[Segment] = []
        #: Wake gates for ``_remark_pending``: the earliest holdoff expiry
        #: and the lowest blocking ``end_seq`` among deferred segments. A
        #: pending segment can only become markable when the clock passes
        #: its holdoff or the threshold reaches its ``end_seq``, so the
        #: scan is skipped entirely until one of the gates trips — a mass
        #: retransmission (RTO) parks the whole window here without
        #: every later ACK re-walking it.
        self._pending_time_wake = float("inf")
        self._pending_seq_wake = float("inf")
        self._retx_queue: List[Segment] = []  # declared lost, to resend first
        self._flight_bytes = 0
        self._highest_sacked = 0
        self._messages: List[OutgoingMessage] = []
        self._next_message_index = 0  # first message not fully acked
        self._dup_acks = 0
        self._recovery_end: Optional[int] = None
        self._rto_event: Optional[Event] = None
        #: Lazy RTO: the deadline that actually matters. Every transmit
        #: and ACK "re-arms" the timer by storing a new deadline here
        #: (one float assignment); the single scheduled event checks the
        #: deadline when it fires and sleeps the remainder. This removes
        #: the cancel+push pair per packet the eager idiom paid.
        self._rto_deadline: Optional[float] = None
        self._pacing_event: Optional[Event] = None
        self._next_send_time = 0.0
        self._total_delivered = 0
        self._auto_message_ids = iter(range(10**9, 2 * 10**9))

        # --- receive state ---
        self._rcv_nxt = 0
        self._ooo_ranges: List[Tuple[int, int]] = []
        self._message_ends: Dict[int, Tuple[int, Optional[int], int]] = {}

        # --- connection state ---
        self._established = not handshake
        self._handshake_pending = handshake
        self._closed = False
        #: True while RTOs are being suppressed because no channel is up;
        #: cleared by the first channel-up transition, which re-probes fast.
        self._blackout_suppressed = False

        device.register_flow(flow_id, self._on_packet)
        device.on_channel_transition_hooks.append(self._on_channel_transition)

    # ==================================================================
    # Application interface
    # ==================================================================
    def send_message(
        self,
        size_bytes: int,
        message_id: Optional[int] = None,
        priority: Optional[int] = None,
        on_acked: Optional[Callable[[OutgoingMessage, float], None]] = None,
    ) -> OutgoingMessage:
        """Queue one application message of ``size_bytes`` for delivery.

        ``on_acked(message, time)`` fires when every byte of the message has
        been cumulatively acknowledged. The receiving endpoint's
        ``on_message`` fires when the peer has the complete message.
        """
        if self._closed:
            raise TransportError(f"flow {self.flow_id}: send on closed connection")
        if size_bytes <= 0:
            raise TransportError(f"message size must be positive, got {size_bytes}")
        if message_id is None:
            message_id = next(self._auto_message_ids)
        message = OutgoingMessage(
            start=self._write_end,
            end=self._write_end + size_bytes,
            message_id=message_id,
            priority=priority,
            on_acked=on_acked,
        )
        self._write_end = message.end
        self._messages.append(message)
        if self._handshake_pending:
            self._start_handshake()
        else:
            self._try_send()
        return message

    def close(self) -> None:
        """Stop timers and detach from the device."""
        if self._closed:
            return
        self._closed = True
        self._rto_deadline = None
        if self._rto_event is not None:
            self.sim.cancel(self._rto_event)
            self._rto_event = None
        if self._pacing_event is not None:
            self.sim.cancel(self._pacing_event)
            self._pacing_event = None
        self.device.unregister_flow(self.flow_id)
        try:
            self.device.on_channel_transition_hooks.remove(self._on_channel_transition)
        except ValueError:
            pass

    @property
    def bytes_in_flight(self) -> int:
        """Estimated bytes in the network (SACKed and lost bytes excluded)."""
        return self._flight_bytes

    @property
    def bytes_outstanding(self) -> int:
        """Bytes sent but not cumulatively acknowledged."""
        return self._snd_nxt - self._snd_una

    @property
    def bytes_unsent(self) -> int:
        return self._write_end - self._snd_nxt

    @property
    def established(self) -> bool:
        return self._established

    def audit_state(self) -> dict:
        """Internal state snapshot for the invariant monitor.

        Everything :mod:`repro.check` needs to assert the transport's
        conservation laws without reaching into private fields: sequence
        bounds, the flight-byte ledger and its recomputation from the
        segment list, receive-side contiguity, and the CC/RTO envelope.
        """
        return {
            "snd_una": self._snd_una,
            "snd_nxt": self._snd_nxt,
            "write_end": self._write_end,
            "flight_bytes": self._flight_bytes,
            "segment_flight": sum(
                s.size for s in self._segments if not s.sacked and not s.lost
            ),
            "segments": [(s.seq, s.end_seq) for s in self._segments],
            "retx_queued": len(self._retx_queue),
            "rcv_nxt": self._rcv_nxt,
            "ooo_ranges": list(self._ooo_ranges),
            "cwnd_bytes": self.cc.cwnd_bytes,
            "pacing_rate_bps": (
                self.cc.pacing_rate_bps if self.pacing_enabled else None
            ),
            "rto": self.rtt.rto,
            "min_rto": self.rtt.min_rto,
            "max_rto": self.rtt.max_rto,
            "bytes_acked": self.stats.bytes_acked,
            "bytes_sent": self.stats.bytes_sent,
            "closed": self._closed,
        }

    # ==================================================================
    # Handshake
    # ==================================================================
    def _start_handshake(self) -> None:
        self._handshake_pending = False
        self.device.send(self._make_packet(PacketType.SYN))
        # If the SYN is lost the connection would hang; retry on a timer.
        self._rto_event = self.sim.schedule(self.rtt.rto, self._handshake_timeout)

    def _handshake_timeout(self) -> None:
        self._rto_event = None
        if not self._established and not self._closed:
            self.device.send(self._make_packet(PacketType.SYN))
            self.rtt.on_timeout()
            self._rto_event = self.sim.schedule(self.rtt.rto, self._handshake_timeout)

    def _on_syn(self, packet: Packet) -> None:
        if not self._established:
            self._established = True
            if self._rto_event is not None:
                self.sim.cancel(self._rto_event)
                self._rto_event = None
            # Respond so the initiator establishes too (SYN/SYN-ACK).
            if packet.ack_seq == 0:
                reply = self._make_packet(PacketType.SYN)
                reply.ack_seq = 1
                self.device.send(reply)
            self._try_send()
        elif packet.ack_seq == 0:
            # Duplicate SYN from a peer retry: re-acknowledge it.
            reply = self._make_packet(PacketType.SYN)
            reply.ack_seq = 1
            self.device.send(reply)

    # ==================================================================
    # Send path
    # ==================================================================
    def _make_packet(self, ptype: PacketType, payload: int = 0) -> Packet:
        packet = Packet(flow_id=self.flow_id, ptype=ptype, payload_bytes=payload)
        packet.created_at = self.sim.now
        packet.flow_priority = self.flow_priority
        return packet

    def _message_for_offset(self, offset: int) -> OutgoingMessage:
        for message in self._messages[self._next_message_index:]:
            if message.start <= offset < message.end:
                return message
        raise TransportError(f"flow {self.flow_id}: no message covers offset {offset}")

    def _window_allows(self, size: int) -> bool:
        return self._flight_bytes + size <= self.cc.cwnd_bytes

    def _pacing_gate(self) -> bool:
        """True if sending must wait for the pacer; schedules the wake-up."""
        if not self.pacing_enabled:
            return False
        if self.cc.pacing_rate_bps is None or self.sim.now >= self._next_send_time:
            return False
        if self._pacing_event is None:
            self._pacing_event = self.sim.schedule(
                self._next_send_time - self.sim.now, self._pacing_wakeup
            )
        return True

    def _pacing_wakeup(self) -> None:
        self._pacing_event = None
        self._try_send()

    def _advance_pacer(self, size_bytes: int) -> None:
        if not self.pacing_enabled:
            return
        pacing_rate = self.cc.pacing_rate_bps
        if pacing_rate is not None and pacing_rate > 0:
            interval = (size_bytes + 40) * 8 / pacing_rate
            self._next_send_time = max(self._next_send_time, self.sim.now) + interval

    def _try_send(self) -> None:
        if not self._established or self._closed:
            return
        while True:
            # Lost segments are resent before new data.
            if self._retx_queue:
                segment = self._retx_queue[0]
                if not self._window_allows(segment.size) or self._pacing_gate():
                    return
                self._retx_queue.pop(0)
                if segment.sacked or segment.end_seq <= self._snd_una:
                    continue  # acknowledged while queued
                self._retransmit_segment(segment)
                continue
            if self.bytes_unsent <= 0:
                return
            if not self._window_allows(self.mss) or self._pacing_gate():
                return
            self._send_new_segment()

    def _send_new_segment(self) -> None:
        message = self._message_for_offset(self._snd_nxt)
        size = min(self.mss, message.end - self._snd_nxt)
        segment = Segment(
            seq=self._snd_nxt,
            end_seq=self._snd_nxt + size,
            sent_at=self.sim.now,
            delivered_at_send=self._total_delivered,
            message_id=message.message_id,
            message_priority=message.priority,
            message_last=(self._snd_nxt + size == message.end),
            message_start=message.start,
            message_size=message.size,
        )
        self._snd_nxt += size
        self._segments.append(segment)
        self._flight_bytes += size
        self._transmit(segment, retransmission=False)

    def _retransmit_segment(self, segment: Segment) -> None:
        segment.lost = False
        self._scan_lo = 0  # the segment re-enters the loss scan
        # Its end_seq is behind the sweep high-water mark, so the delta
        # sweep will never revisit it — queue it for re-examination once
        # the remark holdoff below expires.
        segment.retransmitted = True
        segment.sent_at = self.sim.now
        segment.no_remark_until = self.sim.now + (self.rtt.srtt or 0.1)
        self._remark_pending.append(segment)
        if segment.no_remark_until < self._pending_time_wake:
            self._pending_time_wake = segment.no_remark_until
        self._flight_bytes += segment.size
        self.stats.retransmissions += 1
        self._transmit(segment, retransmission=True)

    def _transmit(self, segment: Segment, retransmission: bool) -> None:
        packet = self._make_packet(PacketType.DATA, payload=segment.size)
        packet.seq = segment.seq
        packet.end_seq = segment.end_seq
        packet.is_retransmission = retransmission
        packet.segment = segment
        packet.message_id = segment.message_id
        packet.message_priority = segment.message_priority
        packet.message_last = segment.message_last
        packet.message_start = segment.message_start
        self.device.send(packet)
        segment.channel = packet.channel_index
        self.stats.segments_sent += 1
        self.stats.bytes_sent += segment.size
        self._advance_pacer(segment.size)
        self.cc.on_sent(self.sim.now, segment.size, self._flight_bytes)
        self._arm_rto()

    # ------------------------------------------------------------------
    # Retransmission timer
    # ------------------------------------------------------------------
    def _arm_rto(self) -> None:
        if self._snd_una < self._snd_nxt:
            deadline = self.sim.now + self.rtt.rto
            self._rto_deadline = deadline
            event = self._rto_event
            if event is None or event.cancelled:
                self._rto_event = self.sim.schedule(self.rtt.rto, self._on_rto)
            elif deadline < event.time:
                # The deadline moved *earlier* than the filed event (an
                # RTO shrink outrunning the clock — e.g. backoff reset
                # after a blackout). Only this rare case pays the
                # cancel+push; the common per-packet re-arm is the
                # deadline store above.
                self._rto_event = self.sim.reschedule(event, self.rtt.rto, self._on_rto)
        else:
            self._rto_deadline = None
            if self._rto_event is not None:
                self.sim.cancel(self._rto_event)
                self._rto_event = None

    def _on_rto(self) -> None:
        self._rto_event = None
        if self._closed or self._snd_una >= self._snd_nxt:
            return
        deadline = self._rto_deadline
        if deadline is not None and deadline > self.sim.now:
            # Re-armed lazily since this event was filed: the timeout
            # fires at exactly the deadline the eager idiom would have
            # used — sleep the remainder.
            self._rto_event = self.sim.schedule_at(deadline, self._on_rto)
            return
        if self.blackout_suppression and not self.device.any_channel_up():
            # Total blackout: the timeout measured the outage, not
            # congestion. Don't collapse cwnd, don't waste a retransmission
            # the device would drop anyway — just back the timer off and
            # wait for the channel-up signal to re-probe.
            self.stats.blackout_timeouts += 1
            self.rtt.on_timeout()
            self._blackout_suppressed = True
            if self.obs is not None:
                # Probe the suppressed fire too: a run of timeout samples
                # with growing RTO but flat cwnd is the blackout signature.
                self.obs.on_timeout(self)
            self._rto_deadline = self.sim.now + self.rtt.rto
            self._rto_event = self.sim.schedule(self.rtt.rto, self._on_rto)
            return
        self.stats.timeouts += 1
        self.rtt.on_timeout()
        self.cc.on_timeout(self.sim.now)
        if self.obs is not None:
            self.obs.on_timeout(self)
        # RFC 5681 semantics: after an RTO the whole outstanding window is
        # presumed lost and the pipe empty. Without this, segments that died
        # in a channel outage (never SACKed, so never marked lost) keep
        # inflating flight_bytes above the collapsed cwnd and recovery
        # degenerates to one segment per backed-off RTO.
        unsacked = [s for s in self._segments if not s.sacked]
        for segment in unsacked:
            if not segment.lost:
                self._flight_bytes -= segment.size
                segment.lost = True
        # Rebuild the retransmission queue in sequence order: the hole at
        # snd_una is what advances the cumulative ACK (and clears the
        # backoff), so it must go out first, whatever order losses were
        # declared in before the timeout.
        self._retx_queue = list(unsacked)
        if self._retx_queue:
            first = self._retx_queue.pop(0)
            self._retransmit_segment(first)
            self._try_send()
        else:
            self._arm_rto()

    def _on_channel_transition(self, channel, up: bool, now: float) -> None:
        """Fault-aware recovery: a channel coming back up ends the wait.

        If RTOs were suppressed during a total blackout, the backed-off
        timer may be minutes out — but the recovery signal is local and
        certain, so forget the backoff and immediately re-probe with the
        first unacknowledged segment (no congestion penalty: nothing about
        the path's capacity was learned from the outage).
        """
        if not up or self._closed or not self._blackout_suppressed:
            return
        self._blackout_suppressed = False
        self.rtt.reset_backoff()
        if self._snd_una >= self._snd_nxt:
            self._arm_rto()
            return
        first = next((s for s in self._segments if not s.sacked), None)
        if first is not None:
            self.stats.recovery_probes += 1
            if not first.lost:
                self._flight_bytes -= first.size
                first.lost = True
            if first in self._retx_queue:
                self._retx_queue.remove(first)
            self._retransmit_segment(first)
        self._try_send()

    # ==================================================================
    # Receive path
    # ==================================================================
    def _on_packet(self, packet: Packet) -> None:
        if self._closed:
            return
        if packet.ptype == PacketType.SYN:
            self._on_syn(packet)
        elif packet.ptype == PacketType.DATA:
            self._on_data(packet)
        elif packet.ptype == PacketType.ACK:
            self._on_ack(packet)

    # ------------------------------------------------------------------
    # Data reception → cumulative + selective ACK
    # ------------------------------------------------------------------
    def _on_data(self, packet: Packet) -> None:
        if not self._established:
            self._established = True  # data implies the peer established
        # An end at or below rcv_nxt has already fired; re-recording it
        # from a duplicate tail would leave it in _message_ends for good.
        if (
            packet.message_last
            and packet.message_id is not None
            and packet.end_seq > self._rcv_nxt
        ):
            start = packet.message_start if packet.message_start is not None else 0
            self._message_ends[packet.end_seq] = (
                packet.message_id,
                packet.message_priority,
                start,
            )
        self._merge_range(packet.seq, packet.end_seq)
        self.stats.bytes_received += packet.payload_bytes
        self._fire_completed_messages()
        self._send_ack(packet)

    def _merge_range(self, start: int, end: int) -> None:
        if end <= self._rcv_nxt:
            return  # pure duplicate
        self._ooo_ranges.append((max(start, self._rcv_nxt), end))
        self._ooo_ranges.sort()
        merged: List[Tuple[int, int]] = []
        for lo, hi in self._ooo_ranges:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        while merged and merged[0][0] <= self._rcv_nxt:
            self._rcv_nxt = max(self._rcv_nxt, merged.pop(0)[1])
        self._ooo_ranges = merged

    def _fire_completed_messages(self) -> None:
        completed = [end for end in self._message_ends if end <= self._rcv_nxt]
        for end in sorted(completed):
            message_id, priority, start = self._message_ends.pop(end)
            if self.on_message is not None:
                self.on_message(
                    MessageReceipt(
                        message_id=message_id,
                        priority=priority,
                        size=end - start,
                        completed_at=self.sim.now,
                    )
                )

    def _send_ack(self, data_packet: Packet) -> None:
        ack = self._make_packet(PacketType.ACK, payload=self.ack_bytes)
        ack.ack_seq = self._rcv_nxt
        ack.sack = (
            tuple(self._ooo_ranges[-MAX_SACK_RANGES:]) if self.sack_enabled else ()
        )
        # Echo which channel the data took, for HVC-aware CC attribution.
        ack.seq = data_packet.seq
        ack.segment = data_packet.segment
        ack.message_id = data_packet.message_id
        ack.message_priority = data_packet.message_priority
        self.device.send(ack)

    # ------------------------------------------------------------------
    # ACK processing → CC + RTT + SACK loss recovery
    # ------------------------------------------------------------------
    def _on_ack(self, packet: Packet) -> None:
        ack_seq = packet.ack_seq
        if ack_seq > self._snd_nxt:
            return  # corrupt/stale beyond what we sent
        newly_acked = max(0, ack_seq - self._snd_una)
        newest: Optional[Segment] = None

        if newly_acked:
            self._snd_una = ack_seq
            self._dup_acks = 0
            # Forward progress proves the path carries data again; a backoff
            # accumulated during an outage must not throttle recovery (the
            # acked data may all be retransmissions, so Karn's rule would
            # never produce the sample that normally clears it).
            self.rtt.reset_backoff()
            self._total_delivered += newly_acked
            self.stats.bytes_acked = self._snd_una
            self.stats.delivered_timeline.append((self.sim.now, self._total_delivered))
            newest = self._ack_segments_below(ack_seq)
            if self._recovery_end is not None and ack_seq >= self._recovery_end:
                self._recovery_end = None
        elif ack_seq == self._snd_una:
            # A genuine duplicate. Acks that race across channels arrive
            # *stale* (ack_seq < snd_una) and must not count — treating them
            # as dup-acks causes spurious loss recovery.
            self._dup_acks += 1

        newest = self._apply_sack(packet.sack) or newest

        rtt_sample: Optional[float] = None
        delivery_rate: Optional[float] = None
        if newest is not None:
            rtt_sample = self.sim.now - newest.sent_at
            self.rtt.on_sample(rtt_sample)
            delivered = self._total_delivered - newest.delivered_at_send
            if rtt_sample > 0:
                delivery_rate = delivered * 8.0 / rtt_sample
            self.stats.rtt_records.append(
                RttRecord(
                    time=self.sim.now,
                    rtt=rtt_sample,
                    data_channel=newest.channel,
                    ack_channel=packet.channel_index,
                )
            )

        self._detect_losses()

        sample = AckSample(
            now=self.sim.now,
            rtt=rtt_sample,
            newly_acked=newly_acked,
            in_flight=self._flight_bytes,
            delivery_rate=delivery_rate,
            app_limited=self.bytes_unsent == 0,
            data_channel=newest.channel if newest is not None else None,
            ack_channel=packet.channel_index,
            total_delivered=self._total_delivered,
        )
        self.cc.on_ack(sample)
        if self.obs is not None:
            self.obs.on_ack(self)
        self._fire_acked_messages()
        self._arm_rto()  # re-arms on outstanding data, disarms otherwise
        self._try_send()

    # ``_segments`` is kept sorted by ``seq`` (equivalently ``end_seq``):
    # new segments carve contiguous ranges off the send stream and are
    # appended in order, and nothing ever reorders the list. The three
    # per-ACK scans below lean on that — each is O(affected segments)
    # instead of O(outstanding window), which is where fig1a-scale runs
    # spend most of their transport time.

    def _ack_segments_below(self, ack_seq: int) -> Optional[Segment]:
        """Drop cumulatively acked segments; return the newest RTT-eligible.

        Cumulatively acked segments form a prefix of the sorted list, so
        this walks only that prefix and deletes it in one slice.
        """
        newest: Optional[Segment] = None
        segments = self._segments
        idx = 0
        for segment in segments:
            if segment.end_seq > ack_seq:
                break
            idx += 1
            if not segment.sacked and not segment.lost:
                self._flight_bytes -= segment.size
            if not segment.retransmitted:
                newest = segment
        if idx:
            del segments[:idx]
            lo = self._scan_lo - idx
            self._scan_lo = lo if lo > 0 else 0
        return newest

    def _bisect_seq(self, seq: int) -> int:
        """Index of the first segment with ``segment.seq >= seq``."""
        segments = self._segments
        lo, hi = 0, len(segments)
        while lo < hi:
            mid = (lo + hi) // 2
            if segments[mid].seq < seq:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _apply_sack(self, ranges: tuple) -> Optional[Segment]:
        """Mark SACKed segments; return the newest one for RTT sampling.

        Each SACK range covers a contiguous run of segments: binary-search
        to its first segment, walk until ``end_seq`` leaves the range.
        """
        if not ranges:
            return None
        segments = self._segments
        newest_idx = -1
        for lo, hi in ranges:
            i = self._bisect_seq(lo)
            n = len(segments)
            while i < n:
                segment = segments[i]
                if segment.end_seq > hi:
                    break
                if not segment.sacked:
                    segment.sacked = True
                    if segment.lost:
                        segment.lost = False
                    else:
                        self._flight_bytes -= segment.size
                    if segment.end_seq > self._highest_sacked:
                        self._highest_sacked = segment.end_seq
                    if not segment.retransmitted and i > newest_idx:
                        newest_idx = i
                i += 1
        return segments[newest_idx] if newest_idx >= 0 else None

    def _detect_losses(self) -> None:
        """SACK-based loss inference (RFC 6675-lite) + dup-ACK fallback.

        The reordering threshold is monotone (``_highest_sacked`` never
        goes backwards), so each call sweeps only the span of segments
        the threshold newly uncovered since the previous call — not the
        whole sub-threshold scoreboard, which is mostly SACKed holes'
        neighbours that a full walk re-read on every ACK. Segments
        examined while their remark holdoff was still running wait in
        ``_remark_pending``; retransmissions re-enter through the same
        list (see :meth:`_retransmit_segment`).
        """
        threshold = self._highest_sacked - SACK_REORDER_BYTES_FACTOR * self.mss
        newly_lost: List[Segment] = []
        now = self.sim.now
        segments = self._segments
        n = len(segments)
        # Advance the cursor past the settled (sacked-or-lost) prefix —
        # the dup-ACK fallback below needs the first unsettled segment.
        lo = self._scan_lo
        while lo < n:
            segment = segments[lo]
            if segment.sacked or segment.lost:
                lo += 1
            else:
                break
        self._scan_lo = lo
        # Deferred candidates whose holdoff may have expired. Entries are
        # dropped once settled (sacked, re-lost, or cumulatively acked —
        # an acked segment left ``_segments`` entirely and must not be
        # remarked through the retained reference).
        pending = self._remark_pending
        if pending and (
            now >= self._pending_time_wake or threshold >= self._pending_seq_wake
        ):
            keep: List[Segment] = []
            time_wake = float("inf")
            seq_wake = float("inf")
            snd_una = self._snd_una
            for segment in pending:
                if segment.sacked or segment.lost or segment.end_seq <= snd_una:
                    continue
                if segment.end_seq > threshold:
                    keep.append(segment)
                    if segment.end_seq < seq_wake:
                        seq_wake = segment.end_seq
                    continue
                if now < segment.no_remark_until:
                    keep.append(segment)
                    if segment.no_remark_until < time_wake:
                        time_wake = segment.no_remark_until
                    continue
                segment.lost = True
                self._flight_bytes -= segment.size
                newly_lost.append(segment)
            self._remark_pending = keep
            self._pending_time_wake = time_wake
            self._pending_seq_wake = seq_wake
        # Fresh candidates: the span the threshold uncovered since the
        # last sweep, ``end_seq`` in (swept, threshold]. New segments are
        # created above the threshold (their seq exceeds the highest
        # SACK), so every segment is examined by exactly one delta sweep.
        swept = self._loss_swept
        if threshold > swept:
            i, hi = 0, n
            while i < hi:
                mid = (i + hi) // 2
                if segments[mid].end_seq <= swept:
                    i = mid + 1
                else:
                    hi = mid
            while i < n:
                segment = segments[i]
                i += 1
                if segment.end_seq > threshold:
                    break
                if segment.sacked or segment.lost:
                    continue
                if now >= segment.no_remark_until:
                    segment.lost = True
                    self._flight_bytes -= segment.size
                    newly_lost.append(segment)
                else:
                    self._remark_pending.append(segment)
                    if segment.no_remark_until < self._pending_time_wake:
                        self._pending_time_wake = segment.no_remark_until
            self._loss_swept = threshold
        if len(newly_lost) > 1:
            # Both sources feed the retransmission queue; keep the
            # sequence order the single-walk implementation produced.
            newly_lost.sort(key=lambda s: s.seq)
        if not newly_lost and self._dup_acks >= DUP_ACK_THRESHOLD:
            # segments[lo] is by construction the first segment that is
            # neither sacked nor lost (and the first loop marked nothing
            # on this branch), so the old linear probe collapses to it.
            first = segments[lo] if lo < n else None
            if first is not None and self.sim.now >= first.no_remark_until:
                first.lost = True
                self._flight_bytes -= first.size
                newly_lost.append(first)
                self._dup_acks = 0
        if newly_lost:
            self._retx_queue.extend(newly_lost)
            self.cc.on_lost(
                self.sim.now,
                sum(s.size for s in newly_lost),
                self._flight_bytes,
            )
            if self._recovery_end is None:
                # One congestion response per window of loss.
                self._recovery_end = self._snd_nxt
                self.stats.fast_retransmits += 1
                self.cc.on_loss(self.sim.now, self._flight_bytes)

    def _fire_acked_messages(self) -> None:
        while self._next_message_index < len(self._messages):
            message = self._messages[self._next_message_index]
            if message.end > self._snd_una:
                break
            message.acked_at = self.sim.now
            if message.on_acked is not None:
                message.on_acked(message, self.sim.now)
            self._next_message_index += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Connection flow={self.flow_id} una={self._snd_una} nxt={self._snd_nxt}"
            f" inflight={self._flight_bytes} cc={self.cc.name}>"
        )
