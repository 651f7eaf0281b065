"""Multipath transport with per-channel subflows (the paper's §4 design).

This is the MPQUIC-shaped endpoint the paper sketches as the natural home
for HVC awareness: one connection, one data-level sequence space, but a
**subflow per channel**, each with its own congestion controller and RTT
estimator. Because every subflow's packets stay on one channel, RTT samples
are never bimodal — the Fig. 1 pathology cannot arise by construction.

Segment placement is a pluggable *scheduler*:

* ``"minrtt"`` — MPTCP's default: the lowest-smoothed-RTT subflow with
  congestion window space (bandwidth aggregation, heterogeneity-blind).
* ``"hvc"`` — the paper's: bulk data fills the high-bandwidth subflow;
  the low-latency subflow is reserved for message tails, small messages
  and loss repair, so it accelerates exactly the bytes an application is
  blocked on. ACKs always return on the low-latency channel.

Reliability is data-level (like MPTCP's DSN space): a segment lost on one
subflow may be *reinjected* on another.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import TransportError
from repro.net.node import Device
from repro.net.packet import Packet, PacketType
from repro.obs.probes import probe_for
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.transport.cc import make_cc
from repro.transport.cc.base import AckSample, CongestionControl
from repro.transport.connection import (
    MessageReceipt,
    OutgoingMessage,
    RttRecord,
    Segment,
)
from repro.transport.rtx import RttEstimator
from repro.units import DEFAULT_MSS

SACK_REORDER_BYTES_FACTOR = 3
MAX_SACK_RANGES = 3
#: Messages at most this large count as latency-bound for the hvc scheduler.
SMALL_MESSAGE_BYTES = 3000

SCHEDULERS = ("minrtt", "hvc")


class Subflow:
    """Per-channel sending state: CC, RTT estimator, in-flight accounting."""

    def __init__(self, channel_index: int, cc: CongestionControl, min_rto: float) -> None:
        self.channel_index = channel_index
        self.cc = cc
        self.rtt = RttEstimator(min_rto=min_rto)
        self.in_flight = 0
        self.next_send_time = 0.0

    def has_window(self, size: int) -> bool:
        return self.in_flight + size <= self.cc.cwnd_bytes

    @property
    def srtt(self) -> float:
        return self.rtt.srtt if self.rtt.srtt is not None else 0.05

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Subflow ch={self.channel_index} cwnd={self.cc.cwnd_bytes:.0f} "
            f"inflight={self.in_flight}>"
        )


class MultipathConnection:
    """One endpoint of a multipath connection (one subflow per channel)."""

    def __init__(
        self,
        sim: Simulator,
        device: Device,
        flow_id: int,
        cc: str = "cubic",
        scheduler: str = "hvc",
        mss: int = DEFAULT_MSS,
        min_rto: float = 0.2,
        flow_priority: Optional[int] = None,
        on_message: Optional[Callable[[MessageReceipt], None]] = None,
    ) -> None:
        if scheduler not in SCHEDULERS:
            raise TransportError(
                f"unknown scheduler {scheduler!r}; known: {', '.join(SCHEDULERS)}"
            )
        if not device.channels:
            raise TransportError("device has no channels; attach before opening")
        self.sim = sim
        self.device = device
        self.flow_id = flow_id
        self.mss = mss
        self.scheduler = scheduler
        self.flow_priority = flow_priority
        self.on_message = on_message
        self.subflows: List[Subflow] = [
            Subflow(i, make_cc(cc, mss=mss), min_rto)
            for i in range(len(device.channels))
        ]
        self.stats_rtt_records: List[RttRecord] = []
        self.delivered_timeline: List[Tuple[float, int]] = []
        self.retransmissions = 0
        self.timeouts = 0
        #: Transport probe (:class:`repro.obs.MultipathProbe`): one
        #: cwnd/srtt/inflight/RTO series per subflow when the device is
        #: wired into an observability context with probes enabled.
        self.obs = probe_for(device, flow_id, multipath=True)

        # Data-level send state (mirrors Connection's, minus per-conn CC).
        self._write_end = 0
        self._snd_una = 0
        self._snd_nxt = 0
        self._segments: List[Segment] = []  # outstanding, ordered by seq
        self._retx_queue: List[Segment] = []
        self._messages: List[OutgoingMessage] = []
        self._next_message_index = 0
        self._total_delivered = 0
        self._rto_event: Optional[Event] = None
        #: Lazily-armed timeout instant. Per-transmit/per-ACK re-arms are a
        #: float store; the filed event sleeps the remainder when it fires
        #: early (same idiom as Connection._arm_rto).
        self._rto_deadline: Optional[float] = None
        self._pacing_event: Optional[Event] = None
        #: Per-channel high-water mark of sacked end_seq — the loss
        #: threshold base, maintained incrementally by ``_apply_sack`` so
        #: ``_detect_losses`` never rescans the sacked population.
        self._sack_high: Dict[Optional[int], int] = {}
        #: SACK spans already applied, merged and sorted. Receiver ranges
        #: are unions of whole segments and ``sacked`` is never cleared,
        #: so every segment inside a stored span is already sacked and
        #: ``_apply_sack`` walks only the parts of a range outside them.
        self._sacked_spans: List[Tuple[int, int]] = []
        #: First transmissions per channel, in seq order. The per-channel
        #: loss threshold only rises, so ``_detect_losses`` sweeps each
        #: list once, from ``_loss_swept[channel]`` up to the threshold.
        self._first_sends: Dict[int, List[Segment]] = {
            s.channel_index: [] for s in self.subflows
        }
        self._loss_swept: Dict[int, float] = {}
        #: Retransmissions, which the sweeps skip: a reinjection can move
        #: a segment to another channel, and its end_seq is already behind
        #: that channel's sweep. They are rescanned only when a wake gate
        #: trips: the clock reaching the earliest remark holdoff, or a
        #: channel's threshold reaching the lowest ``end_seq`` blocked on it.
        self._remark_pending: List[Segment] = []
        self._pending_time_wake = float("inf")
        self._pending_seq_wake: Dict[Optional[int], int] = {}
        self._auto_message_ids = iter(range(10**9, 2 * 10**9))

        # Receive state.
        self._rcv_nxt = 0
        self._ooo_ranges: List[Tuple[int, int]] = []
        self._message_ends: Dict[int, Tuple[int, Optional[int], int]] = {}
        self._closed = False

        device.register_flow(flow_id, self._on_packet)

    # ------------------------------------------------------------------
    # Channel roles
    # ------------------------------------------------------------------
    def _live_subflows(self) -> List[Subflow]:
        """Subflows whose channel is administratively up (all, if none are)."""
        live = [
            s for s in self.subflows if self.device.views[s.channel_index].up
        ]
        return live if live else list(self.subflows)

    def _ll_subflow(self) -> Subflow:
        """The live subflow on the lowest-base-delay channel."""
        return min(
            self._live_subflows(),
            key=lambda s: self.device.views[s.channel_index].base_delay,
        )

    def _hb_subflow(self) -> Subflow:
        """The live subflow on the highest-rate channel."""
        return max(
            self._live_subflows(),
            key=lambda s: self.device.views[s.channel_index].rate_bps,
        )

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    def send_message(
        self,
        size_bytes: int,
        message_id: Optional[int] = None,
        priority: Optional[int] = None,
        on_acked: Optional[Callable[[OutgoingMessage, float], None]] = None,
    ) -> OutgoingMessage:
        """Queue one message; semantics match Connection.send_message."""
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
        self._try_send()
        return message

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._rto_deadline = None
        for event_attr in ("_rto_event", "_pacing_event"):
            event = getattr(self, event_attr)
            if event is not None:
                self.sim.cancel(event)
                setattr(self, event_attr, None)
        self.device.unregister_flow(self.flow_id)

    @property
    def bytes_acked(self) -> int:
        return self._snd_una

    @property
    def bytes_unsent(self) -> int:
        return self._write_end - self._snd_nxt

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _pick_subflow(self, segment: Segment) -> Optional[Subflow]:
        if self.scheduler == "minrtt":
            candidates = [
                s for s in self._live_subflows() if s.has_window(segment.size)
            ]
            if not candidates:
                return None
            return min(candidates, key=lambda s: s.srtt)
        return self._pick_hvc(segment)

    def _pick_hvc(self, segment: Segment) -> Optional[Subflow]:
        """The paper's scheduler: reserve the LL subflow for urgent bytes."""
        ll = self._ll_subflow()
        hb = self._hb_subflow()
        urgent = segment.retransmitted or segment.message_last or (
            segment.message_size is not None
            and segment.message_size <= SMALL_MESSAGE_BYTES
        )
        if urgent and ll is not hb and ll.has_window(segment.size):
            return ll
        if hb.has_window(segment.size):
            return hb
        # HB full: bulk *waits*. Spilling bulk onto the low-latency subflow
        # would fill its queue and rob urgent segments of the acceleration —
        # the exact misuse of a narrow HVC the paper cautions against.
        return None

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def _message_for_offset(self, offset: int) -> OutgoingMessage:
        for message in self._messages[self._next_message_index:]:
            if message.start <= offset < message.end:
                return message
        raise TransportError(f"flow {self.flow_id}: no message covers offset {offset}")

    def _try_send(self) -> None:
        if self._closed:
            return
        progress = True
        while progress:
            progress = False
            if self._retx_queue:
                segment = self._retx_queue[0]
                if segment.sacked or segment.end_seq <= self._snd_una:
                    self._retx_queue.pop(0)
                    progress = True
                    continue
                subflow = self._pick_subflow(segment)
                if subflow is not None and not self._pacing_gate(subflow):
                    self._retx_queue.pop(0)
                    self._retransmit(segment, subflow)
                    progress = True
                continue
            if self.bytes_unsent <= 0:
                return
            probe = self._peek_next_segment()
            subflow = self._pick_subflow(probe)
            if subflow is None or self._pacing_gate(subflow):
                return
            self._commit_segment(probe, subflow)
            self._transmit(probe, subflow, retransmission=False)
            progress = True

    def _peek_next_segment(self) -> Segment:
        message = self._message_for_offset(self._snd_nxt)
        size = min(self.mss, message.end - self._snd_nxt)
        return Segment(
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

    def _commit_segment(self, segment: Segment, subflow: Subflow) -> None:
        self._snd_nxt = segment.end_seq
        self._segments.append(segment)
        self._first_sends[subflow.channel_index].append(segment)

    def _pacing_gate(self, subflow: Subflow) -> bool:
        if subflow.cc.pacing_rate_bps is None or self.sim.now >= subflow.next_send_time:
            return False
        if self._pacing_event is None:
            self._pacing_event = self.sim.schedule(
                subflow.next_send_time - self.sim.now, self._pacing_wakeup
            )
        return True

    def _pacing_wakeup(self) -> None:
        self._pacing_event = None
        self._try_send()

    def _retransmit(self, segment: Segment, subflow: Subflow) -> None:
        segment.lost = False
        segment.retransmitted = True
        segment.sent_at = self.sim.now
        segment.no_remark_until = self.sim.now + subflow.srtt
        # Loss detection re-examines it through the pending list once the
        # remark holdoff expires (see _detect_losses).
        self._remark_pending.append(segment)
        if segment.no_remark_until < self._pending_time_wake:
            self._pending_time_wake = segment.no_remark_until
        self.retransmissions += 1
        self._transmit(segment, subflow, retransmission=True)

    def _transmit(self, segment: Segment, subflow: Subflow, retransmission: bool) -> None:
        packet = Packet(
            flow_id=self.flow_id, ptype=PacketType.DATA, payload_bytes=segment.size
        )
        packet.created_at = self.sim.now
        packet.flow_priority = self.flow_priority
        packet.channel_hint = subflow.channel_index
        packet.seq = segment.seq
        packet.end_seq = segment.end_seq
        packet.is_retransmission = retransmission
        packet.message_id = segment.message_id
        packet.message_priority = segment.message_priority
        packet.message_last = segment.message_last
        packet.message_start = segment.message_start
        self.device.send(packet)
        segment.channel = subflow.channel_index
        subflow.in_flight += segment.size
        pacing = subflow.cc.pacing_rate_bps
        if pacing is not None and pacing > 0:
            interval = (segment.size + 40) * 8 / pacing
            subflow.next_send_time = max(subflow.next_send_time, self.sim.now) + interval
        subflow.cc.on_sent(self.sim.now, segment.size, subflow.in_flight)
        self._arm_rto()

    # ------------------------------------------------------------------
    # RTO (data-level: earliest outstanding segment, its subflow's RTO)
    # ------------------------------------------------------------------
    def _arm_rto(self) -> None:
        if self._snd_una < self._snd_nxt:
            rto = max(s.rtt.rto for s in self.subflows)
            deadline = self.sim.now + rto
            self._rto_deadline = deadline
            event = self._rto_event
            if event is None or event.cancelled:
                self._rto_event = self.sim.schedule(rto, self._on_rto)
            elif deadline < event.time:
                # Deadline moved earlier than the filed event (RTO shrink
                # outrunning the clock). Only this rare case pays the
                # cancel+push; the common re-arm is the store above.
                self._rto_event = self.sim.reschedule(event, rto, self._on_rto)
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
            # Re-armed lazily since this event was filed — sleep the
            # remainder; the real timeout fires at exactly the deadline
            # the eager idiom would have used.
            self._rto_event = self.sim.schedule_at(deadline, self._on_rto)
            return
        self.timeouts += 1
        first = next((s for s in self._segments if not s.sacked), None)
        if first is None:
            self._arm_rto()
            return
        carrier = self._subflow_for(first.channel)
        carrier.rtt.on_timeout()
        carrier.cc.on_timeout(self.sim.now)
        if self.obs is not None:
            self.obs.on_subflow_timeout(self, carrier)
        if not first.lost:
            carrier.in_flight = max(0, carrier.in_flight - first.size)
            first.lost = True
        if first in self._retx_queue:
            self._retx_queue.remove(first)
        # Reinject on whichever subflow the scheduler prefers now.
        subflow = self._pick_subflow(first) or carrier
        self._retransmit(first, subflow)

    def _subflow_for(self, channel_index: Optional[int]) -> Subflow:
        if channel_index is not None:
            for subflow in self.subflows:
                if subflow.channel_index == channel_index:
                    return subflow
        return self.subflows[0]

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _on_packet(self, packet: Packet) -> None:
        if self._closed:
            return
        if packet.ptype == PacketType.DATA:
            self._on_data(packet)
        elif packet.ptype == PacketType.ACK:
            self._on_ack(packet)

    def _on_data(self, packet: Packet) -> None:
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
        self._fire_completed_messages()
        ack = Packet(flow_id=self.flow_id, ptype=PacketType.ACK)
        ack.created_at = self.sim.now
        ack.flow_priority = self.flow_priority
        ack.ack_seq = self._rcv_nxt
        ack.sack = tuple(self._ooo_ranges[-MAX_SACK_RANGES:])
        ack.seq = packet.seq
        # §3.2/§4: ACKs return on the LL channel — but only while it has
        # headroom. A 60 Mbps data flow generates ~3 Mbps of ACKs, which
        # would drown a 2 Mbps URLLC channel; past a small queueing bound
        # the ACK falls back to the data packet's own channel.
        ll = self._ll_subflow()
        view = self.device.views[ll.channel_index]
        if view.queueing_delay(ack.size_bytes) <= 2 * view.base_delay:
            ack.channel_hint = ll.channel_index
        elif packet.channel_index is not None:
            ack.channel_hint = packet.channel_index
        self.device.send(ack)

    def _merge_range(self, start: int, end: int) -> None:
        """Add ``[start, end)`` to the receive scoreboard.

        ``_ooo_ranges`` stays sorted, disjoint and non-touching, with every
        range above ``_rcv_nxt``: bisect to the first range the new one
        overlaps or touches and merge only that neighbourhood.
        """
        rcv_nxt = self._rcv_nxt
        if end <= rcv_nxt:
            return
        if start < rcv_nxt:
            start = rcv_nxt
        ranges = self._ooo_ranges
        i = bisect_left(ranges, (start,))
        if i and ranges[i - 1][1] >= start:
            i -= 1
        j, n = i, len(ranges)
        while j < n and ranges[j][0] <= end:
            j += 1
        if j > i:
            if ranges[i][0] < start:
                start = ranges[i][0]
            if ranges[j - 1][1] > end:
                end = ranges[j - 1][1]
        if start == rcv_nxt:
            # Only the head range can start at rcv_nxt (i == 0 here); the
            # next one begins past ``end``, so one step closes the gap.
            self._rcv_nxt = end
            del ranges[:j]
        else:
            ranges[i:j] = [(start, end)]

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

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def _on_ack(self, packet: Packet) -> None:
        ack_seq = packet.ack_seq
        if ack_seq > self._snd_nxt:
            return
        newly_acked = max(0, ack_seq - self._snd_una)
        newest: Optional[Segment] = None
        if newly_acked:
            self._snd_una = ack_seq
            self._total_delivered += newly_acked
            self.delivered_timeline.append((self.sim.now, self._total_delivered))
            newest = self._ack_segments_below(ack_seq)
        sacked_newest = self._apply_sack(packet.sack)
        newest = sacked_newest or newest

        if newest is not None:
            subflow = self._subflow_for(newest.channel)
            rtt_sample = self.sim.now - newest.sent_at
            subflow.rtt.on_sample(rtt_sample)
            delivered = self._total_delivered - newest.delivered_at_send
            delivery_rate = delivered * 8.0 / rtt_sample if rtt_sample > 0 else None
            self.stats_rtt_records.append(
                RttRecord(
                    time=self.sim.now,
                    rtt=rtt_sample,
                    data_channel=newest.channel,
                    ack_channel=packet.channel_index,
                )
            )
            subflow.cc.on_ack(
                AckSample(
                    now=self.sim.now,
                    rtt=rtt_sample,
                    newly_acked=newly_acked,
                    in_flight=subflow.in_flight,
                    delivery_rate=delivery_rate,
                    app_limited=self.bytes_unsent == 0,
                    data_channel=newest.channel,
                    ack_channel=packet.channel_index,
                    total_delivered=self._total_delivered,
                )
            )
            if self.obs is not None:
                self.obs.on_subflow_ack(self, subflow)
        self._detect_losses()
        self._fire_acked_messages()
        self._arm_rto()
        self._try_send()

    # ``_segments`` and each ``_first_sends`` list are sorted by seq
    # (segments are carved off the stream in order and never reordered),
    # so the per-ACK scans below bisect and walk only the segments whose
    # state changes, not the outstanding window.

    def _ack_segments_below(self, ack_seq: int) -> Optional[Segment]:
        """Drop cumulatively acked segments; return the newest RTT-eligible.

        The acked segments are a prefix: walk it, delete it in one slice,
        and prune every side structure below the new ``snd_una``.
        """
        newest: Optional[Segment] = None
        segments = self._segments
        idx = 0
        for segment in segments:
            if segment.end_seq > ack_seq:
                break
            idx += 1
            if not segment.sacked and not segment.lost:
                subflow = self._subflow_for(segment.channel)
                subflow.in_flight = max(0, subflow.in_flight - segment.size)
            if not segment.retransmitted:
                newest = segment
        del segments[:idx]
        for firsts in self._first_sends.values():
            del firsts[:_bisect_end(firsts, ack_seq)]
        spans = self._sacked_spans
        k = 0
        while k < len(spans) and spans[k][1] <= ack_seq:
            k += 1
        del spans[:k]
        if self._remark_pending:
            self._remark_pending = [
                s for s in self._remark_pending if s.end_seq > ack_seq
            ]
        return newest

    def _apply_sack(self, ranges: tuple) -> Optional[Segment]:
        """Mark SACKed segments; return the newest one for RTT sampling.

        Each range is split against ``_sacked_spans`` and only the
        uncovered gaps are walked, each from a bisected first segment, so
        the ranges an ACK repeats from earlier ACKs cost nothing.
        """
        if not ranges:
            return None
        segments = self._segments
        spans = self._sacked_spans
        newest_idx = -1
        for lo, hi in ranges:
            if hi <= self._snd_una:
                continue  # stale: covers only cumulatively acked bytes
            # Stored spans that overlap or touch [lo, hi]: spans[i:j].
            i = bisect_left(spans, (lo,))
            if i and spans[i - 1][1] >= lo:
                i -= 1
            j, n = i, len(spans)
            while j < n and spans[j][0] <= hi:
                j += 1
            gaps: List[Tuple[int, int]] = []
            cursor = lo
            for span_lo, span_hi in spans[i:j]:
                if span_lo > cursor:
                    gaps.append((cursor, span_lo))
                cursor = span_hi
            if cursor < hi:
                gaps.append((cursor, hi))
            for gap_lo, gap_hi in gaps:
                # Gap bounds are segment boundaries, so the first segment
                # ending past gap_lo is the first one starting at it.
                k, n = _bisect_end(segments, gap_lo), len(segments)
                while k < n:
                    segment = segments[k]
                    if segment.end_seq > gap_hi:
                        break
                    if not segment.sacked:
                        segment.sacked = True
                        if segment.lost:
                            segment.lost = False
                        else:
                            subflow = self._subflow_for(segment.channel)
                            subflow.in_flight = max(0, subflow.in_flight - segment.size)
                        high = self._sack_high.get(segment.channel, 0)
                        if segment.end_seq > high:
                            self._sack_high[segment.channel] = segment.end_seq
                        if not segment.retransmitted and k > newest_idx:
                            newest_idx = k
                    k += 1
            if j > i:
                if spans[i][0] < lo:
                    lo = spans[i][0]
                if spans[j - 1][1] > hi:
                    hi = spans[j - 1][1]
            spans[i:j] = [(lo, hi)]
        return segments[newest_idx] if newest_idx >= 0 else None

    def _detect_losses(self) -> None:
        """Per-subflow SACK loss detection: a hole is lost only relative to
        later deliveries *on its own channel* (cross-channel reordering is
        normal here, not a loss signal).

        Each channel's threshold (``_sack_high[ch]`` minus the reordering
        slack) only rises, so each call sweeps just the first
        transmissions on that channel that the threshold newly uncovered.
        Retransmissions wait in ``_remark_pending`` behind time/seq wake
        gates. Stale ``_sack_high`` entries from
        cumulatively acked segments are harmless: every live segment's
        end_seq exceeds them.
        """
        sack_high = self._sack_high
        if not sack_high:
            return
        now = self.sim.now
        slack = SACK_REORDER_BYTES_FACTOR * self.mss
        newly_lost: List[Segment] = []
        pending = self._remark_pending
        if pending and (
            now >= self._pending_time_wake
            or any(
                sack_high.get(channel, 0) - slack >= wake
                for channel, wake in self._pending_seq_wake.items()
            )
        ):
            keep: List[Segment] = []
            time_wake = float("inf")
            seq_wake: Dict[Optional[int], int] = {}
            snd_una = self._snd_una
            for segment in pending:
                if segment.sacked or segment.lost or segment.end_seq <= snd_una:
                    continue
                channel = segment.channel
                if segment.end_seq > sack_high.get(channel, 0) - slack:
                    keep.append(segment)
                    if channel not in seq_wake or segment.end_seq < seq_wake[channel]:
                        seq_wake[channel] = segment.end_seq
                elif now < segment.no_remark_until:
                    keep.append(segment)
                    if segment.no_remark_until < time_wake:
                        time_wake = segment.no_remark_until
                else:
                    self._mark_lost(segment)
                    newly_lost.append(segment)
            self._remark_pending = keep
            self._pending_time_wake = time_wake
            self._pending_seq_wake = seq_wake
        swept_by = self._loss_swept
        for channel, high in sack_high.items():
            threshold = high - slack
            swept = swept_by.get(channel, float("-inf"))
            if threshold <= swept:
                continue
            swept_by[channel] = threshold
            firsts = self._first_sends[channel]
            i, n = _bisect_end(firsts, swept), len(firsts)
            while i < n:
                segment = firsts[i]
                if segment.end_seq > threshold:
                    break
                i += 1
                # Retransmitted segments belong to the pending list; only
                # they carry a remark holdoff.
                if segment.sacked or segment.lost or segment.retransmitted:
                    continue
                self._mark_lost(segment)
                newly_lost.append(segment)
        if newly_lost:
            # Keep the seq order a single walk of _segments produces.
            newly_lost.sort(key=lambda s: s.seq)
            self._retx_queue.extend(newly_lost)
            channels = {segment.channel for segment in newly_lost}
            for channel in channels:
                subflow = self._subflow_for(channel)
                subflow.cc.on_loss(self.sim.now, subflow.in_flight)

    def _mark_lost(self, segment: Segment) -> None:
        segment.lost = True
        subflow = self._subflow_for(segment.channel)
        subflow.in_flight = max(0, subflow.in_flight - segment.size)

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
            f"<MultipathConnection flow={self.flow_id} una={self._snd_una} "
            f"nxt={self._snd_nxt} scheduler={self.scheduler}>"
        )


def _bisect_end(segments: List[Segment], bound: float) -> int:
    """Index of the first segment with ``end_seq > bound`` (seq-sorted list)."""
    lo, hi = 0, len(segments)
    while lo < hi:
        mid = (lo + hi) // 2
        if segments[mid].end_seq <= bound:
            lo = mid + 1
        else:
            hi = mid
    return lo
