"""Randomized oracle test for the multipath SACK scoreboard.

``MultipathConnection`` bisects, skips already-applied SACK spans and
sweeps each channel's loss threshold as a monotone delta. The reference
functions below are the straightforward O(window) walks those scans
replaced; a random stream of transmissions on two channels, cumulative
ACKs, SACK ranges, reinjections that switch channel, RTOs and holdoff
expiries drives the real class and the reference side by side, and every
observable piece of scoreboard state must agree after every step.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.transport.connection import Segment
from repro.transport.multipath import SACK_REORDER_BYTES_FACTOR, MultipathConnection

MSS = 1000
#: Message sizes queued at set-up: tails and short messages make segments
#: of uneven size, so bisects see non-uniform boundaries.
MESSAGE_SIZES = (3_500, 10 * MSS, 400, 25 * MSS + 1, 10**7)


# ----------------------------------------------------------------------
# Reference scans: full walks over the outstanding window
# ----------------------------------------------------------------------
def ref_ack_segments_below(conn, ack_seq: int) -> Optional[Segment]:
    newest: Optional[Segment] = None
    kept: List[Segment] = []
    for segment in conn._segments:
        if segment.end_seq <= ack_seq:
            if not segment.sacked and not segment.lost:
                subflow = conn._subflow_for(segment.channel)
                subflow.in_flight = max(0, subflow.in_flight - segment.size)
            if not segment.retransmitted:
                newest = segment
        else:
            kept.append(segment)
    conn._segments = kept
    return newest


def ref_apply_sack(conn, ranges: tuple) -> Optional[Segment]:
    if not ranges:
        return None
    newest: Optional[Segment] = None
    for segment in conn._segments:
        if segment.sacked:
            continue
        for lo, hi in ranges:
            if lo <= segment.seq and segment.end_seq <= hi:
                segment.sacked = True
                if segment.lost:
                    segment.lost = False
                else:
                    subflow = conn._subflow_for(segment.channel)
                    subflow.in_flight = max(0, subflow.in_flight - segment.size)
                high = conn._sack_high.get(segment.channel, 0)
                if segment.end_seq > high:
                    conn._sack_high[segment.channel] = segment.end_seq
                if not segment.retransmitted:
                    newest = segment
                break
    return newest


def ref_detect_losses(conn) -> None:
    per_channel_high = conn._sack_high
    if not per_channel_high:
        return
    reorder_slack = SACK_REORDER_BYTES_FACTOR * conn.mss
    newly_lost: List[Segment] = []
    for segment in conn._segments:
        if segment.sacked or segment.lost:
            continue
        threshold = per_channel_high.get(segment.channel, 0) - reorder_slack
        if segment.end_seq <= threshold and conn.sim.now >= segment.no_remark_until:
            segment.lost = True
            subflow = conn._subflow_for(segment.channel)
            subflow.in_flight = max(0, subflow.in_flight - segment.size)
            newly_lost.append(segment)
    if newly_lost:
        conn._retx_queue.extend(newly_lost)
        channels = {segment.channel for segment in newly_lost}
        for channel in channels:
            subflow = conn._subflow_for(channel)
            subflow.cc.on_loss(conn.sim.now, subflow.in_flight)


def ref_merge_range(conn, start: int, end: int) -> None:
    if end <= conn._rcv_nxt:
        return
    conn._ooo_ranges.append((max(start, conn._rcv_nxt), end))
    conn._ooo_ranges.sort()
    merged: List[Tuple[int, int]] = []
    for lo, hi in conn._ooo_ranges:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    while merged and merged[0][0] <= conn._rcv_nxt:
        conn._rcv_nxt = max(conn._rcv_nxt, merged.pop(0)[1])
    conn._ooo_ranges = merged


class OracleConnection(MultipathConnection):
    _ack_segments_below = ref_ack_segments_below
    _apply_sack = ref_apply_sack
    _detect_losses = ref_detect_losses
    _merge_range = ref_merge_range


# ----------------------------------------------------------------------
# Stand-ins: a clock that never runs, a two-channel device, a recording CC
# ----------------------------------------------------------------------
class _Event:
    cancelled = False

    def __init__(self, time: float) -> None:
        self.time = time


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def schedule(self, delay, callback):
        return _Event(self.now + delay)

    def schedule_at(self, time, callback):
        return _Event(time)

    def reschedule(self, event, delay, callback):
        return _Event(self.now + delay)

    def cancel(self, event) -> None:
        event.cancelled = True


class _View:
    up = True

    def __init__(self, base_delay: float, rate_bps: float) -> None:
        self.base_delay = base_delay
        self.rate_bps = rate_bps

    def queueing_delay(self, size_bytes: int) -> float:
        return 0.0


class _Device:
    """eMBB-like channel 0 and URLLC-like channel 1; sends go nowhere."""

    def __init__(self) -> None:
        self.channels = [0, 1]
        self.views = [_View(0.025, 60e6), _View(0.005, 2e6)]

    def register_flow(self, flow_id, handler) -> None:
        pass

    def unregister_flow(self, flow_id) -> None:
        pass

    def send(self, packet) -> None:
        pass


class _RecordingCC:
    """Zero window (nothing sends on its own) and a log of loss signals."""

    pacing_rate_bps = None
    cwnd_bytes = 0

    def __init__(self, channel: int, log: list) -> None:
        self.channel = channel
        self.log = log

    def on_sent(self, now, size, in_flight) -> None:
        pass

    def on_loss(self, now, in_flight) -> None:
        self.log.append(("loss", self.channel, now, in_flight))

    def on_timeout(self, now) -> None:
        self.log.append(("timeout", self.channel, now))


def _endpoint(cls):
    conn = cls(_Clock(), _Device(), flow_id=1, mss=MSS)
    conn.cc_log = []
    for subflow in conn.subflows:
        subflow.cc = _RecordingCC(subflow.channel_index, conn.cc_log)
    for size in MESSAGE_SIZES:
        conn.send_message(size)
    return conn


class Pair:
    """The real scoreboard and the reference, driven with the same ops."""

    def __init__(self) -> None:
        self.real = _endpoint(MultipathConnection)
        self.ref = _endpoint(OracleConnection)
        #: (seq, end_seq) of every segment ever sent: the grid acks and
        #: SACK ranges are drawn from, so both stay whole-segment aligned.
        self.grid: List[Tuple[int, int]] = []
        self.lost_seen = 0
        self.switches = 0

    def both(self):
        return (self.real, self.ref)

    def send(self, channel: int) -> None:
        for conn in self.both():
            segment = conn._peek_next_segment()
            subflow = conn.subflows[channel]
            conn._commit_segment(segment, subflow)
            conn._transmit(segment, subflow, retransmission=False)
        self.grid.append((segment.seq, segment.end_seq))

    def ack(self, cum: Optional[int], ranges) -> None:
        """One ACK, mirroring ``_on_ack``'s scoreboard calls. ``cum`` picks
        any grid boundary as the cumulative ACK, stale ones included;
        ``None`` repeats ``snd_una``. Each SACK range is ``(first segment,
        extra segments)`` on the grid."""
        size = len(self.grid)
        bounds = [0] + [end for _, end in self.grid]
        ack_seq = self.real._snd_una if cum is None else bounds[cum % len(bounds)]
        sack = tuple(
            (self.grid[a % size][0], self.grid[min(a % size + n, size - 1)][1])
            for a, n in ranges
        )
        queued = len(self.real._retx_queue)
        newest = []
        for conn in self.both():
            found = None
            if ack_seq > conn._snd_una:
                conn._snd_una = ack_seq
                found = conn._ack_segments_below(ack_seq)
            found = conn._apply_sack(sack) or found
            conn._detect_losses()
            newest.append(None if found is None else found.seq)
        self.lost_seen += len(self.real._retx_queue) - queued
        assert newest[0] == newest[1], (ack_seq, sack)

    def reinject(self, index: int, channel: int) -> None:
        """Retransmit a queued loss on ``channel``; like ``_try_send``,
        skip entries a later SACK or cumulative ACK already covered."""
        una = self.real._snd_una
        live = [
            i for i, s in enumerate(self.real._retx_queue)
            if not s.sacked and s.end_seq > una
        ]
        if not live:
            return
        i = live[index % len(live)]
        if self.real._retx_queue[i].channel != channel:
            self.switches += 1
        for conn in self.both():
            segment = conn._retx_queue.pop(i)
            conn._retransmit(segment, conn.subflows[channel])

    def rto(self, channel: int) -> None:
        """Fire the retransmission timeout; the scheduler reinjects the
        first unsacked segment on ``channel``."""
        for conn in self.both():
            conn._rto_deadline = None
            conn._pick_subflow = lambda segment, conn=conn: conn.subflows[channel]
            conn._on_rto()
            del conn._pick_subflow

    def advance(self, dt: float) -> None:
        for conn in self.both():
            conn.sim.now += dt

    def deliver(self, index: int) -> None:
        seq, end = self.grid[index % len(self.grid)]
        for conn in self.both():
            conn._merge_range(seq, end)

    def check(self) -> None:
        real, ref = self.real, self.ref
        assert _scoreboard(real) == _scoreboard(ref)
        assert [s.in_flight for s in real.subflows] == [s.in_flight for s in ref.subflows]
        assert [s.seq for s in real._retx_queue] == [s.seq for s in ref._retx_queue]
        assert real.cc_log == ref.cc_log
        assert real._sack_high == ref._sack_high
        assert real._rcv_nxt == ref._rcv_nxt
        assert real._ooo_ranges == ref._ooo_ranges

    def check_pruned(self) -> None:
        """No side structure keeps anything at or below ``snd_una``."""
        una = self.real._snd_una
        for firsts in self.real._first_sends.values():
            assert all(s.end_seq > una for s in firsts)
        assert all(hi > una for _, hi in self.real._sacked_spans)
        assert all(s.end_seq > una for s in self.real._remark_pending)


def _scoreboard(conn):
    return [
        (s.seq, s.end_seq, s.sacked, s.lost, s.retransmitted, s.channel, s.no_remark_until)
        for s in conn._segments
    ]


channels = st.integers(0, 1)
sack_range = st.tuples(st.integers(0, 10**6), st.integers(0, 6))
OPS = st.one_of(
    st.tuples(st.just("send"), channels),
    st.tuples(st.just("send"), channels),
    st.tuples(st.just("send"), channels),
    st.tuples(
        st.just("ack"),
        st.one_of(st.none(), st.integers(0, 10**6)),
        st.lists(sack_range, max_size=3),
    ),
    st.tuples(st.just("ack"), st.none(), st.lists(sack_range, min_size=1, max_size=3)),
    st.tuples(st.just("reinject"), st.integers(0, 10**6), channels),
    st.tuples(st.just("rto"), channels),
    st.tuples(st.just("advance"), st.floats(0.0, 0.08)),
    st.tuples(st.just("deliver"), st.integers(0, 10**6)),
)


def run_ops(ops) -> Pair:
    pair = Pair()
    pair.check()
    for op in ops:
        name, args = op[0], op[1:]
        if name != "send" and not pair.grid:
            continue
        getattr(pair, name)(*args)
        pair.check()
        pair.check_pruned()
    return pair


@seed(20231)
@settings(
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.lists(OPS, min_size=1, max_size=150))
def test_scoreboard_matches_reference_walks(ops):
    run_ops(ops)


def test_scripted_stream_exercises_loss_reinjection_and_holdoff():
    """Non-vacuity: a fixed stream that declares losses on both channels,
    reinjects onto the other channel, parks segments in holdoff and lets
    it expire, all while matching the reference."""
    ops = [("send", i % 2) for i in range(40)]
    # SACK far above the holes on each channel: segments 0..29 are lost.
    ops += [("ack", None, [(30, 3), (35, 4)])]
    ops += [("reinject", 0, 1), ("reinject", 0, 0), ("reinject", 3, 1)]
    # Holdoff still running: the later SACK cannot re-declare them yet.
    ops += [("send", 1), ("send", 0), ("ack", None, [(40, 1)])]
    ops += [("advance", 0.06), ("send", 1), ("send", 1), ("send", 1), ("send", 1)]
    ops += [("ack", None, [(43, 2)]), ("rto", 1), ("ack", 4, [])]
    ops += [("deliver", i) for i in (5, 3, 0, 1, 2, 4, 9, 7)]
    ops += [("ack", 12, [(14, 2)]), ("advance", 0.2), ("ack", None, [(44, 1)])]
    pair = run_ops(ops)
    assert pair.lost_seen > 20
    assert pair.switches >= 2
    assert any(entry[0] == "loss" and entry[1] == 1 for entry in pair.real.cc_log)
    assert any(entry[0] == "loss" and entry[1] == 0 for entry in pair.real.cc_log)
    assert pair.real._rcv_nxt > 0 and pair.real._ooo_ranges


def test_rto_reinjection_is_judged_against_its_new_channel():
    """A segment the RTO moved from channel 0 to channel 1 is no longer
    lost by channel 0's SACKs, even once its holdoff has expired."""
    ops = [("send", 0) for _ in range(10)]
    ops += [("rto", 1), ("advance", 0.06), ("ack", None, [(5, 4)])]
    pair = run_ops(ops)
    first = pair.real._segments[0]
    assert first.channel == 1 and first.retransmitted and not first.lost
    assert pair.real._retx_queue and first not in pair.real._retx_queue


def test_pending_seq_gate_wakes_on_lowest_blocked_segment():
    """Reinjections parked behind channel 1's threshold out of seq order:
    the gate must trip as soon as the threshold passes the lowest one."""
    ops = [("send", 0) for _ in range(20)]
    ops += [("ack", None, [(15, 2)])]  # segments 0..14 lost on channel 0
    # Reinject segments 8, 1 and 5 onto channel 1, in that order.
    ops += [("reinject", 8, 1), ("reinject", 1, 1), ("reinject", 4, 1)]
    ops += [("advance", 0.06), ("ack", None, [])]  # all three wait on seq
    ops += [("ack", None, [(5, 0)])]  # channel 1 threshold passes 1, not 8
    pair = run_ops(ops)
    by_seq = {s.seq: s for s in pair.real._segments}
    assert by_seq[pair.grid[1][0]].lost
    assert not by_seq[pair.grid[8][0]].lost
