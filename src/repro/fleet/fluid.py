"""The fluid background engine: per-tenant rate ODEs on a coarse timer.

Grounded in the fluid-model analysis of TCP over heterogeneous paths
(arXiv:1804.02496): each background tenant is a rate variable x_i(t)
evolving under AIMD-style dynamics against its channel's *load* — the
fraction of raw capacity consumed by every fluid tenant plus the
packet-level foreground traffic measured from the link's busy time. The
aggregate per-channel rate is installed on the corresponding
:class:`~repro.net.link.Link` as background load, which (a) slows the
packet-level serializer, (b) shows up in steering's ``ChannelView`` rates
and (c) is sampled by :class:`~repro.net.monitor.ChannelMonitor` — one
coherent world across both fidelities.

Per tick of length ``dt`` (default 10 ms, i.e. coarse against the wheel's
1 ms buckets but fine against multi-second transfers):

* below its load target a tenant grows — exponentially while far below
  its fair share (slow-start analogue), else additively at
  ``gain * MSS * 8 / RTT^2`` (the classic 1-packet-per-RTT fluid term);
* past the target it decays multiplicatively, ``exp(-beta * overload *
  dt / RTT)`` — the continuous-time shape of AIMD backoff, with
  delay-sensitive classes/CCAs reacting at lower targets (they see the
  queue build before loss-based flows see drops).

The update is vectorized with numpy when available; a pure-python tick
with identical structure keeps the engine dependency-free (the two
backends agree to float noise, not bit-for-bit — a run always uses one).
"""

from __future__ import annotations

import bisect
import hashlib
import math
from typing import Dict, List, Optional

from repro.errors import ScenarioError
from repro.fleet.tenants import TenantPopulation
from repro.steering.requirements import REQUIREMENT_CLASSES, assignment_table

try:  # optional acceleration; the pure-python tick is the fallback
    import numpy as _np
except Exception:  # pragma: no cover - exercised where numpy is absent
    _np = None

#: Fluid congestion-control flavours: how a tenant's rate ODE behaves.
#: ``beta_scale`` multiplies its class's backoff, ``gain`` scales the
#: additive-increase term, ``target`` caps the load target (delay-based
#: CCAs yield before the link saturates; loss-based ones push to 1.0).
FLUID_CCAS: Dict[str, Dict[str, float]] = {
    "cubic": {"beta_scale": 1.0, "gain": 1.0, "target": 1.0},
    "reno": {"beta_scale": 1.4, "gain": 0.7, "target": 1.0},
    "bbr": {"beta_scale": 0.6, "gain": 1.4, "target": 1.0},
    "vegas": {"beta_scale": 0.9, "gain": 0.8, "target": 0.90},
    "vivace": {"beta_scale": 0.8, "gain": 0.9, "target": 0.92},
}

MSS_BITS = 1448 * 8
#: Initial-window analogue: 10 packets per RTT.
INITIAL_PACKETS = 10
IW_BYTES = INITIAL_PACKETS * 1448
#: Floor so an active tenant always makes *some* progress (1 kbit/s).
MIN_RATE_BPS = 1_000.0
#: The fluid aggregate never occupies more than this share of a link —
#: total foreground starvation (rate 0) is an outage, not congestion.
MAX_BG_SHARE = 0.95
#: Feedback clamp: one tick's multiplicative decay saturates here.
MAX_OVERLOAD = 1.0
#: Tenant rows formatted per ``sha256.update`` call in ``digest()``.
DIGEST_CHUNK = 1024


class FluidBackground:
    """Steps a tenant population as fluid flows on the simulation kernel.

    ``channels`` is the network's channel list (data direction = uplink,
    matching foreground client->server transfers; ACK load rides the
    downlink at ``ack_fraction``).
    """

    def __init__(
        self,
        sim,
        channels,
        population: TenantPopulation,
        tick: float = 0.01,
        horizon: Optional[float] = None,
        ack_fraction: float = 0.05,
        use_numpy: Optional[bool] = None,
        obs=None,
        sense_foreground: bool = True,
    ) -> None:
        if tick <= 0:
            raise ScenarioError(f"tick must be positive, got {tick}")
        self.sim = sim
        self.channels = list(channels)
        if not self.channels:
            raise ScenarioError("fluid background needs at least one channel")
        self.population = population
        self.tick = tick
        self.horizon = horizon
        self.ack_fraction = ack_fraction
        self.obs = obs
        #: When False the ODEs ignore measured packet-level traffic —
        #: coupling becomes one-way (background shapes foreground, not
        #: vice versa) but the background evolution is bit-identical no
        #: matter what foreground runs alongside, which is what lets
        #: shards replay it and assert a common digest.
        self.sense_foreground = sense_foreground
        self._gauge_active = (
            obs.registry.gauge("fleet.active_tenants") if obs is not None else None
        )
        if use_numpy is None:
            use_numpy = _np is not None
        if use_numpy and _np is None:
            raise ScenarioError("numpy backend requested but numpy is unavailable")
        self.backend = "numpy" if use_numpy else "python"

        n = len(population)
        classes = sorted(REQUIREMENT_CLASSES)
        ccas = sorted(FLUID_CCAS)
        class_index = {name: i for i, name in enumerate(classes)}
        cca_index = {name: i for i, name in enumerate(ccas)}
        for name in population.ccas:
            if name not in cca_index:
                known = ", ".join(ccas)
                raise ScenarioError(f"no fluid model for CCA {name!r}; known: {known}")
        self._class_names = classes
        self._cca_names = ccas
        # Combined ODE parameters (class manners x CCA flavour) per kind:
        # one kind per (class, CCA) pair, kind = class_id * n_cca + cca_id.
        n_cca = len(ccas)
        kind_target = []
        kind_beta = []
        kind_gain = []
        for rclass in classes:
            cls = REQUIREMENT_CLASSES[rclass]
            for cca in ccas:
                cc = FLUID_CCAS[cca]
                kind_target.append(min(cls.load_target, cc["target"]))
                kind_beta.append(cls.backoff * cc["beta_scale"])
                kind_gain.append(cc["gain"])
        self._class_id = [class_index[c] for c in population.classes]
        self._cca_id = [cca_index[c] for c in population.ccas]
        kinds = [
            cls_id * n_cca + cca_id
            for cls_id, cca_id in zip(self._class_id, self._cca_id)
        ]

        if self.backend == "numpy":
            self._arrival = _np.asarray(population.arrivals, dtype=_np.float64)
            self._remaining = _np.asarray(population.sizes, dtype=_np.float64)
            # Slow-start round-trip count for each size: a packet-level
            # flow needs ceil(log2(S/IW + 1)) RTTs of window growth to
            # move S bytes, no matter how idle the link is.
            self._ss_rounds = _np.maximum(
                _np.ceil(_np.log2(self._remaining / IW_BYTES + 1.0)), 1.0
            )
            self._rate = _np.zeros(n, dtype=_np.float64)
            self._channel = _np.full(n, -1, dtype=_np.int64)
            self._active = _np.zeros(n, dtype=bool)
            self._done = _np.zeros(n, dtype=bool)
            self._fct = _np.full(n, _np.nan, dtype=_np.float64)
            #: Per-tenant (kind, cca id, class id) rows, gathered together.
            self._groups = _np.asarray(
                [kinds, self._cca_id, self._class_id], dtype=_np.int64
            )
            self._class_arr = self._groups[2]
            self._n_kinds = len(kind_target)
            self._kind_target = _np.asarray(kind_target)
            self._kind_neg_beta = -_np.asarray(kind_beta)
            self._kind_gain_mss = _np.asarray(kind_gain) * MSS_BITS
            #: Live index: sorted ids of active tenants (stalled included).
            self._live = _np.zeros(0, dtype=_np.int64)
            self._ctx_key: Optional[tuple] = None
        else:
            self._arrival = list(population.arrivals)
            self._remaining = [float(s) for s in population.sizes]
            self._ss_rounds = [
                max(math.ceil(math.log2(s / IW_BYTES + 1.0)), 1.0)
                for s in population.sizes
            ]
            self._rate = [0.0] * n
            self._channel = [-1] * n
            self._active = [False] * n
            self._done = [False] * n
            self._fct = [math.nan] * n
            self._target = [kind_target[k] for k in kinds]
            self._beta = [kind_beta[k] for k in kinds]
            self._gain = [kind_gain[k] for k in kinds]

        # Per-tenant stall bookkeeping: when a tenant's channel fails (or
        # no channel is live at admission) it stalls until re-steered to a
        # live channel; totals feed the resilience scorecard.
        if self.backend == "numpy":
            self._stalled_at = _np.full(n, _np.nan, dtype=_np.float64)
        else:
            self._stalled_at = [math.nan] * n
        self.stall_events = 0
        self.stall_time_total = 0.0
        self.stall_events_by_class = {name: 0 for name in classes}
        self.stall_time_by_class = {name: 0.0 for name in classes}
        # React to Channel.fail()/restore() at event time, not tick time:
        # a failed channel must shed its installed background load
        # immediately (a micro-outage between ticks would otherwise be
        # invisible and keep charging bytes through the dead window).
        for ch in self.channels:
            ch.on_transition.append(self._on_channel_transition)

        self._cursor = 0  # population is arrival-sorted
        self._last_time: Optional[float] = None
        self._last_busy = [ch.uplink.stats.busy_time for ch in self.channels]
        self._last_avail = [ch.uplink.capacity_bps() for ch in self.channels]
        self._bg_byte_accum = [0.0] * len(self.channels)  # data direction
        self._ack_byte_accum = [0.0] * len(self.channels)
        self.bytes_by_cca = {name: 0.0 for name in ccas}
        self.bytes_by_class = {name: 0.0 for name in classes}
        self.bytes_by_channel = [0.0] * len(self.channels)
        self._up_set: Optional[tuple] = None
        self._table_idx: List[int] = []
        self.ticks = 0
        self._event = None
        self._stopped = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the first tick (idempotent)."""
        if self._event is None and not self._stopped:
            self._last_time = self.sim.now
            self._event = self.sim.schedule(self.tick, self._on_tick)

    def stop(self) -> None:
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _on_channel_transition(self, channel, up: bool, now: float) -> None:
        """Event-time reaction to a channel up/down transition.

        On *down* the installed background load is cleared at once and
        every tenant on the channel is stalled with its rate zeroed; the
        next tick re-steers them through the assignment table, entering
        via the slow-start re-ramp (the same path fresh arrivals take).
        On *up* nothing happens here — re-steering is tick-driven.
        """
        if up:
            return
        try:
            idx = self.channels.index(channel)
        except ValueError:  # pragma: no cover - foreign channel
            return
        channel.uplink.set_background_load(0.0)
        channel.downlink.set_background_load(0.0)
        self._last_avail[idx] = 0.0
        if self.backend == "numpy":
            li = self._live
            on = li[self._channel[li] == idx]
            if len(on):
                self._rate[on] = 0.0
                self._channel[on] = -2
                st = self._stalled_at
                st[on[_np.isnan(st[on])]] = now
        else:
            for i in range(self._cursor):
                if self._active[i] and self._channel[i] == idx:
                    self._rate[i] = 0.0
                    self._channel[i] = -2
                    if math.isnan(self._stalled_at[i]):
                        self._stalled_at[i] = now

    def _close_stall(self, tenant: int, now: float) -> None:
        """Record the end of one tenant's stall interval."""
        duration = now - self._stalled_at[tenant]
        self._stalled_at[tenant] = math.nan
        name = self._class_names[self._class_id[tenant]]
        self.stall_events += 1
        self.stall_time_total += duration
        self.stall_events_by_class[name] += 1
        self.stall_time_by_class[name] += duration

    def _on_tick(self) -> None:
        self._event = None
        self.step()
        if self._stopped:
            return
        if self.horizon is None or self.sim.now + self.tick <= self.horizon + 1e-12:
            self._event = self.sim.schedule(self.tick, self._on_tick)

    # ------------------------------------------------------------------
    # The tick
    # ------------------------------------------------------------------
    def step(self) -> None:
        now = self.sim.now
        dt = now - self._last_time if self._last_time is not None else self.tick
        self._last_time = now
        if dt <= 0:
            return
        self.ticks += 1

        up_set = tuple(ch.up for ch in self.channels)
        if up_set != self._up_set:
            self._up_set = up_set
            table = assignment_table(self._class_names, self.channels)
            self._table_idx = [
                table.get(name) if table.get(name) is not None else -1
                for name in self._class_names
            ]
        table_idx = self._table_idx

        caps = [
            ch.uplink.capacity_bps() if ch.up else 0.0 for ch in self.channels
        ]
        rtts = [max(ch.base_rtt(), 1e-4) for ch in self.channels]
        # Foreground usage estimate: the serializer was busy for
        # delta(busy_time) out of dt, at the previously *available* rate.
        fg = []
        for i, ch in enumerate(self.channels):
            busy = ch.uplink.stats.busy_time
            delta = busy - self._last_busy[i]
            self._last_busy[i] = busy
            est = (delta / dt) * self._last_avail[i]
            fg.append(min(max(est, 0.0), caps[i]))
        if not self.sense_foreground:
            fg = [0.0] * len(self.channels)

        if self.backend == "numpy":
            applied = self._step_numpy(now, dt, table_idx, caps, rtts, fg)
        else:
            applied = self._step_python(now, dt, table_idx, caps, rtts, fg)

        # Install the aggregate load and charge the byte meters.
        for i, ch in enumerate(self.channels):
            load = applied[i]
            ch.uplink.set_background_load(load)
            ch.downlink.set_background_load(load * self.ack_fraction)
            self._last_avail[i] = max(caps[i] - load, 0.0)
            whole = int(self._bg_byte_accum[i])
            if whole:
                ch.uplink.stats.background_bytes += whole
                self._bg_byte_accum[i] -= whole
            ack_whole = int(self._ack_byte_accum[i])
            if ack_whole:
                ch.downlink.stats.background_bytes += ack_whole
                self._ack_byte_accum[i] -= ack_whole
        if self._gauge_active is not None:
            self._gauge_active.set(self.active_count())

    # -- numpy backend --------------------------------------------------
    def _tick_context(self, dt, table_idx, caps, rtts) -> None:
        """Rebuild the arrays that depend only on dt, capacities, RTTs and
        the assignment table; they change a few times per run, not per
        tick."""
        np = _np
        key = (dt, caps, rtts, table_idx)
        if key == self._ctx_key:
            return
        self._ctx_key = key
        nch = len(caps)
        routable = any(t >= 0 for t in table_idx)
        # Indexed by channel: [channel down ...] + [True, retry stalled].
        # -2 (unassigned) is always lost; -1 (stalled) is retried only
        # when some class has a channel, since in a total blackout a
        # retry would leave a stalled tenant exactly as it is.
        self._ctx_lost_lut = np.asarray([cap <= 0 for cap in caps] + [True, routable])
        self._ctx_routable = routable
        self._ctx_table = np.asarray(table_idx, dtype=np.int64)
        # Initial window per channel; index -1 (no channel) gives 0.
        self._ctx_init_rate = np.asarray(
            [INITIAL_PACKETS * MSS_BITS / rtt for rtt in rtts] + [0.0]
        )
        rtt_arr = np.asarray(rtts)
        rtt_col = rtt_arr[:, None]
        caps_col = np.asarray(caps)[:, None]
        self._ctx_rtt = rtt_arr
        self._ctx_rtt_col = rtt_col
        self._ctx_share_num = caps_col * self._kind_target
        self._ctx_growth = (2.0 ** (dt / rtt_arr))[:, None]
        self._ctx_max_bg = [MAX_BG_SHARE * cap for cap in caps]
        # Per-(channel, kind) cells gathered per tenant: multiplier,
        # ceiling (both set per tick), additive term and capacity.
        cells = np.empty((4, nch, self._n_kinds))
        cells[2] = self._kind_gain_mss * dt / (rtt_col * rtt_col)
        cells[3] = caps_col
        self._ctx_cells = cells

    def _step_numpy(self, now, dt, table_idx, caps, rtts, fg) -> List[float]:
        """One tick over the live index ``self._live``.

        Per-tenant work is O(live tenants): arrays are gathered through
        the live index and scattered back, so the full per-tenant arrays
        stay authoritative. The ODE coefficients depend only on
        (channel, kind) and are computed once per cell of that grid,
        with the operand order of the per-tenant formula. Every sum is a
        ``bincount`` in ascending tenant order, which adds each bin's
        weights sequentially; pairwise ``sum`` would change the bits.
        """
        np = _np
        nch = len(self.channels)
        self._tick_context(dt, table_idx, caps, rtts)
        stranded = not self._ctx_routable
        # 1. Admit arrivals (population is arrival-sorted). They take
        # their class's channel at once, entering at the initial window,
        # or stall if their class has none.
        old = self._cursor
        cur = bisect.bisect_right(self.population.arrivals, now, old)
        li = self._live
        if cur > old:
            wanted = self._ctx_table[self._class_arr[old:cur]]
            self._active[old:cur] = True
            self._channel[old:cur] = wanted
            self._rate[old:cur] = self._ctx_init_rate[wanted]
            none = wanted < 0
            if np.count_nonzero(none):
                self._stalled_at[old:cur][none] = now
                stranded = True
            self._cursor = cur
            li = self._live = np.concatenate((li, np.arange(old, cur)))
        # 2. Re-steer tenants with no live channel (see _tick_context).
        chan = self._channel
        c = chan[li]
        lost = self._ctx_lost_lut[c].nonzero()[0]
        if len(lost):
            idx = li[lost]
            wanted = self._ctx_table[self._class_arr[idx]]
            chan[idx] = wanted
            c[lost] = wanted
            self._rate[idx] = self._ctx_init_rate[wanted]
            # Stall accounting: re-steering to a live channel closes a
            # stall; failing to find one opens it (total blackout).
            st = self._stalled_at
            ok = wanted >= 0
            for t in idx[ok & ~np.isnan(st[idx])].tolist():
                self._close_stall(t, now)
            if np.count_nonzero(ok) < len(idx):
                unassigned = idx[~ok]
                st[unassigned[np.isnan(st[unassigned])]] = now
                stranded = True
        lv = li
        if stranded:
            live = c >= 0
            lv = li[live]
            c = c[live]
        if not len(lv):
            return [0.0] * nch
        # 3. Per-channel load from fluid rates + measured foreground.
        rate = self._rate[lv]
        sums = np.bincount(c, weights=rate, minlength=nch).tolist()
        load = np.asarray([
            (s + f) / cap if cap > 0 else math.inf
            for s, f, cap in zip(sums, fg, caps)
        ])
        counts = np.asarray([max(np.count_nonzero(c == i), 1) for i in range(nch)])
        # 4. The ODE, with coefficients computed once per (channel, kind)
        # cell and gathered per tenant. A decaying cell takes the
        # slow-start form with an infinite ceiling (so an infinite
        # threshold) and the decay factor as multiplier: min(rate *
        # decay, inf) is exactly rate * decay, so one select covers all
        # three regimes.
        overload = load[:, None] - self._kind_target
        dec = overload > 0
        decay = np.exp(
            self._kind_neg_beta
            * np.minimum(overload, MAX_OVERLOAD)
            * dt
            / self._ctx_rtt_col
        )
        share = self._ctx_share_num / counts[:, None]
        cells = self._ctx_cells
        cells[0] = np.where(dec, decay, self._ctx_growth)
        cells[1] = np.where(dec, np.inf, share)
        kind, cca_ids, class_ids = np.take(self._groups, lv, axis=1)
        mult, ceiling, additive, cap = np.take(
            cells.reshape(4, -1), c * self._n_kinds + kind, axis=1
        )
        # 0.5 * ceiling is exactly the slow-start threshold 0.5 * share.
        rate = np.where(
            rate < 0.5 * ceiling, np.minimum(rate * mult, ceiling), rate + additive
        )
        remaining = self._remaining[lv]
        rate = np.minimum(
            np.minimum(
                np.maximum(rate, MIN_RATE_BPS),
                np.maximum(remaining * 8.0 / dt, MIN_RATE_BPS),
            ),
            cap,
        )
        # 5. Per-channel ceiling: never occupy more than MAX_BG_SHARE.
        new_sums = np.bincount(c, weights=rate, minlength=nch).tolist()
        scale = np.asarray([
            min(1.0, max_bg / s) if s > 0 else 1.0
            for s, max_bg in zip(new_sums, self._ctx_max_bg)
        ])
        eff = rate * scale[c]
        # x * 0.125 is x / 8.0 exactly (a power-of-two scale), and cheaper.
        sent = np.minimum(eff * dt * 0.125, remaining)
        remaining = remaining - sent
        self._rate[lv] = rate
        self._remaining[lv] = remaining
        # 6. Byte accounting.
        sent_by_ch = np.bincount(c, weights=sent, minlength=nch)
        for i in range(nch):
            self._bg_byte_accum[i] += sent_by_ch[i]
            self._ack_byte_accum[i] += sent_by_ch[i] * self.ack_fraction
            self.bytes_by_channel[i] += sent_by_ch[i]
        cca_sent = np.bincount(cca_ids, weights=sent, minlength=len(self._cca_names))
        for i, name in enumerate(self._cca_names):
            self.bytes_by_cca[name] += cca_sent[i]
        class_sent = np.bincount(
            class_ids, weights=sent, minlength=len(self._class_names)
        )
        for i, name in enumerate(self._class_names):
            self.bytes_by_class[name] += class_sent[i]
        # 7. Completions.
        finished = remaining <= 1e-6
        if np.count_nonzero(finished):
            done_idx = lv[finished]
            self._done[done_idx] = True
            self._active[done_idx] = False
            self._live = li[self._active[li]]
            # Slow-start floor (Cardwell-style latency model): a
            # packet-level flow pays ceil(log2(S/IW + 1)) round trips
            # of window growth even on an idle link; the continuous
            # rate integral would finish sub-window transfers in a
            # fraction of an RTT. Under contention the elapsed fluid
            # time exceeds the floor and wins the max.
            self._fct[done_idx] = np.maximum(
                now - self._arrival[done_idx],
                self._ctx_rtt[c[finished]] * self._ss_rounds[done_idx],
            )
            # Finished tenants add 0.0, which leaves every sum unchanged.
            eff[finished] = 0.0
        applied = np.bincount(c, weights=eff, minlength=nch).tolist()
        return [min(a, max_bg) for a, max_bg in zip(applied, self._ctx_max_bg)]

    # -- pure-python backend --------------------------------------------
    def _step_python(self, now, dt, table_idx, caps, rtts, fg) -> List[float]:
        n = len(self._arrival)
        cur = self._cursor
        while cur < n and self._arrival[cur] <= now:
            self._active[cur] = True
            self._channel[cur] = -2
            cur += 1
        self._cursor = cur
        nch = len(self.channels)
        chan_up = [c > 0 for c in caps]
        sums = [0.0] * nch
        counts = [0] * nch
        live: List[int] = []
        for i in range(cur):
            if not self._active[i]:
                continue
            c = self._channel[i]
            if c < 0 or not chan_up[c]:
                c = table_idx[self._class_id[i]]
                self._channel[i] = c
                if c < 0:
                    if math.isnan(self._stalled_at[i]):
                        self._stalled_at[i] = now
                    self._rate[i] = 0.0
                    continue
                if not math.isnan(self._stalled_at[i]):
                    self._close_stall(i, now)
                self._rate[i] = INITIAL_PACKETS * MSS_BITS / rtts[c]
            live.append(i)
            sums[c] += self._rate[i]
            counts[c] += 1
        if not live:
            return [0.0] * nch
        load = [
            (sums[c] + fg[c]) / caps[c] if caps[c] > 0 else math.inf
            for c in range(nch)
        ]
        new_sums = [0.0] * nch
        for i in live:
            c = self._channel[i]
            rate = self._rate[i]
            rtt = rtts[c]
            overload = load[c] - self._target[i]
            if overload > 0:
                rate *= math.exp(
                    -self._beta[i] * min(overload, MAX_OVERLOAD) * dt / rtt
                )
            else:
                share = caps[c] * self._target[i] / max(counts[c], 1)
                if rate < 0.5 * share:
                    rate = min(rate * 2.0 ** (dt / rtt), share)
                else:
                    rate += self._gain[i] * MSS_BITS * dt / (rtt * rtt)
            cap = max(self._remaining[i] * 8.0 / dt, MIN_RATE_BPS)
            rate = min(max(rate, MIN_RATE_BPS), cap, caps[c])
            self._rate[i] = rate
            new_sums[c] += rate
        scale = [
            min(1.0, MAX_BG_SHARE * caps[c] / new_sums[c]) if new_sums[c] > 0 else 1.0
            for c in range(nch)
        ]
        applied = [0.0] * nch
        for i in live:
            c = self._channel[i]
            eff = self._rate[i] * scale[c]
            sent = min(eff * dt / 8.0, self._remaining[i])
            self._remaining[i] -= sent
            self._bg_byte_accum[c] += sent
            self._ack_byte_accum[c] += sent * self.ack_fraction
            self.bytes_by_channel[c] += sent
            self.bytes_by_cca[self._cca_names[self._cca_id[i]]] += sent
            self.bytes_by_class[self._class_names[self._class_id[i]]] += sent
            if self._remaining[i] <= 1e-6:
                self._done[i] = True
                self._active[i] = False
                # Same slow-start floor as the numpy backend.
                self._fct[i] = max(
                    now - self._arrival[i], rtts[c] * self._ss_rounds[i]
                )
            else:
                applied[c] += eff
        return [min(applied[c], MAX_BG_SHARE * caps[c]) for c in range(nch)]

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def active_count(self) -> int:
        if self.backend == "numpy":
            return len(self._live)
        return sum(self._active)

    def completed_count(self) -> int:
        if self.backend == "numpy":
            return int(self._done.sum())
        return sum(self._done)

    def stalled_count(self) -> int:
        """Tenants currently stalled (no live channel assigned)."""
        if self.backend == "numpy":
            return int(_np.count_nonzero(~_np.isnan(self._stalled_at)))
        return sum(1 for s in self._stalled_at if not math.isnan(s))

    def fct_samples(self) -> List[float]:
        """Completion times of finished tenants, in tenant order."""
        if self.backend == "numpy":
            return [float(x) for x in self._fct[self._done]]
        return [self._fct[i] for i in range(len(self._fct)) if self._done[i]]

    def results(self) -> Dict:
        return {
            "backend": self.backend,
            "ticks": self.ticks,
            "tenants": len(self.population),
            "completed": self.completed_count(),
            "active_at_end": self.active_count(),
            "fct": self.fct_samples(),
            "bytes_by_cca": {k: round(v, 3) for k, v in self.bytes_by_cca.items()},
            "bytes_by_class": {k: round(v, 3) for k, v in self.bytes_by_class.items()},
            "bytes_by_channel": [round(v, 3) for v in self.bytes_by_channel],
            "stalls": {
                "events": self.stall_events,
                "time_total_s": round(self.stall_time_total, 6),
                "events_by_class": dict(self.stall_events_by_class),
                "time_by_class_s": {
                    k: round(v, 6) for k, v in self.stall_time_by_class.items()
                },
                "stalled_at_end": self.stalled_count(),
            },
        }

    def digest(self) -> str:
        """Deterministic fingerprint of the full tenant state.

        Shards re-run the identical background world; the runner asserts
        their digests match, which catches any nondeterminism (or a shard
        accidentally perturbing the background) before results merge.
        Rows are formatted from plain Python values and hashed one chunk
        at a time, which keeps the peak memory of the text small.
        """
        h = hashlib.sha256()
        isnan = math.isnan
        columns = (self._remaining, self._rate, self._done, self._fct, self._stalled_at)
        for lo in range(0, len(self._arrival), DIGEST_CHUNK):
            hi = lo + DIGEST_CHUNK
            if self.backend == "numpy":
                rows = zip(*(col[lo:hi].tolist() for col in columns))
            else:
                rows = zip(*(col[lo:hi] for col in columns))
            h.update(
                "".join(
                    f"{i}:{rem:.6f}:{rate:.6f}:{int(done)}:{fct:.9f}:"
                    f"{int(not isnan(stalled))};"
                    for i, (rem, rate, done, fct, stalled) in enumerate(rows, lo)
                ).encode()
            )
        return h.hexdigest()
