"""Randomized oracle test for the numpy fluid tick.

``FluidBackground._step_numpy`` walks a live-tenant index and computes
the ODE coefficients once per (channel, kind) cell. The reference below
is the straightforward tick it replaced: whole-population masks, and
per-tenant ``target``/``beta``/``gain`` arrays evaluated tenant by
tenant. Twin networks run the same population, the same fail/restore
schedule and the same foreground traffic, one with each tick, and every
per-tenant array must agree byte for byte after every tick, together
with the byte meters, the stall counters and the installed link loads.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from hypothesis import HealthCheck, given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.api import HvcNetwork  # noqa: E402
from repro.fleet import PopulationSpec, TenantPopulation  # noqa: E402
from repro.fleet.fluid import (  # noqa: E402
    FLUID_CCAS,
    INITIAL_PACKETS,
    MAX_BG_SHARE,
    MAX_OVERLOAD,
    MIN_RATE_BPS,
    MSS_BITS,
    FluidBackground,
)
from repro.net.hvc import fixed_embb_spec, urllc_spec  # noqa: E402
from repro.steering.requirements import REQUIREMENT_CLASSES  # noqa: E402

ALL_CCAS = tuple((name, 1.0) for name in sorted(FLUID_CCAS))
TENANT_ARRAYS = ("_rate", "_remaining", "_fct", "_stalled_at", "_done", "_active", "_channel")


class ReferenceFluid(FluidBackground):
    """The full-array numpy tick, kept as the oracle."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        pop = self.population
        target, beta, gain = [], [], []
        for rclass, cca in zip(pop.classes, pop.ccas):
            cls = REQUIREMENT_CLASSES[rclass]
            cc = FLUID_CCAS[cca]
            target.append(min(cls.load_target, cc["target"]))
            beta.append(cls.backoff * cc["beta_scale"])
            gain.append(cc["gain"])
        self._target = np.asarray(target)
        self._beta = np.asarray(beta)
        self._gain = np.asarray(gain)
        self._cca_arr = np.asarray(self._cca_id, dtype=np.int64)
        self._class_arr = np.asarray(self._class_id, dtype=np.int64)

    def active_count(self) -> int:
        return int(self._active.sum())

    def _on_channel_transition(self, channel, up: bool, now: float) -> None:
        if up:
            return
        idx = self.channels.index(channel)
        channel.uplink.set_background_load(0.0)
        channel.downlink.set_background_load(0.0)
        self._last_avail[idx] = 0.0
        on = self._active & (self._channel == idx)
        if on.any():
            self._rate[on] = 0.0
            self._channel[on] = -2
            fresh = on & np.isnan(self._stalled_at)
            self._stalled_at[fresh] = now

    def _step_numpy(self, now, dt, table_idx, caps, rtts, fg):
        n = len(self._arrival)
        cur = self._cursor
        while cur < n and self._arrival[cur] <= now:
            cur += 1
        if cur > self._cursor:
            fresh = np.arange(self._cursor, cur)
            self._active[fresh] = True
            self._cursor = cur
            self._channel[fresh] = -2
        table = np.asarray(table_idx, dtype=np.int64)
        chan_up = np.asarray([c > 0 for c in caps], dtype=bool)
        act = self._active
        chan = self._channel
        lost = act & ((chan < 0) | ~np.where(chan >= 0, chan_up[np.clip(chan, 0, None)], False))
        if lost.any():
            wanted = table[self._class_arr[lost]]
            chan[lost] = wanted
            rtt_arr = np.asarray(rtts)
            ok = wanted >= 0
            idx = np.flatnonzero(lost)
            assigned = idx[ok]
            self._rate[assigned] = INITIAL_PACKETS * MSS_BITS / rtt_arr[wanted[ok]]
            self._rate[idx[~ok]] = 0.0
            st_at = self._stalled_at
            for t in assigned[~np.isnan(st_at[assigned])]:
                self._close_stall(int(t), now)
            unassigned = idx[~ok]
            st_at[unassigned[np.isnan(st_at[unassigned])]] = now
        live = act & (chan >= 0)
        if not live.any():
            return [0.0] * len(self.channels)
        ch_live = chan[live]
        nch = len(self.channels)
        sums = np.bincount(ch_live, weights=self._rate[live], minlength=nch)
        caps_arr = np.asarray(caps)
        fg_arr = np.asarray(fg)
        safe_caps = np.where(caps_arr > 0, caps_arr, 1.0)
        load = np.where(caps_arr > 0, (sums + fg_arr) / safe_caps, np.inf)
        counts = np.bincount(ch_live, minlength=nch).astype(np.float64)
        counts = np.maximum(counts, 1.0)
        rtt_arr = np.asarray(rtts)
        li = np.flatnonzero(live)
        c = ch_live
        rate = self._rate[li]
        target = self._target[li]
        beta = self._beta[li]
        gain = self._gain[li]
        rtt = rtt_arr[c]
        overload = load[c] - target
        dec = overload > 0
        rate = np.where(
            dec,
            rate * np.exp(-beta * np.minimum(overload, MAX_OVERLOAD) * dt / rtt),
            rate,
        )
        share = caps_arr[c] * target / counts[c]
        grow = ~dec
        ss = grow & (rate < 0.5 * share)
        rate = np.where(ss, np.minimum(rate * 2.0 ** (dt / rtt), share), rate)
        ai = grow & ~ss
        rate = np.where(ai, rate + gain * MSS_BITS * dt / (rtt * rtt), rate)
        remaining = self._remaining[li]
        rate = np.clip(rate, MIN_RATE_BPS, np.maximum(remaining * 8.0 / dt, MIN_RATE_BPS))
        rate = np.minimum(rate, caps_arr[c])
        new_sums = np.bincount(c, weights=rate, minlength=nch)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(
                new_sums > 0,
                np.minimum(1.0, MAX_BG_SHARE * caps_arr / np.where(new_sums > 0, new_sums, 1.0)),
                1.0,
            )
        eff = rate * scale[c]
        sent = np.minimum(eff * dt / 8.0, remaining)
        remaining = remaining - sent
        self._rate[li] = rate
        self._remaining[li] = remaining
        sent_by_ch = np.bincount(c, weights=sent, minlength=nch)
        for i in range(nch):
            self._bg_byte_accum[i] += sent_by_ch[i]
            self._ack_byte_accum[i] += sent_by_ch[i] * self.ack_fraction
            self.bytes_by_channel[i] += sent_by_ch[i]
        cca_sent = np.bincount(self._cca_arr[li], weights=sent, minlength=len(self._cca_names))
        for i, name in enumerate(self._cca_names):
            self.bytes_by_cca[name] += cca_sent[i]
        class_sent = np.bincount(
            self._class_arr[li], weights=sent, minlength=len(self._class_names)
        )
        for i, name in enumerate(self._class_names):
            self.bytes_by_class[name] += class_sent[i]
        finished = remaining <= 1e-6
        if finished.any():
            done_idx = li[finished]
            self._done[done_idx] = True
            self._active[done_idx] = False
            self._fct[done_idx] = np.maximum(
                now - self._arrival[done_idx],
                rtt_arr[chan[done_idx]] * self._ss_rounds[done_idx],
            )
        applied = np.bincount(c[~finished], weights=eff[~finished], minlength=nch)
        applied = np.minimum(applied, MAX_BG_SHARE * caps_arr)
        return [float(x) for x in applied]


def build(cls, pop, tick, duration, sense_foreground, outages, fg_messages):
    net = HvcNetwork([fixed_embb_spec(), urllc_spec()], seed=pop.spec.seed)
    fluid = cls(
        net.sim,
        net.channels,
        pop,
        tick=tick,
        horizon=duration,
        use_numpy=True,
        sense_foreground=sense_foreground,
    )
    for channel_index, start, length in outages:
        channel = net.channels[channel_index]
        net.sim.schedule(start, channel.fail)
        net.sim.schedule(start + length, channel.restore)
    if fg_messages:
        pair = net.open_connection(cc="cubic", flow_id=1)
        for size in fg_messages:
            pair.client.send_message(size)
    fluid.start()
    return net, fluid


def assert_same(ref, new, where: str) -> None:
    for name in TENANT_ARRAYS:
        a, b = getattr(ref, name), getattr(new, name)
        assert a.tobytes() == b.tobytes(), f"{name} diverged {where}"
    assert new._live.tobytes() == np.flatnonzero(new._active).tobytes(), where
    assert ref.active_count() == new.active_count(), where
    for name in (
        "ticks",
        "_cursor",
        "bytes_by_cca",
        "bytes_by_class",
        "bytes_by_channel",
        "_bg_byte_accum",
        "_ack_byte_accum",
        "_last_avail",
        "stall_events",
        "stall_time_total",
        "stall_events_by_class",
        "stall_time_by_class",
    ):
        assert getattr(ref, name) == getattr(new, name), f"{name} diverged {where}"
    for ch_ref, ch_new in zip(ref.channels, new.channels):
        for a, b in ((ch_ref.uplink, ch_new.uplink), (ch_ref.downlink, ch_new.downlink)):
            assert a.background_bps == b.background_bps, where
            assert a.stats.background_bytes == b.stats.background_bytes, where


def run_twins(pop, tick, duration, sense_foreground, outages, fg_messages):
    args = (pop, tick, duration, sense_foreground, outages, fg_messages)
    ref_net, ref = build(ReferenceFluid, *args)
    new_net, new = build(FluidBackground, *args)
    assert_same(ref, new, "at start")
    # Check half-way between ticks, so event-time fail/restore reactions
    # are compared as well as the ticks themselves.
    k = 0
    while (k + 0.5) * tick <= duration + tick:
        until = (k + 0.5) * tick
        ref_net.run(until=until)
        new_net.run(until=until)
        assert_same(ref, new, f"at t={until:.3f}")
        k += 1
    assert ref.digest() == new.digest()
    assert ref.results() == new.results()
    return ref, new


OUTAGE = st.tuples(
    st.integers(0, 1),
    st.floats(0.0, 1.4, allow_nan=False),
    st.floats(0.001, 0.6, allow_nan=False),
)


@seed(20231)
@settings(
    max_examples=40,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    tenants=st.integers(1, 200),
    pop_seed=st.integers(0, 2**16),
    mean_size=st.sampled_from([2_000.0, 20_000.0, 200_000.0]),
    all_ccas=st.booleans(),
    tick=st.sampled_from([0.01, 0.025]),
    sense_foreground=st.booleans(),
    outages=st.lists(OUTAGE, max_size=4),
    fg_messages=st.lists(st.integers(1_000, 300_000), max_size=3),
)
def test_tick_matches_full_array_reference(
    tenants, pop_seed, mean_size, all_ccas, tick, sense_foreground, outages, fg_messages
):
    duration = 1.5
    kw = {"cca_mix": ALL_CCAS} if all_ccas else {}
    spec = PopulationSpec(
        tenants=tenants, duration=duration, seed=pop_seed, mean_size=mean_size, **kw
    )
    pop = TenantPopulation.generate(spec)
    run_twins(pop, tick, duration, sense_foreground, outages, fg_messages)


def test_scripted_blackout_exercises_every_path():
    """Non-vacuity: a fixed run that admits, completes, re-steers on a
    single-channel outage, stalls everyone in a total blackout and
    recovers, all while matching the reference."""
    spec = PopulationSpec(
        tenants=200, duration=2.0, seed=5, mean_size=20_000.0, cca_mix=ALL_CCAS
    )
    outages = [(0, 0.4, 0.3), (0, 1.0, 0.4), (1, 1.1, 0.2)]
    pop = TenantPopulation.generate(spec)
    ref, new = run_twins(pop, 0.01, 2.0, True, outages, [200_000, 50_000])
    assert new.completed_count() > 0
    assert new.active_count() > 0
    assert new.stall_events > 0
    assert all(v > 0 for v in new.bytes_by_cca.values())
    assert new.ticks == ref.ticks > 100


def test_arrival_exactly_at_a_tick_is_admitted_by_that_tick():
    """A tenant whose arrival equals a tick's clock reading joins at that
    tick (``arrival <= now``), not one tick later."""
    tick, duration = 0.01, 0.5
    spec = PopulationSpec(tenants=60, duration=duration, seed=3, cca_mix=ALL_CCAS)
    probe = TenantPopulation.generate(spec)
    net, fluid = build(FluidBackground, probe, tick, duration, False, [], [])
    tick_times = []
    original = fluid.step

    def record():
        tick_times.append(net.sim.now)
        original()

    fluid.step = record
    net.run(until=duration)
    # Every arrival lands exactly on a tick's clock reading.
    arrivals = [tick_times[i % 20] for i in range(len(probe))]
    order = sorted(range(len(probe)), key=arrivals.__getitem__)
    pop = TenantPopulation(
        spec=spec,
        arrivals=[arrivals[i] for i in order],
        sizes=[probe.sizes[i] for i in order],
        classes=[probe.classes[i] for i in order],
        ccas=[probe.ccas[i] for i in order],
    )
    ref, new = run_twins(pop, tick, duration, False, [], [])
    assert new._cursor == len(pop)
