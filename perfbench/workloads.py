"""The four workloads: their inputs, one op each, and the op's outputs.

An op is one unit of work a user runs, driven through the repository's
public experiment entry points. Every workload exposes:

``build(seed, seconds)``
    The op list for one run. It depends only on the seed and the run
    length, so two runs with the same arguments do identical work. The
    length is fixed work, not a deadline: ``cycles(seconds, CYCLE_COST_S)``
    whole cycles of the workload's op kinds, where ``CYCLE_COST_S`` is the
    host time one cycle takes on the reference box (2 cores, Python 3.11,
    pure-Python simulator core). A faster program finishes the same ops
    sooner; the percentiles always cover the same op mix.
``run(op)``
    Executes one op and returns an :class:`OpOutput`: the simulated
    outputs that are hashed and checked, plus workload-specific counters.
``invariants(op, output)``
    Checks that hold for every seed (used where no stored reference
    exists for the op's inputs).

Bulk and multipath run on fixed-rate, lossless channels, so their outputs
do not depend on the seed: one reference per op kind covers every seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple


@dataclass(frozen=True)
class Op:
    """One op's inputs. ``key`` names the inputs in ``references.json``."""

    key: str
    params: Tuple[Tuple[str, Any], ...]

    def param(self, name: str) -> Any:
        return dict(self.params)[name]


@dataclass
class OpOutput:
    """The simulated outputs of one op (hashed) and its counters."""

    outputs: Any
    counters: Dict[str, float] = field(default_factory=dict)


def cycles(seconds: float, cycle_cost_s: float) -> int:
    """Whole cycles of fixed work that take about ``seconds`` on the reference box."""
    return max(1, math.floor(seconds / cycle_cost_s + 0.5))


def _op(key: str, **params: Any) -> Op:
    return Op(key, tuple(sorted(params.items())))


# ----------------------------------------------------------------------
# bulk: one Fig. 1a flow per op
# ----------------------------------------------------------------------
BULK_CCAS = ("cubic", "bbr", "vegas", "vivace")
#: Simulated seconds per flow. Each flow costs about the same host time
#: (~0.8 s on the reference box), so the op-time percentiles describe one
#: population instead of jumping between a cheap and a costly group. The
#: delay-based CCAs run longest: their throughput collapse (Fig. 1a's
#: 2.73 / 1.49 Mbps) is a steady state that takes tens of seconds to show.
BULK_DURATION_S = {"cubic": 1.5, "bbr": 3.0, "vegas": 20.0, "vivace": 40.0}
BULK_CYCLE_COST_S = 3.3


def bulk_build(seed: int, seconds: float) -> List[Op]:
    return [
        _op(f"{cc}@{BULK_DURATION_S[cc]:g}s", cc=cc, seed=seed)
        for _ in range(cycles(seconds, BULK_CYCLE_COST_S))
        for cc in BULK_CCAS
    ]


def bulk_run(op: Op) -> OpOutput:
    from repro.experiments.fig1 import run_single_cca

    cc = op.param("cc")
    bulk = run_single_cca(cc, duration=BULK_DURATION_S[cc], seed=op.param("seed"))
    series = bulk.throughput_series(interval=0.25)
    return OpOutput(outputs={"bytes_acked": bulk.bytes_acked, "series": series})


def bulk_invariants(op: Op, out: OpOutput) -> List[str]:
    problems = []
    if out.outputs["bytes_acked"] <= 0:
        problems.append("no bytes acked")
    # 60 Mbps eMBB + 2 Mbps URLLC bound the aggregate goodput.
    if out.outputs["bytes_acked"] * 8 > 62e6 * BULK_DURATION_S[op.param("cc")]:
        problems.append("goodput above the channel capacity")
    return problems


# ----------------------------------------------------------------------
# web: one Table 1 page load per op
# ----------------------------------------------------------------------
WEB_CONDITIONS = ("stationary", "driving")
WEB_POLICIES = ("embb-only", "dchannel", "dchannel+flowprio")
#: The paper's Table 1 replays 30 pages. The corpus is fixed (corpus seed
#: 0) so that every seed loads the same pages: the seed picks the trace
#: realization and the network's random streams, exactly as the Table 1
#: cell does for ``seed``. A seeded corpus would make the page mix, and so
#: the host time, differ from seed to seed by more than the bounds.
WEB_CORPUS_PAGES = 30
WEB_CORPUS_SEED = 0
WEB_PAGE_TIMEOUT_S = 45.0
#: One cycle is one page under all six (condition, policy) pairs.
WEB_CYCLE_COST_S = 0.9


@functools.lru_cache(maxsize=1)
def web_corpus():
    from repro.apps.web.corpus import generate_corpus

    return generate_corpus(count=WEB_CORPUS_PAGES, seed=WEB_CORPUS_SEED)


def web_build(seed: int, seconds: float) -> List[Op]:
    web_corpus()  # input generation is part of set-up
    ops = []
    for cycle in range(cycles(seconds, WEB_CYCLE_COST_S)):
        page = cycle % WEB_CORPUS_PAGES
        for condition in WEB_CONDITIONS:
            for policy in WEB_POLICIES:
                key = f"seed={seed}:{condition}/{policy}:page={page}"
                ops.append(_op(key, condition=condition, policy=policy, page=page, seed=seed))
    return ops


def web_run(op: Op) -> OpOutput:
    from repro.experiments.table1 import run_table1_cell

    page = op.param("page")
    # Table 1 seeds page ``i`` of a cell with ``seed + i``.
    plts = run_table1_cell(
        op.param("condition"),
        op.param("policy"),
        pages=[web_corpus()[page]],
        seed=op.param("seed") + page,
        page_timeout=WEB_PAGE_TIMEOUT_S,
    )
    complete = sum(1 for plt in plts if plt < WEB_PAGE_TIMEOUT_S)
    return OpOutput(outputs={"plt": plts}, counters={"apps.pages_completed": complete})


def web_invariants(op: Op, out: OpOutput) -> List[str]:
    plts = out.outputs["plt"]
    if len(plts) != 1:
        return [f"expected one PLT, got {len(plts)}"]
    if not 0.0 < plts[0] < WEB_PAGE_TIMEOUT_S:
        return [f"page load did not complete (PLT {plts[0]!r})"]
    return []


# ----------------------------------------------------------------------
# fleet: one hybrid fleet run under a handover blackout per op
# ----------------------------------------------------------------------
FLEET_TENANTS = 10_000
FLEET_FOREGROUND = 4
FLEET_DURATION_S = 5.0
FLEET_TICK_S = 0.01
FLEET_CYCLE_COST_S = 0.75


def fleet_build(seed: int, seconds: float) -> List[Op]:
    key = f"seed={seed}:tenants={FLEET_TENANTS}:fg={FLEET_FOREGROUND}:{FLEET_DURATION_S:g}s"
    return [_op(key, seed=seed) for _ in range(cycles(seconds, FLEET_CYCLE_COST_S))]


def fleet_run(op: Op) -> OpOutput:
    from repro.experiments.resilience import fleet_regime_rows
    from repro.faults import FaultInjector, FaultSchedule
    from repro.fleet.hybrid import FleetConfig, FleetSimulation

    config = FleetConfig(
        tenants=FLEET_TENANTS,
        foreground=FLEET_FOREGROUND,
        duration=FLEET_DURATION_S,
        seed=op.param("seed"),
        preset="paper",
        tick=FLEET_TICK_S,
    )
    sim = FleetSimulation(config)
    rows = fleet_regime_rows(
        "handover", FLEET_DURATION_S, [channel.name for channel in sim.net.channels]
    )
    FaultInjector(sim.net, FaultSchedule.from_params(rows)).arm()
    out = sim.run()
    background = out["background"]
    return OpOutput(
        outputs={
            "background_digest": out["background_digest"],
            "fct": [flow["fct"] for flow in out["foreground"]],
        },
        counters={
            "fleet.ticks": background["ticks"],
            "fleet.stall_events": background["stalls"]["events"],
            "fleet.completed": background["completed"],
        },
    )


def fleet_invariants(op: Op, out: OpOutput) -> List[str]:
    problems = []
    digest = out.outputs["background_digest"]
    if len(digest) != 64 or any(c not in "0123456789abcdef" for c in digest):
        problems.append("background digest is not a sha256 hex string")
    fcts = [x for flow in out.outputs["fct"] for x in flow]
    if not fcts or any(not 0.0 < x <= FLEET_DURATION_S for x in fcts):
        problems.append("foreground FCTs missing or out of range")
    expected_ticks = int(round(FLEET_DURATION_S / FLEET_TICK_S))
    if abs(out.counters["fleet.ticks"] - expected_ticks) > 1:
        problems.append(f"fluid ticks {out.counters['fleet.ticks']} != {expected_ticks}")
    if out.counters["fleet.completed"] <= 0:
        problems.append("no background tenant completed")
    return problems


# ----------------------------------------------------------------------
# multipath: one ab-mp mixed run per op
# ----------------------------------------------------------------------
MP_SCHEDULERS = ("hvc", "minrtt")
#: ``mp_unit`` warms up for half the duration, measures the rest, then
#: drains for 2 s, so one op simulates ``MP_DURATION_S + 2`` seconds.
MP_DURATION_S = 0.5
MP_CYCLE_COST_S = 10.0


def multipath_build(seed: int, seconds: float) -> List[Op]:
    return [
        _op(f"{scheduler}@{MP_DURATION_S:g}s", scheduler=scheduler, seed=seed)
        for _ in range(cycles(seconds, MP_CYCLE_COST_S))
        for scheduler in MP_SCHEDULERS
    ]


def multipath_run(op: Op) -> OpOutput:
    from repro.experiments.ablations import mp_unit

    payload = mp_unit(op.param("scheduler"), duration=MP_DURATION_S, seed=op.param("seed"))
    return OpOutput(
        outputs={"goodput_mbps": payload["goodput_mbps"], "latencies": payload["latencies"]}
    )


def multipath_invariants(op: Op, out: OpOutput) -> List[str]:
    problems = []
    if not 0.0 < out.outputs["goodput_mbps"] <= 62.0:
        problems.append(f"goodput {out.outputs['goodput_mbps']!r} Mbps out of range")
    # One 2 kB RPC every 250 ms until the duration ends.
    if len(out.outputs["latencies"]) != int(MP_DURATION_S / 0.25):
        problems.append(f"{len(out.outputs['latencies'])} RPC latencies")
    if any(not math.isfinite(x) or x <= 0 for x in out.outputs["latencies"]):
        problems.append("non-positive RPC latency")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, float], List[Op]]
    run: Callable[[Op], OpOutput]
    invariants: Callable[[Op, OpOutput], List[str]]
    #: Modules imported as part of set-up.
    imports: Tuple[str, ...]


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("bulk", bulk_build, bulk_run, bulk_invariants, ("repro.experiments.fig1",)),
        Workload("web", web_build, web_run, web_invariants, ("repro.experiments.table1",)),
        Workload(
            "fleet", fleet_build, fleet_run, fleet_invariants,
            ("repro.experiments.resilience", "repro.faults", "repro.fleet.hybrid"),
        ),
        Workload(
            "multipath", multipath_build, multipath_run, multipath_invariants,
            ("repro.experiments.ablations",),
        ),
    )
}
