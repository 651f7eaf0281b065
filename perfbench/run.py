"""The repository's benchmark of record.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bulk --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload bulk --seed 0 --seconds 20 --trace 1
    python3 perfbench/run.py --write-references

One process runs one workload as a closed loop: one op at a time, no
worker pool, no threads. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs a quarter of the ops twice each, untraced and then traced,
and prints the per-layer metrics and ``trace_overhead``. The last line of
standard output is the result object; the line before it carries the
details (environment stamp, tail percentile, counters, failures). Both are
also written to ``perfbench/out/``.

See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCES = HERE / "references.json"
sys.path.insert(0, str(HERE))

import capture  # noqa: E402
import workloads  # noqa: E402

#: Seeds whose op outputs are stored in ``references.json``: the default
#: seed and one held-out seed.
REFERENCE_SEEDS = (0, 1)
#: Set-up is measured in this many fresh processes; the median is reported.
SETUP_SAMPLES = 5
#: The traced run covers this share of the untraced run's ops.
TRACE_SHARE = 0.25
#: Run length whose op list holds every distinct op of a seed (web: every
#: corpus page), used to write the references.
REFERENCE_SECONDS = 30.0
#: ``op_tail_s`` is the highest percentile with at least this many ops beyond it.
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources at {SRC}: run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not from {SRC}")


def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the program's Python sources (identifies the code run)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment_stamp() -> Dict[str, Any]:
    """What ran and where; ``compare.py`` refuses results whose stamps differ."""
    from importlib import metadata

    from repro.sim.core import COMPILED

    try:
        numpy_version: Optional[str] = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "compiled_core": COMPILED,
        "cpu_count": os.cpu_count(),
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "src_sha256": source_digest(),
    }


# ----------------------------------------------------------------------
# Outputs and references
# ----------------------------------------------------------------------
def output_hash(outputs: Any) -> str:
    """sha256 of an op's simulated outputs (floats hashed at full precision)."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_references() -> Dict[str, Dict[str, str]]:
    if not REFERENCES.is_file():
        return {}
    return json.loads(REFERENCES.read_text())["workloads"]


class Checker:
    """Checks each op's outputs; counts attempts and failures."""

    def __init__(self, workload: workloads.Workload, references: Dict[str, str]) -> None:
        self.workload = workload
        self.references = references
        self.seen: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.reference_checks = 0
        self.failures: List[Dict[str, str]] = []

    def check(self, op: workloads.Op, output: Optional[workloads.OpOutput],
              error: Optional[str] = None) -> None:
        """Record one op execution; ``output`` is None when the op raised ``error``."""
        self.attempted += 1
        if output is None:
            self._fail(op, error or "raised")
            return
        digest = output_hash(output.outputs)
        problems = self.workload.invariants(op, output)
        expected = self.references.get(op.key)
        if expected is not None:
            self.reference_checks += 1
            if digest != expected:
                problems.append(f"output hash {digest[:16]} != reference {expected[:16]}")
        previous = self.seen.setdefault(op.key, digest)
        if previous != digest:
            problems.append(f"output hash {digest[:16]} != earlier run {previous[:16]}")
        if problems:
            self._fail(op, "; ".join(problems))

    def _fail(self, op: workloads.Op, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append({"op": op.key, "reason": reason})


def execute(workload: workloads.Workload, op: workloads.Op, cap: capture.Capture,
            checker: Checker, tracer=None, op_id: int = 0) -> Tuple[float, Dict]:
    """One op, timed (traced when ``tracer`` is given); returns (host seconds, counters)."""
    cap.reset()
    output: Optional[workloads.OpOutput] = None
    error = None
    start = time.perf_counter()
    try:
        if tracer is None:
            output = workload.run(op)
        else:
            output, _ = tracer.run_op(op_id, lambda: workload.run(op))
    except Exception:  # an op that raises counts as failed; the run goes on
        error = traceback.format_exc(limit=3).strip().splitlines()[-1]
    elapsed = time.perf_counter() - start
    counters = cap.counters()
    if output is not None:
        counters.update(output.counters)
    checker.check(op, output, error)
    return elapsed, counters


def add_counters(total: Dict[str, float], counters: Dict[str, float]) -> None:
    for name, value in counters.items():
        total[name] = total.get(name, 0) + value


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail(times: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, ops beyond) at the highest percentile with at
    least ``TAIL_BEYOND`` ops beyond it; the maximum when there are too few ops."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def setup(workload: workloads.Workload, seed: int, seconds: float) -> List[workloads.Op]:
    """Imports plus input generation: everything before the first op."""
    import_program()
    for module in workload.imports:
        __import__(module)
    return workload.build(seed, seconds)


def measure_setup(args) -> List[float]:
    """Set-up time in ``SETUP_SAMPLES`` fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise BenchError("set-up failed: " + done.stderr.strip()[-2000:])
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def anchor_check(workload, cap, checker) -> None:
    """When no op of the run had a stored reference, check one default-seed op."""
    if not checker.reference_checks:
        execute(workload, workload.build(REFERENCE_SEEDS[0], 0)[0], cap, checker)


def run_untraced(workload, ops, cap, checker) -> Tuple[Dict, Dict]:
    times: List[float] = []
    totals: Dict[str, float] = {}
    for op in ops:
        elapsed, counters = execute(workload, op, cap, checker)
        times.append(elapsed)
        add_counters(totals, counters)
    value, percentile, beyond = tail(times)
    metrics = {
        "sim_s_per_s": metric(totals["sim.seconds"] / sum(times), "s/s"),
        "op_p50_s": metric(statistics.median(times), "s"),
        "op_tail_s": metric(value, "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    detail = {
        "ops": len(ops),
        "op_s": times,
        "op_tail": {"percentile": percentile, "ops_beyond": beyond, "ops": len(times)},
        "counters": {**totals, **capture.derived(totals)},
    }
    return metrics, detail


def run_traced(workload, ops, cap, checker) -> Tuple[Dict, Dict, Any]:
    from tracing import LAYERS, Tracer

    tracer = Tracer()
    untraced_s = traced_s = 0.0
    totals: Dict[str, float] = {}
    for op_id, op in enumerate(ops):
        elapsed, _ = execute(workload, op, cap, checker)
        untraced_s += elapsed
        traced, counters = execute(workload, op, cap, checker, tracer, op_id)
        traced_s += traced
        add_counters(totals, counters)
    layer = tracer.layer_self_s()
    total_self = sum(layer.values())

    def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return numerator / denominator * scale if denominator else 0.0

    choose_calls = tracer.calls_of("choose")
    on_ack_calls = tracer.calls_of("on_ack")
    step_s = tracer.self_of("FluidBackground.step")
    derived = capture.derived(totals)
    m = {
        "sim.events": metric(totals["sim.events"], "count"),
        "sim.ns_per_event": metric(per(layer["sim"], totals["sim.events"], 1e9), "ns"),
        "net.send_calls": metric(totals["net.send_calls"], "count"),
        "net.queue_drops": metric(totals["net.queue_drops"], "count"),
        "net.dup_ratio": metric(derived["net.dup_ratio"], "ratio"),
        "net.link_busy_frac": metric(derived["net.link_busy_frac"], "frac"),
        "steering.choose_calls": metric(choose_calls, "count"),
        "steering.ns_per_choose": metric(per(layer["steering"], choose_calls, 1e9), "ns"),
        "steering.urllc_pkt_share": metric(derived["steering.urllc_pkt_share"], "frac"),
        "transport.ns_per_ack": metric(per(layer["transport"], tracer.acks_handled, 1e9), "ns"),
        "transport.rtx_ratio": metric(per(tracer.data_retransmits, tracer.data_packets), "ratio"),
        "transport.goodput_ratio": metric(
            per(totals["transport.bytes_acked"], tracer.data_bytes), "ratio"
        ),
        "cc.on_ack_calls": metric(on_ack_calls, "count"),
        "cc.ns_per_ack": metric(per(layer["cc"], on_ack_calls, 1e9), "ns"),
        "core.builds": metric(totals["core.builds"], "count"),
        "core.build_s": metric(tracer.total_of("HvcNetwork.__init__"), "s"),
        "traces.calls": metric(tracer.calls_of("get_trace"), "count"),
        "apps.pages_completed": metric(totals.get("apps.pages_completed", 0), "count"),
        "fleet.ticks": metric(totals.get("fleet.ticks", 0), "count"),
        "fleet.step_self_s": metric(step_s, "s"),
        "fleet.us_per_tick": metric(per(step_s, totals.get("fleet.ticks", 0), 1e6), "us"),
        "fleet.stall_events": metric(totals.get("fleet.stall_events", 0), "count"),
        "faults.outages": metric(totals["faults.outages"], "count"),
        "trace_overhead": metric(traced_s / untraced_s - 1.0, "ratio"),
    }
    for name in LAYERS:
        m[f"{name}.self_s"] = metric(layer[name], "s")
        m[f"{name}.share"] = metric(per(layer[name], total_self), "frac")
    detail = {
        "ops": len(ops),
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "spans": tracer.spans,
        "spans_recorded": len(tracer.records),
        "span_calls": dict(zip(tracer.names, tracer.calls)),
        "counters": {**totals, **derived},
    }
    return m, detail, tracer


def run(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    if args.seconds <= 0:
        raise BenchError("--seconds must be positive")
    seconds = args.seconds * (TRACE_SHARE if args.trace else 1.0)
    if args.setup_only:
        setup(workload, args.seed, seconds)
        print(json.dumps({"setup_s": time.perf_counter() - _PROCESS_START}))
        return 0

    setup_samples = [] if args.trace else measure_setup(args)
    start = time.perf_counter()
    ops = setup(workload, args.seed, seconds)
    main_setup_s = time.perf_counter() - start
    checker = Checker(workload, load_references().get(workload.name, {}))
    cap = capture.Capture().install()
    try:
        if args.trace:
            metrics, detail, tracer = run_traced(workload, ops, cap, checker)
        else:
            metrics, detail = run_untraced(workload, ops, cap, checker)
            metrics["setup_s"] = metric(statistics.median(setup_samples), "s")
        anchor_check(workload, cap, checker)
    finally:
        cap.uninstall()
    if not args.trace:
        metrics["ops_ok_frac"] = metric(1.0 - checker.failed / checker.attempted, "frac")

    OUT.mkdir(exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{int(args.trace)}"
    if args.trace:
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write_spans(str(spans_path))
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    detail.update(
        workload=workload.name,
        seed=args.seed,
        seconds=args.seconds,
        trace=int(args.trace),
        setup_s_samples=setup_samples,
        main_setup_s=main_setup_s,
        reference_checks=checker.reference_checks,
        ops_failed_frac=checker.failed / checker.attempted,
        failures=checker.failures,
        stamp=environment_stamp(),
    )
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    (OUT / f"{name}.json").write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


def write_references(args) -> int:
    """Regenerate ``references.json`` from the current program (both seeds)."""
    import_program()
    cap = capture.Capture().install()
    stored: Dict[str, Dict[str, str]] = {}
    try:
        for workload in workloads.WORKLOADS.values():
            refs = stored[workload.name] = {}
            for seed in REFERENCE_SEEDS:
                for op in workload.build(seed, REFERENCE_SECONDS):
                    if op.key in refs:
                        continue
                    cap.reset()
                    refs[op.key] = output_hash(workload.run(op).outputs)
                print(f"{workload.name} seed {seed}: {len(refs)} references", file=sys.stderr)
    finally:
        cap.uninstall()
    REFERENCES.write_text(json.dumps({
        "note": "sha256 of each op's simulated outputs; regenerate with "
                "`python3 perfbench/run.py --write-references`",
        "seeds": list(REFERENCE_SEEDS),
        "workloads": stored,
    }, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-references", action="store_true",
                        help="regenerate references.json for the reference seeds")
    args = parser.parse_args(argv)
    try:
        if args.write_references:
            return write_references(args)
        if args.workload is None:
            parser.error("--workload is required")
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
