"""Compare benchmark results from two sides, or refuse when they are not comparable.

Usage (from the repository root)::

    python3 perfbench/compare.py --base perfbench/out/a.json ... --head perfbench/out/b.json ...

Each file is a result written by ``run.py``. Every file must be for the same
workload and trace mode, and carry the same environment stamp on
``COMPARABLE_KEYS``. Otherwise the tool prints what differs and exits 3
without comparing anything. The commit, dirty flag and source digest are
allowed to differ: they name the code under comparison. For each metric it
prints the median of each side, their ratio, and, for end-to-end metrics,
whether the head is worse than the base by more than the bound in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent

#: Stamp fields that must match for two results to be compared.
COMPARABLE_KEYS = ("python", "implementation", "numpy", "compiled_core", "cpu_count")


def load(path: str) -> Dict:
    return json.loads(Path(path).read_text())


def incomparable(results: List[Dict]) -> List[str]:
    """Reasons the results cannot be compared (empty when they can)."""
    reasons = []
    first = results[0]["detail"]
    for other in results[1:]:
        detail = other["detail"]
        for key in ("workload", "trace"):
            if detail[key] != first[key]:
                reasons.append(f"{key}: {first[key]!r} vs {detail[key]!r}")
        for key in COMPARABLE_KEYS:
            if detail["stamp"].get(key) != first["stamp"].get(key):
                reasons.append(
                    f"stamp {key}: {first['stamp'].get(key)!r} vs {detail['stamp'].get(key)!r}"
                )
    return sorted(set(reasons))


def medians(results: List[Dict]) -> Dict[str, float]:
    values: Dict[str, List[float]] = {}
    for result in results:
        for name, m in result["result"]["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    base = [load(p) for p in args.base]
    head = [load(p) for p in args.head]
    reasons = incomparable(base + head)
    if reasons:
        print("not comparable:")
        for reason in reasons:
            print(f"  {reason}")
        return 3
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    b, h = medians(base), medians(head)
    worse = 0
    for name in sorted(set(b) & set(h)):
        ratio = h[name] / b[name] if b[name] else float("nan")
        line = f"{name:28s} base {b[name]:.6g}  head {h[name]:.6g}  head/base {ratio:.4f}"
        if name in bounds:
            m = bounds[name]
            change = (b[name] - h[name]) if m["better"] == "higher" else (h[name] - b[name])
            if b[name] and change / b[name] > m["bound"]:
                line += f"  WORSE than bound {m['bound']}"
                worse += 1
        print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
