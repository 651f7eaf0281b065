"""Run every workload and print every end-to-end metric with its unit.

Usage (from the repository root)::

    python3 perfbench/all.py                      # seeds 0 and 1, 20 s runs
    python3 perfbench/all.py --seeds 0 --seconds 5

Each workload runs in a fresh ``run.py`` process (so ``peak_rss_mb`` is per
workload), one after another. Prints one line per metric, then
``ops_failed_frac`` per workload and seed. Exits 1 if any op failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    failed = False
    for seed in args.seeds:
        for name in workloads.WORKLOADS:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True,
            )
            if done.returncode != 0:
                print(f"{name} seed={seed}: run failed\n{done.stderr}", file=sys.stderr)
                return 2
            lines = done.stdout.strip().splitlines()
            detail = json.loads(lines[-2])["detail"]
            result = json.loads(lines[-1])
            for metric, value in result["metrics"].items():
                print(f"{name:10s} seed={seed}  {metric:14s} {value['value']:.6g} {value['unit']}")
            print(f"{name:10s} seed={seed}  {'ops_failed_frac':14s} "
                  f"{detail['ops_failed_frac']:.6g} frac ({result['failed']}/{result['attempted']})")
            failed = failed or result["failed"] > 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
