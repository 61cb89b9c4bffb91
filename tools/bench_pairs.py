"""Interleaved benchmark pairs of two checkouts.

    python3 tools/bench_pairs.py PARENT CHANGE --workload small_suites \
        --pairs 3 --seconds 60 [--seed 1]

Runs ``benchmarks/run.py --trace 0`` in each checkout, from its root so that
each imports its own ``src``, once per pair.  Pair i runs at seed
``--seed + i``, and the side that goes first alternates from pair to pair,
so that a drift of the host's speed falls on both sides alike.  Prints per
pair every end-to-end metric of both sides with the ratio CHANGE / PARENT,
then the median ratio per metric.  Whether a ratio above 1 is better is the
metric's ``better`` in the CHANGE checkout's ``BENCHMARK.json``.  A run that
exits non-zero, or whose result is not ``correct``, stops the tool with its
output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """The metrics of one benchmark run: {name: value}."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if not result.get("correct"):
        sys.exit(f"{checkout} seed {seed}: exit {proc.returncode}\n"
                 f"{proc.stdout}{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    ratios: dict[str, list[float]] = {}
    for i in range(args.pairs):
        seed = args.seed + i
        sides = [("parent", args.parent), ("change", args.change)]
        if i % 2:
            sides.reverse()
        got = {name: run_once(path, args.workload, seed, args.seconds)
               for name, path in sides}
        print(f"pair {i + 1} seed {seed} ({sides[0][0]} first)")
        for name in better:
            if name not in got["parent"]:
                continue
            old, new = got["parent"][name], got["change"][name]
            ratio = new / old if old else float("nan")
            ratios.setdefault(name, []).append(ratio)
            print(f"  {name:14s} parent {old:12.4f}  change {new:12.4f}  "
                  f"ratio {ratio:.3f}")
    print("median ratio change / parent (better: higher or lower)")
    for name, values in ratios.items():
        print(f"  {name:14s} {statistics.median(values):.3f}  "
              f"({better[name]})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
