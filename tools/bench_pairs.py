"""Interleaved benchmark pairs of two checkouts, and the verdict of the
benchmark's rules on them.

    python3 tools/bench_pairs.py PARENT CHANGE --workload small_suites \
        [--pairs 10] [--seconds 60] [--seed 1]

Runs ``benchmarks/run.py --trace 0`` in each checkout, from its root so that
each imports its own ``src``, once per pair.  Pair i runs at seed
``--seed + i``, and the side that goes first alternates from pair to pair,
so that a drift of the host's speed falls on both sides alike.  Prints per
pair every end-to-end metric of both sides with the ratio CHANGE / PARENT,
then the median ratio per metric, then per metric the :func:`verdict` of
the rules: each side's median and quartiles, the pairs the change wins,
whether the medians differ by more than the parent's interquartile range
(with nine tenths of the pairs won, a gain may be claimed), and whether the
change is worse than the parent by more than the metric's ``bound``.
Whether higher is better, and the bounds, are read from the CHANGE
checkout's ``BENCHMARK.json``.  A run that exits non-zero, or whose result
is not ``correct``, stops the tool with its output.
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


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), by linear interpolation
    between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """The benchmark rules applied to one metric's paired runs.

    ``wins`` counts the pairs the change reads better in (a tie counts for
    neither side); ``beyond_iqr`` is whether the medians differ by more
    than the parent's interquartile range; ``gain`` holds when the change
    wins at least nine tenths of the pairs and its median is better beyond
    that range.  ``regression`` is "worse" when the change's median is
    worse than the parent's by more than ``bound`` (relative to the
    parent's median), else "unresolved" when the parent's interquartile
    range, relative to its median, is wider than ``bound`` and not every
    run of the change reads better than every run of the parent, else
    "within bound"."""
    sign = 1.0 if better == "higher" else -1.0
    p1, p_med, p3 = _quartiles(parent)
    c1, c_med, c3 = _quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    beyond_iqr = abs(c_med - p_med) > p3 - p1
    scale = abs(p_med) or 1.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if sign * (p_med - c_med) / scale > bound:
        regression = "worse"
    elif (p3 - p1) / scale > bound and not all_better:
        regression = "unresolved"
    else:
        regression = "within bound"
    return {"parent": (p1, p_med, p3), "change": (c1, c_med, c3),
            "wins": wins, "pairs": len(parent), "beyond_iqr": beyond_iqr,
            "gain": (10 * wins >= 9 * len(parent) and beyond_iqr
                     and sign * (c_med - p_med) > 0),
            "regression": regression}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ratios: dict[str, list[float]] = {}
    runs: dict[str, tuple[list[float], list[float]]] = {}
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
            olds, news = runs.setdefault(name, ([], []))
            olds.append(old)
            news.append(new)
            print(f"  {name:14s} parent {old:12.4f}  change {new:12.4f}  "
                  f"ratio {ratio:.3f}")
    print("median ratio change / parent (better: higher or lower)")
    for name, values in ratios.items():
        print(f"  {name:14s} {statistics.median(values):.3f}  "
              f"({better[name]})")
    print("verdict (quartiles q1 / median / q3)")
    for name, (old, new) in runs.items():
        v = verdict(old, new, better[name], bounds[name])
        parent, change = ("/".join(f"{x:.4g}" for x in v[side])
                          for side in ("parent", "change"))
        print(f"  {name:14s} parent {parent}  change {change}")
        print(f"  {'':14s} change wins {v['wins']} of {v['pairs']}; medians "
              f"differ {'beyond' if v['beyond_iqr'] else 'within'} the "
              f"parent's IQR; gain {'claimable' if v['gain'] else 'not met'}"
              f"; regression: {v['regression']} (bound {bounds[name]})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
