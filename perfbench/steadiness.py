"""Steadiness mode: repeat the benchmark over seeds and report spreads.

Runs ``perfbench/run.py`` once per (seed, workload), interleaving the
workloads so slow drift of the machine hits every workload alike, then
prints for each workload and end-to-end metric the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and that spread as a share of the metric's bound
in ``BENCHMARK.json``. A spread at or under a third of its bound is
marked ``ok``. ``--against`` compares the medians with an earlier
``--save`` file, the way a regression check compares two sets of runs::

    python3 perfbench/steadiness.py --seeds 1-10 --save first.json
    python3 perfbench/steadiness.py --seeds 1-10 --against first.json

Spreads of ``setup_s`` are reported but not held to its bound; its
median drift is.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text: str):
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def _run(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} failed ({completed.returncode}):\n"
            f"{completed.stdout[-2000:]}\n{completed.stderr[-2000:]}"
        )
    record = json.loads(lines[-1])
    return {name: m["value"] for name, m in record["metrics"].items()}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10",
                        help="'1-10' or '3,5,8' (default 1-10)")
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save", help="write the raw values here (JSON)")
    parser.add_argument("--against",
                        help="compare medians with an earlier --save file")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    values = {w: {} for w in workloads}
    for seed in _seeds(args.seeds):
        for workload in workloads:
            metrics = _run(workload, seed, args.seconds)
            for name, value in metrics.items():
                values[workload].setdefault(name, []).append(value)
            print(f"seed {seed} {workload}: " + ", ".join(
                f"{name}={value:.4g}" for name, value in metrics.items()),
                flush=True)
    if args.save:
        with open(args.save, "w") as out:
            json.dump(values, out, indent=1)
    earlier = None
    if args.against:
        with open(args.against) as previous:
            earlier = json.load(previous)

    worst = 0.0
    print(f"\n{'workload':14s} {'metric':12s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s} {'/bound':>7s}"
          + ("  drift" if earlier else ""))
    for workload in workloads:
        for name, series in values[workload].items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            bound = bounds[name]["bound"]
            share = spread / bound
            held = name == "setup_s" or share <= 1 / 3
            if name != "setup_s":
                worst = max(worst, share)
            line = (f"{workload:14s} {name:12s} {median:10.4g} {q1:10.4g} "
                    f"{q3:10.4g} {spread:7.3f} {bound:6.2f} {share:7.2f} "
                    f"{'ok' if held else 'WIDE'}")
            if earlier:
                before = statistics.median(earlier[workload][name])
                worse = (median - before) / before
                if bounds[name]["better"] == "higher":
                    worse = -worse
                line += f"  {worse:+.3f} {'ok' if worse <= bound else 'WORSE'}"
            print(line)
    print(f"\nwidest spread as a share of its bound (setup_s aside): "
          f"{worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
