"""Layered benchmark of the CStream reproduction (``src/repro``).

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 50 --trace 0

Each run starts fresh single-threaded worker processes
(``perfbench/worker.py``) with a pinned environment, measures the
workload for ``--seconds`` in total, checks the program's outputs and
prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
an untraced worker and a traced worker run and the metrics are the
per-layer ones. The lines before it give the run's provenance and the
workload's figures under their own names. The run exits non-zero when a
check fails or the checkout holds no program to measure.

``perfbench/README.md`` explains the workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.dont_write_bytecode = True

from perfbench.layers import PER_LAYER, quantile  # noqa: E402  (needs ROOT)

WORKLOADS = ("paper-grid", "codec-stream", "fleet-serve", "control-loop")
#: untraced workers per ``--trace 0`` run; their pooled samples give
#: the host metrics
WORKERS = 3
#: extra workers per ``--trace 0`` run that only set up: ``setup_s`` is
#: the median over these and the measuring workers
SETUP_ONLY_WORKERS = 2
#: a worker may overrun its share of ``--seconds`` by one pass
WORKER_GRACE_S = 45.0
#: every worker is stopped by this many seconds after the run started
RUN_DEADLINE_S = 170.0
STARTED = time.monotonic()
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: thread-pool sizes pinned to one, so one process is one thread
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)

#: human-readable names of the headline figures per workload, with units
FIGURES = {
    "paper-grid": (
        ("grid_cells_per_s", "ops_per_s", "1/s"),
        ("cell_ms_p50", "op_ms_p50", "ms"),
        ("cell_ms_p90", "op_ms_p90", "ms"),
        ("cstream_energy_uj_per_byte", "cstream_energy_uj_per_byte", "uJ/B"),
        ("cstream_clcv", "cstream_clcv", "ratio"),
    ),
    "codec-stream": (
        ("round_trips_per_s", "ops_per_s", "1/s"),
        ("round_trip_ms_p50", "op_ms_p50", "ms"),
        ("round_trip_ms_p90", "op_ms_p90", "ms"),
        ("compress_mb_per_s", "compress_mb_per_s", "MB/s"),
        ("decompress_mb_per_s", "decompress_mb_per_s", "MB/s"),
        ("compression_ratio", "compression_ratio", "ratio"),
    ),
    "fleet-serve": (
        ("fleet_windows_per_s", "ops_per_s", "1/s"),
        ("fleet_window_ms_p50", "op_ms_p50", "ms"),
        ("fleet_window_ms_p90", "op_ms_p90", "ms"),
        ("fleet_slo_miss_ratio", "fleet_slo_miss_ratio", "ratio"),
    ),
    "control-loop": (
        ("session_windows_per_s", "ops_per_s", "1/s"),
        ("session_window_ms_p50", "op_ms_p50", "ms"),
        ("session_window_ms_p90", "op_ms_p90", "ms"),
        ("session_energy_uj_per_byte", "session_energy_uj_per_byte", "uJ/B"),
        ("session_slo_miss_ratio", "session_slo_miss_ratio", "ratio"),
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s",
    "op_ms_p50": "ms", "op_ms_p90": "ms",
}
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}
#: per-layer figures read off simulated outputs rather than spans
#: (``sim.<figure>`` carries a workload figure of the same name)
FROM_OUTPUTS = ("chaos.recovery_ms", "fleet.sheds", "fleet.failovers",
                "fleet.failover_lag_windows")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _env() -> dict:
    """The worker environment: no REPRO_* knob (cache, parallelism,
    trace directory, batch size, repetitions, plan validation) and
    single-threaded numeric libraries."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    for key in THREAD_VARS:
        env[key] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # set-up always compiles the sources
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
    )
    return env


def _provenance(seed: int) -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit, dirty = "unknown", None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
        dirty = bool(subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "git_commit": commit,
        "git_dirty": dirty,
    }


def _worker(workload: str, seed: int, seconds: float, trace: int,
            *extra: str) -> dict:
    command = [
        sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace),
        *extra, "--spawned-at", repr(time.time()),
    ]
    timeout = min(seconds + WORKER_GRACE_S,
                  RUN_DEADLINE_S - (time.monotonic() - STARTED))
    process = subprocess.Popen(
        command, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=max(timeout, 1.0))
    except BaseException as error:
        process.kill()
        process.communicate()
        if isinstance(error, subprocess.TimeoutExpired):
            raise RuntimeError(f"{workload} worker timed out") from None
        raise
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} worker exited {process.returncode}: "
            f"{stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def _host(runs) -> dict:
    """Host metrics from the workers' (key, units, cpu s, wall s) samples.

    Host times are process CPU seconds of a single-threaded worker. Each
    operation of a pass (``key``) repeats in every pass of every worker
    and counts at its fastest repeat (see README.md for why).
    """
    best = {}
    count = 0
    for run in runs:
        for key, units, cpu, _ in run["samples"]:
            count += 1
            if units and (key not in best or cpu < best[key][1]):
                best[key] = (units, cpu)
    if not best:  # every operation failed; the run reports incorrect
        return {"ops_per_s": 0.0, "op_ms_p50": 0.0, "op_ms_p90": 0.0,
                "operations": 0, "repeats": 0.0}
    per_unit_ms = [1000.0 * cpu / units for units, cpu in best.values()]
    return {
        "ops_per_s": sum(u for u, _ in best.values())
        / sum(c for _, c in best.values()),
        "op_ms_p50": statistics.median(per_unit_ms),
        "op_ms_p90": quantile(per_unit_ms, 0.9),
        "operations": len(best),
        "repeats": count / len(best),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return _fail("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        return _fail(f"no program to measure: {ROOT}/src/repro is missing")

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    provenance = _provenance(args.seed)
    try:
        if args.trace:
            share = args.seconds / 2.0
            runs = [
                _worker(args.workload, args.seed, share, 0),
                _worker(args.workload, args.seed, share, 1, "--spans-out",
                        os.path.join(OUT_DIR, stem + ".spans.tsv.gz")),
            ]
            setups = []
        else:
            share = args.seconds / WORKERS
            runs = [
                _worker(args.workload, args.seed, share, 0)
                for _ in range(WORKERS)
            ]
            setups = [
                _worker(args.workload, args.seed, 0, 0, "--setup-only")
                for _ in range(SETUP_ONLY_WORKERS)
            ]
    except RuntimeError as error:
        return _fail(str(error))
    provenance["numpy"] = runs[0]["numpy"]
    print("provenance " + json.dumps(provenance, sort_keys=True))

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    digests = {r["digest"] for r in runs}
    if len(digests) != 1 or None in digests:
        errors.append(
            "simulated outputs differ between worker processes"
            + (" (traced vs untraced)" if args.trace else "")
        )
    correct = failed == 0 and not errors
    # simulated figures agree across workers (the digest check); host
    # figures such as codec MB/s are the median over the workers
    values = {
        key: statistics.median(r["values"].get(key, 0.0) for r in runs)
        for key in runs[0]["values"]
    }

    if args.trace:
        untraced, traced = (_host([r]) for r in runs)
        measured = dict(runs[1]["per_layer"])
        measured["trace.overhead_ratio"] = (
            untraced["ops_per_s"] / traced["ops_per_s"]
            if traced["ops_per_s"] else 0.0
        )
        for name in FROM_OUTPUTS:
            measured[name] = values.get(name, 0.0)
        metrics = {}
        for name in PER_LAYER_UNITS:
            if name.startswith("sim."):
                metrics[name] = values.get(name[len("sim."):], 0.0)
            else:
                metrics[name] = measured[name]
        units = PER_LAYER_UNITS
    else:
        host = _host(runs)
        values.update(host)
        metrics = {
            "setup_s": statistics.median(
                r["setup_s"] for r in runs + setups
            ),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "ops_per_s": host["ops_per_s"],
            "op_ms_p50": host["op_ms_p50"],
            "op_ms_p90": host["op_ms_p90"],
        }
        units = END_TO_END_UNITS
        for label, key, unit in FIGURES[args.workload]:
            if key in values:
                print(f"{label} = {values[key]:.6g} {unit}")
        print(f"operations = {host['operations']}, repeats each = "
              f"{host['repeats']:.1f} (passes per worker: "
              f"{', '.join(str(r['passes']) for r in runs)})")
    for error in errors[:20]:
        print(f"check failed: {error}")

    record = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as out:
        json.dump({"provenance": provenance, "figures": values,
                   "errors": errors, **record}, out, indent=1, sort_keys=True)
    print(json.dumps(record))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
