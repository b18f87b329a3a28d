"""Harness scaling: parallel grid execution + persistent result cache.

Times a small mechanism×workload grid at ``--jobs 1,2,4`` on a cold
cache, then re-runs it on the warm cache, and writes the trajectory
record ``BENCH_harness.json`` (cells/sec, speedup vs serial, cache-hit
rate, and a per-phase wall-clock breakdown — profiling vs simulation vs
cache I/O vs plan search — from :data:`repro.obs.registry.REGISTRY`).
Also times cold vs warm-started replanning on a drifted cost model and
records the warm-start hit rate, so the perf trajectory tracks the
scheduler-search cost the online control loop pays per replan, and
runs the fleet capacity sweep (static vs shedding vs
shedding+failover under a board crash, 3- and 6-board fleets) so the
record tracks the serving tier's graceful-degradation wins.
Run standalone::

    PYTHONPATH=src python benchmarks/bench_harness_scaling.py
    PYTHONPATH=src python benchmarks/bench_harness_scaling.py --quick

or via pytest (``pytest benchmarks/bench_harness_scaling.py``).

Assertions: parallel wall-clock must not exceed serial (only enforced
on multi-core machines — on a single CPU process parallelism can only
add overhead, which the JSON still records honestly), and the
warm-cache re-run must be near-zero (< 20% of the cold serial time).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

from repro.bench.cache import ResultCache
from repro.bench.harness import Harness, WorkloadSpec
from repro.obs.registry import REGISTRY, diff_snapshots

#: registry timers whose per-phase totals each run records
_PHASE_TIMERS = (
    "harness.profile",
    "harness.simulate",
    "cache.get",
    "cache.put",
    "scheduler.search",
)

#: tolerance for "parallel <= serial": scheduling jitter on busy CI boxes
PARALLEL_SLACK = 1.05
#: warm-cache re-run must cost at most this fraction of the cold serial run
WARM_FRACTION = 0.20

BENCH_BATCH_BYTES = 16384


def build_grid(quick: bool):
    if quick:
        specs = [
            WorkloadSpec.of(codec, "rovio", batch_size=BENCH_BATCH_BYTES)
            for codec in ("tcomp32", "tdic32")
        ]
        mechanisms = ("CStream", "RR")
    else:
        specs = [
            WorkloadSpec.of(codec, dataset, batch_size=BENCH_BATCH_BYTES)
            for codec in ("tcomp32", "lz4", "tdic32")
            for dataset in ("rovio", "stock")
        ]
        mechanisms = ("CStream", "OS", "RR", "BO")
    return specs, mechanisms


def fresh_harness(repetitions: int, cache) -> Harness:
    return Harness(
        repetitions=repetitions,
        batches_per_repetition=5,
        profile_batches=4,
        cache=cache,
        jobs=1,
    )


def time_grid(specs, mechanisms, repetitions, jobs, cache, chunk=None):
    harness = fresh_harness(repetitions, cache)
    before = REGISTRY.snapshot()
    started = time.perf_counter()
    results = harness.grid(specs, mechanisms, jobs=jobs, chunk=chunk)
    elapsed = time.perf_counter() - started
    phases = grid_phases(before, REGISTRY.snapshot())
    return elapsed, results, harness, phases


def grid_phases(before, after):
    """Per-phase wall-clock totals (seconds) a grid spent in this
    process, from the metrics registry. With ``jobs > 1`` the simulate/
    profile time runs in worker processes, so only the parent-side
    phases (cache I/O, promoted profiling) show up — recorded honestly
    rather than guessed."""
    delta = diff_snapshots(before, after)
    timers = delta.get("timers", {})
    return {
        name: round(timers[name]["total_s"], 4)
        for name in _PHASE_TIMERS
        if name in timers and timers[name]["count"]
    }


def bench_replanning(rounds: int = 5):
    """Cold vs warm-started replanning on a drifted model.

    Schedules a workload once, then replays ``rounds`` drift
    recalibrations (alternating per-stage latency-scale shifts), timing
    a cold ``schedule()`` against a warm ``schedule(warm_start=incumbent)``
    on an identical model each round. Records wall-clock plus the
    warm-start hit rate (branches only the incumbent bound could cut,
    over all pruned branches) — the scheduler-search cost trajectory the
    control loop's replans ride on.
    """
    from repro.bench.harness import default_harness
    from repro.core.scheduler import Scheduler

    harness = default_harness()
    spec = WorkloadSpec.of("tcomp32", "rovio", batch_size=BENCH_BATCH_BYTES)
    context = harness.context(spec)

    cold_model = context.cost_model(context.fine_graph)
    warm_model = context.cost_model(context.fine_graph)
    scheduler = Scheduler(warm_model)  # keeps its floor cache across rounds
    incumbent = scheduler.schedule(best_effort=True).estimate.plan

    cold_seconds = 0.0
    warm_seconds = 0.0
    warm_hits = 0
    pruned = 0
    for round_index in range(rounds):
        # Alternate drift directions so replans see real shifts.
        scale = 1.25 if round_index % 2 == 0 else 0.8
        stage = round_index % warm_model.graph.stage_count
        for model in (cold_model, warm_model):
            model.latency_scale[stage] = (
                model.latency_scale.get(stage, 1.0) * scale
            )

        started = time.perf_counter()
        Scheduler(cold_model).schedule(best_effort=True)
        cold_seconds += time.perf_counter() - started

        started = time.perf_counter()
        result = scheduler.schedule(best_effort=True, warm_start=incumbent)
        warm_seconds += time.perf_counter() - started
        incumbent = result.estimate.plan
        warm_hits += result.search_stats.warm_start_hits
        pruned += result.search_stats.branches_pruned

    return {
        "rounds": rounds,
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "speedup": round(cold_seconds / warm_seconds, 2)
        if warm_seconds > 0 else None,
        "warm_start_hits": warm_hits,
        "warm_start_hit_rate": round(warm_hits / pruned, 4) if pruned else 0.0,
    }


#: drift scenarios the perf record tracks, one adaptive-vs-static
#: session per (board, scenario) cell (see repro.datasets.DRIFT_KINDS)
BENCH_DRIFT_SCENARIOS = ("ramp", "burst", "phase-shift")


def bench_adaptive_drift(boards=("rk3399", "jetson_tx2_like")):
    """Per-board adaptive-vs-static outcomes on drifting workloads.

    Runs one :func:`repro.control.run_adaptive_session` per
    (board, drift scenario) cell and records both arms' energy and
    violation counts plus the controller's replan/adoption/warm-start
    activity — so the perf record tracks how the online control loop
    fares on the little.BIG boards beyond the reference rk3399.
    """
    from repro.control import ControllerConfig, SessionSpec, run_adaptive_session
    from repro.simcore import boards as board_module

    per_board = {}
    for board_name in boards:
        board = getattr(board_module, board_name)()
        harness = Harness(board=board, cache=None)
        per_board[board_name] = {}
        for scenario in BENCH_DRIFT_SCENARIOS:
            spec = SessionSpec(
                scenario=scenario,
                controller=ControllerConfig(horizon_windows=4),
            )
            started = time.perf_counter()
            comparison = run_adaptive_session(harness, spec)
            elapsed = time.perf_counter() - started
            outcome = {
                "static_energy_uj_per_byte": round(
                    comparison.static_energy_uj_per_byte, 6
                ),
                "adaptive_energy_uj_per_byte": round(
                    comparison.adaptive_energy_uj_per_byte, 6
                ),
                "energy_saving": round(comparison.energy_saving, 4),
                "static_steady_violations": (
                    comparison.static_steady_violations
                ),
                "adaptive_steady_violations": (
                    comparison.adaptive_steady_violations
                ),
                "replans": comparison.adaptive.replans,
                "plans_adopted": comparison.adaptive.plans_adopted,
                "warm_start_hits": comparison.warm_start_hits,
                "wall_seconds": round(elapsed, 4),
            }
            per_board[board_name][scenario] = outcome
            print(
                f"adapt {board_name}/{scenario}: energy "
                f"{outcome['static_energy_uj_per_byte']:.4f} -> "
                f"{outcome['adaptive_energy_uj_per_byte']:.4f} µJ/byte "
                f"({outcome['energy_saving']:.1%} saving, "
                f"{outcome['replans']} replans, "
                f"{outcome['plans_adopted']} adopted, steady violations "
                f"{outcome['static_steady_violations']} -> "
                f"{outcome['adaptive_steady_violations']})"
            )
    return per_board


#: chaos scenarios the perf record tracks: the heartbeat-driven
#: failover (core-failure) plus the two signal-free faults that only
#: the residual ledger can attribute; corruption runs at an elevated
#: probability so the retry load dominates the window
BENCH_CHAOS_SCENARIOS = (
    ("core-failure", {}),
    ("interconnect", {}),
    ("corruption", {"corruption_probability": 0.6}),
)


def bench_chaos_recovery(boards=("rk3399", "jetson_tx2_like")):
    """Per-board recovery under injected faults, heartbeat or not.

    Runs the :data:`BENCH_CHAOS_SCENARIOS` grid (see
    :mod:`repro.faults.chaos`) on each board and records, per cell, the
    recovery latency the adaptive controller achieves, the steady-state
    violation counts of both arms, and the residual ledger's dominant
    attribution — the component the health report pins the fault on.
    ``core-failure`` exercises the heartbeat failover path;
    ``interconnect`` and ``corruption`` emit no heartbeat and are only
    recoverable through residual diagnosis.
    """
    from repro.faults.chaos import ChaosSpec, run_chaos_session
    from repro.simcore import boards as board_module

    per_board = {}
    for board_name in boards:
        board = getattr(board_module, board_name)()
        harness = Harness(
            board=board,
            repetitions=1,
            batches_per_repetition=18,
            profile_batches=3,
            cache=None,
        )
        per_board[board_name] = {}
        for scenario, overrides in BENCH_CHAOS_SCENARIOS:
            started = time.perf_counter()
            comparison = run_chaos_session(
                harness,
                ChaosSpec(scenario=scenario, batch_bytes=8192, **overrides),
            )
            elapsed = time.perf_counter() - started
            recovery = comparison.adaptive_recovery_us
            dominant = None
            if comparison.health is not None:
                attribution = comparison.health.dominant()
                if attribution is not None:
                    dominant = {
                        "kind": attribution.kind,
                        "key": attribution.key,
                        "score": round(attribution.score, 2),
                        "confidence": round(attribution.confidence, 2),
                    }
            outcome = {
                "victim_core": comparison.victim_core,
                "static_steady_violations": (
                    comparison.static_steady_violations
                ),
                "adaptive_steady_violations": (
                    comparison.adaptive_steady_violations
                ),
                "adaptive_recovery_ms": (
                    round(recovery / 1000.0, 2)
                    if recovery is not None else None
                ),
                "static_recovers": comparison.static_recovery_us is not None,
                "dominant_attribution": dominant,
                "wall_seconds": round(elapsed, 4),
            }
            if overrides:
                outcome["spec_overrides"] = dict(overrides)
            per_board[board_name][scenario] = outcome
            culprit = (
                f"{dominant['kind']}:{dominant['key']}"
                if dominant else "none"
            )
            print(
                f"chaos {board_name}/{scenario}: static "
                f"{outcome['static_steady_violations']} vs adaptive "
                f"{outcome['adaptive_steady_violations']} steady "
                f"violations, recovery "
                f"{outcome['adaptive_recovery_ms']} ms, "
                f"attribution {culprit}"
            )
    return per_board


#: (boards, tenants) cells of the fleet capacity sweep
BENCH_FLEET_SIZES = ((3, 6), (6, 12))


def bench_fleet_capacity(sizes=BENCH_FLEET_SIZES):
    """Per-fleet-size serving outcomes under a board crash.

    Runs the three gateway arms (static admission, +shedding,
    +breaker+failover) of :func:`repro.fleet.scenario.run_fleet_scenario`
    over each (boards, tenants) cell and records admissions,
    violations, shed/failover activity and the crash→re-placement lag
    — so the perf record tracks the serving tier's graceful
    degradation alongside the single-session control loop.
    """
    from repro.fleet.scenario import FleetScenarioSpec, run_fleet_scenario

    per_size = {}
    for boards, tenants in sizes:
        spec = FleetScenarioSpec(boards=boards, tenants=tenants)
        started = time.perf_counter()
        comparison = run_fleet_scenario(spec)
        elapsed = time.perf_counter() - started
        arms = {}
        for summary in comparison.summaries:
            arms[summary.arm] = {
                "tenants_admitted": summary.tenants_admitted,
                "tenants_rejected": summary.tenants_rejected,
                "total_violations": summary.total_violations,
                "steady_violations": summary.steady_violations,
                "sheds": summary.sheds,
                "failovers": summary.failovers,
                "failover_lag_windows": summary.failover_lag_windows,
                "energy_uj": round(summary.energy_uj, 2),
            }
        per_size[f"{boards}x{tenants}"] = {
            "boards": boards,
            "tenants": tenants,
            "arms": arms,
            "wall_seconds": round(elapsed, 4),
        }
        static = arms["static"]
        failover = arms["shed-failover"]
        print(
            f"fleet {boards}x{tenants}: steady violations static "
            f"{static['steady_violations']} vs shed-failover "
            f"{failover['steady_violations']}, "
            f"{failover['failovers']} failovers, lag "
            f"{failover['failover_lag_windows']} windows"
        )
    return per_size


def load_baseline(path):
    """The previously committed record at ``path`` (None if absent)."""
    try:
        with open(path) as source:
            return json.load(source)
    except (OSError, ValueError):
        return None


def check_baseline(baseline, record, tolerance=0.20):
    """Fail if cold serial throughput regressed > ``tolerance`` vs the
    committed record (the CI perf-smoke gate).

    The gate only means something when it compares like with like, so a
    missing record or a record of a different grid (quick vs full,
    another repetition count) fails instead of passing unchecked.
    """
    if not baseline:
        raise SystemExit(
            "--check-baseline: no committed record to compare against"
        )
    if baseline.get("grid") != record["grid"]:
        raise SystemExit(
            "--check-baseline: the committed record holds a different "
            f"grid; rerun with that grid or commit a new record\n"
            f"  committed: {json.dumps(baseline.get('grid'), sort_keys=True)}"
            f"\n  this run:  {json.dumps(record['grid'], sort_keys=True)}"
        )
    serial_cells_per_sec = record["trajectory"]["cells_per_sec"]
    previous = baseline["runs"][0]["cells_per_sec"]
    floor = previous * (1.0 - tolerance)
    status = "ok" if serial_cells_per_sec >= floor else "REGRESSION"
    print(
        f"baseline check: {serial_cells_per_sec:.2f} cells/s vs committed "
        f"{previous:.2f} (floor {floor:.2f}): {status}"
    )
    if serial_cells_per_sec < floor:
        raise SystemExit(
            f"cold serial throughput regressed more than "
            f"{tolerance:.0%}: {serial_cells_per_sec:.2f} cells/s < "
            f"{floor:.2f} (committed {previous:.2f})"
        )


def run_scaling(jobs_list, repetitions, quick, output, chunk=None):
    specs, mechanisms = build_grid(quick)
    cells = len(specs) * len(mechanisms)
    cpu_count = os.cpu_count() or 1
    previous_record = load_baseline(output)
    print(
        f"grid: {len(specs)} workloads x {len(mechanisms)} mechanisms = "
        f"{cells} cells, {repetitions} repetitions, {cpu_count} CPUs"
    )

    serial_seconds, reference, _, serial_phases = time_grid(
        specs, mechanisms, repetitions, jobs=1, cache=None
    )
    print(f"jobs=1 (serial, no cache): {serial_seconds:.2f}s "
          f"({cells / serial_seconds:.1f} cells/s)")
    for name, seconds in serial_phases.items():
        print(f"  {name:18s} {seconds:.2f}s")

    runs = [
        {
            "jobs": 1,
            "cold_seconds": round(serial_seconds, 4),
            "cells_per_sec": round(cells / serial_seconds, 2),
            "speedup_vs_serial": 1.0,
            "phases": serial_phases,
        }
    ]
    from repro.bench.parallel import resolve_jobs

    last_cache_dir = None
    for jobs in [j for j in jobs_list if j > 1]:
        cache_dir = tempfile.mkdtemp(prefix=f"cstream-bench-j{jobs}-")
        elapsed, results, _, phases = time_grid(
            specs, mechanisms, repetitions, jobs=jobs,
            cache=ResultCache(cache_dir), chunk=chunk,
        )
        assert results == reference, (
            f"jobs={jobs} produced different numbers than the serial run"
        )
        speedup = serial_seconds / elapsed
        print(f"jobs={jobs} (cold cache): {elapsed:.2f}s "
              f"({cells / elapsed:.1f} cells/s, {speedup:.2f}x vs serial)")
        runs.append(
            {
                "jobs": jobs,
                "effective_jobs": resolve_jobs(jobs),
                "cold_seconds": round(elapsed, 4),
                "cells_per_sec": round(cells / elapsed, 2),
                "speedup_vs_serial": round(speedup, 3),
                "phases": phases,
            }
        )
        last_cache_dir = cache_dir
        if cpu_count > 1:
            assert elapsed <= serial_seconds * PARALLEL_SLACK, (
                f"parallel ({elapsed:.2f}s at jobs={jobs}) slower than "
                f"serial ({serial_seconds:.2f}s) on a {cpu_count}-CPU box"
            )

    warm = None
    if last_cache_dir is not None:
        warm_seconds, results, harness, warm_phases = time_grid(
            specs, mechanisms, repetitions, jobs=max(jobs_list),
            cache=ResultCache(last_cache_dir),
        )
        assert results == reference, "warm cache returned different numbers"
        stats = harness.cache.stats
        print(f"warm cache: {warm_seconds:.2f}s "
              f"({stats.hit_rate:.0%} hit rate, "
              f"{serial_seconds / warm_seconds:.0f}x vs cold serial)")
        assert warm_seconds <= serial_seconds * WARM_FRACTION, (
            f"warm-cache re-run ({warm_seconds:.2f}s) is not near-zero vs "
            f"cold serial ({serial_seconds:.2f}s)"
        )
        warm = {
            "seconds": round(warm_seconds, 4),
            "hit_rate": round(stats.hit_rate, 3),
            "speedup_vs_cold_serial": round(serial_seconds / warm_seconds, 1),
            "phases": warm_phases,
        }

    replanning = bench_replanning()
    print(
        f"replanning x{replanning['rounds']}: "
        f"cold {replanning['cold_seconds']:.2f}s vs "
        f"warm {replanning['warm_seconds']:.2f}s "
        f"({replanning['warm_start_hit_rate']:.0%} warm-start hit rate)"
    )

    adaptive = bench_adaptive_drift()
    chaos = bench_chaos_recovery()
    fleet = bench_fleet_capacity()

    serial_cells_per_sec = cells / serial_seconds
    trajectory = {"cells_per_sec": round(serial_cells_per_sec, 2)}
    if previous_record:
        previous_serial = previous_record["runs"][0]["cells_per_sec"]
        trajectory["previous_cells_per_sec"] = previous_serial
        trajectory["speedup_vs_previous"] = round(
            serial_cells_per_sec / previous_serial, 2
        )
        print(
            f"trajectory: {previous_serial:.2f} -> "
            f"{serial_cells_per_sec:.2f} cold serial cells/s "
            f"({trajectory['speedup_vs_previous']:.2f}x)"
        )

    record = {
        "bench": "harness_scaling",
        "grid": {
            "workloads": [spec.label for spec in specs],
            "mechanisms": list(mechanisms),
            "cells": cells,
            "repetitions": repetitions,
            "batch_bytes": BENCH_BATCH_BYTES,
        },
        "cpu_count": cpu_count,
        "chunk": chunk,
        "runs": runs,
        "trajectory": trajectory,
        "warm_cache": warm,
        "replanning": replanning,
        "adaptive": adaptive,
        "chaos": chaos,
        "fleet": fleet,
    }
    with open(output, "w") as sink:
        json.dump(record, sink, indent=2)
        sink.write("\n")
    print(f"wrote {output}")
    return record


def test_harness_scaling():
    """Pytest entry: quick grid, jobs 1/2, temp output."""
    with tempfile.TemporaryDirectory() as scratch:
        record = run_scaling(
            jobs_list=[1, 2],
            repetitions=4,
            quick=True,
            output=os.path.join(scratch, "BENCH_harness.json"),
        )
    assert record["warm_cache"]["hit_rate"] == 1.0
    # the serial cold run spends real time simulating, and the registry
    # breakdown in the record shows it
    assert record["runs"][0]["phases"]["harness.simulate"] > 0
    # requested worker counts are clamped to the machine, and the record
    # says what actually ran
    cpu_count = os.cpu_count() or 1
    for run in record["runs"][1:]:
        assert run["effective_jobs"] <= cpu_count
    assert record["trajectory"]["cells_per_sec"] > 0
    assert record["warm_cache"]["phases"].get("cache.get", 0) >= 0
    # the replanning section tracks scheduler-search cost for the
    # control loop: warm-started replans must record their wall-clock
    # and at least register the incumbent-bound cuts
    assert record["replanning"]["warm_seconds"] > 0
    assert record["replanning"]["cold_seconds"] > 0
    assert record["replanning"]["warm_start_hits"] >= 0
    assert 0.0 <= record["replanning"]["warm_start_hit_rate"] <= 1.0
    # the chaos section tracks per-board, per-scenario recovery: under
    # the heartbeat fault (core-failure) every board's adaptive arm
    # must recover (finite latency) and end with strictly fewer
    # steady-state violations than the static plan
    for board_name, outcomes in record["chaos"].items():
        failure = outcomes["core-failure"]
        assert failure["adaptive_recovery_ms"] is not None, board_name
        assert (
            failure["adaptive_steady_violations"]
            < failure["static_steady_violations"]
        ), board_name
        # the signal-free faults never leave the adaptive arm worse off
        for scenario in ("interconnect", "corruption"):
            outcome = outcomes[scenario]
            assert (
                outcome["adaptive_steady_violations"]
                <= outcome["static_steady_violations"]
            ), (board_name, scenario)
    # the adaptive section tracks the control loop per board: every
    # (board, drift) cell ran, replanned at least once, and never left
    # the adaptive arm with more steady-state violations than static
    for board_name, outcomes in record["adaptive"].items():
        assert set(outcomes) == set(BENCH_DRIFT_SCENARIOS), board_name
        for scenario, outcome in outcomes.items():
            assert outcome["replans"] >= 1, (board_name, scenario)
            assert outcome["adaptive_energy_uj_per_byte"] > 0
            assert (
                outcome["adaptive_steady_violations"]
                <= outcome["static_steady_violations"]
            ), (board_name, scenario)
    # the fleet section tracks the serving tier's graceful degradation:
    # on every fleet size the breaker+failover arm must re-place the
    # crashed board's victims within 3 windows and end with at most 25%
    # of the static arm's steady-state violations
    for size_label, outcome in record["fleet"].items():
        static = outcome["arms"]["static"]
        failover = outcome["arms"]["shed-failover"]
        assert failover["failovers"] >= 1, size_label
        assert failover["failover_lag_windows"] is not None, size_label
        assert failover["failover_lag_windows"] <= 3, size_label
        assert (
            failover["steady_violations"]
            <= 0.25 * static["steady_violations"]
        ), size_label
        # shedding alone already beats stranding victims forever
        shed = outcome["arms"]["shed"]
        assert (
            shed["steady_violations"] < static["steady_violations"]
        ), size_label
    # on the reference board the phase shift is drastic enough that
    # adaptation must convert detection into a strict win on both axes
    rk_shift = record["adaptive"]["rk3399"]["phase-shift"]
    assert (
        rk_shift["adaptive_steady_violations"]
        < rk_shift["static_steady_violations"]
    )
    assert rk_shift["energy_saving"] > 0
    # signal-free faults emit no heartbeat — the residual ledger must
    # name the right component, and on the reference board the
    # diagnosis replan must convert detection into a strict win
    rk = record["chaos"]["rk3399"]
    assert rk["interconnect"]["dominant_attribution"]["kind"] == "path"
    assert rk["corruption"]["dominant_attribution"]["kind"] == "retry"
    assert (
        rk["interconnect"]["adaptive_steady_violations"]
        < rk["interconnect"]["static_steady_violations"]
    )
    assert (
        rk["corruption"]["adaptive_steady_violations"]
        < rk["corruption"]["static_steady_violations"]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", default="1,2,4",
                        help="comma-separated worker counts (default 1,2,4; "
                        "clamped to the core count)")
    parser.add_argument("--chunk", type=int, default=None,
                        help="grid cells per worker task (default: auto)")
    parser.add_argument("--repetitions", type=int,
                        default=int(os.environ.get("REPRO_REPETITIONS", 60)))
    parser.add_argument("--quick", action="store_true",
                        help="smaller grid (CI smoke)")
    parser.add_argument("--output", default="BENCH_harness.json")
    parser.add_argument("--check-baseline", action="store_true",
                        help="fail if cold serial cells/sec regressed more "
                        "than 20%% vs the committed record at --output")
    args = parser.parse_args(argv)
    jobs_list = sorted({int(j) for j in args.jobs.split(",")})
    baseline = load_baseline(args.output) if args.check_baseline else None
    record = run_scaling(
        jobs_list, args.repetitions, args.quick, args.output,
        chunk=args.chunk,
    )
    if args.check_baseline:
        check_baseline(baseline, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
