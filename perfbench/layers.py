"""Layer map of the traced run: what is wrapped, and the per-layer metrics.

Every wrapped entry point belongs to one layer; a layer's self time is
the self time of its spans. Counts come from the values the entry
points return (``SearchStats``, ``RunResult``, ``WindowDecision``, ...),
so they are measured where the work happens.

All counts and seconds are *per pass* of the workload's operation list,
so they repeat exactly from run to run on one seed; ratios, means and
percentiles are per call.
"""

from __future__ import annotations

from typing import Dict, List

from perfbench.tracer import (
    RECORDER,
    REQUEST_SPAN,
    Recorder,
    wrap_function,
    wrap_method,
)

#: layer keys; README.md maps each to the repro modules it covers
LAYERS = (
    "simcore_executor", "compression", "datasets", "core_profiler",
    "core_baselines", "core_scheduler", "core_cost_model", "control",
    "faults", "fleet", "bench_harness",
)

CODECS = ("tcomp32", "lz4", "tdic32", "unlz4", "mltc")

#: every per-layer metric of the traced run: (name, unit, better)
PER_LAYER = (
    ("executor.run_s", "s", "lower"),
    ("executor.run_session_s", "s", "lower"),
    ("engine.run_s", "s", "lower"),
    ("executor.batches", "count", "higher"),
    ("executor.us_per_batch", "us", "lower"),
    *(
        (f"codec.{codec}.{direction}_mb_per_s", "MB/s", "higher")
        for codec in CODECS
        for direction in ("compress", "decompress")
    ),
    ("dataset.generate_s", "s", "lower"),
    ("profiler.profile_workload_s", "s", "lower"),
    ("profiler.calls", "count", "lower"),
    ("context.build_s", "s", "lower"),
    ("mechanism.prepare_s", "s", "lower"),
    ("scheduler.schedule_calls", "count", "lower"),
    ("scheduler.schedule_ms_p50", "ms", "lower"),
    ("scheduler.schedule_ms_p90", "ms", "lower"),
    ("scheduler.nodes_expanded", "count", "lower"),
    ("scheduler.branches_pruned", "count", "higher"),
    ("scheduler.plans_evaluated", "count", "lower"),
    ("scheduler.warm_start_hits", "count", "higher"),
    ("scheduler.prune_ratio", "ratio", "higher"),
    ("cost_model.evaluate_calls", "count", "lower"),
    ("cost_model.evaluate_us_mean", "us", "lower"),
    ("cost_model.evaluate_s", "s", "lower"),
    ("controller.on_window_calls", "count", "lower"),
    ("controller.on_window_ms_p50", "ms", "lower"),
    ("controller.replans", "count", "lower"),
    ("controller.plans_adopted", "count", "lower"),
    ("controller.adoption_ratio", "ratio", "higher"),
    ("regulator.init_s", "s", "lower"),
    ("chaos.recovery_ms", "ms", "lower"),
    ("gateway.run_s", "s", "lower"),
    ("gateway.ms_per_window", "ms", "lower"),
    ("admission.evaluate_calls", "count", "lower"),
    ("admission.evaluate_ms_p50", "ms", "lower"),
    ("admission.admit_ratio", "ratio", "higher"),
    ("placement.plan_estimate_calls", "count", "lower"),
    ("placement.search_per_estimate", "ratio", "lower"),
    ("fleet.sheds", "count", "lower"),
    ("fleet.failovers", "count", "lower"),
    ("fleet.failover_lag_windows", "windows", "lower"),
    ("harness.profile_s", "s", "lower"),
    ("harness.simulate_s", "s", "lower"),
    *((f"layer.{key}.self_share", "ratio", "lower") for key in LAYERS),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("sim.cstream_energy_uj_per_byte", "uJ/B", "lower"),
    ("sim.cstream_clcv", "ratio", "lower"),
    ("sim.compression_ratio", "ratio", "higher"),
    ("sim.fleet_slo_miss_ratio", "ratio", "lower"),
    ("sim.session_energy_uj_per_byte", "uJ/B", "lower"),
    ("sim.session_slo_miss_ratio", "ratio", "lower"),
)


def _count(name: str, value_of):
    def note(recorder: Recorder, args, kwargs, result) -> None:
        recorder.count(name, value_of(args, result))
    return note


def _schedule_note(recorder: Recorder, args, kwargs, result) -> None:
    stats = result.search_stats
    if stats is None:
        return
    recorder.count("scheduler.nodes_expanded", stats.nodes_expanded)
    recorder.count("scheduler.branches_pruned", stats.branches_pruned)
    recorder.count("scheduler.plans_evaluated", stats.plans_evaluated)
    recorder.count("scheduler.warm_start_hits", stats.warm_start_hits)


def _on_window_note(recorder: Recorder, args, kwargs, result) -> None:
    if result is not None and result.replanned:
        recorder.count("controller.replans")
        if result.adopted:
            recorder.count("controller.plans_adopted")


def install() -> None:
    """Wrap every layer's entry points; call after the workloads import."""
    from repro.bench.harness import Harness
    from repro.compression.lz4 import Lz4
    from repro.compression.mltc import Mltc
    from repro.compression.stream import (
        CompressionSession,
        DecompressionSession,
    )
    from repro.compression.tcomp32 import Tcomp32
    from repro.compression.tdic32 import Tdic32
    from repro.compression.unlz4 import UnLz4
    from repro.control.controller import SessionController
    from repro.core import baselines
    from repro.core.cost_model import CostModel
    from repro.core.profiler import profile_workload
    from repro.core.scheduler import Scheduler
    from repro.core.statistics_regulator import StatisticsAwareRegulator
    from repro.datasets.base import Dataset
    from repro.faults.chaos import build_fault_plan
    from repro.faults.fleet import build_fleet_fault_plan
    from repro.fleet.admission import evaluate_admission
    from repro.fleet.gateway import Gateway
    from repro.fleet.placement import FleetScheduler
    from repro.runtime.executor import PipelineExecutor
    from repro.simcore.engine import Simulator

    layer = "simcore_executor"
    wrap_method(PipelineExecutor, "run", "executor.run", layer, _count(
        "executor.batches",
        lambda args, result: sum(len(r.batches) for r in result.repetitions),
    ))
    wrap_method(PipelineExecutor, "run_session", "executor.run_session",
                layer, _count("executor.batches",
                              lambda args, result: len(result.batches)))
    wrap_method(Simulator, "run", "engine.run", layer)

    layer = "compression"
    for cls in (Tcomp32, Lz4, Tdic32, UnLz4, Mltc):
        wrap_method(cls, "compress", f"codec.{cls.name}.compress", layer,
                    _count(f"codec.{cls.name}.compress_bytes",
                           lambda args, result: len(args[1])))
        wrap_method(cls, "decompress", f"codec.{cls.name}.decompress", layer,
                    _count(f"codec.{cls.name}.decompress_bytes",
                           lambda args, result: len(result)))
    wrap_method(CompressionSession, "write_batch", "stream.write_batch", layer)
    wrap_method(DecompressionSession, "feed", "stream.feed", layer)

    wrap_method(Dataset, "generate", "dataset.generate", "datasets")
    wrap_function(profile_workload, "profiler.profile_workload",
                  "core_profiler")

    layer = "core_baselines"
    wrap_method(baselines.WorkloadContext, "build", "context.build", layer)
    for name, cls in sorted(vars(baselines).items()):
        if (isinstance(cls, type) and issubclass(cls, baselines.Mechanism)
                and cls is not baselines.Mechanism
                and "prepare" in cls.__dict__):
            wrap_method(cls, "prepare", "mechanism.prepare", layer)

    wrap_method(Scheduler, "schedule", "scheduler.schedule",
                "core_scheduler", _schedule_note)
    wrap_method(CostModel, "evaluate", "cost_model.evaluate",
                "core_cost_model")

    layer = "control"
    wrap_method(SessionController, "on_window", "controller.on_window",
                layer, _on_window_note)
    wrap_method(StatisticsAwareRegulator, "__post_init__", "regulator.init",
                layer)

    wrap_function(build_fault_plan, "faults.build_fault_plan", "faults")
    wrap_function(build_fleet_fault_plan, "faults.build_fleet_fault_plan",
                  "faults")

    layer = "fleet"
    wrap_method(Gateway, "run", "gateway.run", layer, _count(
        "gateway.windows", lambda args, result: len(result.windows)))
    wrap_function(evaluate_admission, "admission.evaluate", layer, _count(
        "admission.admitted", lambda args, result: int(result.admitted)))
    wrap_method(FleetScheduler, "plan_estimate", "placement.plan_estimate",
                layer)
    wrap_method(FleetScheduler, "failover_placement",
                "placement.failover_placement", layer)

    layer = "bench_harness"
    for attr in ("run", "profile", "context"):
        wrap_method(Harness, attr, f"harness.{attr}", layer)

    RECORDER.enabled = True


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_layer_metrics(recorder: Recorder, passes: int,
                      registry_delta: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of ``passes`` traced passes (see module doc)."""

    def calls(name: str) -> float:
        return recorder.totals.get(name, [0, 0.0, 0.0])[0]

    def inclusive(name: str) -> float:
        return recorder.totals.get(name, [0, 0.0, 0.0])[1]

    def own(name: str) -> float:
        return recorder.totals.get(name, [0, 0.0, 0.0])[2]

    def counter(name: str) -> float:
        return recorder.counters.get(name, 0.0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def ms(name: str, q: float) -> float:
        return quantile(recorder.durations.get(name, []), q) * 1000.0

    out: Dict[str, float] = {}
    batches = counter("executor.batches")
    out["executor.run_s"] = inclusive("executor.run") / passes
    out["executor.run_session_s"] = inclusive("executor.run_session") / passes
    out["engine.run_s"] = own("engine.run") / passes
    out["executor.batches"] = batches / passes
    out["executor.us_per_batch"] = ratio(
        inclusive("executor.run") + inclusive("executor.run_session"),
        batches,
    ) * 1e6

    for codec in CODECS:
        for direction in ("compress", "decompress"):
            out[f"codec.{codec}.{direction}_mb_per_s"] = ratio(
                counter(f"codec.{codec}.{direction}_bytes") / 1e6,
                inclusive(f"codec.{codec}.{direction}"),
            )

    # data generation happens in set-up on some workloads and inside
    # operations on others; both count
    setup_generate = recorder.setup_totals.get("dataset.generate", [0, 0.0])
    out["dataset.generate_s"] = (
        setup_generate[1] + inclusive("dataset.generate") / passes
    )

    out["profiler.profile_workload_s"] = (
        inclusive("profiler.profile_workload") / passes
    )
    out["profiler.calls"] = calls("profiler.profile_workload") / passes
    out["context.build_s"] = inclusive("context.build") / passes
    out["mechanism.prepare_s"] = inclusive("mechanism.prepare") / passes

    schedules = calls("scheduler.schedule")
    expanded = counter("scheduler.nodes_expanded")
    pruned = counter("scheduler.branches_pruned")
    out["scheduler.schedule_calls"] = schedules / passes
    out["scheduler.schedule_ms_p50"] = ms("scheduler.schedule", 0.5)
    out["scheduler.schedule_ms_p90"] = ms("scheduler.schedule", 0.9)
    out["scheduler.nodes_expanded"] = expanded / passes
    out["scheduler.branches_pruned"] = pruned / passes
    out["scheduler.plans_evaluated"] = (
        counter("scheduler.plans_evaluated") / passes
    )
    out["scheduler.warm_start_hits"] = (
        counter("scheduler.warm_start_hits") / passes
    )
    out["scheduler.prune_ratio"] = ratio(pruned, expanded + pruned)

    evaluations = calls("cost_model.evaluate")
    out["cost_model.evaluate_calls"] = evaluations / passes
    out["cost_model.evaluate_us_mean"] = ratio(
        inclusive("cost_model.evaluate"), evaluations) * 1e6
    out["cost_model.evaluate_s"] = inclusive("cost_model.evaluate") / passes

    replans = counter("controller.replans")
    adopted = counter("controller.plans_adopted")
    out["controller.on_window_calls"] = calls("controller.on_window") / passes
    out["controller.on_window_ms_p50"] = ms("controller.on_window", 0.5)
    out["controller.replans"] = replans / passes
    out["controller.plans_adopted"] = adopted / passes
    out["controller.adoption_ratio"] = ratio(adopted, replans)
    out["regulator.init_s"] = inclusive("regulator.init") / passes

    windows = counter("gateway.windows")
    admissions = calls("admission.evaluate")
    estimates = calls("placement.plan_estimate")
    out["gateway.run_s"] = inclusive("gateway.run") / passes
    out["gateway.ms_per_window"] = ratio(
        inclusive("gateway.run"), windows) * 1000.0
    out["admission.evaluate_calls"] = admissions / passes
    out["admission.evaluate_ms_p50"] = ms("admission.evaluate", 0.5)
    out["admission.admit_ratio"] = ratio(
        counter("admission.admitted"), admissions)
    out["placement.plan_estimate_calls"] = estimates / passes
    # every operation of fleet-serve is a gateway run, so all of its
    # searches are placement searches
    out["placement.search_per_estimate"] = (
        ratio(schedules, estimates) if windows else 0.0
    )

    out["harness.profile_s"] = registry_delta.get("harness.profile", 0.0) / passes
    out["harness.simulate_s"] = (
        registry_delta.get("harness.simulate", 0.0) / passes
    )

    layer_self: Dict[str, float] = {key: 0.0 for key in LAYERS}
    for name, entry in recorder.totals.items():
        key = recorder.layer_of.get(name)
        if key is not None:
            layer_self[key] += entry[2]
    requests = inclusive(REQUEST_SPAN)
    for key, seconds in layer_self.items():
        out[f"layer.{key}.self_share"] = ratio(seconds, requests)
    out["trace.unattributed_share"] = ratio(own(REQUEST_SPAN), requests)
    return out
