"""The four benchmark workloads.

Each workload is a closed loop: one client in one thread issues the next
operation only when the previous one has returned. ``setup(seed)``
builds everything the loop needs from the seed alone; ``pass_ops()``
lists the operations of one *pass*, a fixed cycle that the worker
repeats until its time is up. Every operation returns an
:class:`Outcome`: host timing samples, a digest of its simulated
outputs (for determinism checks), the values the summary needs, and the
correctness errors it found.

See ``perfbench/README.md`` for why each workload exists and which
layer dominates it.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from perfbench.tracer import RECORDER, REQUEST_SPAN

from repro.analysis.verify import verify_fleet_health, verify_plan
from repro.bench import harness as harness_module
from repro.bench.harness import Harness, WorkloadSpec
from repro.compression import get_codec
from repro.compression.stream import CompressionSession, DecompressionSession
from repro.control.session import SessionSpec, run_adaptive_session
from repro.core import cost_model as cost_model_module
from repro.core import profiler as profiler_module
from repro.core.baselines import get_mechanism
from repro.datasets import get_dataset
from repro.faults.chaos import ChaosSpec, run_chaos_session
from repro.fleet.registry import build_fleet
from repro.fleet.scenario import (
    FLEET_ARMS,
    FleetScenarioSpec,
    run_fleet_arm,
    summarize_arm,
)
from repro.fleet.tenants import build_tenant_catalog, build_tenant_workloads
from repro.simcore.boards import jetson_tx2_like, rk3399

CODECS = ("tcomp32", "lz4", "tdic32", "unlz4", "mltc")
DATASETS = ("rovio", "stock", "sensor")
GRID_MECHANISMS = ("CStream", "OS", "RR", "BO", "LO")
GRID_BATCH_BYTES = 16 * 1024
GRID_REPETITIONS = 20
CODEC_BATCH_BYTES = 64 * 1024
CODEC_BATCHES_PER_STREAM = 2
FLEET_BOARDS = 6
FLEET_TENANTS = 12
FLEET_WINDOWS = 12
FLEET_SEEDS_PER_SEED = 3
ADAPT_SCENARIOS = ("ramp", "burst", "phase-shift")
CHAOS_SCENARIOS = ("core-failure", "interconnect", "corruption")


def reset_program_memos() -> None:
    """Empty the program's process-wide memos.

    A pass must cost what a fresh ``cstream`` process pays, so every
    cold operation starts from empty dry-run, calibration and
    communication memos, as a new process would.
    """
    harness_module._PROFILE_MEMO.clear()
    cost_model_module._CURVE_CACHE.clear()
    profiler_module._COMMUNICATION_CACHE.clear()


def make_harness(board, seed: int, repetitions: int) -> Harness:
    """A cold, serial, untraced harness with every argument explicit."""
    return Harness(
        board=board,
        repetitions=repetitions,
        batches_per_repetition=6,
        profile_batches=4,
        seed=seed,
        cache=None,
        jobs=1,
        chunk=None,
        trace_dir=None,
    )


@dataclass
class Outcome:
    """What one operation measured, produced and checked."""

    #: (units of work, process CPU seconds, wall seconds) per sample
    samples: List[Tuple[int, float, float]] = field(default_factory=list)
    digest: Tuple = ()
    values: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


class Sample:
    """Units of work done inside one :func:`sample` block."""

    def __init__(self, units: int) -> None:
        self.units = units


@contextmanager
def sample(outcome: Outcome, units: int = 1):
    """Time the block as one sample; in the traced run it is also the
    request's root span, so time in no layer span is unattributed."""
    recording = RECORDER.recording
    if recording:
        RECORDER.enter(REQUEST_SPAN)
    held = Sample(units)
    cpu = time.process_time()
    wall = time.perf_counter()
    try:
        yield held
    finally:
        outcome.samples.append(
            (held.units, time.process_time() - cpu,
             time.perf_counter() - wall)
        )
        if recording:
            RECORDER.exit(REQUEST_SPAN)


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


@dataclass
class Op:
    """One operation of a pass: a request label and its callable."""

    label: str
    run: Callable[[], Outcome]


class Workload:
    name = ""

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def pass_ops(self) -> Sequence[Op]:
        raise NotImplementedError

    def summarize(self, outcomes: Sequence[Outcome]) -> Dict[str, float]:
        """Workload-level values of one pass (simulated outputs)."""
        raise NotImplementedError

    def host_values(self, outcomes: Sequence[Outcome]) -> Dict[str, float]:
        """Workload-specific host figures over every timed operation."""
        return {}


class PaperGrid(Workload):
    """Cold serial ``Harness.run`` over codecs x datasets x mechanisms."""

    name = "paper-grid"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.board = rk3399()
        self.specs = [
            WorkloadSpec.of(codec, dataset, batch_size=GRID_BATCH_BYTES)
            for codec in CODECS
            for dataset in DATASETS
        ]
        self.harness: Optional[Harness] = None
        self.verified = set()

    def _new_pass(self) -> None:
        reset_program_memos()
        self.harness = make_harness(self.board, self.seed, GRID_REPETITIONS)

    def _cell(self, spec: WorkloadSpec, mechanism: str) -> Outcome:
        outcome = Outcome()
        with sample(outcome):
            result = self.harness.run(spec, mechanism)
        energy = result.mean_energy_uj_per_byte
        latency = result.mean_latency_us_per_byte
        if not _finite(energy, latency) or not all(
            _finite(r.energy_uj_per_byte, r.latency_us_per_byte)
            for r in result.repetitions
        ):
            outcome.errors.append(
                f"{spec.label}/{mechanism}: non-finite energy or latency"
            )
        outcome.digest = (spec.label, mechanism, energy, latency, result.clcv)
        if mechanism == "CStream":
            outcome.values = {"energy": energy, "clcv": result.clcv}
            if spec.label not in self.verified:
                outcome.errors.extend(self._verify_cstream_plan(spec))
                self.verified.add(spec.label)
        return outcome

    def _verify_cstream_plan(self, spec: WorkloadSpec) -> List[str]:
        """PLN001-PLN006 on the plan CStream picks for this cell."""
        with RECORDER.pause():
            context = self.harness.context(spec)
            profile = self.harness.profile(spec)
            outcome = get_mechanism("CStream").prepare(context)
            findings = verify_plan(
                outcome.plan,
                board=self.board,
                expected_steps=profile.step_ids,
                step_dependencies=profile.dependency_map(),
                cost_model=(
                    context.cost_model(outcome.graph)
                    if outcome.scheduled_feasible else None
                ),
                expect_feasible=outcome.scheduled_feasible,
            )
        return [f"{spec.label}/CStream plan: {f.format()}" for f in findings]

    def pass_ops(self) -> Sequence[Op]:
        ops = []
        for index, spec in enumerate(self.specs):
            for mechanism in GRID_MECHANISMS:
                first = index == 0 and mechanism == GRID_MECHANISMS[0]

                def run(spec=spec, mechanism=mechanism, first=first):
                    if first:
                        self._new_pass()
                    return self._cell(spec, mechanism)

                ops.append(Op(f"{spec.label}/{mechanism}", run))
        return ops

    def summarize(self, outcomes):
        cstream = [o.values for o in outcomes if o.values]
        return {
            "cstream_energy_uj_per_byte":
                sum(v["energy"] for v in cstream) / len(cstream),
            "cstream_clcv": sum(v["clcv"] for v in cstream) / len(cstream),
        }


class CodecStream(Workload):
    """Framed compress -> decompress round trips, as ``cstream compress``
    and ``cstream decompress`` run them, on every codec and dataset."""

    name = "codec-stream"

    def setup(self, seed: int) -> None:
        size = CODEC_BATCH_BYTES * CODEC_BATCHES_PER_STREAM
        self.streams = {}
        for dataset in DATASETS:
            data = get_dataset(dataset).generate(size, seed=seed)
            usable = len(data) // CODEC_BATCHES_PER_STREAM
            self.streams[dataset] = [
                data[i * usable:(i + 1) * usable]
                for i in range(CODEC_BATCHES_PER_STREAM)
            ]

    def _stream(self, codec: str, dataset: str) -> Outcome:
        outcome = Outcome()
        encoder = CompressionSession(get_codec(codec))
        decoder = DecompressionSession(get_codec(codec))
        encode_s = decode_s = 0.0
        raw = framed = 0
        for index, batch in enumerate(self.streams[dataset]):
            with sample(outcome):
                cpu = time.process_time()
                frame = encoder.write_batch(batch)
                cpu_mid = time.process_time()
                decoded = decoder.feed(frame)
                cpu_end = time.process_time()
            encode_s += cpu_mid - cpu
            decode_s += cpu_end - cpu_mid
            raw += len(batch)
            framed += len(frame)
            if decoded != [batch]:
                outcome.errors.append(
                    f"{codec}/{dataset} batch {index}: round trip differs"
                )
        decoder.finish()
        outcome.digest = (codec, dataset, raw, framed)
        outcome.values = {
            "raw_bytes": raw, "framed_bytes": framed,
            "encode_s": encode_s, "decode_s": decode_s,
        }
        return outcome

    def pass_ops(self):
        return [
            Op(f"{codec}/{dataset}",
               lambda codec=codec, dataset=dataset: self._stream(codec, dataset))
            for codec in CODECS
            for dataset in DATASETS
        ]

    def summarize(self, outcomes):
        raw = sum(o.values["raw_bytes"] for o in outcomes)
        framed = sum(o.values["framed_bytes"] for o in outcomes)
        return {"compression_ratio": raw / framed}

    def host_values(self, outcomes):
        raw_mb = sum(o.values["raw_bytes"] for o in outcomes) / 1e6
        return {
            "compress_mb_per_s":
                raw_mb / sum(o.values["encode_s"] for o in outcomes),
            "decompress_mb_per_s":
                raw_mb / sum(o.values["decode_s"] for o in outcomes),
        }


def _fleet_miss_ratio(health) -> Tuple[int, int]:
    """(missed tenant-windows, tenant-windows) of one arm's report."""
    missed = total = 0
    for window in health.windows:
        for tenant in window.tenants:
            total += 1
            if tenant.violated or tenant.state in (
                "queued", "stranded", "rejected"
            ):
                missed += 1
    return missed, total


class FleetServe(Workload):
    """``run_fleet_scenario``'s three arms on the 6-board, 12-tenant
    board-crash fleet, over a few catalogue seeds."""

    name = "fleet-serve"

    def setup(self, seed: int) -> None:
        self.boards = build_fleet(FLEET_BOARDS)
        self.scenarios = []
        for offset in range(FLEET_SEEDS_PER_SEED):
            fleet_seed = seed * FLEET_SEEDS_PER_SEED + offset
            spec = FleetScenarioSpec(
                boards=FLEET_BOARDS,
                tenants=FLEET_TENANTS,
                windows=FLEET_WINDOWS,
                scenario="board-crash",
                fault_board=0,
                at_window=3,
                seed=fleet_seed,
            )
            workloads = build_tenant_workloads(
                build_tenant_catalog(FLEET_TENANTS, seed=fleet_seed),
                seed=fleet_seed,
            )
            self.scenarios.append((spec, workloads))

    def _arm(self, spec, workloads, arm: str) -> Outcome:
        if arm == FLEET_ARMS[0]:
            # each scenario starts as cold as a fresh process would
            reset_program_memos()
        outcome = Outcome()
        with sample(outcome, spec.windows):
            health = run_fleet_arm(
                spec, arm, workloads=workloads, boards=self.boards
            )
        with RECORDER.pause():
            findings = verify_fleet_health(json.loads(health.to_json()))
        outcome.errors.extend(
            f"seed {spec.seed} {arm}: {f.format()}" for f in findings
        )
        if not health.finite():
            outcome.errors.append(f"seed {spec.seed} {arm}: non-finite health")
        summary = summarize_arm(health, spec)
        missed, total = _fleet_miss_ratio(health)
        outcome.digest = (
            spec.seed, arm, summary.tenants_admitted,
            summary.tenants_rejected, summary.total_violations,
            summary.steady_violations, summary.energy_uj,
            summary.sheds, summary.failovers, summary.failover_lag_windows,
            missed,
        )
        outcome.values = {
            "arm": arm, "missed": missed, "tenant_windows": total,
            "sheds": summary.sheds, "failovers": summary.failovers,
            "lag": summary.failover_lag_windows,
        }
        return outcome

    def pass_ops(self):
        return [
            Op(f"seed{spec.seed}/{arm}",
               lambda spec=spec, workloads=workloads, arm=arm:
                   self._arm(spec, workloads, arm))
            for spec, workloads in self.scenarios
            for arm in FLEET_ARMS
        ]

    def summarize(self, outcomes):
        failover = [
            o.values for o in outcomes if o.values["arm"] == "shed-failover"
        ]
        lags = [v["lag"] for v in failover if v["lag"] is not None]
        return {
            "fleet_slo_miss_ratio":
                sum(v["missed"] for v in failover)
                / sum(v["tenant_windows"] for v in failover),
            "fleet.sheds": float(sum(o.values["sheds"] for o in outcomes)),
            "fleet.failovers":
                float(sum(o.values["failovers"] for o in outcomes)),
            "fleet.failover_lag_windows":
                sum(lags) / len(lags) if lags else 0.0,
        }


def _steady(session_result, window_batches: int, warmup: int):
    return [
        b for b in session_result.measured(warmup)
        if b.batch_index % window_batches != 0
    ]


class ControlLoop(Workload):
    """Adaptive drift sessions and chaos sessions on two board kinds."""

    name = "control-loop"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.boards = (("rk3399", rk3399()), ("jetson", jetson_tx2_like()))

    def _session(self, kind: str, scenario: str, board_name: str, board):
        reset_program_memos()
        harness = make_harness(board, self.seed, GRID_REPETITIONS)
        outcome = Outcome()
        with sample(outcome, 0) as held:
            if kind == "adapt":
                spec = SessionSpec(scenario=scenario)
                result = run_adaptive_session(harness, spec, telemetry=True)
                sessions = (result.static, result.adaptive)
                recovery = None
            else:
                spec = ChaosSpec(scenario=scenario)
                result = run_chaos_session(harness, spec, telemetry=True)
                sessions = (result.baseline, result.static, result.adaptive)
                recovery = result.adaptive_recovery_us
            held.units = windows = sum(s.windows for s in sessions)
        label = f"{kind}:{scenario}@{board_name}"
        if result.health is None or not result.health.finite():
            outcome.errors.append(f"{label}: session health not finite")
        steady = _steady(result.adaptive, spec.window_batches,
                         spec.warmup_batches)
        energy = result.adaptive_energy_uj_per_byte
        if not _finite(energy):
            outcome.errors.append(f"{label}: non-finite session energy")
        outcome.digest = (
            label, windows, energy, result.adaptive_steady_violations,
            result.adaptive.replans, result.adaptive.plans_adopted, recovery,
        )
        outcome.values = {
            "energy": energy,
            "steady": len(steady),
            "steady_missed": sum(1 for b in steady if b.violated),
            "recovery_us": recovery,
        }
        return outcome

    def pass_ops(self):
        return [
            Op(f"{kind}:{scenario}@{board_name}",
               lambda kind=kind, scenario=scenario, board_name=board_name,
               board=board: self._session(kind, scenario, board_name, board))
            for kind, scenarios in (("adapt", ADAPT_SCENARIOS),
                                    ("chaos", CHAOS_SCENARIOS))
            for scenario in scenarios
            for board_name, board in self.boards
        ]

    def summarize(self, outcomes):
        values = [o.values for o in outcomes]
        recoveries = sorted(
            v["recovery_us"] for v in values if v["recovery_us"] is not None
        )
        return {
            "session_energy_uj_per_byte":
                sum(v["energy"] for v in values) / len(values),
            "session_slo_miss_ratio":
                sum(v["steady_missed"] for v in values)
                / sum(v["steady"] for v in values),
            "chaos.recovery_ms": (
                recoveries[len(recoveries) // 2] / 1000.0
                if recoveries else 0.0
            ),
        }


WORKLOADS = {
    w.name: w for w in (PaperGrid, CodecStream, FleetServe, ControlLoop)
}


def digest_of(outcomes: Sequence[Outcome]) -> str:
    """Stable hash of one pass's simulated outputs."""
    text = repr([o.digest for o in outcomes])
    return hashlib.sha256(text.encode()).hexdigest()[:16]
