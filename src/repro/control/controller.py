"""The session controller: drift → warm replan → gated migration.

Decision pipeline, run once per window boundary (the executor calls
:meth:`SessionController.on_window` after draining the window's
in-flight batches):

1. **Drift detection** — the window's per-batch step costs feed a
   :class:`~repro.core.statistics_regulator.StatisticsAwareRegulator`
   in detect-only mode (``auto_replan=False``). The regulator owns the
   hysteresis and the one-step model recalibration
   (``latency_scale[stage] *= observed / baseline``); the controller
   owns what happens next.
2. **Incremental replanning** — on drift, a single shared
   :class:`~repro.core.scheduler.Scheduler` re-searches with
   ``warm_start=incumbent``: the incumbent's re-evaluated energy seeds
   the branch-and-bound bound (strict-``>`` pruning, so ties keep the
   incumbent) and the scheduler's per-stage energy-floor cache carries
   over — floors depend on κ scales, not on the recalibrated
   ``latency_scale``, so they survive drift recalibration.
3. **Migration gating** — the candidate is adopted only when the
   modeled energy savings over ``horizon_windows`` windows exceed the
   modeled migration cost (state transfer over the board's c0/c1/c2
   paths, priced with the profiled communication table, plus the
   pipeline-pause energy at static power). Exception: a candidate that
   rescues a violated latency constraint is adopted unconditionally —
   meeting ``L_set`` trumps the energy ledger.
4. **Residual diagnosis** (only when the executor carries a telemetry
   collector) — windows that violate ``L_set`` without any heartbeat or
   drift signal are handed to the residual ledger
   (:mod:`repro.obs.residuals`). When the ledger's health report pins
   the violation on a *signal-free* fault, the controller edits the
   cost model to match reality and replans around it with
   ``reason="diagnosis"``: a degraded interconnect path is re-priced in
   the communication table
   (:meth:`~repro.core.cost_model.CostModel.apply_path_degradation`),
   so the scheduler routes the pipeline off the slow link; a
   retry-heavy final stage gets its ``latency_scale`` inflated by the
   measured retry burden, so the scheduler buys replicas that shrink
   the re-run cost. Each (kind, key) is acted on once per session —
   the model edit is persistent, so repeating it would compound.

Everything is deterministic: the controller draws no randomness and
reads no clocks (the ledger's tie-break epsilons come from a fixed
seed); its only inputs are the window observation — including its
telemetry, when collected — and the pre-built per-batch step costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from repro.compression.base import StepCost
from repro.core.cost_model import CostModel
from repro.core.plan import SchedulingPlan, migration_cost
from repro.core.scheduler import Scheduler
from repro.core.statistics_regulator import StatisticsAwareRegulator
from repro.errors import ConfigurationError
from repro.numerics import ordered_sum
from repro.obs.health import SessionHealth, WindowHealth, build_window_health
from repro.obs.residuals import LedgerConfig, ResidualLedger
from repro.runtime.executor import WindowDecision, WindowObservation
from repro.simcore.interconnect import Path

__all__ = [
    "ControllerConfig",
    "ControlEvent",
    "FailoverEvent",
    "SessionController",
]


@dataclass(frozen=True)
class ControllerConfig:
    """Knobs of the online control loop."""

    #: relative per-stage work shift that counts as drift (the
    #: regulator's trigger; 15 % is above batch noise, below real jumps)
    trigger_threshold: float = 0.15
    #: EWMA factor on observed statistics (0 = trust each batch)
    smoothing: float = 0.3
    #: windows over which a candidate plan must amortize its migration
    horizon_windows: int = 4
    #: modeled savings must exceed migration cost by this factor
    min_saving_ratio: float = 1.0
    #: multiplier on the profiled per-stage output bytes standing in for
    #: the replica state footprint — the migratable state (dictionary,
    #: counters, partial window) is a fraction of one batch's output
    state_bytes_scale: float = 0.25
    #: residual anomaly score a health attribution must clear before a
    #: diagnosis replan fires (healthy windows sit near |score| ≈ 1)
    diagnosis_threshold: float = 3.0
    #: cap on the one-shot latency_scale inflation a retry diagnosis may
    #: apply — keeps a pathological window from poisoning the model
    diagnosis_scale_cap: float = 8.0

    def __post_init__(self) -> None:
        if self.horizon_windows < 1:
            raise ConfigurationError("horizon must span at least one window")
        if self.min_saving_ratio <= 0.0:
            raise ConfigurationError("min_saving_ratio must be positive")
        if self.diagnosis_threshold <= 0.0:
            raise ConfigurationError("diagnosis threshold must be positive")
        if self.diagnosis_scale_cap < 1.0:
            raise ConfigurationError("diagnosis scale cap must be >= 1")


@dataclass(frozen=True)
class ControlEvent:
    """One window-boundary decision, for reporting and tests."""

    window_index: int
    drifted: bool
    replanned: bool
    adopted: bool
    reason: str
    incumbent_energy_uj_per_byte: float
    candidate_energy_uj_per_byte: float
    modeled_saving_uj: float
    migration_cost_uj: float
    migration_pause_us: float
    warm_start_hits: int


@dataclass(frozen=True)
class FailoverEvent:
    """One hardware-degradation recovery, for reporting and tests."""

    window_index: int
    failed_cores: tuple
    throttled_cores: tuple
    pause_us: float
    energy_uj: float
    candidate_energy_uj_per_byte: float


class SessionController:
    """Owns the plan across a windowed session (duck-typed into
    :meth:`~repro.runtime.executor.PipelineExecutor.run_session`)."""

    def __init__(
        self,
        model: CostModel,
        per_batch_step_costs: Sequence[Mapping[str, StepCost]],
        batch_bytes: int,
        config: ControllerConfig = ControllerConfig(),
        plan: Optional[SchedulingPlan] = None,
    ) -> None:
        self.model = model
        self.per_batch_step_costs = per_batch_step_costs
        self.batch_bytes = batch_bytes
        self.config = config
        # One scheduler for the whole session: its energy-floor cache
        # and warm-start bounds are what make replans incremental.
        self.scheduler = Scheduler(model)
        # A given plan seeds the regulator with its estimate, so no
        # cold search repeats the one that chose it. With
        # auto_replan=False only the regulator's drift signal is read.
        self.regulator = StatisticsAwareRegulator(
            model,
            trigger_threshold=config.trigger_threshold,
            smoothing=config.smoothing,
            estimate=model.evaluate(plan) if plan is not None else None,
            auto_replan=False,
            scheduler=self.scheduler,
        )
        self.plan: SchedulingPlan = self.regulator.plan
        self.events: List[ControlEvent] = []
        self.failovers: List[FailoverEvent] = []
        self.replans = 0
        self.plans_adopted = 0
        self.warm_start_hits = 0
        #: residual ledger + per-window health, populated only when the
        #: executor delivers telemetry with its window observations
        self.ledger = ResidualLedger(LedgerConfig())
        self.health_windows: List[WindowHealth] = []
        self._failed_cores: set = set()
        self._throttled: dict = {}
        #: (kind, key) pairs already acted on — each model edit is
        #: persistent, so repeating it would compound the correction
        self._diagnosed: set = set()
        self._state_bytes = {
            stage: model.stage_output_bytes(stage) * config.state_bytes_scale
            for stage in range(model.graph.stage_count)
        }
        board = model.board
        #: W == µJ/µs: prices the pipeline pause a migration causes
        self._static_power_w = board.uncore_power_w + ordered_sum(
            core.static_power_w for core in board.cores
        )

    # -- executor callback ---------------------------------------------------

    def on_window(
        self, observation: WindowObservation
    ) -> Optional[WindowDecision]:
        """Digest one completed window; maybe hand back a plan swap."""
        # The ledger sees the window against the plan that was actually
        # in force while it ran — before any decision below mutates the
        # model or the plan.
        health: Optional[WindowHealth] = None
        if observation.telemetry is not None:
            health = self.ingest_telemetry(
                observation.telemetry, observation.latencies_us_per_byte
            )
        drifted = False
        for batch_index in range(
            observation.batch_start,
            observation.batch_start + observation.batch_count,
        ):
            event = self.regulator.observe(
                batch_index, self.per_batch_step_costs[batch_index]
            )
            drifted = drifted or event.drifted
        # Hardware degradation outranks workload drift: a dead or newly
        # throttled core forces an immediate failover replan.
        new_failed = tuple(
            c for c in observation.failed_cores if c not in self._failed_cores
        )
        new_throttled = tuple(
            (core, mhz) for core, mhz in observation.throttled_mhz
            if self._throttled.get(core) != mhz
        )
        if new_failed or new_throttled:
            return self._failover(observation, new_failed, new_throttled)
        if drifted:
            return self._replan(observation)
        # No heartbeat, no drift: the residual ledger is the last line
        # of defense against signal-free faults.
        if health is not None:
            return self._diagnose(observation, health)
        return None

    # -- residual diagnosis ---------------------------------------------------

    def ingest_telemetry(
        self, telemetry, latencies_us_per_byte: Sequence[float]
    ) -> WindowHealth:
        """Feed one window's telemetry through the residual ledger.

        Called by :meth:`on_window` for every telemetry-carrying
        observation, and by the session glue for the final window (the
        executor consults no controller after the last batch). The
        window's measured latency is the steady-batch mean — the first
        batch of a window is the boundary batch that pays the full
        pipeline traversal, which the model's steady-state estimate
        deliberately excludes.
        """
        latencies = tuple(latencies_us_per_byte)
        steady = latencies[1:] if len(latencies) > 1 else latencies
        measured = ordered_sum(steady) / len(steady)
        estimate = self.model.evaluate(self.plan)
        residual = self.ledger.observe(
            telemetry, measured, self.plan, estimate, self.model
        )
        constraint = self.model.latency_constraint_us_per_byte
        violated = any(l > constraint for l in steady)
        health = build_window_health(
            residual, violated, self.config.diagnosis_threshold
        )
        self.health_windows.append(health)
        return health

    def session_health(self, label: str) -> SessionHealth:
        """The session's health report so far (windows in order)."""
        return SessionHealth(
            label=label,
            board=self.model.board.name,
            latency_constraint_us_per_byte=(
                self.model.latency_constraint_us_per_byte
            ),
            windows=tuple(self.health_windows),
        )

    def _diagnose(
        self, observation: WindowObservation, health: WindowHealth
    ) -> Optional[WindowDecision]:
        """Replan around a component the health report implicates.

        Fires only for windows that violate ``L_set`` with an anomalous
        attribution on a *signal-free* component — a degraded path or a
        retry-heavy stage. Core attributions stay report-only: an
        underperforming core that matters shows up through the
        heartbeat (throttle/failure) or drift paths, which own those
        responses.
        """
        attribution = health.attribution
        if attribution is None or not health.violated:
            return None
        if attribution.kind not in ("path", "retry"):
            return None
        if (attribution.kind, attribution.key) in self._diagnosed:
            return None
        self._diagnosed.add((attribution.kind, attribution.key))

        # Teach the model what the ledger measured, then replan on it.
        window = self.ledger.windows[-1]
        component = next(
            c for c in window.components
            if c.kind == attribution.kind and c.key == attribution.key
        )
        if attribution.kind == "path":
            if component.predicted_us_per_byte > 0.0:
                factor = (
                    component.measured_us_per_byte
                    / component.predicted_us_per_byte
                )
            else:
                factor = self.config.diagnosis_scale_cap
            factor = min(
                max(factor, 1.0), self.config.diagnosis_scale_cap
            )
            self.model.apply_path_degradation(Path(attribution.key), factor)
        else:
            stage = int(attribution.key)
            replica_l_comp = [
                t.l_comp_us_per_byte
                for t in self.model.evaluate(self.plan).task_estimates
                if t.stage_index == stage
            ]
            mean_l_comp = (
                ordered_sum(replica_l_comp) / len(replica_l_comp)
                if replica_l_comp else 0.0
            )
            if mean_l_comp <= 0.0:
                return None
            scale = 1.0 + component.measured_us_per_byte / mean_l_comp
            scale = min(scale, self.config.diagnosis_scale_cap)
            self.model.latency_scale[stage] = (
                self.model.latency_scale.get(stage, 1.0) * scale
            )
        # The scheduler's energy-floor caches and the vectorized cost
        # tables both predate the model edit — rebuild from scratch (and
        # keep honoring any earlier failover's survivor restriction).
        surviving = [
            c.core_id for c in self.model.board.cores
            if c.core_id not in self._failed_cores
        ]
        self.scheduler = Scheduler(
            self.model,
            allowed_cores=surviving if self._failed_cores else None,
        )
        self.regulator.scheduler = self.scheduler

        self.replans += 1
        incumbent = self.model.evaluate(self.plan)
        result = self.scheduler.schedule(best_effort=True, warm_start=self.plan)
        candidate = result.estimate
        hits = (
            result.search_stats.warm_start_hits
            if result.search_stats is not None
            else 0
        )
        self.warm_start_hits += hits

        delta = self.plan.diff(candidate.plan)
        cost = migration_cost(
            delta,
            self.model.board,
            self.model.communication,
            self._state_bytes,
        )
        window_bytes = float(self.batch_bytes * observation.batch_count)
        saving_uj = (
            incumbent.energy_uj_per_byte - candidate.energy_uj_per_byte
        ) * window_bytes * self.config.horizon_windows
        cost_uj = cost.energy_uj + cost.pause_us * self._static_power_w

        # A diagnosis targets an active SLO violation, so adoption is
        # unconditional (like a failover) whenever the placement moves.
        adopted = not delta.is_empty
        if adopted:
            self.plans_adopted += 1
            self.plan = candidate.plan
        self.events.append(
            ControlEvent(
                window_index=observation.window_index,
                drifted=False,
                replanned=True,
                adopted=adopted,
                reason="diagnosis",
                incumbent_energy_uj_per_byte=incumbent.energy_uj_per_byte,
                candidate_energy_uj_per_byte=candidate.energy_uj_per_byte,
                modeled_saving_uj=saving_uj,
                migration_cost_uj=cost_uj,
                migration_pause_us=cost.pause_us,
                warm_start_hits=hits,
            )
        )
        return WindowDecision(
            replanned=True,
            adopted=adopted,
            reason="diagnosis",
            plan=candidate.plan if adopted else None,
            pause_us=cost.pause_us if adopted else 0.0,
            energy_uj=cost.energy_uj if adopted else 0.0,
            moved_replicas=cost.moved_replicas,
            moves=delta.describe(),
            energy_uj_per_byte=candidate.energy_uj_per_byte,
            warm_start_hits=hits,
        )

    # -- internals -----------------------------------------------------------

    def _replan(self, observation: WindowObservation) -> WindowDecision:
        self.replans += 1
        incumbent = self.model.evaluate(self.plan)
        result = self.scheduler.schedule(
            best_effort=True, warm_start=self.plan
        )
        candidate = result.estimate
        hits = (
            result.search_stats.warm_start_hits
            if result.search_stats is not None
            else 0
        )
        self.warm_start_hits += hits

        delta = self.plan.diff(candidate.plan)
        cost = migration_cost(
            delta,
            self.model.board,
            self.model.communication,
            self._state_bytes,
        )
        window_bytes = float(self.batch_bytes * observation.batch_count)
        saving_uj = (
            incumbent.energy_uj_per_byte - candidate.energy_uj_per_byte
        ) * window_bytes * self.config.horizon_windows
        cost_uj = cost.energy_uj + cost.pause_us * self._static_power_w

        rescue = not incumbent.feasible and candidate.feasible
        if delta.is_empty:
            adopted = False
            reason = "incumbent-optimal"
        elif rescue:
            adopted = True
            reason = "constraint-rescue"
        elif saving_uj > cost_uj * self.config.min_saving_ratio:
            adopted = True
            reason = "amortized-saving"
        else:
            adopted = False
            reason = "migration-too-costly"

        self.events.append(
            ControlEvent(
                window_index=observation.window_index,
                drifted=True,
                replanned=True,
                adopted=adopted,
                reason=reason,
                incumbent_energy_uj_per_byte=incumbent.energy_uj_per_byte,
                candidate_energy_uj_per_byte=candidate.energy_uj_per_byte,
                modeled_saving_uj=saving_uj,
                migration_cost_uj=cost_uj,
                migration_pause_us=cost.pause_us,
                warm_start_hits=hits,
            )
        )
        if adopted:
            self.plans_adopted += 1
            self.plan = candidate.plan
        return WindowDecision(
            replanned=True,
            adopted=adopted,
            reason=reason,
            plan=candidate.plan if adopted else None,
            pause_us=cost.pause_us if adopted else 0.0,
            energy_uj=cost.energy_uj if adopted else 0.0,
            moved_replicas=cost.moved_replicas,
            moves=delta.describe(),
            energy_uj_per_byte=candidate.energy_uj_per_byte,
            warm_start_hits=hits,
        )

    def _fallback_core(self, core_id: int, surviving: Sequence[int]) -> int:
        """The executor's emergency-routing rule: lowest-id survivor of
        the same cluster, else lowest-id survivor anywhere. Matching the
        rule means the patched incumbent describes what the pipeline is
        already doing."""
        victim = self.model.board.core_by_id[core_id]
        same_cluster = [
            c for c in surviving
            if self.model.board.core_by_id[c].is_big == victim.is_big
        ]
        return min(same_cluster) if same_cluster else min(surviving)

    def _failover(
        self,
        observation: WindowObservation,
        new_failed: Sequence[int],
        new_throttled: Sequence,
    ) -> WindowDecision:
        """Replan over the surviving cores after hardware degradation.

        The candidate is adopted unconditionally — every batch spent on
        emergency routes pays the reroute surcharge (and likely violates
        ``L_set``), so no amortization argument applies."""
        self.replans += 1
        self._failed_cores.update(new_failed)
        for core, mhz in new_throttled:
            current = self._throttled.get(core)
            self._throttled[core] = (
                mhz if current is None else min(current, mhz)
            )
        if new_throttled:
            # Teach the cost model the capped frequencies so candidate
            # estimates price throttled cores honestly.
            fmap = dict(self.model.frequency_map or {})
            for core, mhz in self._throttled.items():
                fmap[core] = min(fmap.get(core, mhz), mhz)
            self.model.frequency_map = fmap
        surviving = [
            c.core_id for c in self.model.board.cores
            if c.core_id not in self._failed_cores
        ]
        # Fresh scheduler restricted to survivors, shared with the
        # regulator so later drift replans also avoid the dead cores.
        self.scheduler = Scheduler(self.model, allowed_cores=surviving)
        self.regulator.scheduler = self.scheduler

        routing = {
            core: self._fallback_core(core, surviving)
            for core in sorted(self._failed_cores)
        }
        patched = self.plan.remap_cores(routing)
        incumbent = self.model.evaluate(patched)
        result = self.scheduler.schedule(best_effort=True, warm_start=patched)
        candidate = result.estimate
        hits = (
            result.search_stats.warm_start_hits
            if result.search_stats is not None
            else 0
        )
        self.warm_start_hits += hits

        delta = self.plan.diff(candidate.plan)
        cost = migration_cost(
            delta,
            self.model.board,
            self.model.communication,
            self._state_bytes,
        )
        window_bytes = float(self.batch_bytes * observation.batch_count)
        saving_uj = (
            incumbent.energy_uj_per_byte - candidate.energy_uj_per_byte
        ) * window_bytes * self.config.horizon_windows
        cost_uj = cost.energy_uj + cost.pause_us * self._static_power_w

        self.plans_adopted += 1
        self.plan = candidate.plan
        self.events.append(
            ControlEvent(
                window_index=observation.window_index,
                drifted=False,
                replanned=True,
                adopted=True,
                reason="failover",
                incumbent_energy_uj_per_byte=incumbent.energy_uj_per_byte,
                candidate_energy_uj_per_byte=candidate.energy_uj_per_byte,
                modeled_saving_uj=saving_uj,
                migration_cost_uj=cost_uj,
                migration_pause_us=cost.pause_us,
                warm_start_hits=hits,
            )
        )
        self.failovers.append(
            FailoverEvent(
                window_index=observation.window_index,
                failed_cores=tuple(sorted(self._failed_cores)),
                throttled_cores=tuple(sorted(self._throttled.items())),
                pause_us=cost.pause_us,
                energy_uj=cost.energy_uj,
                candidate_energy_uj_per_byte=candidate.energy_uj_per_byte,
            )
        )
        return WindowDecision(
            replanned=True,
            adopted=True,
            reason="failover",
            plan=candidate.plan,
            pause_us=cost.pause_us,
            energy_uj=cost.energy_uj,
            moved_replicas=cost.moved_replicas,
            moves=delta.describe(),
            energy_uj_per_byte=candidate.energy_uj_per_byte,
            warm_start_hits=hits,
        )
