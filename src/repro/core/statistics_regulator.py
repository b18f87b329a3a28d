"""Statistics-aware regulation (the paper's future-work controller).

§V-D closes by noting that the PID regulator's response "may be lagged
when facing a bursting workload" — it needs at least three observations
(Eq 8) — and that "more sophisticated controllers that monitor workload
statistical information in the datastream may achieve an even better
response". This module implements that controller.

Instead of inferring drift from the *latency error* (an indirect,
lagging signal), :class:`StatisticsAwareRegulator` watches the
*per-stage instruction counts* the codec's counters report for each
batch — the direct driver of Eq 6. When a stage's work shifts beyond a
threshold against the profiled baseline, the model is recalibrated in a
single step (scale = observed / baseline) and the scheduler replans
immediately: a distribution jump is handled in one batch instead of
three or four.

The trade-off is sensitivity: the PID integrates noise away, while the
statistics watcher must distinguish real drift from batch-to-batch
variation — hence the hysteresis (``trigger_threshold`` to act,
``settle_threshold`` to re-anchor the baseline).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

from repro.compression.base import StepCost
from repro.core.cost_model import CostModel
from repro.core.plan import PlanEstimate
from repro.core.scheduler import Scheduler
from repro.errors import ConfigurationError

__all__ = ["StatisticsAwareRegulator", "StatisticsEvent"]


@dataclass(frozen=True)
class StatisticsEvent:
    """Outcome of one batch observation."""

    batch_index: int
    #: per-stage observed/baseline instruction ratios
    stage_shifts: Mapping[int, float]
    max_shift: float
    replanned: bool
    #: the shift crossed the trigger and the model was recalibrated
    #: (equals ``replanned`` when the regulator replans for itself;
    #: with ``auto_replan=False`` this is the drift signal a session
    #: controller acts on)
    drifted: bool = False


@dataclass
class StatisticsAwareRegulator:
    """Replans from direct workload-statistics observation.

    Parameters
    ----------
    model:
        The cost model to keep calibrated (its ``latency_scale`` is the
        calibrated parameter, as in the PID regulator).
    trigger_threshold:
        Relative per-stage work shift that triggers recalibration
        (default 15 % — above batch noise, below any real range jump).
    smoothing:
        EWMA factor for the observed statistics (0 = trust each batch).
    """

    model: CostModel
    trigger_threshold: float = 0.15
    smoothing: float = 0.3
    #: the plan in force; ``None`` runs a cold search at construction,
    #: a caller that already holds its plan passes its estimate instead
    estimate: PlanEstimate = None
    events: List[StatisticsEvent] = field(default_factory=list)
    #: with ``auto_replan=False`` the regulator only recalibrates the
    #: model and reports ``drifted`` — the session controller owns the
    #: replanning decision (warm start, migration gating)
    auto_replan: bool = True
    #: an externally-owned scheduler to replan with (shares its
    #: energy-floor cache across recalibrations); ``None`` builds one
    scheduler: Scheduler = None

    def __post_init__(self) -> None:
        if not 0.0 < self.trigger_threshold < 1.0:
            raise ConfigurationError("trigger_threshold must be in (0, 1)")
        if not 0.0 <= self.smoothing < 1.0:
            raise ConfigurationError("smoothing must be in [0, 1)")
        self._baseline = self._stage_instructions_from_profile()
        self._smoothed: Dict[int, float] = dict(self._baseline)
        if self.scheduler is None:
            self.scheduler = Scheduler(self.model)
        if self.estimate is None:
            self.estimate = self.scheduler.schedule(
                best_effort=True
            ).estimate

    @property
    def plan(self):
        return self.estimate.plan

    def _stage_instructions_from_profile(self) -> Dict[int, float]:
        return {
            stage: self.model.stage_instructions(stage)
            for stage in range(self.model.graph.stage_count)
        }

    def observe(
        self, batch_index: int, batch_step_costs: Mapping[str, StepCost]
    ) -> StatisticsEvent:
        """Feed one batch's per-step costs; recalibrate and replan on
        drift. Returns what happened; ``self.plan`` reflects replans."""
        shifts: Dict[int, float] = {}
        for stage, task in enumerate(self.model.graph.tasks):
            observed = task.merged_cost(batch_step_costs).instructions
            previous = self._smoothed[stage]
            smoothed = (
                self.smoothing * previous + (1.0 - self.smoothing) * observed
            )
            self._smoothed[stage] = smoothed
            shifts[stage] = smoothed / self._baseline[stage]

        max_shift = max(abs(ratio - 1.0) for ratio in shifts.values())
        replanned = False
        drifted = False
        if max_shift > self.trigger_threshold:
            # One-step recalibration: the observed work *is* the new
            # baseline; Eq 6 scales linearly in instructions.
            drifted = True
            for stage, ratio in shifts.items():
                self.model.latency_scale[stage] = (
                    self.model.latency_scale.get(stage, 1.0) * ratio
                )
                self._baseline[stage] = self._smoothed[stage]
            if self.auto_replan:
                self.estimate = self.scheduler.schedule(
                    best_effort=True
                ).estimate
                replanned = True

        event = StatisticsEvent(
            batch_index=batch_index,
            stage_shifts=shifts,
            max_shift=max_shift,
            replanned=replanned,
            drifted=drifted,
        )
        self.events.append(event)
        return event
