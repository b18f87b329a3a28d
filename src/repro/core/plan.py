"""Scheduling plans (paper Definition 2) and their estimates.

A :class:`SchedulingPlan` maps every task replica to a concrete core.
The paper describes a plan as the array ``p = {j_0, ..., j_{n-1}}``;
here the array is grouped per stage because replicas of one stage are
interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.core.task import TaskGraph
from repro.errors import ConfigurationError
from repro.numerics import ordered_sum

__all__ = [
    "SchedulingPlan",
    "TaskEstimate",
    "PlanEstimate",
    "ReplicaMove",
    "PlanDelta",
    "MigrationCost",
    "migration_cost",
]


@dataclass(frozen=True)
class SchedulingPlan:
    """Mapping of each stage's replicas to cores.

    ``assignments[s]`` is the tuple of core ids hosting stage ``s``'s
    replicas; its length is the stage's replication degree.
    """

    graph: TaskGraph
    assignments: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.assignments) != self.graph.stage_count:
            raise ConfigurationError(
                f"plan has {len(self.assignments)} stage assignments for "
                f"{self.graph.stage_count} stages"
            )
        for stage, cores in enumerate(self.assignments):
            if not cores:
                raise ConfigurationError(f"stage {stage} has no replicas")

    def replicas(self, stage_index: int) -> int:
        return len(self.assignments[stage_index])

    @property
    def total_replicas(self) -> int:
        return sum(len(cores) for cores in self.assignments)

    def cores_used(self) -> Tuple[int, ...]:
        used = sorted({core for cores in self.assignments for core in cores})
        return tuple(used)

    def flat(self) -> Tuple[int, ...]:
        """The paper's plan array: one core id per task replica, in
        stage-major order."""
        return tuple(core for cores in self.assignments for core in cores)

    def tasks_per_core(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for cores in self.assignments:
            for core in cores:
                counts[core] = counts.get(core, 0) + 1
        return counts

    def describe(self) -> str:
        """E.g. ``t0[s0+s1]@[4] -> t1[s2]@[0]`` for chains; DAG plans
        annotate join/fork stages with their producers the way
        :meth:`TaskGraph.describe` does (``t3[d3]@[0]<-[t1,t2]``)."""
        chain = self.graph.is_chain
        parts = []
        for task, cores in zip(self.graph.tasks, self.assignments):
            label = f"{task}@{list(cores)}"
            if not chain and task.predecessors:
                producers = ",".join(
                    self.graph.tasks[p].name for p in task.predecessors
                )
                label = f"{label}<-[{producers}]"
            parts.append(label)
        return " -> ".join(parts) if chain else " ; ".join(parts)

    def remap_cores(self, mapping: Mapping[int, int]) -> "SchedulingPlan":
        """A copy with every core id rewritten through ``mapping``
        (identity for absent keys).

        The controller's failover path uses this to patch a dead core out
        of the incumbent before warm-starting the replan search."""
        return SchedulingPlan(
            graph=self.graph,
            assignments=tuple(
                tuple(mapping.get(core, core) for core in cores)
                for cores in self.assignments
            ),
        )

    def diff(self, new_plan: "SchedulingPlan") -> "PlanDelta":
        """Replica moves turning this plan into ``new_plan``.

        Stage-indexed, so it is shape-agnostic: chains and DAG plans
        diff identically (moves are per-stage; the edge structure only
        matters when *pricing* the moves, via the migration table).
        Replicas of one stage are interchangeable, so the diff is a
        per-stage multiset comparison: cores present in both plans stay
        put, and the leftovers are paired source-to-destination in
        sorted core order (deterministic, and near-optimal because the
        pairing only prices inter-cluster hops, which sorting groups).
        When the replication degree grows, the extra destinations split
        state off an existing replica; when it shrinks, orphaned sources
        merge their state into a surviving replica — both are still
        moves with a concrete (from_core, to_core) pair to price.
        """
        if new_plan.graph != self.graph:
            raise ConfigurationError(
                "cannot diff plans built for different task graphs"
            )
        moves: List[ReplicaMove] = []
        for stage, (old_cores, new_cores) in enumerate(
            zip(self.assignments, new_plan.assignments)
        ):
            old_counts = _core_counts(old_cores)
            new_counts = _core_counts(new_cores)
            sources = _leftover(old_counts, new_counts)
            destinations = _leftover(new_counts, old_counts)
            paired = min(len(sources), len(destinations))
            for index in range(paired):
                moves.append(
                    ReplicaMove(stage, sources[index], destinations[index])
                )
            survivors = sorted(set(new_cores)) or sorted(set(old_cores))
            for index, destination in enumerate(destinations[paired:]):
                # Growth: state splits off an existing replica.
                donor_pool = sorted(set(old_cores)) or survivors
                moves.append(
                    ReplicaMove(
                        stage,
                        donor_pool[index % len(donor_pool)],
                        destination,
                    )
                )
            for index, source in enumerate(sources[paired:]):
                # Shrink: orphaned state merges into a survivor.
                moves.append(
                    ReplicaMove(
                        stage, source, survivors[index % len(survivors)]
                    )
                )
        return PlanDelta(moves=tuple(moves))

    def validate(
        self,
        *,
        board=None,
        expected_steps=None,
        step_dependencies=None,
        cost_model=None,
        expect_feasible: bool = False,
        strict: bool = False,
    ):
        """Check this plan against the PLN001-PLN006 invariants.

        Raises :class:`~repro.errors.InvariantViolationError` on any
        error-severity finding (with ``strict=True``, on warnings too);
        returns the full findings list otherwise so callers can log
        warnings. ``board``/``expected_steps``/``cost_model`` enable the
        corresponding checks; ``step_dependencies`` (the codec's step
        DAG, as produced by
        :meth:`~repro.compression.base.StreamCompressor.step_dependencies`)
        replaces PLN001's linear step-order data edges — see
        :func:`repro.analysis.verify.verify_plan`. Enabled for every
        :meth:`~repro.core.scheduler.Scheduler.schedule` call when
        ``REPRO_VALIDATE_PLANS=1`` (the test suite's default).
        """
        # Imported lazily: keeping repro.analysis.verify out of module
        # scope avoids import-time coupling of the core data model to
        # the analysis tooling (which imports the fleet and obs layers).
        from repro.analysis.verify import verify_plan

        from repro.errors import InvariantViolationError

        findings = verify_plan(
            self,
            board=board,
            expected_steps=expected_steps,
            step_dependencies=step_dependencies,
            cost_model=cost_model,
            expect_feasible=expect_feasible,
        )
        failing = [
            finding
            for finding in findings
            if finding.severity == "error" or strict
        ]
        if failing:
            details = "; ".join(finding.format() for finding in failing)
            raise InvariantViolationError(
                f"plan {self.describe()} violates "
                f"{len(failing)} invariant(s): {details}",
                findings=failing,
            )
        return findings


@dataclass(frozen=True)
class TaskEstimate:
    """Cost-model outputs for one task replica (Eqs 4-7), batch
    normalized to µs/byte and µJ/byte."""

    stage_index: int
    replica_index: int
    core_id: int
    kappa: float
    l_comp_us_per_byte: float
    l_comm_us_per_byte: float
    energy_uj_per_byte: float

    @property
    def l_us_per_byte(self) -> float:
        """l_i = l_comp + l_comm (paper Eq 2)."""
        return self.l_comp_us_per_byte + self.l_comm_us_per_byte


@dataclass(frozen=True)
class PlanEstimate:
    """Cost-model evaluation of a whole plan (Eqs 1-3)."""

    plan: SchedulingPlan
    task_estimates: Tuple[TaskEstimate, ...]
    latency_us_per_byte: float
    energy_uj_per_byte: float
    feasible: bool
    infeasibility_reason: str = ""
    core_load_us_per_byte: Mapping[int, float] = field(default_factory=dict)
    #: longest path through the stage DAG (per-stage latency summed along
    #: the heaviest chain of edges) — the end-to-end latency a single
    #: batch sees. For chains this is the plain stage sum. Steady-state
    #: throughput is still governed by ``latency_us_per_byte`` (the
    #: bottleneck period, Eq 1); the critical path prices *pipeline
    #: depth*, which forks shorten and joins cannot extend past the
    #: heaviest branch.
    critical_path_us_per_byte: float = 0.0

    def bottleneck(self) -> TaskEstimate:
        """The task replica with the highest estimated latency — the
        replication target of topologically-sorted iterative scaling."""
        return max(self.task_estimates, key=lambda est: est.l_us_per_byte)


# -- plan diffing and migration costing (online control loop) ----------------


def _core_counts(cores: Tuple[int, ...]) -> Dict[int, int]:
    counts: Dict[int, int] = {}
    for core in cores:
        counts[core] = counts.get(core, 0) + 1
    return counts


def _leftover(counts: Dict[int, int], other: Dict[int, int]) -> List[int]:
    """Cores of ``counts`` not matched by ``other``, sorted, with
    multiplicity."""
    cores: List[int] = []
    for core in sorted(counts):
        excess = counts[core] - other.get(core, 0)
        cores.extend([core] * max(excess, 0))
    return cores


@dataclass(frozen=True)
class ReplicaMove:
    """One stage replica relocating from one core to another."""

    stage_index: int
    from_core: int
    to_core: int


@dataclass(frozen=True)
class PlanDelta:
    """The replica moves between an incumbent and a candidate plan.

    Produced by :meth:`SchedulingPlan.diff`; priced by
    :func:`migration_cost`. An empty delta means the candidate is a
    relabeling of the incumbent and can be adopted for free.
    """

    moves: Tuple[ReplicaMove, ...]

    @property
    def is_empty(self) -> bool:
        return not self.moves

    @property
    def moved_replicas(self) -> int:
        return len(self.moves)

    def stages_touched(self) -> Tuple[int, ...]:
        return tuple(sorted({move.stage_index for move in self.moves}))

    def describe(self) -> str:
        if self.is_empty:
            return "no-op"
        return ", ".join(
            f"s{move.stage_index}:{move.from_core}->{move.to_core}"
            for move in self.moves
        )


#: state ships in page-sized messages; each page pays the per-message
#: energy of its path (the unit the dry-run communication table measures)
_MIGRATION_PAGE_BYTES = 4096.0


@dataclass(frozen=True)
class MigrationCost:
    """Modeled cost of applying a :class:`PlanDelta` at a window boundary.

    ``stall_us_by_core`` is the per-core pause while state transfers —
    both endpoints of a move stall for the full transfer (synchronous
    state handoff over the c0/c1/c2 path); independent moves on disjoint
    cores overlap, so the pipeline pause is the per-core maximum, not
    the sum.
    """

    stall_us_by_core: Tuple[Tuple[int, float], ...]
    transfer_us: float
    energy_uj: float
    moved_replicas: int

    @property
    def pause_us(self) -> float:
        """The window-boundary pipeline pause (slowest stalled core)."""
        return max((stall for _, stall in self.stall_us_by_core), default=0.0)


def migration_cost(
    delta: PlanDelta,
    board,
    communication,
    state_bytes_by_stage: Mapping[int, float],
) -> MigrationCost:
    """Price a plan delta: state transfer over the board's paths.

    ``communication`` is the profiled
    :class:`~repro.core.profiler.CommunicationTable` (Eq 7's unit costs
    and overheads), so migration is priced with the same measurements
    the scheduler plans with. ``state_bytes_by_stage`` maps each stage
    to its transferable state footprint (working set + codec state);
    stages absent from the mapping move for free.
    """
    stalls: Dict[int, float] = {}
    energy_terms: List[float] = []
    transfer_total = 0.0
    for move in delta.moves:
        if move.from_core == move.to_core:
            continue
        state_bytes = float(state_bytes_by_stage.get(move.stage_index, 0.0))
        path = board.path_between(move.from_core, move.to_core)
        transfer_us = (
            state_bytes * communication.unit_cost(path)
            + communication.overhead(path)
        )
        pages = max(state_bytes / _MIGRATION_PAGE_BYTES, 1.0)
        energy_terms.append(communication.energy(path) * pages)
        transfer_total += transfer_us
        for core in (move.from_core, move.to_core):
            stalls[core] = stalls.get(core, 0.0) + transfer_us
    return MigrationCost(
        stall_us_by_core=tuple(sorted(stalls.items())),
        transfer_us=transfer_total,
        energy_uj=ordered_sum(energy_terms),
        moved_replicas=len(delta.moves),
    )
