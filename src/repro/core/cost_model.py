"""The CStream cost model (paper §V-B, Eqs 4-7).

Given a task graph, a workload profile and the calibrated hardware
curves, the model predicts for every task replica of a scheduling plan:

* computation latency ``l_comp = instructions / η(κ, core)`` (Eq 6 —
  linear in input size, since instructions scale with the batch);
* communication latency ``l_comm`` from the upstream stage's forwarded
  bytes and the measured per-path unit costs and overheads (Eq 7);
* energy ``e = η·l/ζ = instructions / ζ(κ, core)`` (Eq 4).

Everything is normalized to per-byte-of-batch units (µs/byte, µJ/byte),
matching the paper's reporting. The plan-level outputs are
``L_est = max(l_i)`` (Eq 2, pipeline bottleneck — including per-core
serialization when several replicas share a core, which is Eq 3's
capacity constraint expressed in time) and ``E_est = Σ e_i`` (Eq 1).

The model can be degraded for the paper's §VII-D ablations:
``communication_aware=False`` drops l_comm from every estimate (the
``+asy-comp.`` factor, which models asymmetric computation but ignores
communication effects entirely — our reading of "L_comm treated the same
for any pair"; see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.plan import PlanEstimate, SchedulingPlan, TaskEstimate
from repro.core.profiler import (
    CommunicationTable,
    WorkloadProfile,
    measure_communication,
    profile_roofline,
)
from repro.core.roofline import FittedPiecewise, fit_piecewise
from repro.core.task import TaskGraph
from repro.errors import ConfigurationError
from repro.simcore.boards import BoardSpec
from repro.simcore.hardware import CoreType, replication_factor
from repro.simcore.interconnect import Path

__all__ = ["CostModel", "CalibratedCurves", "calibrate_curves"]

#: default safety factor applied to L_set when checking Eq 2
DEFAULT_GUARD_BAND = 0.99


@dataclass(frozen=True)
class CalibratedCurves:
    """Fitted η/ζ curves per core type (the model's view of Fig 3)."""

    eta: Dict[CoreType, FittedPiecewise]
    zeta: Dict[CoreType, FittedPiecewise]


#: process-wide memo of fitted curves. The dry-run calibration depends
#: only on (board, noise, seed) — every field that shapes it is in the
#: board's fingerprint — yet each workload context used to re-profile and
#: re-fit the same curves from scratch, which dominated cold-start cost.
#: Nothing mutates a :class:`CalibratedCurves` after construction
#: (frozen dataclass of frozen fits), so sharing one instance across
#: contexts/harnesses is safe.
_CURVE_CACHE: Dict[Tuple[str, float, int], CalibratedCurves] = {}


def calibrate_curves(
    board: BoardSpec, noise: float = 0.01, seed: int = 0
) -> CalibratedCurves:
    """Profile one core of each type and fit Eq 5's piecewise curves."""
    key = (board.fingerprint, noise, seed)
    cached = _CURVE_CACHE.get(key)
    if cached is not None:
        return cached
    eta: Dict[CoreType, FittedPiecewise] = {}
    zeta: Dict[CoreType, FittedPiecewise] = {}
    for core_type in CoreType:
        cores = board.cores_of_type(core_type)
        if not cores:
            continue
        samples = profile_roofline(cores[0], noise=noise, seed=seed)
        eta[core_type] = fit_piecewise(samples.kappas, samples.eta_values)
        zeta[core_type] = fit_piecewise(samples.kappas, samples.zeta_values)
    if len(_CURVE_CACHE) >= 64:  # bound the memo on exotic board sweeps
        _CURVE_CACHE.clear()
    result = CalibratedCurves(eta=eta, zeta=zeta)
    _CURVE_CACHE[key] = result
    return result


class _CostTables:
    """Precomputed per-(stage, core) lookup tables for one cost model.

    Every value is produced by the model's own scalar helpers
    (``_eta``/``_zeta``, ``stage_kappa``, the communication table), so a
    table lookup returns the same float those helpers would compute —
    the tables change where numbers are read from, never how they are
    made. Plain lists: indexing them per replica is cheaper than the
    piecewise-curve walk they replace, and cheaper than building numpy
    rows per plan. ``stamp`` snapshots the mutable inputs
    (``kappa_scale``, ``frequency_map``); :meth:`CostModel._tables`
    rebuilds when the PID controller drifts them. ``latency_scale`` is a
    direct multiplier applied at evaluation time, so it stays live-read
    and never invalidates tables.
    """

    __slots__ = (
        "stamp", "core_ids", "predecessors",
        "kappas", "instructions", "output_bytes",
        "eta", "zeta",
        "comm_unit", "comm_overhead", "comm_energy",
        "_replication_latency", "_replication_energy",
        "_latency_overhead", "_energy_overhead",
    )

    def __init__(self, model: "CostModel", stamp: Tuple) -> None:
        self.stamp = stamp
        board = model.board
        core_ids = sorted(board.core_by_id)
        size = max(core_ids) + 1
        stage_count = len(model._stage_costs)
        self.core_ids = core_ids
        self.predecessors = [
            model.graph.predecessors_of(s) for s in range(stage_count)
        ]
        self.kappas = [model.stage_kappa(s) for s in range(stage_count)]
        self.instructions = [
            model.stage_instructions(s) for s in range(stage_count)
        ]
        self.output_bytes = [
            model.stage_output_bytes(s) for s in range(stage_count)
        ]
        self.eta = []
        self.zeta = []
        for stage in range(stage_count):
            kappa = self.kappas[stage]
            eta_row = [0.0] * size
            zeta_row = [0.0] * size
            for core_id in core_ids:
                eta_row[core_id] = model._eta(kappa, core_id)
                zeta_row[core_id] = model._zeta(kappa, core_id)
            self.eta.append(eta_row)
            self.zeta.append(zeta_row)
        communication = model.communication
        self.comm_unit = [[0.0] * size for _ in range(size)]
        self.comm_overhead = [[0.0] * size for _ in range(size)]
        self.comm_energy = [[0.0] * size for _ in range(size)]
        for producer in core_ids:
            for consumer in core_ids:
                path = board.path_between(producer, consumer)
                self.comm_unit[producer][consumer] = (
                    communication.unit_cost(path)
                )
                self.comm_overhead[producer][consumer] = (
                    communication.overhead(path)
                )
                self.comm_energy[producer][consumer] = (
                    communication.energy(path)
                )
        self._replication_latency: Dict[int, float] = {}
        self._replication_energy: Dict[int, float] = {}
        self._latency_overhead = board.replication_latency_overhead
        self._energy_overhead = board.replication_energy_overhead

    def replication_latency(self, replicas: int) -> float:
        factor = self._replication_latency.get(replicas)
        if factor is None:
            factor = replication_factor(self._latency_overhead, replicas)
            self._replication_latency[replicas] = factor
        return factor

    def replication_energy(self, replicas: int) -> float:
        factor = self._replication_energy.get(replicas)
        if factor is None:
            factor = replication_factor(self._energy_overhead, replicas)
            self._replication_energy[replicas] = factor
        return factor


@dataclass
class CostModel:
    """Plan cost estimator for one workload on one board."""

    board: BoardSpec
    graph: TaskGraph
    profile: WorkloadProfile
    curves: CalibratedCurves
    communication: CommunicationTable
    latency_constraint_us_per_byte: float
    guard_band: float = DEFAULT_GUARD_BAND
    communication_aware: bool = True
    frequency_map: Optional[Mapping[int, float]] = None
    #: per-stage calibration multipliers on l_comp and κ, adjusted by the
    #: adaptive PID controller (§V-D); 1.0 = trust the profile
    latency_scale: Dict[int, float] = field(default_factory=dict)
    kappa_scale: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.latency_constraint_us_per_byte <= 0:
            raise ConfigurationError("latency constraint must be positive")
        if not 0 < self.guard_band <= 1:
            raise ConfigurationError("guard band must be in (0, 1]")
        self._stage_costs = tuple(
            task.merged_cost(self.profile.mean_step_costs)
            for task in self.graph.tasks
        )
        self._batch_bytes = self.profile.batch_size_bytes

    # -- convenience -------------------------------------------------------

    @classmethod
    def calibrated(
        cls,
        board: BoardSpec,
        graph: TaskGraph,
        profile: WorkloadProfile,
        latency_constraint_us_per_byte: float,
        seed: int = 0,
        **options,
    ) -> "CostModel":
        """Build a model by dry-run profiling the board (Fig 4 workflow)."""
        return cls(
            board=board,
            graph=graph,
            profile=profile,
            curves=calibrate_curves(board, seed=seed),
            communication=measure_communication(board, seed=seed),
            latency_constraint_us_per_byte=latency_constraint_us_per_byte,
            **options,
        )

    def stage_kappa(self, stage_index: int) -> float:
        base = self._stage_costs[stage_index].operational_intensity
        return base * self.kappa_scale.get(stage_index, 1.0)

    def stage_instructions(self, stage_index: int) -> float:
        return self._stage_costs[stage_index].instructions

    def stage_output_bytes(self, stage_index: int) -> float:
        return float(self._stage_costs[stage_index].output_bytes)

    def apply_path_degradation(self, path: Path, factor: float) -> None:
        """Teach the model that one interconnect path runs ``factor``× slow.

        The controller's diagnosis trigger calls this when the residual
        ledger pins a window's latency residual on a path class: the
        communication table is rebuilt (never mutated in place — the
        measured table is shared process-wide via the profiler cache)
        with that path's unit cost, per-message overhead and transfer
        energy scaled, mirroring
        :meth:`repro.simcore.interconnect.InterconnectSpec.degraded`.
        The lookup tables are invalidated explicitly because their stamp
        only tracks κ/frequency drift, not the communication table.
        """
        if factor <= 0:
            raise ConfigurationError("degradation factor must be positive")
        table = self.communication
        unit = dict(table.unit_cost_us_per_byte)
        overhead = dict(table.message_overhead_us)
        energy = dict(table.message_energy_uj or {})
        if path in unit:
            unit[path] *= factor
        if path in overhead:
            overhead[path] *= factor
        if path in energy:
            energy[path] *= factor
        self.communication = CommunicationTable(
            unit_cost_us_per_byte=unit,
            message_overhead_us=overhead,
            message_energy_uj=energy or None,
        )
        self._table_cache = None

    def _core_frequency(self, core_id: int) -> Optional[float]:
        if self.frequency_map is None:
            return None
        return self.frequency_map.get(core_id)

    def _eta(self, kappa: float, core_id: int) -> float:
        core = self.board.core_by_id[core_id]
        fitted = self.curves.eta[core.core_type]
        base = fitted.value(kappa)
        frequency = self._core_frequency(core_id)
        if frequency is None:
            return base
        # The fitted curve was profiled at max frequency; reuse the
        # hardware's scaling law for other levels.
        return base * core.eta_at(kappa, frequency) / core.eta_at(kappa, None)

    def _zeta(self, kappa: float, core_id: int) -> float:
        core = self.board.core_by_id[core_id]
        fitted = self.curves.zeta[core.core_type]
        base = fitted.value(kappa)
        frequency = self._core_frequency(core_id)
        if frequency is None:
            return base
        return base * core.zeta_at(kappa, frequency) / core.zeta_at(kappa, None)

    def _tables(self) -> _CostTables:
        """The precomputed lookup tables, rebuilt on κ/frequency drift.

        The stamp check is cheap in the common case (no adaptive drift,
        no static frequency map: two empty snapshots), and pricing pays
        it once per plan (:meth:`evaluate`) or once per branch-and-bound
        search, never per replica.
        """
        stamp = (
            ()
            if not self.kappa_scale
            else tuple(sorted(self.kappa_scale.items())),
            None
            if self.frequency_map is None
            else tuple(sorted(self.frequency_map.items())),
        )
        tables = getattr(self, "_table_cache", None)
        if tables is not None and tables.stamp == stamp:
            return tables
        tables = _CostTables(self, stamp)
        self._table_cache = tables
        return tables

    # -- per-task estimates (Eqs 4, 6, 7) -----------------------------------

    def compute_latency(
        self, stage_index: int, core_id: int, replicas: int = 1
    ) -> float:
        """l_comp of one replica, µs per byte of batch (Eq 6)."""
        tables = self._tables()
        return self.replica_costs(stage_index, replicas, tables)[0][core_id]

    def task_energy(
        self, stage_index: int, core_id: int, replicas: int = 1
    ) -> float:
        """e of one replica, µJ per byte of batch (Eq 4)."""
        tables = self._tables()
        return self.replica_costs(stage_index, replicas, tables)[1][core_id]

    def communication_latency(
        self,
        stage_index: int,
        core_id: int,
        upstream_cores: Tuple[int, ...],
        replicas: int,
        producer_stage: Optional[int] = None,
    ) -> float:
        """l_comm of one replica from one producer stage, µs per byte (Eq 7).

        The replica fetches its 1/replicas share of the producer stage's
        forwarded bytes, drawn evenly from every producer replica; each
        producer contributes one message (its ω) over its path.
        ``producer_stage`` defaults to ``stage_index - 1`` (the chain
        shape); DAG consumers call this once per predecessor stage and
        sum — a join pays every producer's messages.
        """
        if producer_stage is None:
            producer_stage = stage_index - 1
        if producer_stage < 0 or not self.communication_aware:
            return 0.0
        tables = self._tables()
        upstream_bytes = self.stage_output_bytes(producer_stage)
        share = upstream_bytes / replicas / len(upstream_cores)
        unit = tables.comm_unit
        overhead = tables.comm_overhead
        total_us = 0.0
        for producer_core in upstream_cores:
            total_us += share * unit[producer_core][core_id]
            total_us += overhead[producer_core][core_id]
        return total_us / self._batch_bytes

    # -- plan pricing (Eqs 1-3) ----------------------------------------------

    def replica_costs(
        self, stage_index: int, replicas: int, tables: _CostTables
    ) -> Tuple[List[Optional[float]], List[Optional[float]]]:
        """Per-core l_comp (Eq 6) and computation energy (Eq 4) of one
        replica of a stage running ``replicas`` wide, indexed by core id.

        ``tables`` is one :meth:`_tables` fetch, shared by every stage
        of a plan or a search; :meth:`compute_latency` and
        :meth:`task_energy` read one entry of these rows.
        """
        instructions = tables.instructions[stage_index] / replicas
        latency_overhead = tables.replication_latency(replicas)
        energy_overhead = tables.replication_energy(replicas)
        scale = self.latency_scale.get(stage_index, 1.0)
        batch_bytes = self._batch_bytes
        eta = tables.eta[stage_index]
        zeta = tables.zeta[stage_index]
        latency: List[Optional[float]] = [None] * len(eta)
        energy: List[Optional[float]] = [None] * len(zeta)
        for core_id in tables.core_ids:
            latency[core_id] = (
                scale * instructions * latency_overhead / eta[core_id]
                / batch_bytes
            )
            energy[core_id] = (
                instructions * energy_overhead / zeta[core_id] / batch_bytes
            )
        return latency, energy

    def price_stage(
        self,
        stage_index: int,
        assignments,
        stage_costs,
        tables: _CostTables,
        core_load: Dict[int, float],
        energy: float,
        task_latency: float,
        rows: Optional[list] = None,
    ) -> Tuple[float, float]:
        """Fold one stage of a plan into :meth:`price`'s running totals.

        ``assignments`` holds the per-stage core tuples up to and
        including ``stage_index`` (every producer is placed first: stage
        indices are a topological order), and ``stage_costs[s]`` the
        :meth:`replica_costs` rows for stage ``s`` at its replica count.
        Per replica, in order, the step adds l_comm per producer stage
        (ascending), exactly as :meth:`communication_latency` would, and
        the per-message transfer energy. The paper's Eq 4 prices
        computation only; shipping a message still draws
        interconnect/DRAM energy, which the dry-run measurement exposes —
        pricing it keeps the scheduler honest about uneconomical
        replication at small batch sizes (Fig 11).

        ``core_load`` (per-core l_comp sums) is updated in place; the
        new ``(energy, task_latency)`` — E_est's left fold and the
        largest ``l_comp + l_comm`` so far — are returned. ``rows``, when
        given, receives one ``(stage, replica, core, l_comp, l_comm,
        energy)`` tuple per replica. The branch-and-bound calls this as
        it places each stage, so a leaf's totals are :meth:`price`'s bit
        for bit without pricing the leaf again.
        """
        batch_bytes = self._batch_bytes
        output_bytes = tables.output_bytes
        comm_unit = tables.comm_unit
        comm_overhead = tables.comm_overhead
        comm_energy = tables.comm_energy
        cores = assignments[stage_index]
        replicas = len(cores)
        latency_row, energy_row = stage_costs[stage_index]
        producers = (
            tables.predecessors[stage_index]
            if self.communication_aware else ()
        )
        for replica_index, core_id in enumerate(cores):
            l_comp = latency_row[core_id]
            l_comm = 0.0
            e_comm = 0.0
            for producer_stage in producers:
                upstream_cores = assignments[producer_stage]
                share = (
                    output_bytes[producer_stage]
                    / replicas
                    / len(upstream_cores)
                )
                total_us = 0.0
                total_uj = 0.0
                for producer_core in upstream_cores:
                    total_us += share * comm_unit[producer_core][core_id]
                    total_us += comm_overhead[producer_core][core_id]
                    total_uj += comm_energy[producer_core][core_id]
                l_comm += total_us / batch_bytes
                e_comm += total_uj / batch_bytes
            task_energy = energy_row[core_id] + e_comm
            energy += task_energy
            l_task = l_comp + l_comm
            if l_task > task_latency:
                task_latency = l_task
            if rows is not None:
                rows.append(
                    (stage_index, replica_index, core_id,
                     l_comp, l_comm, task_energy)
                )
            core_load[core_id] = core_load.get(core_id, 0.0) + l_comp
        return energy, task_latency

    def price(
        self,
        assignments,
        stage_costs,
        tables: _CostTables,
    ) -> Tuple[float, float, bool, list, Dict[int, float]]:
        """Price one plan's replicas: a fold of :meth:`price_stage` over
        its stages, the model's one pricing loop.

        Returns ``(L_est, E_est, feasible, rows, core_load)``: ``rows``
        holds one ``(stage, replica, core, l_comp, l_comm, energy)``
        tuple per replica and ``core_load`` the per-core l_comp sums,
        which is all :meth:`estimate_from` needs to build the full
        estimate. L_est is the larger of the slowest task and the
        busiest core (Eqs 2-3).
        """
        rows: list = []
        core_load: Dict[int, float] = {}
        energy = 0.0
        task_latency = 0.0
        for stage_index in range(len(assignments)):
            energy, task_latency = self.price_stage(
                stage_index, assignments, stage_costs, tables,
                core_load, energy, task_latency, rows,
            )
        latency = max(task_latency, max(core_load.values()))
        budget = self.guard_band * self.latency_constraint_us_per_byte
        return latency, energy, not latency > budget, rows, core_load

    def estimate_from(
        self, plan: SchedulingPlan, priced, tables: _CostTables
    ) -> PlanEstimate:
        """The full :class:`PlanEstimate` of a plan :meth:`price` priced.

        Builds one :class:`TaskEstimate` per priced replica and the
        critical path; L_est, E_est and feasibility are the priced ones.
        """
        latency, energy, feasible, rows, core_load = priced
        kappas = tables.kappas
        estimates = tuple(
            TaskEstimate(
                stage_index=stage_index,
                replica_index=replica_index,
                core_id=core_id,
                kappa=kappas[stage_index],
                l_comp_us_per_byte=l_comp,
                l_comm_us_per_byte=l_comm,
                energy_uj_per_byte=task_energy,
            )
            for (stage_index, replica_index, core_id,
                 l_comp, l_comm, task_energy) in rows
        )

        # Critical path: per-stage latency (slowest replica) summed along
        # the heaviest chain of stage edges. For chains this degenerates
        # to the plain stage sum; forks run branches in parallel, so a
        # join only inherits its heaviest producer. The steady-state
        # period (L_est above) stays the feasibility metric — the
        # critical path prices one batch's end-to-end pipeline depth,
        # which replanning and the schedulers' tie-breaking consume.
        stage_latency: Dict[int, float] = {}
        for stage_index, _, _, l_comp, l_comm, _ in rows:
            l_task = l_comp + l_comm
            if l_task > stage_latency.get(stage_index, 0.0):
                stage_latency[stage_index] = l_task
        path_to: Dict[int, float] = {}
        for stage_index in range(plan.graph.stage_count):
            longest_producer = 0.0
            for producer in plan.graph.predecessors_of(stage_index):
                if path_to[producer] > longest_producer:
                    longest_producer = path_to[producer]
            path_to[stage_index] = (
                stage_latency.get(stage_index, 0.0) + longest_producer
            )
        critical_path = path_to[plan.graph.stage_count - 1]

        reason = ""
        if not feasible:
            budget = self.guard_band * self.latency_constraint_us_per_byte
            reason = (
                f"L_est {latency:.2f} µs/B exceeds budget {budget:.2f} µs/B"
            )
        return PlanEstimate(
            plan=plan,
            task_estimates=estimates,
            latency_us_per_byte=latency,
            energy_uj_per_byte=energy,
            feasible=feasible,
            infeasibility_reason=reason,
            core_load_us_per_byte=core_load,
            critical_path_us_per_byte=critical_path,
        )

    def evaluate(self, plan: SchedulingPlan) -> PlanEstimate:
        """Predict L_est, E_est and feasibility of a plan.

        One table fetch, then :meth:`price` and :meth:`estimate_from` —
        the same per-stage step the branch-and-bound folds down its
        walk to score its leaves. The
        reductions are Python left folds in replica order, so the result
        is deterministic bit for bit (``tests/test_golden_identity``).
        """
        if plan.graph is not self.graph and plan.graph != self.graph:
            raise ConfigurationError(
                "plan was built for a different task graph"
            )
        tables = self._tables()
        stage_costs = [
            self.replica_costs(stage_index, len(cores), tables)
            for stage_index, cores in enumerate(plan.assignments)
        ]
        priced = self.price(plan.assignments, stage_costs, tables)
        return self.estimate_from(plan, priced, tables)
