"""Scalar reference implementations the test suite checks ``src`` against.

The package ships one implementation per mechanism — the vectorized
codec encoders, lz4's numpy hashing and the table-driven cost model.
The straightforward loops they replaced live here, so parity tests can
compare both on the same inputs without a second path in the package:

* :func:`hash4` — lz4's multiplicative hash of one 4-byte prefix;
* :func:`tcomp32_reference` — Algorithm 2 word by word over a
  :class:`~repro.compression.bitio.BitWriter`;
* :class:`Tdic32Reference` — Algorithm 4 word by word, table read then
  overwrite;
* :func:`evaluate_reference` — Eqs 1-7 per replica straight from the
  fitted curves and the communication table, no lookup tables, built
  on :func:`compute_latency_reference` and :func:`task_energy_reference`.
"""

from __future__ import annotations

import struct
from typing import Dict, Tuple

import numpy as np

from repro.compression.bitio import BitWriter
from repro.compression.tdic32 import tdic32_hash
from repro.core.plan import PlanEstimate, SchedulingPlan, TaskEstimate
from repro.simcore.hardware import replication_factor

_HEADER = struct.Struct("<I")
_TCOMP32_LENGTH_BITS = 5
_TDIC32_LITERAL_BITS = 32


def hash4(data: bytes, position: int, index_bits: int) -> int:
    """Multiplicative hash of the 4 bytes at ``position``."""
    word = int.from_bytes(data[position:position + 4], "little")
    return ((word * 2654435761) & 0xFFFFFFFF) >> (32 - index_bits)


def tcomp32_reference(data: bytes) -> Tuple[bytes, int]:
    """tcomp32 payload and total significant bits, one word at a time."""
    words = np.frombuffer(data, dtype=np.uint32)
    writer = BitWriter()
    writer.write_bytes(_HEADER.pack(len(words)))
    total_significant_bits = 0
    for number in words.tolist():
        n = 1 if number == 0 else number.bit_length()
        total_significant_bits += n
        writer.write(n - 1, _TCOMP32_LENGTH_BITS)
        writer.write(number, n)
    return writer.getvalue(), total_significant_bits


class Tdic32Reference:
    """tdic32's encoder as a sequential loop over one dictionary."""

    def __init__(self, index_bits: int = 12) -> None:
        self.index_bits = index_bits
        self.table = np.full(1 << index_bits, -1, dtype=np.int64)

    def compress(self, data: bytes) -> Tuple[bytes, int]:
        """Payload and hit count; the table carries over to the next call."""
        words = np.frombuffer(data, dtype=np.uint32)
        writer = BitWriter()
        writer.write_bytes(_HEADER.pack(len(words)))
        table = self.table
        index_bits = self.index_bits
        hits = 0
        for number in words.tolist():
            slot = tdic32_hash(number, index_bits)
            previous = table[slot]
            table[slot] = number
            if previous == number:
                hits += 1
                writer.write(1, 1)
                writer.write(slot, index_bits)
            else:
                writer.write(0, 1)
                writer.write(number, _TDIC32_LITERAL_BITS)
        return writer.getvalue(), hits


def compute_latency_reference(
    model, stage: int, core_id: int, replicas: int
) -> float:
    """Eq 6 l_comp of one replica from the fitted η curve."""
    eta = model._eta(model.stage_kappa(stage), core_id)
    instructions = model.stage_instructions(stage) / replicas
    overhead = replication_factor(
        model.board.replication_latency_overhead, replicas
    )
    scale = model.latency_scale.get(stage, 1.0)
    return (
        scale * instructions * overhead / eta
        / model.profile.batch_size_bytes
    )


def task_energy_reference(
    model, stage: int, core_id: int, replicas: int
) -> float:
    """Eq 4 computation energy of one replica from the fitted ζ curve."""
    zeta = model._zeta(model.stage_kappa(stage), core_id)
    instructions = model.stage_instructions(stage) / replicas
    overhead = replication_factor(
        model.board.replication_energy_overhead, replicas
    )
    return instructions * overhead / zeta / model.profile.batch_size_bytes


def _communication(
    model, producer_stage: int, core_id: int, upstream_cores, replicas: int
) -> Tuple[float, float]:
    """(l_comm, e_comm) of one replica from one producer stage."""
    if not model.communication_aware:
        return 0.0, 0.0
    table = model.communication
    share = (
        model.stage_output_bytes(producer_stage)
        / replicas
        / len(upstream_cores)
    )
    total_us = 0.0
    total_uj = 0.0
    for producer_core in upstream_cores:
        path = model.board.path_between(producer_core, core_id)
        total_us += share * table.unit_cost(path)
        total_us += table.overhead(path)
        total_uj += table.energy(path)
    batch = model.profile.batch_size_bytes
    return total_us / batch, total_uj / batch


def evaluate_reference(model, plan: SchedulingPlan) -> PlanEstimate:
    """:meth:`CostModel.evaluate` without the lookup tables."""
    estimates = []
    core_load: Dict[int, float] = {}
    for stage, cores in enumerate(plan.assignments):
        replicas = len(cores)
        for replica_index, core_id in enumerate(cores):
            l_comp = compute_latency_reference(
                model, stage, core_id, replicas
            )
            l_comm = 0.0
            e_comm = 0.0
            for producer_stage in plan.graph.predecessors_of(stage):
                latency, energy = _communication(
                    model, producer_stage, core_id,
                    plan.assignments[producer_stage], replicas,
                )
                l_comm += latency
                e_comm += energy
            estimates.append(
                TaskEstimate(
                    stage_index=stage,
                    replica_index=replica_index,
                    core_id=core_id,
                    kappa=model.stage_kappa(stage),
                    l_comp_us_per_byte=l_comp,
                    l_comm_us_per_byte=l_comm,
                    energy_uj_per_byte=(
                        task_energy_reference(model, stage, core_id, replicas)
                        + e_comm
                    ),
                )
            )
            core_load[core_id] = core_load.get(core_id, 0.0) + l_comp
    return _finish_reference(model, plan, estimates, core_load)


def _finish_reference(model, plan, estimates, core_load) -> PlanEstimate:
    """Eqs 1-3 and the critical path folded over built estimates."""
    latency = max(
        max(est.l_us_per_byte for est in estimates),
        max(core_load.values()),
    )
    energy = 0.0
    for est in estimates:
        energy += est.energy_uj_per_byte
    stage_latency: Dict[int, float] = {}
    for est in estimates:
        if est.l_us_per_byte > stage_latency.get(est.stage_index, 0.0):
            stage_latency[est.stage_index] = est.l_us_per_byte
    path_to: Dict[int, float] = {}
    for stage in range(plan.graph.stage_count):
        longest_producer = 0.0
        for producer in plan.graph.predecessors_of(stage):
            longest_producer = max(longest_producer, path_to[producer])
        path_to[stage] = stage_latency.get(stage, 0.0) + longest_producer
    budget = model.guard_band * model.latency_constraint_us_per_byte
    reason = ""
    if latency > budget:
        reason = f"L_est {latency:.2f} µs/B exceeds budget {budget:.2f} µs/B"
    return PlanEstimate(
        plan=plan,
        task_estimates=tuple(estimates),
        latency_us_per_byte=latency,
        energy_uj_per_byte=energy,
        feasible=not reason,
        infeasibility_reason=reason,
        core_load_us_per_byte=core_load,
        critical_path_us_per_byte=path_to[plan.graph.stage_count - 1],
    )
