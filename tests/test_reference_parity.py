"""The package's one implementation per mechanism equals its scalar oracle.

Each vectorized or table-driven path in ``src`` is compared against the
straightforward loop it replaced (``tests/oracles.py``), on randomized
plans and randomized payloads rather than only the curated fixtures:

* the cost model's lookup tables hold exactly what the scalar helpers
  compute, including under κ drift, a frequency map and a degraded
  path, and :meth:`CostModel.evaluate` equals the table-free oracle;
* lz4's numpy hashing equals the scalar 4-byte hash at every position;
* the tcomp32 and tdic32 encoders equal their word-by-word loops.
"""

import random

import numpy as np
import pytest

from repro.compression.lz4 import Lz4, _MATCH_SEARCH_MARGIN, _hash_all
from repro.compression.tcomp32 import Tcomp32
from repro.compression.tdic32 import Tdic32
from repro.core.plan import SchedulingPlan
from repro.simcore.hardware import replication_factor
from repro.simcore.interconnect import Path
from tests.oracles import (
    Tdic32Reference,
    evaluate_reference,
    hash4,
    tcomp32_reference,
)


@pytest.fixture(scope="module")
def context():
    from repro.compression import get_codec
    from repro.core.baselines import WorkloadContext
    from repro.core.profiler import profile_workload
    from repro.datasets import get_dataset
    from repro.simcore.boards import rk3399

    profile = profile_workload(
        get_codec("tcomp32"), get_dataset("rovio"), 8192, batches=4
    )
    return WorkloadContext.build(rk3399(), profile, 26.0)


def _random_plans(context, count, seed):
    """Random (possibly replicated, possibly colocated) plans."""
    rng = random.Random(seed)
    graph = context.fine_graph
    core_ids = [core.core_id for core in context.board.cores]
    plans = []
    for _ in range(count):
        assignments = tuple(
            tuple(
                rng.choice(core_ids)
                for _ in range(rng.randint(1, min(3, len(core_ids))))
            )
            for _ in range(graph.stage_count)
        )
        plans.append(SchedulingPlan(graph=graph, assignments=assignments))
    return plans


def _drifted_model(context, seed):
    """A model with randomized κ drift and a mixed frequency map."""
    rng = random.Random(seed)
    model = context.cost_model(context.fine_graph)
    model.kappa_scale = {
        stage: rng.uniform(0.5, 2.0)
        for stage in range(model.graph.stage_count)
        if rng.random() < 0.7
    }
    model.latency_scale = {0: rng.uniform(0.8, 1.3)}
    model.frequency_map = {
        core.core_id: rng.choice(core.frequency_levels_mhz)
        for core in context.board.cores
    }
    return model


def _assert_tables_match_helpers(model):
    tables = model._tables()
    board = model.board
    core_ids = sorted(board.core_by_id)
    for stage in range(model.graph.stage_count):
        kappa = model.stage_kappa(stage)
        assert tables.kappas[stage] == kappa
        assert tables.instructions[stage] == model.stage_instructions(stage)
        assert tables.output_bytes[stage] == model.stage_output_bytes(stage)
        for core_id in core_ids:
            assert tables.eta[stage][core_id] == model._eta(kappa, core_id)
            assert tables.zeta[stage][core_id] == model._zeta(kappa, core_id)
    communication = model.communication
    for producer in core_ids:
        for consumer in core_ids:
            path = board.path_between(producer, consumer)
            assert tables.comm_unit[producer][consumer] == (
                communication.unit_cost(path)
            )
            assert tables.comm_overhead[producer][consumer] == (
                communication.overhead(path)
            )
            assert tables.comm_energy[producer][consumer] == (
                communication.energy(path)
            )
    for replicas in (1, 2, 3):
        assert tables.replication_latency(replicas) == replication_factor(
            board.replication_latency_overhead, replicas
        )
        assert tables.replication_energy(replicas) == replication_factor(
            board.replication_energy_overhead, replicas
        )


class TestCostModelParity:
    def test_randomized_plans_match_reference(self, context):
        """evaluate() equals the table-free oracle on random plans."""
        plans = _random_plans(context, count=25, seed=20260808)
        model = context.cost_model(context.fine_graph)
        for plan in plans:
            assert model.evaluate(plan) == evaluate_reference(model, plan)

    def test_tables_match_scalar_helpers(self, context):
        """Every table entry is what _eta/_zeta/stage_*/the
        communication table compute — under κ drift and a frequency
        map, and again after a path degradation rebuilds the tables."""
        for seed in (3, 11, 29):
            model = _drifted_model(context, seed)
            _assert_tables_match_helpers(model)
            for plan in _random_plans(context, count=5, seed=seed):
                assert model.evaluate(plan) == evaluate_reference(model, plan)
            model.apply_path_degradation(Path.C1, 1.0 + seed / 10.0)
            _assert_tables_match_helpers(model)
            for plan in _random_plans(context, count=5, seed=seed + 1):
                assert model.evaluate(plan) == evaluate_reference(model, plan)

    def test_per_task_estimates_match_reference(self, context):
        model = _drifted_model(context, seed=5)
        for plan in _random_plans(context, count=10, seed=77):
            actual = model.evaluate(plan).task_estimates
            expected = evaluate_reference(model, plan).task_estimates
            assert actual == expected


def _payloads():
    rng = random.Random(13)
    payloads = []
    for size in (0, 5, 64, 1024, 16384):
        payloads.append(bytes(rng.randrange(256) for _ in range(size)))
        payloads.append((b"sensor-0042;" * (size // 12 + 1))[:size])
        words = [rng.choice((0, 1, 7, 255, 1 << 20, 0xFFFFFFFF))
                 for _ in range(size // 4)]
        payloads.append(np.asarray(words, dtype=np.uint32).tobytes())
    return payloads


class TestLz4Parity:
    def test_hash_all_matches_scalar_hash(self):
        for index_bits in (8, 12, 16):
            for data in _payloads():
                limit = len(data) - _MATCH_SEARCH_MARGIN
                expected = [
                    hash4(data, position, index_bits)
                    for position in range(max(limit, 0))
                ]
                assert _hash_all(data, limit, index_bits) == expected

    def test_encoder_with_scalar_hash_byte_identical(self, monkeypatch):
        """Feeding the encoder the oracle's per-position hashes changes
        no payload byte, counter or step cost."""
        import repro.compression.lz4 as lz4_module

        def scalar_hash_all(data, limit, index_bits):
            return [hash4(data, p, index_bits) for p in range(max(limit, 0))]

        codecs = [Lz4(), Lz4(index_bits=8, max_search_length=32)]
        for data in _payloads():
            for codec in codecs:
                fast = codec.compress(data)
                monkeypatch.setattr(lz4_module, "_hash_all", scalar_hash_all)
                scalar = codec.compress(data)
                monkeypatch.undo()
                assert fast.payload == scalar.payload
                assert fast.counters == scalar.counters
                assert fast.step_costs == scalar.step_costs

    def test_round_trips(self):
        codecs = [Lz4(), Lz4(index_bits=8, max_search_length=32)]
        for data in _payloads():
            for codec in codecs:
                assert codec.decompress(codec.compress(data).payload) == data


class TestWordCodecParity:
    def test_tcomp32_matches_reference(self):
        for data in _payloads():
            if len(data) % 4:
                continue
            result = Tcomp32().compress(data)
            payload, significant_bits = tcomp32_reference(data)
            assert result.payload == payload
            assert result.counters["significant_bits"] == significant_bits

    @pytest.mark.parametrize("index_bits", [2, 12])
    def test_tdic32_matches_reference_across_batches(self, index_bits):
        codec = Tdic32(index_bits=index_bits)
        reference = Tdic32Reference(index_bits=index_bits)
        for data in _payloads():
            if len(data) % 4:
                continue
            result = codec.compress(data)
            payload, hits = reference.compress(data)
            assert result.payload == payload
            assert result.counters["hits"] == hits
            assert np.array_equal(codec._table, reference.table)
