"""The package's one implementation per mechanism equals its scalar oracle.

Each vectorized or table-driven path in ``src`` is compared against the
straightforward loop it replaced (``tests/oracles.py``), on randomized
plans and randomized payloads rather than only the curated fixtures:

* the cost model's lookup tables hold exactly what the scalar helpers
  compute, including under κ drift, a frequency map and a degraded
  path, and :meth:`CostModel.evaluate` equals the table-free oracle;
* the branch-and-bound's leaf score (:meth:`CostModel.price` over
  per-search replica rows) is evaluate()'s L_est, E_est and
  feasibility bit for bit, on chain and fork-join plans, and a fixed
  set of searches walks the tree it walked before leaf scoring;
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
    compute_latency_reference,
    evaluate_reference,
    hash4,
    task_energy_reference,
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


def _profiled_context(codec, constraint):
    from repro.compression import get_codec
    from repro.core.baselines import WorkloadContext
    from repro.core.profiler import profile_workload
    from repro.datasets import get_dataset
    from repro.simcore.boards import rk3399

    profile = profile_workload(
        get_codec(codec), get_dataset("rovio"), 8192, batches=3
    )
    return WorkloadContext.build(rk3399(), profile, constraint)


@pytest.fixture(scope="module")
def dag_contexts():
    return {
        codec: _profiled_context(codec, 60.0) for codec in ("unlz4", "mltc")
    }


def _leaf_score(model, plan):
    """(L_est, E_est, feasible) the way the branch-and-bound scores a
    leaf: one table fetch, per-stage replica rows, then the pricing
    loop over the bare assignment list — no estimate is built."""
    tables = model._tables()
    stage_costs = [
        model.replica_costs(stage, len(cores), tables)
        for stage, cores in enumerate(plan.assignments)
    ]
    latency, energy, feasible, _, _ = model.price(
        list(plan.assignments), stage_costs, tables
    )
    return latency, energy, feasible


def _bits(latency, energy, feasible):
    return latency.hex(), energy.hex(), feasible


def _variants(context, seed):
    """Fresh models under each way the model can be edited."""
    rng = random.Random(seed)
    graph = context.fine_graph
    drift = context.cost_model(graph)
    drift.kappa_scale = {
        stage: rng.uniform(0.5, 2.0) for stage in range(graph.stage_count)
    }
    frequency = context.cost_model(graph)
    frequency.frequency_map = {
        core.core_id: rng.choice(core.frequency_levels_mhz)
        for core in context.board.cores
    }
    scaled = context.cost_model(graph)
    scaled.latency_scale = {
        stage: rng.uniform(0.7, 1.6) for stage in range(graph.stage_count)
    }
    degraded = context.cost_model(graph)
    degraded.apply_path_degradation(Path.C1, 1.7)
    blind = context.cost_model(graph, communication_aware=False)
    return {
        "kappa_scale": drift,
        "frequency_map": frequency,
        "latency_scale": scaled,
        "path_degradation": degraded,
        "communication_blind": blind,
    }


class TestLeafScoringParity:
    """The leaf score the search prunes and ranks by is what evaluate()
    — and the table-free oracle — report, bit for bit."""

    def _check(self, context, seed):
        plans = _random_plans(context, count=12, seed=seed)
        feasibility = set()
        for name, model in _variants(context, seed).items():
            # a budget at the median leaf latency keeps both verdicts
            latencies = sorted(_leaf_score(model, p)[0] for p in plans)
            model.latency_constraint_us_per_byte = (
                latencies[len(latencies) // 2] / model.guard_band
            )
            for plan in plans:
                score = _bits(*_leaf_score(model, plan))
                estimate = model.evaluate(plan)
                reference = evaluate_reference(model, plan)
                assert score == _bits(
                    estimate.latency_us_per_byte,
                    estimate.energy_uj_per_byte,
                    estimate.feasible,
                ), name
                assert score == _bits(
                    reference.latency_us_per_byte,
                    reference.energy_uj_per_byte,
                    reference.feasible,
                ), name
                assert estimate == reference, name
                feasibility.add(score[2])
        assert feasibility == {True, False}

    def test_chain_plans(self, context):
        self._check(context, seed=41)

    @pytest.mark.parametrize("codec", ["unlz4", "mltc"])
    def test_dag_plans(self, dag_contexts, codec):
        assert not dag_contexts[codec].fine_graph.is_chain
        self._check(dag_contexts[codec], seed=43)

    def test_replica_rows_match_reference(self, context, dag_contexts):
        """The per-search rows (and the helpers reading them) equal the
        curve-walking oracle for every core and replica count."""
        for ctx in (context, *dag_contexts.values()):
            for model in _variants(ctx, seed=47).values():
                tables = model._tables()
                for stage in range(model.graph.stage_count):
                    for replicas in (1, 2, 3):
                        latency, energy = model.replica_costs(
                            stage, replicas, tables
                        )
                        for core in tables.core_ids:
                            assert latency[core] == compute_latency_reference(
                                model, stage, core, replicas
                            )
                            assert energy[core] == task_energy_reference(
                                model, stage, core, replicas
                            )
                            assert model.compute_latency(
                                stage, core, replicas
                            ) == latency[core]
                            assert model.task_energy(
                                stage, core, replicas
                            ) == energy[core]


def _pinned_schedule_calls(context, dag_contexts):
    """A fixed set of schedule() calls: chain and DAG graphs, iterative
    scaling, warm starts, drift, a survivor subset, a blind model."""
    from repro.core.scheduler import Scheduler

    calls = {}
    chain = context.cost_model(context.fine_graph)
    calls["tcomp32"] = Scheduler(chain).schedule(best_effort=True)
    tight = context.cost_model(context.fine_graph)
    tight.latency_constraint_us_per_byte = 9.0
    calls["tcomp32-tight"] = Scheduler(tight).schedule(best_effort=True)
    chain.latency_scale = {0: 1.4}
    calls["tcomp32-warm"] = Scheduler(chain).schedule(
        best_effort=True, warm_start=calls["tcomp32"].plan
    )
    drifted = context.cost_model(context.fine_graph)
    drifted.kappa_scale = {0: 1.6, 1: 0.7}
    calls["tcomp32-kappa"] = Scheduler(drifted).schedule(best_effort=True)
    survivors = context.cost_model(context.fine_graph)
    calls["tcomp32-survivors"] = Scheduler(
        survivors, allowed_cores=(1, 2, 5)
    ).schedule(best_effort=True)
    for codec, ctx in sorted(dag_contexts.items()):
        model = ctx.cost_model(ctx.fine_graph)
        calls[codec] = Scheduler(model).schedule(best_effort=True)
        blind = ctx.cost_model(ctx.fine_graph, communication_aware=False)
        calls[f"{codec}-blind"] = Scheduler(blind).schedule(best_effort=True)
        model.latency_scale = {ctx.fine_graph.stage_count - 1: 1.5}
        calls[f"{codec}-warm"] = Scheduler(model).schedule(
            best_effort=True, warm_start=calls[codec].plan
        )
    return {
        name: (
            result.search_stats.nodes_expanded,
            result.search_stats.branches_pruned,
            result.search_stats.plans_evaluated,
            result.search_stats.scaling_rounds,
            result.search_stats.warm_start_hits,
        )
        for name, result in calls.items()
    }


#: (nodes_expanded, branches_pruned, plans_evaluated, scaling_rounds,
#: warm_start_hits) of each pinned call, as recorded before leaf scoring
#: replaced per-leaf evaluate() — the search must walk the same tree
PINNED_SEARCH_STATS = {
    "mltc": (108, 6, 66, 3, 0),
    "mltc-blind": (33, 24, 9, 3, 4),
    "mltc-warm": (111, 3, 69, 3, 0),
    "tcomp32": (25, 23, 15, 5, 10),
    "tcomp32-kappa": (28, 20, 18, 5, 9),
    "tcomp32-survivors": (11, 3, 7, 2, 1),
    "tcomp32-tight": (55, 4, 42, 5, 0),
    "tcomp32-warm": (24, 24, 14, 5, 11),
    "unlz4": (71, 17, 34, 4, 1),
    "unlz4-blind": (38, 34, 9, 4, 0),
    "unlz4-warm": (21, 19, 8, 4, 3),
}


def test_search_stats_pinned(context, dag_contexts):
    assert _pinned_schedule_calls(context, dag_contexts) == (
        PINNED_SEARCH_STATS
    )


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
