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
* :meth:`Scheduler.search`, which scores leaves from the folds its walk
  carries, returns the plans and counters of the per-leaf-pricing
  search on randomized replica counts, budgets, core subsets, blind
  models and incumbent bounds;
* lz4's numpy prefix words and hashing equal the scalar 4-byte reads
  and hash at every position, and its word-compare scan equals the
  slice-compare encoder;
* the tcomp32 and tdic32 encoders equal their word-by-word loops;
* mltc's array split, vectorized predictor and packed residuals equal
  the per-sample encoder and decoder;
* the sensor, stock and micro-symbol generators equal their per-tuple
  numpy-scalar loops, and the paper-grid dry-run profiles are pinned.
"""

import random
import struct

import numpy as np
import pytest

from repro.compression.lz4 import (
    Lz4,
    _MATCH_SEARCH_MARGIN,
    _hash_all,
    _prefix_words,
)
from repro.compression.mltc import (
    _HEADER as _MLTC_HEADER,
    Mltc,
    _interpolate,
    _reconstruct,
)
from repro.compression.tcomp32 import Tcomp32
from repro.compression.tdic32 import Tdic32
from repro.core.plan import SchedulingPlan
from repro.simcore.hardware import replication_factor
from repro.simcore.interconnect import Path
from repro.datasets import (
    MicroDataset,
    SensorDataset,
    StockDataset,
    get_dataset,
)
from tests.oracles import (
    Lz4Reference,
    MltcReference,
    Tdic32Reference,
    compute_latency_reference,
    evaluate_reference,
    hash4,
    micro_symbol_reference,
    predict_reference,
    search_reference,
    sensor_reference,
    stock_reference,
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


class TestSearchParity:
    """search() scores each leaf from the pricing folds its walk carries
    and builds only the final winners; the oracle prices every leaf from
    scratch. Same best and fastest estimates, same tree walked."""

    def _check(self, ctx, seed, count=16):
        from repro.core.scheduler import Scheduler

        rng = random.Random(seed)
        graph = ctx.fine_graph
        core_ids = [core.core_id for core in ctx.board.cores]
        seen = set()
        for _ in range(count):
            model = ctx.cost_model(
                graph, communication_aware=rng.random() < 0.75
            )
            allowed = None
            if rng.random() < 0.4:
                allowed = rng.sample(core_ids, rng.randint(2, len(core_ids)))
            scheduler = Scheduler(model, allowed_cores=allowed)
            replica_counts = tuple(
                rng.randint(1, 3) for _ in range(graph.stage_count)
            )
            # a budget around the fastest leaf keeps both verdicts
            _, fastest, _, _ = search_reference(scheduler, replica_counts)
            model.latency_constraint_us_per_byte = (
                fastest.latency_us_per_byte * rng.uniform(0.9, 1.5)
                / model.guard_band
            )
            bound = None
            if rng.random() < 0.5:
                bound = fastest.energy_uj_per_byte * rng.uniform(0.6, 1.4)
            best, fastest, evaluated, counters = search_reference(
                scheduler, replica_counts, bound
            )
            assert scheduler.search(replica_counts, initial_bound=bound) == (
                best, fastest, evaluated
            )
            assert scheduler.last_search_counters == counters
            seen.add((
                best is not None,
                bound is not None,
                model.communication_aware,
                allowed is not None,
            ))
            if counters["warm_pruned"]:
                seen.add("warm_pruned")
        # the draws reach every arm the walk distinguishes
        assert {key[0] for key in seen if key != "warm_pruned"} == {
            True, False
        }
        assert "warm_pruned" in seen
        assert len(seen) >= 6

    def test_chain(self, context):
        self._check(context, seed=53)

    @pytest.mark.parametrize("codec", ["unlz4", "mltc"])
    def test_dag(self, dag_contexts, codec):
        assert not dag_contexts[codec].fine_graph.is_chain
        self._check(dag_contexts[codec], seed=59)


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


def _assert_same_result(result, expected):
    assert result.payload == expected.payload
    assert result.counters == expected.counters
    assert result.step_costs == expected.step_costs


class TestLz4Parity:
    def test_hash_all_matches_scalar_hash(self):
        for index_bits in (8, 12, 16):
            for data in _payloads():
                limit = len(data) - _MATCH_SEARCH_MARGIN
                positions = range(max(limit, 0))
                words = _prefix_words(data, limit)
                assert words.tolist() == [
                    int.from_bytes(data[p:p + 4], "little")
                    for p in positions
                ]
                expected = [hash4(data, p, index_bits) for p in positions]
                assert _hash_all(words, index_bits) == expected

    def test_encoder_with_scalar_hash_byte_identical(self):
        """The word-compare scan over numpy hashes changes no payload
        byte, counter or step cost against the slice-compare encoder
        with per-position scalar hashes."""
        options = [{}, {"index_bits": 8, "max_search_length": 32},
                   {"index_bits": 16}]
        for data in _payloads():
            for option in options:
                _assert_same_result(
                    Lz4(**option).compress(data),
                    Lz4Reference(**option).compress(data),
                )

    def test_inputs_inside_the_search_margin(self):
        rng = random.Random(5)
        for size in range(0, _MATCH_SEARCH_MARGIN + 6):
            for data in (
                bytes(rng.randrange(256) for _ in range(size)),
                b"\x00" * size,
            ):
                result = Lz4().compress(data)
                _assert_same_result(result, Lz4Reference().compress(data))
                assert Lz4().decompress(result.payload) == data

    @pytest.mark.parametrize("name", ["rovio", "stock", "sensor"])
    def test_dataset_batches_byte_identical(self, name):
        for batch in get_dataset(name).stream(16384, 3, seed=1):
            _assert_same_result(
                Lz4().compress(batch), Lz4Reference().compress(batch)
            )

    def test_offsets_past_one_byte_and_the_window(self):
        """Matches 40,000 bytes back use both offset bytes; a repeat
        110,000 bytes back lies outside the 64 KiB window."""
        rng = random.Random(9)
        block = rng.randbytes(40_000)
        for data in (block + block, block + rng.randbytes(70_000) + block):
            result = Lz4().compress(data)
            _assert_same_result(result, Lz4Reference().compress(data))
            assert Lz4().decompress(result.payload) == data
        # random bytes: the matches are the 40,000-byte repeats
        assert Lz4().compress(block + block).counters["matched_bytes"] > (
            20_000
        )

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


MLTC_CHANNELS = (1, 2, 3, 16)
MLTC_EPSILONS = (0, 16, 1000)


def _mltc_inputs():
    """Telemetry-like and adversarial word streams whose word counts
    are not multiples of most channel counts, each with a 0-3 byte
    tail."""
    rng = np.random.default_rng(7)
    smooth = np.cumsum(rng.integers(-40, 41, size=1001)) + 50_000
    ramp = np.arange(0, 1003 * 997, 997)
    edges = np.tile([0, 0xFFFFFFFF, 0xFFFFFFFF, 0, 1], 61)
    streams = [
        smooth.astype(np.uint32).tobytes(),
        ramp.astype(np.uint32).tobytes(),
        edges.astype(np.uint32).tobytes(),
        rng.integers(0, 1 << 32, size=517, dtype=np.uint32).tobytes(),
        np.full(333, 7, dtype=np.uint32).tobytes(),
    ]
    for name in ("rovio", "stock", "sensor"):
        streams.append(get_dataset(name).generate(4100, seed=1)[:4084])
    inputs = [b"", b"\x01", b"\x01\x02\x03", b"\x05\x00\x00\x00"]
    for index, stream in enumerate(streams):
        inputs.append(stream + bytes(range(1, 1 + index % 4)))
    return inputs


def _channel_blobs(payload, channels):
    position = _MLTC_HEADER.size
    for _ in range(channels):
        (length,) = struct.unpack_from("<I", payload, position)
        position += 4
        yield payload[position:position + length]
        position += length


class TestMltcParity:
    @pytest.mark.parametrize("channels", MLTC_CHANNELS)
    def test_encoder_matches_per_sample_reference(self, channels):
        for epsilon in MLTC_EPSILONS:
            codec = Mltc(channels=channels, epsilon=epsilon)
            reference = MltcReference(channels=channels, epsilon=epsilon)
            for data in _mltc_inputs():
                _assert_same_result(
                    codec.compress(data), reference.compress(data)
                )

    @pytest.mark.parametrize("channels", MLTC_CHANNELS)
    def test_decoder_matches_per_sample_reference(self, channels):
        for epsilon in MLTC_EPSILONS:
            codec = Mltc(channels=channels, epsilon=epsilon)
            reference = MltcReference(channels=channels, epsilon=epsilon)
            for data in _mltc_inputs():
                payload = codec.compress(data).payload
                for blob in _channel_blobs(payload, channels):
                    decoded = codec._decode_channel(blob, len(data) // 4)
                    assert decoded.tolist() == (
                        reference.decode_channel_reference(blob)
                    )
                assert codec.decompress(payload) == data

    @pytest.mark.parametrize("name", ["rovio", "stock", "sensor"])
    def test_paper_grid_batches_byte_identical(self, name):
        for batch in get_dataset(name).stream(16384, 3, seed=1):
            _assert_same_result(
                Mltc().compress(batch), MltcReference().compress(batch)
            )

    def test_reconstruct_matches_reference(self):
        rng = random.Random(11)
        for _ in range(200):
            first = rng.randrange(1 << 32)
            segments = [
                (rng.randint(1, 40), rng.randrange(1 << 32))
                for _ in range(rng.randint(0, 6))
            ]
            count = 1 + sum(length for length, _ in segments)
            lengths = [length for length, _ in segments]
            ends = [end for _, end in segments]
            assert _reconstruct(first, lengths, ends, count).tolist() == (
                MltcReference.reconstruct_reference(first, segments, count)
            )

    def test_interpolation_exact_beyond_float_products(self):
        """Segments over 2**21 samples give products float64 cannot
        hold; those are divided as Python ints, so the predictions
        still equal the reference."""
        rng = random.Random(3)
        cases = [(0, 4228464306, 4923987, 4924133)]
        for _ in range(300):
            length = rng.randrange((1 << 21) + 1, 1 << 30)
            cases.append((
                rng.randrange(1 << 32), rng.randrange(1 << 32),
                rng.randrange(1, length + 1), length,
            ))
        cases += [(5, 9, 3, 4), (9, 5, 1, 2), (0, 1, 1, 2)]
        bases, ends, offsets, lengths = (
            np.array(column, dtype=np.int64) for column in zip(*cases)
        )
        # float64 division alone rounds the first case to the wrong int
        plain = np.rint(bases + (ends - bases) * offsets / lengths)
        assert int(plain[0]) == predict_reference(*cases[0]) + 1
        assert _interpolate(bases, ends, offsets, lengths).tolist() == [
            predict_reference(*case) for case in cases
        ]


DATASET_SEEDS = (0, 1, 2, 42)
DATASET_SIZES = (0, 1, 7, 1000)


def _generated(dataset, reference, tuple_count, seed):
    return (
        dataset._generate_tuples(tuple_count, np.random.default_rng(seed)),
        reference(dataset, tuple_count, np.random.default_rng(seed)),
    )


class TestDatasetParity:
    @pytest.mark.parametrize(
        "dataset",
        [SensorDataset(), SensorDataset(station_count=3, value_walk_step=60_000)],
        ids=["default", "clipping"],
    )
    def test_sensor_matches_reference(self, dataset):
        for seed in DATASET_SEEDS:
            for size in DATASET_SIZES:
                fast, reference = _generated(
                    dataset, sensor_reference, size, seed
                )
                assert fast == reference

    def test_sensor_clips_at_both_bounds(self):
        dataset = SensorDataset(station_count=3, value_walk_step=60_000)
        data, reference = _generated(dataset, sensor_reference, 1000, 1)
        assert data == reference
        assert b"v=00000/" in data and b"v=99999/" in data

    @pytest.mark.parametrize(
        "dataset",
        [StockDataset(), StockDataset(instrument_count=3, base_price=100,
                                      price_step=1000)],
        ids=["default", "floor"],
    )
    def test_stock_matches_reference(self, dataset):
        for seed in DATASET_SEEDS:
            for size in DATASET_SIZES:
                fast, reference = _generated(
                    dataset, stock_reference, size, seed
                )
                assert fast == reference

    def test_stock_price_floor_reached(self):
        dataset = StockDataset(instrument_count=3, base_price=100,
                               price_step=1000)
        data, reference = _generated(dataset, stock_reference, 1000, 2)
        assert data == reference
        payloads = np.frombuffer(data, dtype=np.uint32)[1::2]
        assert 1 in payloads.tolist()

    @pytest.mark.parametrize("duplication", [0.0, 0.3, 0.95, 1.0])
    def test_micro_symbol_stream_matches_reference(self, duplication):
        dataset = MicroDataset(dynamic_range=1 << 20,
                               symbol_duplication=duplication)
        for seed in DATASET_SEEDS:
            for size in DATASET_SIZES[1:]:
                rng = np.random.default_rng(seed)
                fast = dataset._generate_symbol_stream(size, rng)
                reference = micro_symbol_reference(
                    dataset, size, np.random.default_rng(seed)
                )
                assert fast == reference
        assert dataset.generate(0) == b""


#: WorkloadProfile.fingerprint() of every codec x dataset dry run at the
#: paper-grid configuration (16 KiB batches, 6 + 1 warm-up batches,
#: seed 1), recorded from the per-element generators and encoders
PINNED_PROFILE_FINGERPRINTS = {
    ("tcomp32", "rovio"): "f47dafb35a63c3ca",
    ("tcomp32", "stock"): "7babb9ed4101ac86",
    ("tcomp32", "sensor"): "5374dda78b34b26a",
    ("lz4", "rovio"): "d97cd44935cf3585",
    ("lz4", "stock"): "ce1028ec02139d87",
    ("lz4", "sensor"): "b57fa93356b5b47d",
    ("tdic32", "rovio"): "64ed90d1ea609dbd",
    ("tdic32", "stock"): "1280cc6e72a64897",
    ("tdic32", "sensor"): "44c70f12642ed545",
    ("unlz4", "rovio"): "59c1b9857a74f2e8",
    ("unlz4", "stock"): "636c8a90282d9a06",
    ("unlz4", "sensor"): "4afa409751efcac6",
    ("mltc", "rovio"): "654384634904efac",
    ("mltc", "stock"): "5b83e6d8a8e15d69",
    ("mltc", "sensor"): "7421b82547ca3a28",
}


def test_paper_grid_profiles_pinned():
    from repro.bench.harness import WorkloadSpec
    from repro.core.profiler import profile_workload

    fingerprints = {}
    for codec, dataset in PINNED_PROFILE_FINGERPRINTS:
        spec = WorkloadSpec.of(codec, dataset, batch_size=16 * 1024)
        profile = profile_workload(
            spec.make_codec(), spec.make_dataset(), spec.batch_size,
            batches=6, seed=1,
        )
        fingerprints[(codec, dataset)] = profile.fingerprint()
    assert fingerprints == PINNED_PROFILE_FINGERPRINTS
