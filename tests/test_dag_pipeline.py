"""DAG pipelines end to end: shape model, decomposition, execution,
registry.

The chain pipeline is now the degenerate case of a DAG — these tests
cover everything the generalization added: explicit ``predecessors`` on
:class:`~repro.core.task.Task`, join-coverage validation on
:class:`~repro.core.task.TaskGraph`, DAG-aware decomposition of codec
step graphs, fork-join routing with a deterministic join barrier in the
executor, the critical-path estimate in the cost model, and the codec
registry that lets DAG workloads (``unlz4``, ``mltc``) join the grid
without editing ``repro/compression/__init__``.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import Harness, WorkloadSpec
from repro.compression import codec_names, get_codec, register_codec
from repro.compression.base import StatelessCompressor
from repro.core.baselines import WorkloadContext
from repro.core.decomposition import validate_step_dependencies
from repro.core.profiler import profile_workload
from repro.core.scheduler import Scheduler
from repro.core.task import Task, TaskGraph
from repro.datasets import get_dataset
from repro.errors import ConfigurationError
from tests.oracles import evaluate_reference

TEST_BATCH = 8192
RELAXED_CONSTRAINT = 60.0


@pytest.fixture(scope="module")
def unlz4_context(board):
    profile = profile_workload(
        get_codec("unlz4"), get_dataset("rovio"), TEST_BATCH, batches=3
    )
    return WorkloadContext.build(board, profile, RELAXED_CONSTRAINT)


def fork_join_graph():
    """d0 -> {d1, d2} -> d3, one step per task."""
    return TaskGraph(
        codec_name="toy-dag",
        tasks=(
            Task(name="t0", step_ids=("d0",), stage_index=0),
            Task(name="t1", step_ids=("d1",), stage_index=1,
                 predecessors=(0,)),
            Task(name="t2", step_ids=("d2",), stage_index=2,
                 predecessors=(0,)),
            Task(name="t3", step_ids=("d3",), stage_index=3,
                 predecessors=(1, 2)),
        ),
    )


class TestTaskShape:
    def test_chain_predecessors_are_implicit(self):
        task = Task(name="t1", step_ids=("s1",), stage_index=1)
        assert task.predecessors == (0,)
        assert task.is_chain_stage

    def test_root_task_has_no_predecessors(self):
        task = Task(name="t0", step_ids=("s0",), stage_index=0)
        assert task.predecessors == ()
        assert task.is_chain_stage

    def test_forward_predecessor_rejected(self):
        with pytest.raises(ConfigurationError, match="topological"):
            Task(name="t1", step_ids=("s1",), stage_index=1,
                 predecessors=(1,))

    def test_negative_predecessor_rejected(self):
        with pytest.raises(ConfigurationError):
            Task(name="t1", step_ids=("s1",), stage_index=1,
                 predecessors=(-1,))

    def test_predecessors_normalized_sorted_unique(self):
        task = Task(name="t3", step_ids=("s3",), stage_index=3,
                    predecessors=(2, 1, 2))
        assert task.predecessors == (1, 2)
        assert not task.is_chain_stage


class TestTaskGraphShape:
    def test_fork_join_navigation(self):
        graph = fork_join_graph()
        assert not graph.is_chain
        assert graph.roots() == (0,)
        assert graph.sink_index == 3
        assert graph.predecessors_of(3) == (1, 2)
        assert graph.successors_of(0) == (1, 2)

    def test_join_coverage_enforced(self):
        # t1 produces output nobody consumes: rejected with the codec
        # named, so the error is actionable from a bench log.
        with pytest.raises(ConfigurationError) as caught:
            TaskGraph(
                codec_name="toy-dag",
                tasks=(
                    Task(name="t0", step_ids=("d0",), stage_index=0),
                    Task(name="t1", step_ids=("d1",), stage_index=1,
                         predecessors=(0,)),
                    Task(name="t2", step_ids=("d2",), stage_index=2,
                         predecessors=(0,)),
                ),
            )
        assert "toy-dag" in str(caught.value)
        assert "t1" in str(caught.value)

    def test_errors_name_the_codec(self):
        with pytest.raises(ConfigurationError, match="toy-dag"):
            TaskGraph(codec_name="toy-dag", tasks=())

    def test_describe_annotates_dag_joins(self):
        description = fork_join_graph().describe()
        assert description == (
            "t0[d0] ; t1[d1]<-[t0] ; t2[d2]<-[t0] ; t3[d3]<-[t1,t2]"
        )

    def test_chain_describe_unchanged(self):
        graph = TaskGraph(
            codec_name="toy",
            tasks=(
                Task(name="t0", step_ids=("s0", "s1"), stage_index=0),
                Task(name="t1", step_ids=("s2",), stage_index=1),
            ),
        )
        assert graph.describe() == "t0[s0+s1] -> t1[s2]"


class TestStepDependencyValidation:
    def test_unknown_producer_rejected(self):
        with pytest.raises(ConfigurationError, match="toy"):
            validate_step_dependencies(
                "toy", ("a", "b"), {"a": (), "b": ("zz",)}
            )

    def test_forward_producer_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_step_dependencies(
                "toy", ("a", "b"), {"a": ("b",), "b": ()}
            )

    def test_orphan_step_rejected(self):
        # "a" feeds nothing and is not the sink: its output disappears.
        with pytest.raises(ConfigurationError):
            validate_step_dependencies(
                "toy", ("a", "b", "c"), {"a": (), "b": (), "c": ("b",)}
            )

    def test_fork_join_accepted(self):
        validate_step_dependencies(
            "toy",
            ("d0", "d1", "d2", "d3"),
            {"d0": (), "d1": ("d0",), "d2": ("d0",), "d3": ("d1", "d2")},
        )


class TestDagDecomposition:
    def test_profile_carries_step_dependencies(self, unlz4_context):
        assert unlz4_context.profile.dependency_map() == {
            "d0": (), "d1": ("d0",), "d2": ("d0",), "d3": ("d1", "d2"),
        }

    def test_decomposition_is_a_valid_dag(self, unlz4_context):
        graph = unlz4_context.fine_graph
        assert not graph.is_chain
        assert set(graph.covered_steps()) == {"d0", "d1", "d2", "d3"}
        sink_task = graph.tasks[graph.sink_index]
        assert "d3" in sink_task.step_ids

    def test_joins_never_fuse_across_groups(self, unlz4_context):
        graph = unlz4_context.fine_graph
        dependencies = unlz4_context.profile.dependency_map()
        for task in graph.tasks:
            # Within a task, every non-first step's producers must all
            # be inside the task or the group fusion rule was violated.
            inside = set(task.step_ids)
            first = task.step_ids[0]
            for step_id in task.step_ids:
                if step_id == first:
                    continue
                producers = set(dependencies[step_id])
                assert producers <= inside, (task.name, step_id)


class TestDagScheduling:
    @pytest.fixture(scope="class")
    def dag_schedule(self, unlz4_context):
        model = unlz4_context.cost_model(unlz4_context.fine_graph)
        return Scheduler(model).schedule(best_effort=True), model

    def test_critical_path_at_least_bottleneck_stage(self, dag_schedule):
        result, model = dag_schedule
        estimate = result.estimate
        assert estimate.critical_path_us_per_byte > 0.0
        bottleneck = max(
            task.l_us_per_byte for task in estimate.task_estimates
        )
        assert estimate.critical_path_us_per_byte >= bottleneck * 0.999

    def test_scalar_oracle_matches_vectorized_on_dag(self, dag_schedule):
        """evaluate() equals the table-free oracle on a fork-join plan."""
        result, model = dag_schedule
        tabled = model.evaluate(result.plan)
        scalar = evaluate_reference(model, result.plan)
        assert tabled == scalar
        assert (
            tabled.critical_path_us_per_byte
            == scalar.critical_path_us_per_byte
        )


class TestDagExecution:
    @pytest.mark.parametrize("codec", ["unlz4", "mltc"])
    def test_dag_codecs_run_end_to_end(self, board, codec):
        harness = Harness(
            board=board, repetitions=2, batches_per_repetition=4,
            profile_batches=3,
        )
        spec = WorkloadSpec.of(
            codec, "rovio", batch_size=TEST_BATCH,
            latency_constraint=RELAXED_CONSTRAINT,
        )
        result = harness.run(spec, "CStream")
        assert result.mean_latency_us_per_byte > 0.0
        assert result.mean_energy_uj_per_byte > 0.0

    def test_fork_join_run_is_deterministic(self, board):
        def run_once():
            harness = Harness(
                board=board, repetitions=2, batches_per_repetition=4,
                profile_batches=3,
            )
            spec = WorkloadSpec.of(
                "unlz4", "rovio", batch_size=TEST_BATCH,
                latency_constraint=RELAXED_CONSTRAINT,
            )
            return harness.run(spec, "CStream")

        assert run_once() == run_once()

    def test_traced_dag_run_passes_trace_invariants(self, board):
        from repro.analysis.verify import iter_recorder_events, verify_trace_events

        harness = Harness(
            board=board, repetitions=1, batches_per_repetition=4,
            profile_batches=3,
        )
        spec = WorkloadSpec.of(
            "unlz4", "rovio", batch_size=TEST_BATCH,
            latency_constraint=RELAXED_CONSTRAINT,
        )
        result, recorder = harness.run_traced(spec, "CStream")
        findings = verify_trace_events(iter_recorder_events(recorder))
        errors = [f for f in findings if f.severity == "error"]
        assert errors == []
        assert result.mean_latency_us_per_byte > 0.0


class TestCodecRegistry:
    def test_paper_codecs_listed_first(self):
        names = codec_names()
        assert names[:3] == ("tcomp32", "lz4", "tdic32")
        assert "unlz4" in names and "mltc" in names

    def test_lazy_codecs_resolve_on_demand(self):
        assert get_codec("unlz4").name == "unlz4"
        assert get_codec("mltc", channels=3).channels == 3

    def test_register_codec_decorator(self):
        from repro.compression import registry

        @register_codec
        class Toy(StatelessCompressor):
            name = "toy-registry-test"

            def compress(self, data):  # pragma: no cover - never called
                raise NotImplementedError

            def decompress(self, payload):  # pragma: no cover
                raise NotImplementedError

        try:
            assert get_codec("toy-registry-test").name == "toy-registry-test"
            assert "toy-registry-test" in codec_names()
        finally:
            del registry._REGISTRY["toy-registry-test"]

    def test_conflicting_registration_rejected(self):
        from repro.compression import registry

        @register_codec
        class Toy(StatelessCompressor):
            name = "toy-conflict-test"

            def compress(self, data):  # pragma: no cover
                raise NotImplementedError

            def decompress(self, payload):  # pragma: no cover
                raise NotImplementedError

        try:
            with pytest.raises(ConfigurationError, match="already registered"):
                @register_codec
                class Other(StatelessCompressor):
                    name = "toy-conflict-test"

                    def compress(self, data):  # pragma: no cover
                        raise NotImplementedError

                    def decompress(self, payload):  # pragma: no cover
                        raise NotImplementedError
        finally:
            del registry._REGISTRY["toy-conflict-test"]

    def test_unnamed_codec_rejected(self):
        class Nameless(StatelessCompressor):
            def compress(self, data):  # pragma: no cover
                raise NotImplementedError

            def decompress(self, payload):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ConfigurationError, match="name"):
            register_codec(Nameless)

    def test_unknown_codec_names_the_known_set(self):
        with pytest.raises(ConfigurationError, match="unlz4"):
            get_codec("definitely-not-a-codec")


class TestDagPlanDescription:
    def test_plan_describe_includes_join_annotations(self, unlz4_context):
        model = unlz4_context.cost_model(unlz4_context.fine_graph)
        plan = Scheduler(model).schedule(best_effort=True).estimate.plan
        description = plan.describe()
        assert "<-[" in description
        assert " ; " in description
