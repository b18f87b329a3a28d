"""Golden byte-identity suite for the simulator fast path.

The performance work (vectorized cost model, indexed event calendar,
batched trace dispatch, chunked grid fan-out) is only admissible if it
changes *nothing* observable: every ``RunResult`` float, every trace
event, every plan the scheduler picks. This suite pins that contract to
pickles captured **before** the fast path landed
(``tests/golden/golden_identity.pkl``): a representative grid slice
(all three codecs x CStream/OS), one traced cell with its full event
stream, one faulted cell, and the CStream plan choice per codec.

Regenerate (only when an *intentional* numbers change ships — which
invalidates every cached figure, so think twice)::

    PYTHONPATH=src python tests/test_golden_identity.py --regen

``RunResult`` equality is exact: the dataclass compares repetition
tuples with ``==`` on raw float fields, so any low-bit drift — a
re-associated sum, a pairwise numpy reduction, a reordered event —
fails the suite.
"""

import pathlib
import pickle
import sys

import pytest

from repro.bench.harness import Harness, WorkloadSpec
from repro.core.baselines import get_mechanism
from repro.faults.model import CoreFailure, FaultPlan

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "golden_identity.pkl"


def _deterministic_pairs(pairs):
    """Search-stats pairs minus wall-clock (real time is not a golden)."""
    return tuple(
        (name, value) for name, value in pairs if name != "wall_clock_s"
    )

GOLDEN_BATCH = 16384
CODECS = ("tcomp32", "lz4", "tdic32")
MECHANISMS = ("CStream", "OS")

#: a big core (rk3399: 4 little + 2 big) dying mid-run — exercises
#: failover rerouting, the reroute penalty, and the faulted cache key
GOLDEN_FAULT = FaultPlan(events=(CoreFailure(core_id=4, at_batch=2),), seed=7)


def golden_harness() -> Harness:
    """Small fixed configuration; must never change (it keys the goldens)."""
    return Harness(
        repetitions=3,
        batches_per_repetition=5,
        profile_batches=4,
        seed=0,
        cache=None,
        jobs=1,
    )


def spec_for(codec: str) -> WorkloadSpec:
    return WorkloadSpec.of(codec, "rovio", batch_size=GOLDEN_BATCH)


def compute_goldens() -> dict:
    """Run the golden slice with whatever code is importable right now."""
    harness = golden_harness()
    runs = {
        (codec, mechanism): harness.run(spec_for(codec), mechanism)
        for codec in CODECS
        for mechanism in MECHANISMS
    }

    traced_harness = golden_harness()
    traced_result, recorder = traced_harness.run_traced(
        spec_for("tcomp32"), "CStream"
    )
    traced = {
        "result": traced_result,
        "events": tuple(recorder.events),
        "event_count": len(recorder.events),
        "summary": traced_result.trace_summary,
    }

    faulted = golden_harness().run(
        spec_for("tdic32"), "CStream", fault_plan=GOLDEN_FAULT
    )

    plans = {}
    plan_harness = golden_harness()
    for codec in CODECS:
        context = plan_harness.context(spec_for(codec))
        outcome = get_mechanism("CStream").prepare(context)
        plans[codec] = {
            "assignments": outcome.plan.assignments,
            "latency_us_per_byte": outcome.estimate.latency_us_per_byte,
            "energy_uj_per_byte": outcome.estimate.energy_uj_per_byte,
            "feasible": outcome.estimate.feasible,
            "search": outcome.search_stats.as_pairs(),
        }

    return {"runs": runs, "traced": traced, "faulted": faulted, "plans": plans}


@pytest.fixture(scope="module")
def golden() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.fail(
            "golden pickle missing; regenerate with "
            "`PYTHONPATH=src python tests/test_golden_identity.py --regen`"
        )
    return pickle.loads(GOLDEN_PATH.read_bytes())


@pytest.fixture(scope="module")
def fresh() -> dict:
    return compute_goldens()


class TestGoldenIdentity:
    def test_run_results_bit_identical(self, golden, fresh):
        assert set(fresh["runs"]) == set(golden["runs"])
        for cell, expected in golden["runs"].items():
            actual = fresh["runs"][cell]
            assert actual == expected, f"cell {cell} drifted"
            # Belt and braces: dataclass eq already compares raw floats,
            # but make the per-repetition comparison failure-readable.
            for index, (a, b) in enumerate(
                zip(actual.repetitions, expected.repetitions)
            ):
                assert a == b, f"cell {cell} repetition {index} drifted"

    def test_traced_numbers_match_untraced_golden(self, golden, fresh):
        assert fresh["traced"]["result"] == golden["runs"][
            ("tcomp32", "CStream")
        ]

    def test_traced_event_stream_identical(self, golden, fresh):
        expected = golden["traced"]["events"]
        actual = fresh["traced"]["events"]
        assert len(actual) == golden["traced"]["event_count"]
        first_mismatch = next(
            (i for i, (a, b) in enumerate(zip(actual, expected)) if a != b),
            None,
        )
        assert first_mismatch is None, (
            f"trace diverges at event {first_mismatch}: "
            f"{actual[first_mismatch]} != {expected[first_mismatch]}"
        )
        assert actual == expected

    def test_traced_summary_counters_identical(self, golden, fresh):
        import dataclasses

        expected = golden["traced"]["summary"]
        actual = fresh["traced"]["summary"]
        for field in dataclasses.fields(type(expected)):
            a, b = getattr(actual, field.name), getattr(expected, field.name)
            if field.name == "scheduler":
                a, b = _deterministic_pairs(a), _deterministic_pairs(b)
            assert a == b, f"summary field {field.name} drifted"

    def test_faulted_cell_identical(self, golden, fresh):
        assert fresh["faulted"] == golden["faulted"]

    def test_traced_failover_cell_matches_faulted_golden(self, golden):
        """Tracing the faulted cell changes none of its numbers, and its
        exported stream passes the trace invariants (TRC006 included:
        no service span on core 4 after it dies)."""
        import json

        from repro.analysis.verify import (
            errors_only,
            iter_chrome_events,
            verify_trace_events,
        )
        from repro.obs.export import chrome_trace

        result, recorder = golden_harness().run_traced(
            spec_for("tdic32"), "CStream", fault_plan=GOLDEN_FAULT
        )
        assert result == golden["faulted"]
        assert recorder.core_failures == len(result.repetitions)
        payload = json.loads(json.dumps(chrome_trace(recorder)))
        findings = verify_trace_events(iter_chrome_events(payload))
        assert errors_only(findings) == []
        depths = [
            dict(event.args)["value"]
            for event in recorder.events
            if event.name == "core4.runq"
        ]
        assert depths and depths[-1] == 0

    def test_chain_plans_stay_chain_shaped(self):
        """The DAG generalization is invisible to the paper's codecs:
        every golden codec still decomposes to a chain whose tasks carry
        the implicit chain predecessors and whose description uses the
        pre-refactor arrow format (no DAG annotations)."""
        harness = golden_harness()
        for codec in CODECS:
            context = harness.context(spec_for(codec))
            graph = context.fine_graph
            assert graph.is_chain, codec
            for task in graph.tasks:
                assert task.is_chain_stage, (codec, task.name)
            description = graph.describe()
            assert ";" not in description, codec
            assert "<-" not in description, codec

    def test_plan_choices_identical(self, golden, fresh):
        for codec in CODECS:
            expected = golden["plans"][codec]
            actual = fresh["plans"][codec]
            assert actual["assignments"] == expected["assignments"], codec
            assert (
                actual["latency_us_per_byte"]
                == expected["latency_us_per_byte"]
            ), codec
            assert (
                actual["energy_uj_per_byte"] == expected["energy_uj_per_byte"]
            ), codec
            assert actual["feasible"] == expected["feasible"], codec
            assert _deterministic_pairs(actual["search"]) == (
                _deterministic_pairs(expected["search"])
            ), codec


def _regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    payload = compute_goldens()
    GOLDEN_PATH.write_bytes(pickle.dumps(payload, protocol=4))
    print(f"wrote {GOLDEN_PATH} ({GOLDEN_PATH.stat().st_size} bytes)")


if __name__ == "__main__":
    if "--regen" in sys.argv[1:]:
        _regenerate()
    else:
        print(__doc__)
        sys.exit(2)
