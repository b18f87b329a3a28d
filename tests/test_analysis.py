"""Tests for the determinism linter and the plan/trace verifier.

Every lint rule gets a positive fixture (the rule fires), a suppressed
fixture (``# csa: ignore[...]`` silences it) and a clean fixture (the
compliant spelling passes). Every verifier invariant gets a seeded
violation. The suite also dogfoods both tools against the real tree: the
linter must be clean on ``src/repro`` and the verifier must accept a
real traced run.
"""

from __future__ import annotations

import json
import os

import pytest

import repro
from repro.analysis.lint import RULES, lint_paths, lint_source
from repro.analysis.lint import main as lint_main
from repro.analysis.verify import (
    INVARIANTS,
    iter_recorder_events,
    verify_chrome_payload,
    verify_health,
    verify_plan,
    verify_trace_events,
)
from repro.analysis.verify import main as verify_main
from repro.cli import main as cli_main
from repro.core.plan import SchedulingPlan
from repro.core.scheduler import Scheduler
from repro.core.task import Task, TaskGraph
from repro.errors import InvariantViolationError
from repro.numerics import ordered_sum
from repro.obs.check import validate_trace

REPRO_ROOT = os.path.dirname(repro.__file__)


def codes(findings):
    return [f.code for f in findings]


def lint_strict(source):
    """Lint a snippet as if it lived in a strict package."""
    return lint_source(source, path="snippet.py", package="simcore")


def lint_lenient(source):
    """Lint a snippet as if it lived in a lenient package."""
    return lint_source(source, path="snippet.py", package="bench")


# ---------------------------------------------------------------------------
# linter rules
# ---------------------------------------------------------------------------


class TestCSA001WallClock:
    def test_positive(self):
        found = lint_strict("import time\nnow = time.time()\n")
        assert codes(found) == ["CSA001"]

    def test_aliased_import(self):
        found = lint_strict(
            "from time import perf_counter as pc\nstart = pc()\n"
        )
        assert codes(found) == ["CSA001"]

    def test_datetime_now(self):
        found = lint_strict(
            "import datetime\nstamp = datetime.datetime.now()\n"
        )
        assert codes(found) == ["CSA001"]

    def test_suppressed(self):
        found = lint_strict(
            "import time\n"
            "now = time.time()  # csa: ignore[CSA001]\n"
        )
        assert found == []

    def test_clean_in_lenient_package(self):
        assert lint_lenient("import time\nnow = time.time()\n") == []

    def test_clean_simulated_clock(self):
        assert lint_strict("now = simulator.now()\n") == []


class TestCSA002Randomness:
    def test_global_random(self):
        found = lint_strict("import random\nx = random.random()\n")
        assert codes(found) == ["CSA002"]

    def test_applies_everywhere(self):
        found = lint_lenient("import random\nx = random.random()\n")
        assert codes(found) == ["CSA002"]

    def test_unseeded_default_rng(self):
        found = lint_strict(
            "import numpy as np\nrng = np.random.default_rng()\n"
        )
        assert codes(found) == ["CSA002"]

    def test_seeded_default_rng_clean(self):
        assert lint_strict(
            "def build(seed):\n"
            "    import numpy as np\n"
            "    return np.random.default_rng(seed)\n"
        ) == []

    def test_legacy_numpy_global(self):
        found = lint_strict(
            "import numpy as np\nx = np.random.rand(3)\n"
        )
        assert codes(found) == ["CSA002"]

    def test_entropy_sources(self):
        found = lint_strict(
            "import os\nimport uuid\n"
            "a = os.urandom(8)\nb = uuid.uuid4()\n"
        )
        assert codes(found) == ["CSA002", "CSA002"]

    def test_suppressed(self):
        assert lint_strict(
            "import random\n"
            "x = random.random()  # csa: ignore[CSA002]\n"
        ) == []


class TestCSA003SetIteration:
    def test_set_literal(self):
        found = lint_strict("for x in {1, 2, 3}:\n    pass\n")
        assert codes(found) == ["CSA003"]

    def test_set_call_result(self):
        found = lint_strict(
            "cores = set(plan)\nfor c in cores:\n    pass\n"
        )
        assert codes(found) == ["CSA003"]

    def test_set_annotated_argument(self):
        found = lint_strict(
            "from typing import Set\n"
            "def run(stages: Set[int]):\n"
            "    for s in stages:\n"
            "        pass\n"
        )
        assert codes(found) == ["CSA003"]

    def test_comprehension_over_set(self):
        found = lint_strict("xs = [x for x in {1, 2}]\n")
        assert codes(found) == ["CSA003"]

    def test_sorted_is_clean(self):
        assert lint_strict(
            "for x in sorted({3, 1, 2}):\n    pass\n"
        ) == []

    def test_order_insensitive_consumers_clean(self):
        assert lint_strict("n = len({1, 2})\nm = max({1, 2})\n") == []

    def test_lenient_package_clean(self):
        assert lint_lenient("for x in {1, 2}:\n    pass\n") == []

    def test_suppressed(self):
        assert lint_strict(
            "for x in {1, 2}:  # csa: ignore[CSA003]\n    pass\n"
        ) == []


class TestCSA004MutableDefault:
    def test_list_default(self):
        found = lint_strict("def f(xs=[]):\n    pass\n")
        assert codes(found) == ["CSA004"]

    def test_dict_and_factory_defaults(self):
        found = lint_lenient(
            "from collections import defaultdict\n"
            "def f(a={}, b=defaultdict(list)):\n    pass\n"
        )
        assert codes(found) == ["CSA004", "CSA004"]

    def test_keyword_only_default(self):
        found = lint_strict("def f(*, xs=set()):\n    pass\n")
        assert codes(found) == ["CSA004"]

    def test_immutable_defaults_clean(self):
        assert lint_strict(
            "def f(a=(), b=None, c='x', d=0):\n    pass\n"
        ) == []

    def test_suppressed(self):
        assert lint_strict(
            "def f(xs=[]):  # csa: ignore[CSA004]\n    pass\n"
        ) == []


class TestCSA005UnorderedAccumulation:
    def test_energy_sum(self):
        found = lint_strict("total = sum(energies)\n")
        assert codes(found) == ["CSA005"]

    def test_attribute_quantity(self):
        found = lint_strict(
            "total = sum(e.energy_uj_per_byte for e in estimates)\n"
        )
        assert codes(found) == ["CSA005"]

    def test_latency_values(self):
        found = lint_strict("total = sum(latency_by_core.values())\n")
        assert codes(found) == ["CSA005"]

    def test_non_quantity_sum_clean(self):
        assert lint_strict("count = sum(batch_counts)\n") == []

    def test_ordered_sum_clean(self):
        assert lint_strict(
            "from repro.numerics import ordered_sum\n"
            "total = ordered_sum(energies)\n"
        ) == []

    def test_lenient_package_clean(self):
        assert lint_lenient("total = sum(energies)\n") == []

    def test_suppressed(self):
        assert lint_strict(
            "total = sum(energies)  # csa: ignore[CSA005]\n"
        ) == []


class TestCSA006UnguardedTraceHook:
    def test_unguarded_hook(self):
        found = lint_strict("trace.span('t0', 0, 0.0, 1.0)\n")
        assert codes(found) == ["CSA006"]

    def test_unguarded_attribute_receiver(self):
        found = lint_strict(
            "def f(self):\n"
            "    self.trace.energy_sample('busy', 1.0, 0.0)\n"
        )
        assert codes(found) == ["CSA006"]

    def test_guarded_hook_clean(self):
        assert lint_strict(
            "if trace is not None:\n"
            "    trace.span('t0', 0, 0.0, 1.0)\n"
        ) == []

    def test_guarded_attribute_clean(self):
        assert lint_strict(
            "def f(self):\n"
            "    if self.trace is not None:\n"
            "        self.trace.migration(0, 1.0)\n"
        ) == []

    def test_truthiness_guard_clean(self):
        assert lint_strict(
            "if recorder:\n"
            "    recorder.batch_complete(0, 1.0)\n"
        ) == []

    def test_wrong_guard_still_fires(self):
        found = lint_strict(
            "if other is not None:\n"
            "    trace.span('t0', 0, 0.0, 1.0)\n"
        )
        assert codes(found) == ["CSA006"]

    def test_non_recorder_receiver_clean(self):
        # `span`-named methods on non-trace objects are not hooks
        assert lint_strict("window.span('x', 1, 2, 3)\n") == []

    def test_suppressed(self):
        assert lint_strict(
            "trace.span('t0', 0, 0.0, 1.0)  # csa: ignore[CSA006]\n"
        ) == []


class TestCSA007EnvironmentRead:
    def test_environ(self):
        found = lint_strict("import os\nflag = os.environ['X']\n")
        assert codes(found) == ["CSA007"]

    def test_getenv(self):
        found = lint_strict("import os\nflag = os.getenv('X')\n")
        assert codes(found) == ["CSA007"]

    def test_lenient_package_clean(self):
        assert lint_lenient("import os\nflag = os.getenv('X')\n") == []

    def test_suppressed(self):
        assert lint_strict(
            "import os\n"
            "flag = os.getenv('X')  # csa: ignore[CSA007]\n"
        ) == []


class TestCSA008FilesystemOrder:
    def test_listdir(self):
        found = lint_strict("import os\nnames = os.listdir('.')\n")
        assert codes(found) == ["CSA008"]

    def test_applies_everywhere(self):
        found = lint_lenient("import os\nnames = os.listdir('.')\n")
        assert codes(found) == ["CSA008"]

    def test_path_glob(self):
        found = lint_lenient("files = directory.glob('*.pkl')\n")
        assert codes(found) == ["CSA008"]

    def test_sorted_listing_clean(self):
        assert lint_lenient(
            "import os\nnames = sorted(os.listdir('.'))\n"
        ) == []

    def test_order_insensitive_count_clean(self):
        assert lint_lenient(
            "count = sum(1 for _ in directory.glob('*.pkl'))\n"
        ) == []

    def test_re_match_not_confused(self):
        # re.match objects aren't filesystem globs
        assert lint_lenient(
            "import re\nhit = re.compile('x').match('xy')\n"
        ) == []

    def test_suppressed(self):
        assert lint_lenient(
            "import os\n"
            "names = os.listdir('.')  # csa: ignore[CSA008]\n"
        ) == []


class TestCSA009UnguardedTelemetryHook:
    def test_unguarded_hook(self):
        found = lint_strict("telemetry.comm('c1', 7.5, 0)\n")
        assert codes(found) == ["CSA009"]

    def test_unguarded_attribute_receiver(self):
        found = lint_strict(
            "def f(self):\n"
            "    self.collector.retry(0, 1, 40.0, 2)\n"
        )
        assert codes(found) == ["CSA009"]

    def test_guarded_hook_clean(self):
        assert lint_strict(
            "if telemetry is not None:\n"
            "    telemetry.comm('c1', 7.5, 0)\n"
        ) == []

    def test_guarded_attribute_clean(self):
        assert lint_strict(
            "def f(self):\n"
            "    if self.collector is not None:\n"
            "        self.collector.collect_window(0, 0, 3, 8192, {})\n"
        ) == []

    def test_wrong_guard_still_fires(self):
        found = lint_strict(
            "if other is not None:\n"
            "    telemetry.retry(0, 1, 40.0, 2)\n"
        )
        assert codes(found) == ["CSA009"]

    def test_non_telemetry_receiver_clean(self):
        # `retry`-named methods on non-telemetry objects are not hooks
        assert lint_strict("client.retry(0, 1, 40.0, 2)\n") == []

    def test_lenient_package_clean(self):
        assert lint_lenient("telemetry.comm('c1', 7.5, 0)\n") == []

    def test_suppressed(self):
        assert lint_strict(
            "telemetry.comm('c1', 7.5, 0)  # csa: ignore[CSA009]\n"
        ) == []


class TestLinterMachinery:
    def test_rule_table_has_nine_rules(self):
        assert len(RULES) == 9
        assert sorted(RULES) == [f"CSA00{i}" for i in range(1, 10)]

    def test_multi_code_suppression(self):
        assert lint_strict(
            "import time, os\n"
            "x = (time.time(), os.getenv('X'))"
            "  # csa: ignore[CSA001, CSA007]\n"
        ) == []

    def test_suppression_is_per_code(self):
        found = lint_strict(
            "import time\n"
            "now = time.time()  # csa: ignore[CSA005]\n"
        )
        assert codes(found) == ["CSA001"]

    def test_syntax_error_reported_not_raised(self):
        found = lint_strict("def f(:\n")
        assert codes(found) == ["CSA000"]

    def test_findings_sorted_and_located(self):
        found = lint_strict(
            "import time\n"
            "a = time.time()\n"
            "b = time.monotonic()\n"
        )
        assert [f.line for f in found] == [2, 3]
        assert "snippet.py:2:" in found[0].format()

    def test_real_tree_is_clean(self):
        findings, scanned = lint_paths([REPRO_ROOT])
        assert scanned > 50
        assert findings == []

    def test_cli_json_report(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(xs=[]):\n    pass\n")
        report = tmp_path / "report.json"
        status = lint_main(
            [str(bad), "--json", "--report", str(report)]
        )
        assert status == 1
        payload = json.loads(report.read_text())
        assert payload["counts"] == {"CSA004": 1}
        assert payload["files_scanned"] == 1
        printed = json.loads(capsys.readouterr().out)
        assert printed["findings"][0]["code"] == "CSA004"

    def test_cli_exit_zero_when_clean(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("def f(xs=()):\n    return xs\n")
        assert lint_main([str(good)]) == 0
        assert "clean" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# plan invariants
# ---------------------------------------------------------------------------


def two_stage_plan(steps0, steps1, assignments):
    graph = TaskGraph(
        codec_name="toy",
        tasks=(
            Task(name="t0", step_ids=tuple(steps0), stage_index=0),
            Task(name="t1", step_ids=tuple(steps1), stage_index=1),
        ),
    )
    return SchedulingPlan(graph=graph, assignments=assignments)


class TestPlanInvariants:
    def test_invariant_table(self):
        assert len(INVARIANTS) == 21
        assert sum(1 for code in INVARIANTS if code.startswith("PLN")) == 6
        assert sum(1 for code in INVARIANTS if code.startswith("HLT")) == 3
        assert sum(1 for code in INVARIANTS if code.startswith("FLT")) == 5

    def test_pln001_cyclic_plan(self):
        # t0 runs s1, t1 runs s0 — the pipeline order contradicts the
        # codec's step order, so the dependency graph is cyclic.
        plan = two_stage_plan(("s1",), ("s0",), ((0,), (1,)))
        found = verify_plan(plan, expected_steps=("s0", "s1"))
        assert "PLN001" in codes(found)

    def test_pln001_clean_pipeline(self):
        plan = two_stage_plan(("s0",), ("s1",), ((0,), (1,)))
        assert verify_plan(plan, expected_steps=("s0", "s1")) == []

    def test_pln001_declared_shape_contradicts_step_graph(self):
        # Declared pipeline: t0 -> t1. Codec step graph: t1's step "b"
        # produces t0's step "a". Either edge set alone is acyclic;
        # together they are a cycle only the DAG-aware check can see.
        plan = two_stage_plan(("a",), ("b",), ((0,), (1,)))
        found = verify_plan(
            plan,
            expected_steps=("b", "a"),
            step_dependencies={"b": (), "a": ("b",)},
        )
        assert "PLN001" in codes(found)

    def test_pln_fork_join_plan_accepted(self):
        graph = TaskGraph(
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
        plan = SchedulingPlan(
            graph=graph, assignments=((0,), (1,), (2,), (3,))
        )
        found = verify_plan(
            plan,
            expected_steps=("d0", "d1", "d2", "d3"),
            step_dependencies={
                "d0": (), "d1": ("d0",), "d2": ("d0",),
                "d3": ("d1", "d2"),
            },
        )
        assert found == []

    def test_pln006_multiple_sinks(self):
        # TaskGraph itself refuses orphaned stages, so a multi-sink
        # shape can only come from a foreign plan object — duck-typed.
        from types import SimpleNamespace

        def fake_task(name, step_ids, predecessors):
            return SimpleNamespace(
                name=name, step_ids=step_ids, predecessors=predecessors
            )

        plan = SimpleNamespace(
            graph=SimpleNamespace(tasks=(
                fake_task("t0", ("s0",), ()),
                fake_task("t1", ("s1",), (0,)),
                fake_task("t2", ("s2",), (0,)),
            )),
            assignments=((0,), (1,), (2,)),
        )
        found = verify_plan(plan)
        assert "PLN006" in codes(found)
        assert "2 sinks" in found[0].message

    def test_pln002_missing_step(self):
        plan = two_stage_plan(("s0",), ("s1",), ((0,), (1,)))
        found = verify_plan(plan, expected_steps=("s0", "s1", "s2"))
        assert codes(found) == ["PLN002"]
        assert "s2" in found[0].message

    def test_pln002_unknown_step(self):
        plan = two_stage_plan(("s0",), ("sX",), ((0,), (1,)))
        found = verify_plan(plan, expected_steps=("s0",))
        assert codes(found) == ["PLN002"]

    def test_pln003_out_of_range_core(self, board):
        plan = two_stage_plan(("s0",), ("s1",), ((0,), (9,)))
        found = verify_plan(plan, board=board)
        assert codes(found) == ["PLN003"]
        assert "9" in found[0].message

    def test_pln004_double_booked_stage_is_warning(self):
        plan = two_stage_plan(("s0",), ("s1",), ((2, 2), (1,)))
        found = verify_plan(plan)
        assert codes(found) == ["PLN004"]
        assert found[0].severity == "warning"

    def test_pln005_infeasible_when_expected(self, tcomp32_rovio_context):
        context = tcomp32_rovio_context
        graph = TaskGraph.coarse(
            context.fine_graph.codec_name,
            context.fine_graph.covered_steps(),
        )
        model = context.cost_model(graph)
        # One replica of everything on one little core cannot meet L_set.
        plan = SchedulingPlan(graph=graph, assignments=((0,),))
        if model.evaluate(plan).feasible:
            pytest.skip("single-core coarse plan unexpectedly feasible")
        found = verify_plan(
            plan, cost_model=model, expect_feasible=True
        )
        assert codes(found) == ["PLN005"]
        assert found[0].severity == "error"
        relaxed = verify_plan(
            plan, cost_model=model, expect_feasible=False
        )
        assert [f.severity for f in relaxed] == ["warning"]

    def test_validate_raises_on_cycle(self):
        plan = two_stage_plan(("s1",), ("s0",), ((0,), (1,)))
        with pytest.raises(InvariantViolationError) as caught:
            plan.validate(expected_steps=("s0", "s1"))
        assert any(f.code == "PLN001" for f in caught.value.findings)

    def test_validate_strict_promotes_warnings(self):
        plan = two_stage_plan(("s0",), ("s1",), ((2, 2), (1,)))
        assert [f.code for f in plan.validate()] == ["PLN004"]
        with pytest.raises(InvariantViolationError):
            plan.validate(strict=True)

    def test_scheduler_plan_passes_verification(
        self, board, tcomp32_rovio_context
    ):
        context = tcomp32_rovio_context
        model = context.cost_model(context.fine_graph)
        result = Scheduler(model).schedule(best_effort=True)
        found = verify_plan(
            result.plan,
            board=board,
            expected_steps=model.profile.step_ids,
            cost_model=model,
            expect_feasible=result.feasible,
        )
        assert [f for f in found if f.severity == "error"] == []


class TestSchedulerValidationFlag:
    def _scheduler(self, context):
        return Scheduler(context.cost_model(context.fine_graph))

    def test_validation_runs_when_enabled(
        self, monkeypatch, tcomp32_rovio_context
    ):
        import repro.analysis.verify as verify_module

        calls = []
        original = verify_module.verify_plan

        def spy(plan, **kwargs):
            calls.append(plan)
            return original(plan, **kwargs)

        monkeypatch.setattr(verify_module, "verify_plan", spy)
        monkeypatch.setenv("REPRO_VALIDATE_PLANS", "1")
        self._scheduler(tcomp32_rovio_context).schedule(best_effort=True)
        assert len(calls) == 1

    def test_validation_skipped_when_disabled(
        self, monkeypatch, tcomp32_rovio_context
    ):
        import repro.analysis.verify as verify_module

        calls = []
        monkeypatch.setattr(
            verify_module, "verify_plan",
            lambda plan, **kwargs: calls.append(plan) or [],
        )
        monkeypatch.setenv("REPRO_VALIDATE_PLANS", "0")
        self._scheduler(tcomp32_rovio_context).schedule(best_effort=True)
        assert calls == []


# ---------------------------------------------------------------------------
# trace invariants
# ---------------------------------------------------------------------------


def event(name="e", ph="i", ts=0.0, pid=0, tid=0, dur=0.0, cat="sim",
          **args):
    record = {"name": name, "ph": ph, "ts": ts, "pid": pid, "tid": tid,
              "cat": cat}
    if ph == "X":
        record["dur"] = dur
    if args:
        record["args"] = args
    return record


def payload(*events):
    return {"traceEvents": list(events)}


class TestTraceInvariants:
    def test_trc001_time_goes_backwards(self):
        found = verify_chrome_payload(payload(
            event(ts=5.0), event(ts=2.0),
        ))
        assert codes(found) == ["TRC001"]
        assert found[0].severity == "error"

    def test_trc001_per_track_not_global(self):
        # interleaved tracks each monotone -> clean
        found = verify_chrome_payload(payload(
            event(ts=5.0, tid=0), event(ts=1.0, tid=1),
            event(ts=6.0, tid=0), event(ts=2.0, tid=1),
        ))
        assert found == []

    def test_trc002_energy_counter_drops(self):
        found = verify_chrome_payload(payload(
            event(name="energy.busy", ph="C", ts=1.0, cat="energy",
                  value=10.0),
            event(name="energy.busy", ph="C", ts=2.0, cat="energy",
                  value=4.0),
        ))
        assert codes(found) == ["TRC002"]

    def test_trc002_non_energy_counter_may_drop(self):
        found = verify_chrome_payload(payload(
            event(name="q.s0", ph="C", ts=1.0, cat="queue", value=3),
            event(name="q.s0", ph="C", ts=2.0, cat="queue", value=1),
        ))
        assert found == []

    def test_trc003_overlapping_spans(self):
        found = verify_chrome_payload(payload(
            event(name="a", ph="X", ts=0.0, dur=10.0),
            event(name="b", ph="X", ts=5.0, dur=10.0),
        ))
        assert codes(found) == ["TRC003"]

    def test_trc003_spans_on_other_tracks_clean(self):
        found = verify_chrome_payload(payload(
            event(name="a", ph="X", ts=0.0, dur=10.0, tid=0),
            event(name="b", ph="X", ts=5.0, dur=10.0, tid=1),
            event(name="c", ph="X", ts=10.0, dur=1.0, tid=0),
        ))
        assert found == []

    def test_trc004_reordered_same_timestamp_counters(self):
        found = verify_chrome_payload(payload(
            event(name="q.s0", ph="C", ts=3.0, cat="queue", value=1),
            event(name="q.s0", ph="C", ts=3.0, cat="queue", value=0),
        ))
        assert codes(found) == ["TRC004"]
        assert found[0].severity == "warning"

    def test_trc005_negative_timestamp(self):
        found = verify_chrome_payload(payload(event(ts=-1.0)))
        assert codes(found) == ["TRC005"]

    def test_trc005_non_integer_track(self):
        found = verify_chrome_payload(payload(event(tid="core0")))
        assert codes(found) == ["TRC005"]

    def test_trc006_span_after_core_failure(self):
        found = verify_chrome_payload(payload(
            event(name="core-failure", ph="i", ts=5.0, tid=902,
                  cat="fault", core=4, failover=5),
            event(name="t0:s0", ph="X", ts=6.0, dur=1.0, tid=4,
                  cat="task"),
        ))
        assert codes(found) == ["TRC006"]
        assert found[0].severity == "error"

    def test_trc006_span_at_failure_instant_clean(self):
        # the failure fires at a batch boundary the span helped produce
        found = verify_chrome_payload(payload(
            event(name="core-failure", ph="i", ts=5.0, tid=902,
                  cat="fault", core=4, failover=5),
            event(name="t0:s0", ph="X", ts=5.0, dur=1.0, tid=4,
                  cat="task"),
        ))
        assert found == []

    def test_trc006_surviving_cores_keep_working(self):
        found = verify_chrome_payload(payload(
            event(name="core-failure", ph="i", ts=5.0, tid=902,
                  cat="fault", core=4, failover=5),
            event(name="t0:s0", ph="X", ts=6.0, dur=1.0, tid=5,
                  cat="task"),
        ))
        assert found == []

    def test_trc007_retry_without_corruption(self):
        found = verify_chrome_payload(payload(
            event(name="batch-retry", ph="i", ts=2.0, tid=902,
                  cat="fault", batch=3, attempt=1),
        ))
        assert codes(found) == ["TRC007"]
        assert found[0].severity == "error"

    def test_trc007_matched_retry_clean(self):
        found = verify_chrome_payload(payload(
            event(name="batch-corrupted", ph="i", ts=1.0, tid=902,
                  cat="fault", batch=3, attempts=1),
            event(name="batch-retry", ph="i", ts=2.0, tid=902,
                  cat="fault", batch=3, attempt=1),
        ))
        assert found == []

    def test_metadata_events_ignored(self):
        found = verify_chrome_payload(payload(
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": "rep 0"}},
            event(ts=1.0),
        ))
        assert found == []

    def test_real_traced_run_has_no_errors(
        self, small_harness, tcomp32_rovio_spec
    ):
        _, recorder = small_harness.run_traced(
            tcomp32_rovio_spec, "CStream", repetitions=1
        )
        found = verify_trace_events(iter_recorder_events(recorder))
        assert [f for f in found if f.severity == "error"] == []


class TestObsCheckIntegration:
    def test_schema_check_now_rejects_backwards_time(self):
        problems = validate_trace(payload(
            event(ts=5.0), event(ts=2.0),
        ))
        assert any("TRC001" in problem for problem in problems)

    def test_valid_trace_still_passes(self):
        problems = validate_trace(payload(
            event(ts=1.0), event(ts=2.0),
        ))
        assert problems == []

    def test_warnings_do_not_fail_schema_check(self):
        problems = validate_trace(payload(
            event(name="q", ph="C", ts=3.0, value=1),
            event(name="q", ph="C", ts=3.0, value=0),
        ))
        assert problems == []


class TestVerifyCli:
    def test_errors_exit_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.trace.json"
        path.write_text(json.dumps(payload(event(ts=5.0), event(ts=2.0))))
        assert verify_main([str(path)]) == 1
        assert "TRC001" in capsys.readouterr().out

    def test_warnings_need_strict(self, tmp_path, capsys):
        path = tmp_path / "warn.trace.json"
        path.write_text(json.dumps(payload(
            event(name="q", ph="C", ts=3.0, value=1),
            event(name="q", ph="C", ts=3.0, value=0),
        )))
        assert verify_main([str(path)]) == 0
        assert verify_main([str(path), "--strict"]) == 1
        capsys.readouterr()

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "bad.trace.json"
        path.write_text(json.dumps(payload(event(ts=-1.0))))
        assert verify_main([str(path), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["errors"] == 1
        assert report["findings"][0]["code"] == "TRC005"

    def test_unreadable_file(self, tmp_path, capsys):
        path = tmp_path / "nope.trace.json"
        assert verify_main([str(path)]) == 2
        capsys.readouterr()

    def test_empty_object_is_neither_trace_nor_report(
        self, tmp_path, capsys
    ):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        assert verify_main([str(path)]) == 2
        err = capsys.readouterr().err
        assert "neither a trace" in err and "nor a health report" in err

    def test_unknown_schema_version_is_named(self, tmp_path, capsys):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"schema_version": 9, "windows": []}))
        assert verify_main([str(path)]) == 2
        err = capsys.readouterr().err
        assert "neither a trace" in err
        assert "unknown schema_version 9" in err


class TestAnalyzeSubcommand:
    def test_analyze_defaults_to_package_and_is_clean(self, capsys):
        assert cli_main(["analyze"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_analyze_flags_fixture(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(xs=[]):\n    pass\n")
        assert cli_main(["analyze", str(bad)]) == 1
        assert "CSA004" in capsys.readouterr().out

    def test_analyze_with_trace(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        trace = tmp_path / "bad.trace.json"
        trace.write_text(json.dumps(payload(event(ts=5.0), event(ts=2.0))))
        assert cli_main(
            ["analyze", str(good), "--trace", str(trace)]
        ) == 1
        out = capsys.readouterr().out
        assert "TRC001" in out


# ---------------------------------------------------------------------------
# ordered_sum
# ---------------------------------------------------------------------------


class TestOrderedSum:
    def test_matches_builtin_sum_exactly(self):
        values = [0.1, 0.2, 0.3, 1e16, -1e16, 0.4]
        assert ordered_sum(values) == sum(values)

    def test_start_value(self):
        assert ordered_sum([1.0, 2.0], start=10.0) == 13.0

    def test_empty(self):
        assert ordered_sum([]) == 0.0

    def test_consumes_generators(self):
        assert ordered_sum(x * 0.5 for x in range(4)) == 3.0


def health_window(**overrides):
    window = {
        "window_index": 0,
        "measured_latency_us_per_byte": 24.0,
        "predicted_latency_us_per_byte": 20.0,
        "latency_residual_us_per_byte": 4.0,
        "measured_energy_uj_per_byte": 0.4,
        "predicted_energy_uj_per_byte": 0.35,
        "energy_residual_uj_per_byte": 0.05,
        "components": [
            {"kind": "path", "key": "c1",
             "residual_us_per_byte": 3.5, "score": 9.0},
        ],
        "unattributed_us_per_byte": 0.5,
        "violated": True,
        "anomalous": True,
        "attribution": {
            "kind": "path", "key": "c1", "score": 9.0,
            "residual_us_per_byte": 3.5, "confidence": 1.0,
        },
    }
    window.update(overrides)
    return window


def health_payload(*windows):
    return {
        "schema_version": 1,
        "label": "test",
        "board": "test board",
        "latency_constraint_us_per_byte": 33.0,
        "windows": list(windows) or [health_window()],
    }


class TestHealthInvariants:
    def test_clean_report_passes(self):
        assert verify_health(health_payload()) == []

    def test_hlt001_sum_mismatch(self):
        findings = verify_health(health_payload(
            health_window(unattributed_us_per_byte=2.0)
        ))
        assert [f.code for f in findings] == ["HLT001"]
        assert findings[0].severity == "error"

    def test_hlt002_phantom_attribution(self):
        bad = health_window()
        bad["attribution"] = dict(bad["attribution"], kind="retry", key="1")
        findings = verify_health(health_payload(bad))
        assert "HLT002" in [f.code for f in findings]

    def test_hlt002_unknown_path(self):
        bad = health_window()
        bad["components"][0]["key"] = "warp"
        bad["attribution"] = dict(bad["attribution"], key="warp")
        findings = verify_health(health_payload(bad))
        assert [f.code for f in findings] == ["HLT002"]

    def test_hlt002_negative_stage_index(self):
        bad = health_window()
        bad["components"][0] = {"kind": "retry", "key": "-1",
                                "residual_us_per_byte": 3.5, "score": 9.0}
        bad["attribution"] = dict(bad["attribution"], kind="retry",
                                  key="-1")
        findings = verify_health(health_payload(bad))
        assert [f.code for f in findings] == ["HLT002"]

    def test_hlt003_nonfinite_skips_arithmetic(self):
        findings = verify_health(health_payload(health_window(
            latency_residual_us_per_byte=float("inf"),
            unattributed_us_per_byte=2.0,
        )))
        # HLT003 fires; HLT001 is withheld on the same window because
        # comparing against a non-finite residual is meaningless
        assert [f.code for f in findings] == ["HLT003"]

    def test_verify_cli_autodetects_health_payload(self, tmp_path, capsys):
        good = tmp_path / "health.json"
        good.write_text(json.dumps(health_payload()))
        assert verify_main([str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(health_payload(
            health_window(unattributed_us_per_byte=2.0)
        )))
        assert verify_main([str(bad)]) == 1
        assert "HLT001" in capsys.readouterr().out
