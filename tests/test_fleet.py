"""Fleet serving tier: admission, shedding, breaker, failover.

The scenario runs are the expensive part (each arm mounts one
SessionController per placed tenant), so the three-arm comparison is
computed once per fleet size at module scope and every acceptance
check reads from it.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis.verify import verify_fleet_health
from repro.errors import ConfigurationError
from repro.fleet.backoff import BackoffPolicy
from repro.fleet.breaker import (
    LEGAL_TRANSITIONS,
    BreakerConfig,
    CircuitBreaker,
    replay_transitions,
)
from repro.faults.fleet import build_fleet_fault_plan
from repro.fleet.gateway import Gateway
from repro.fleet.placement import FleetScheduler
from repro.fleet.registry import BOARD_KINDS, build_fleet
from repro.fleet.scenario import (
    FLEET_ARMS,
    FleetScenarioSpec,
    arm_config,
    run_fleet_arm,
    run_fleet_scenario,
)
from repro.fleet.tenants import build_tenant_catalog, build_tenant_workloads
from repro.obs.check import validate_fleet_health
from repro.obs.health import FleetHealth
from repro.obs.live import fleet_prometheus_text, render_fleet_top
from repro.obs.registry import REGISTRY


@pytest.fixture(scope="module")
def comparison_small():
    return run_fleet_scenario(FleetScenarioSpec(boards=3, tenants=6))


@pytest.fixture(scope="module")
def comparison_large():
    return run_fleet_scenario(FleetScenarioSpec(boards=6, tenants=12))


class TestBackoffDeterminism:
    def test_identical_across_reruns(self):
        first = BackoffPolicy(seed=7)
        second = BackoffPolicy(seed=7)
        for tenant_id in range(4):
            assert first.schedule((tenant_id,), 6) == (
                second.schedule((tenant_id,), 6)
            )

    def test_independent_of_computation_order(self):
        policy = BackoffPolicy(seed=3)
        keys = [(tenant, attempt) for tenant in range(6)
                for attempt in range(5)]
        serial = {
            key: policy.delay_windows((key[0],), key[1]) for key in keys
        }
        # jobs=2: the same draws from two workers in scrambled order
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = {
                key: pool.submit(policy.delay_windows, (key[0],), key[1])
                for key in reversed(keys)
            }
            threaded = {key: f.result() for key, f in futures.items()}
        assert serial == threaded

    def test_delays_grow_and_respect_cap(self):
        policy = BackoffPolicy()
        schedule = policy.schedule((0,), 8)
        # pre-jitter growth is monotone until the cap; jitter is < 25%
        # so each delay stays within its attempt's envelope
        for attempt, delay in enumerate(schedule):
            raw = min(
                policy.base_windows * policy.factor ** attempt,
                policy.cap_windows,
            )
            assert raw <= delay < raw * (1.0 + policy.jitter)
            assert delay <= policy.max_delay_windows

    def test_distinct_keys_get_distinct_jitter(self):
        policy = BackoffPolicy()
        delays = {policy.delay_windows((t,), 0) for t in range(8)}
        assert len(delays) == 8  # no thundering herd

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BackoffPolicy(base_windows=0.0)
        with pytest.raises(ConfigurationError):
            BackoffPolicy(jitter=1.0)
        with pytest.raises(ConfigurationError):
            BackoffPolicy().delay_windows((0,), -1)


class TestCircuitBreaker:
    def test_full_cycle(self):
        breaker = CircuitBreaker(
            board_index=0,
            config=BreakerConfig(failure_threshold=2, cooldown_windows=2),
        )
        assert breaker.allows_traffic(0)
        breaker.record_failure(0)
        assert breaker.state == "closed"
        breaker.record_failure(1)
        assert breaker.state == "open"
        assert not breaker.allows_traffic(2)  # cooling down
        assert breaker.allows_traffic(3)  # probe window
        assert breaker.state == "half-open"
        breaker.record_failure(3)
        assert breaker.state == "open"
        assert breaker.allows_traffic(5)
        breaker.record_success(5)
        assert breaker.state == "closed"
        assert breaker.consecutive_failures == 0

    def test_transitions_replayable(self):
        breaker = CircuitBreaker(board_index=0)
        for window in range(2):
            breaker.record_failure(window)
        assert breaker.allows_traffic(3)  # cooldown elapsed: half-open
        breaker.record_success(3)
        final = replay_transitions(tuple(breaker.transitions))
        assert final == breaker.state == "closed"
        for transition in breaker.transitions:
            assert (
                transition.from_state, transition.to_state
            ) in LEGAL_TRANSITIONS

    def test_replay_rejects_broken_chain(self):
        breaker = CircuitBreaker(board_index=0)
        breaker.record_failure(0)
        breaker.record_failure(1)  # closed -> open
        with pytest.raises(ConfigurationError):
            replay_transitions(tuple(breaker.transitions), "half-open")

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(board_index=0)
        breaker.record_failure(0)
        breaker.record_success(1)
        breaker.record_failure(2)
        assert breaker.state == "closed"  # never reached the threshold


class TestFleetRegistry:
    def test_three_kinds_cycle(self):
        fleet = build_fleet(4)
        assert [b.kind for b in fleet] == [
            "rk3399", "jetson", "edge", "rk3399",
        ]
        assert [b.board_index for b in fleet] == [0, 1, 2, 3]
        assert len({b.name for b in fleet}) == 4

    def test_edge_board_is_asymmetric(self):
        board = BOARD_KINDS["edge"]()
        assert len(board.little_core_ids) == 2
        assert len(board.big_core_ids) == 4

    def test_catalog_slos_scale_with_priority(self):
        workloads = build_tenant_workloads(
            build_tenant_catalog(3), seed=0
        )
        for workload in workloads:
            assert (
                workload.l_set_us_per_byte
                > workload.reference_latency_us_per_byte
            )


class TestScenarioAcceptance:
    @pytest.mark.parametrize("fixture_name",
                             ["comparison_small", "comparison_large"])
    def test_failover_beats_static(self, fixture_name, request):
        comparison = request.getfixturevalue(fixture_name)
        static = comparison.summary("static")
        failover = comparison.summary("shed-failover")
        # the crash strands the static arm's victims for good
        assert static.steady_violations > 0
        # acceptance bar: all victims re-placed within 3 windows of the
        # crash, and <= 25% of static's steady-state violations remain
        assert failover.failovers >= 1
        assert failover.failover_lag_windows is not None
        assert failover.failover_lag_windows <= 3
        assert (
            failover.steady_violations <= 0.25 * static.steady_violations
        )

    def test_shedding_alone_already_helps(self, comparison_small):
        static = comparison_small.summary("static")
        shed = comparison_small.summary("shed")
        assert shed.steady_violations < static.steady_violations
        assert shed.sheds >= 1
        assert shed.failovers == 0

    def test_every_arm_admits_the_catalogue(self, comparison_small):
        for arm in FLEET_ARMS:
            assert comparison_small.summary(arm).tenants_admitted == 6

    def test_no_tenant_runs_on_the_dead_board(self, comparison_small):
        for arm in FLEET_ARMS:
            health = comparison_small.healths[arm]
            for window in health.windows:
                dead = {
                    b.board_index for b in window.boards if not b.alive
                }
                for tenant in window.tenants:
                    if tenant.state == "running":
                        assert tenant.board_index not in dead

    def test_breaker_trace_replays_from_the_report(self, comparison_small):
        health = comparison_small.healths["shed-failover"]
        per_board = {}
        for event in health.events:
            if event.kind != "breaker":
                continue
            edge = event.detail.split(" (")[0]
            from_state, to_state = edge.split("->")
            per_board.setdefault(event.board_index, []).append(
                (from_state, to_state)
            )
        assert per_board, "crash must trip at least one breaker"
        for board_index, edges in per_board.items():
            state = "closed"
            for from_state, to_state in edges:
                assert from_state == state, board_index
                assert (from_state, to_state) in LEGAL_TRANSITIONS
                state = to_state
            final = health.windows[-1].boards[board_index].breaker_state
            assert state == final


class TestDeterminism:
    def test_rerun_is_byte_identical(self, comparison_small):
        spec = FleetScenarioSpec(boards=3, tenants=6)
        rerun = run_fleet_arm(spec, "shed-failover")
        assert rerun.to_json() == (
            comparison_small.healths["shed-failover"].to_json()
        )

    def test_arms_share_catalogue_independent_of_run_order(self):
        # arms computed concurrently (jobs=2) must equal the serial
        # pass — nothing in the gateway depends on global state
        spec = FleetScenarioSpec(boards=3, tenants=6, windows=6)
        boards = build_fleet(spec.boards)
        workloads = build_tenant_workloads(
            build_tenant_catalog(spec.tenants, seed=spec.seed),
            seed=spec.seed,
        )
        serial = {
            arm: run_fleet_arm(spec, arm, workloads=workloads,
                               boards=boards).to_json()
            for arm in FLEET_ARMS
        }
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = {
                arm: pool.submit(run_fleet_arm, spec, arm,
                                 workloads=workloads, boards=boards)
                for arm in reversed(FLEET_ARMS)
            }
            threaded = {
                arm: f.result().to_json() for arm, f in futures.items()
            }
        assert serial == threaded

    def test_seed_changes_the_run(self, comparison_small):
        other = run_fleet_arm(
            FleetScenarioSpec(boards=3, tenants=6, seed=1), "shed-failover"
        )
        assert other.to_json() != (
            comparison_small.healths["shed-failover"].to_json()
        )


class TestSharedPlanCache:
    def test_scenario_shares_plans_across_arms(self):
        spec = FleetScenarioSpec(boards=3, tenants=6, windows=6)
        boards = build_fleet(spec.boards)
        workloads = build_tenant_workloads(
            build_tenant_catalog(spec.tenants, seed=spec.seed),
            seed=spec.seed,
        )
        start = REGISTRY.counter("scheduler.schedules")
        independent = {
            arm: run_fleet_arm(
                spec, arm, workloads=workloads, boards=boards
            ).to_json()
            for arm in FLEET_ARMS
        }
        middle = REGISTRY.counter("scheduler.schedules")
        shared = run_fleet_scenario(spec)
        end = REGISTRY.counter("scheduler.schedules")
        assert {
            arm: health.to_json() for arm, health in shared.healths.items()
        } == independent
        # one search per (tenant, kind) for the whole scenario instead
        # of one per arm; the scenario also builds its own catalogue
        assert end - middle < middle - start

    def test_shared_scheduler_must_match_the_seed(self):
        spec = FleetScenarioSpec(boards=3, tenants=6, windows=6)
        boards = build_fleet(spec.boards)
        workloads = build_tenant_workloads(
            build_tenant_catalog(spec.tenants, seed=spec.seed),
            seed=spec.seed,
        )
        other = FleetScheduler(workloads, boards, seed=spec.seed + 1)
        with pytest.raises(ConfigurationError):
            run_fleet_arm(spec, "static", workloads=workloads,
                          boards=boards, scheduler=other)

    def test_schedule_calls_of_one_large_crash_arm(self):
        # 12 catalogue searches + 12 tenants x 3 board kinds + the one
        # failover replan; controllers adopt placement's plan unsearched
        spec = FleetScenarioSpec(boards=6, tenants=12)
        before = REGISTRY.counter("scheduler.schedules")
        run_fleet_arm(spec, "shed-failover")
        assert REGISTRY.counter("scheduler.schedules") - before == 49

    #: sha256 over every (tenant, board kind) placement plan of the 6x12
    #: board-crash scenario: assignments, repr of L_est and E_est, and
    #: the search counters without wall-clock; recorded before the
    #: branch-and-bound scored leaves from its walk's pricing folds
    PLANS_SHA256 = (
        "6bb669614872f27e3e61fd36613163561704dc590d99b54823981a64b5e6598e"
    )

    def test_large_crash_plans_are_pinned(self):
        spec = FleetScenarioSpec(boards=6, tenants=12)
        boards = build_fleet(spec.boards)
        workloads = build_tenant_workloads(
            build_tenant_catalog(spec.tenants, seed=spec.seed),
            seed=spec.seed,
        )
        scheduler = FleetScheduler(workloads, boards, seed=spec.seed)
        for arm in FLEET_ARMS:
            run_fleet_arm(spec, arm, workloads=workloads, boards=boards,
                          scheduler=scheduler)
        lines = []
        for (tenant, kind), result in sorted(scheduler._schedules.items()):
            estimate = result.estimate
            stats = [
                pair for pair in result.search_stats.as_pairs()
                if pair[0] != "wall_clock_s"
            ]
            lines.append(
                f"{tenant} {kind} {estimate.plan.assignments} "
                f"{estimate.latency_us_per_byte!r} "
                f"{estimate.energy_uj_per_byte!r} {stats}"
            )
        assert len(lines) == spec.tenants * len(set(b.kind for b in boards))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.PLANS_SHA256


class TestFailoverPricing:
    def test_state_bytes_scale_prices_failover_migration(self):
        boards = build_fleet(3)
        workloads = build_tenant_workloads(
            build_tenant_catalog(6, seed=0), seed=0
        )
        scheduler = FleetScheduler(workloads, boards, seed=0)
        # the edge board's 2+4 topology forces replicas to move
        source, destination = boards[0], boards[2]
        assert (source.kind, destination.kind) == ("rk3399", "edge")
        moved = []
        for workload in workloads:
            incumbent = scheduler.plan_estimate(
                workload.tenant_id, source
            ).plan
            costs = {
                scale: scheduler.failover_placement(
                    workload.tenant_id, source, incumbent, destination,
                    scale,
                )[1]
                for scale in (0.0, 0.25, 1.0)
            }
            if costs[0.25].moved_replicas == 0:
                continue
            moved.append(workload.tenant_id)
            # transfer = state bytes x unit cost + per-move overhead, so
            # the state-dependent part scales with the configured size
            overhead = costs[0.0].transfer_us
            state_part = costs[0.25].transfer_us - overhead
            assert state_part > 0.0
            assert costs[1.0].transfer_us - overhead == pytest.approx(
                4.0 * state_part, rel=1e-12
            )
        assert moved, "some tenant must move replicas across board kinds"

    def test_gateway_passes_its_controller_config(self, monkeypatch):
        from dataclasses import replace

        from repro.control.controller import ControllerConfig

        seen = []
        original = FleetScheduler.failover_placement

        def spy(self, tenant_id, source, incumbent, destination, scale):
            seen.append(scale)
            return original(
                self, tenant_id, source, incumbent, destination, scale
            )

        monkeypatch.setattr(FleetScheduler, "failover_placement", spy)
        spec = FleetScenarioSpec(boards=3, tenants=6, windows=6)
        config = replace(
            arm_config("shed-failover", spec),
            controller=ControllerConfig(state_bytes_scale=0.5),
        )
        workloads = build_tenant_workloads(
            build_tenant_catalog(spec.tenants, seed=spec.seed),
            seed=spec.seed,
        )
        fault_plan = build_fleet_fault_plan(
            spec.scenario, board_index=spec.fault_board,
            at_window=spec.at_window, seed=spec.seed,
        )
        Gateway(
            build_fleet(spec.boards), workloads, fault_plan=fault_plan,
            config=config, seed=spec.seed,
        ).run()
        assert seen and set(seen) == {0.5}


class TestHealthReport:
    def test_roundtrip_and_finite(self, comparison_small):
        for arm in FLEET_ARMS:
            health = comparison_small.healths[arm]
            assert health.finite()
            restored = FleetHealth.from_json(health.to_json())
            assert restored == health
            assert restored.schema_version == 2

    #: sha256 of each arm's report, its Prometheus text and its
    #: ``cstream top`` rendering: the serializers must not move a byte
    PINNED = {
        "static": (
            "9352fc261736162d785416ea0c7c5b66c656bf735f0c954bd111b13727a165cd",
            "2a4111abe37c0c0400e7502d1bb0dd607fc720f8a6c6f032df7400df42142b70",
            "8eec03ebb02d4749bf9e6d1fc6cb5a291179dbe7fe1b98bfcbb1631abb3206b8",
        ),
        "shed": (
            "531e6846d628136512f485f66b4c9333abc1128624076e1841941c74f8161452",
            "59e8be2037c5901ceb0ca2f2482f1c50d759aafabcb245cae322bfde1ef93fa1",
            "6d17098e6e44db574bd88321b45d6a350c6a20049943b63321a9f1c90a73e95b",
        ),
        "shed-failover": (
            "584bca78eda0ba251e4a7a18edeb6b3397a556c6d9ea56b695b05b6e6ca4dfb6",
            "4d783e494ba68c83989664b2dceabcdb7028cbc1a985c449e71f204fc5e8e94d",
            "5f2126f0ec51c7d44b5176f3d12d8edac5ff07441d7b68f597569d1711595d8c",
        ),
    }

    def test_outputs_are_byte_pinned(self, comparison_small):
        for arm in FLEET_ARMS:
            health = comparison_small.healths[arm]
            digests = tuple(
                hashlib.sha256(text.encode()).hexdigest()
                for text in (
                    health.to_json(),
                    fleet_prometheus_text(health),
                    render_fleet_top(health),
                )
            )
            assert digests == self.PINNED[arm], arm

    def test_flt_invariants_hold(self, comparison_small):
        for arm in FLEET_ARMS:
            payload = json.loads(comparison_small.healths[arm].to_json())
            assert verify_fleet_health(payload) == []
            assert validate_fleet_health(payload) == []

    def test_flt001_catches_a_planted_violation(self, comparison_small):
        payload = json.loads(
            comparison_small.healths["static"].to_json()
        )
        # plant: a tenant left running on a board marked dead
        window = payload["windows"][-1]
        dead = [b for b in window["boards"] if not b["alive"]]
        running = [
            t for t in window["tenants"] if t["state"] == "running"
        ]
        assert dead and running
        running[0]["board_index"] = dead[0]["board_index"]
        findings = verify_fleet_health(payload)
        assert any(f.code == "FLT001" for f in findings)

    def test_flt005_catches_an_oversized_retry(self, comparison_small):
        payload = json.loads(comparison_small.healths["shed"].to_json())
        requeues = [
            e for e in payload["events"]
            if e["kind"] == "shed" and "retry in" in e["detail"]
        ]
        assert requeues, "the shed arm must requeue with backoff"
        requeues[0]["detail"] = "board dead; requeued, retry in 99.0 windows"
        findings = verify_fleet_health(payload)
        assert any(f.code == "FLT005" for f in findings)
