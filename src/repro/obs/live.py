"""Live session telemetry: NDJSON tail + Prometheus-style exposition.

Two export surfaces over the health stream of :mod:`repro.obs.health`:

* :class:`NdjsonTail` — appends one JSON object per window to a file as
  the session runs; ``cstream top FILE`` tails it back into a terminal
  live view (:func:`render_top`). NDJSON is the exchange format: the
  same lines round-trip into :class:`~repro.obs.health.WindowHealth`
  via :func:`read_ndjson`.
* :func:`prometheus_text` — renders the latest state of a session (and
  optionally a :class:`~repro.obs.registry.MetricsRegistry` snapshot)
  in the Prometheus text exposition format, for scraping off a file or
  one-shot endpoint.

Everything here is pull/append-only and allocation-light; none of it is
imported by the runtime unless telemetry is switched on, preserving the
zero-overhead-when-off contract.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, List, Optional, Sequence, Tuple

from repro.obs.health import (
    BREAKER_STATES,
    FleetHealth,
    SessionHealth,
    WindowHealth,
)
from repro.obs.registry import MetricsRegistry

__all__ = [
    "NdjsonTail",
    "read_ndjson",
    "prometheus_text",
    "fleet_prometheus_text",
    "render_top",
    "render_fleet_top",
]


class NdjsonTail:
    """Append-only NDJSON writer for per-window health records."""

    def __init__(self, stream: IO[str]) -> None:
        self._stream = stream

    def emit(self, window: WindowHealth) -> None:
        self._stream.write(
            json.dumps(window.to_record(), sort_keys=True) + "\n"
        )
        self._stream.flush()

    def emit_session(self, health: SessionHealth) -> None:
        for window in health.windows:
            self.emit(window)


def read_ndjson(lines: Iterable[str]) -> List[WindowHealth]:
    """Parse an NDJSON tail back into health records.

    Blank lines are skipped so a partially written tail (or a trailing
    newline) parses cleanly.
    """
    records: List[WindowHealth] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        records.append(WindowHealth.from_record(json.loads(line)))
    return records


def _prom_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _metric(
    lines: List[str],
    name: str,
    help_text: Optional[str],
    kind: str,
    samples: Iterable[Tuple[str, float]],
) -> None:
    """Append one metric family: HELP (when given), TYPE, its samples.

    Each sample is ``(suffix, value)``, rendered ``{name}{suffix}
    {value}``; the suffix carries the label set (or a summary's
    ``_count``/``_sum``). Floats print with 9 significant digits,
    integers as they are.
    """
    if help_text is not None:
        lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {kind}")
    for suffix, value in samples:
        text = f"{value:.9g}" if isinstance(value, float) else str(value)
        lines.append(f"{name}{suffix} {text}")


def prometheus_text(
    health: SessionHealth,
    registry: Optional[MetricsRegistry] = None,
) -> str:
    """Prometheus text-format exposition of a session's latest state.

    Gauges carry the last window's values; counters accumulate across
    the session. When ``registry`` is given, its counters and timers
    are appended under the ``cstream_registry_`` prefix.
    """
    tag = f'session="{_prom_escape(health.label)}"'
    session = f"{{{tag}}}"
    lines: List[str] = []
    gauges = [(
        "cstream_latency_constraint_us_per_byte",
        "Session latency SLO (L_set), microseconds per byte.",
        health.latency_constraint_us_per_byte,
    )]
    if health.windows:
        last = health.windows[-1]
        gauges += [
            ("cstream_window_latency_us_per_byte",
             "Measured p-latency of the most recent window.",
             last.measured_latency_us_per_byte),
            ("cstream_window_latency_residual_us_per_byte",
             "Model-vs-measured latency residual of the most recent "
             "window.",
             last.latency_residual_us_per_byte),
            ("cstream_window_energy_uj_per_byte",
             "Measured dynamic energy of the most recent window.",
             last.measured_energy_uj_per_byte),
        ]
    for name, help_text, value in gauges:
        _metric(lines, name, help_text, "gauge", [(session, value)])
    for name, help_text, count in (
        ("cstream_windows_total", "Windows observed this session.",
         len(health.windows)),
        ("cstream_windows_violated_total",
         "Windows that violated the latency SLO.",
         sum(1 for w in health.windows if w.violated)),
        ("cstream_windows_anomalous_total",
         "Windows with an anomalous residual attribution.",
         sum(1 for w in health.windows if w.anomalous)),
    ):
        _metric(lines, name, help_text, "counter", [(session, count)])
    dominant = health.dominant()
    if dominant is not None:
        labels = (
            f'{{{tag},kind="{_prom_escape(dominant.kind)}",'
            f'key="{_prom_escape(dominant.key)}"}}'
        )
        _metric(
            lines, "cstream_health_attribution_score",
            "Anomaly score of the session's dominant attribution.",
            "gauge", [(labels, dominant.score)],
        )

    if registry is not None:
        snapshot = registry.snapshot()
        for name in sorted(snapshot.get("counters", {})):
            metric = "cstream_registry_" + name.replace(".", "_")
            _metric(lines, metric, None, "counter",
                    [("", float(snapshot["counters"][name]))])
        for name in sorted(snapshot.get("timers", {})):
            entry = snapshot["timers"][name]
            metric = "cstream_registry_" + name.replace(".", "_")
            _metric(lines, metric + "_seconds", None, "summary", [
                ("_count", entry["count"]),
                ("_sum", float(entry["total_s"])),
            ])
    return "\n".join(lines) + "\n"


def fleet_prometheus_text(health: FleetHealth) -> str:
    """Prometheus text-format exposition of a fleet's latest window.

    Per-board gauges (liveness, breaker state, max core load) and
    per-tenant gauges (SLO, modeled/measured latency, energy) carry the
    last window's values; fleet counters accumulate across the run.
    """
    fleet = _prom_escape(health.label)
    run = f'{{fleet="{fleet}"}}'
    lines: List[str] = []
    counters = [
        ("cstream_fleet_windows_total", "Serving windows this run.",
         len(health.windows)),
        ("cstream_fleet_violations_total",
         "Tenant-window SLO violations this run.",
         health.total_violations()),
    ] + [
        ("cstream_fleet_" + kind.replace("-", "_") + "s_total",
         f"Fleet {kind} events this run.", len(health.events_of(kind)))
        for kind in ("shed", "failover", "rpc-failure")
    ]
    for name, help_text, count in counters:
        _metric(lines, name, help_text, "counter", [(run, count)])
    _metric(
        lines, "cstream_fleet_energy_budget_uj_per_window",
        "Fleet energy budget, microjoules per window.", "gauge",
        [(run, health.energy_budget_uj_per_window)],
    )
    if not health.windows:
        return "\n".join(lines) + "\n"
    last = health.windows[-1]
    breaker_value = dict(zip(BREAKER_STATES, (0.0, 1.0, 0.5)))
    boards = [
        (f'{{fleet="{fleet}",board="{_prom_escape(board.name)}"}}', board)
        for board in last.boards
    ]
    tenants = [
        (f'{{fleet="{fleet}",tenant="{_prom_escape(tenant.name)}"}}', tenant)
        for tenant in last.tenants
    ]
    running = [(labels, t) for labels, t in tenants if t.state == "running"]
    for name, help_text, samples in (
        ("cstream_fleet_board_alive",
         "Board liveness in the most recent window (1 alive, 0 dead).",
         [(labels, 1 if b.alive else 0) for labels, b in boards]),
        ("cstream_fleet_board_breaker_open",
         "Circuit breaker state in the most recent window (1 open, 0.5 "
         "half-open, 0 closed).",
         [(labels, breaker_value[b.breaker_state]) for labels, b in boards]),
        ("cstream_fleet_board_max_core_load",
         "Most-loaded core utilization in the most recent window.",
         [(labels, b.max_core_load) for labels, b in boards]),
        ("cstream_fleet_tenant_l_set_us_per_byte",
         "Tenant latency SLO (L_set), microseconds per byte.",
         [(labels, t.l_set_us_per_byte) for labels, t in tenants]),
        ("cstream_fleet_tenant_latency_us_per_byte",
         "Measured tenant latency in the most recent window (running "
         "tenants).",
         [(labels, t.measured_latency_us_per_byte)
          for labels, t in running]),
        ("cstream_fleet_tenant_energy_uj_per_byte",
         "Modeled tenant energy in the most recent window (running "
         "tenants).",
         [(labels, t.modeled_energy_uj_per_byte)
          for labels, t in running]),
        ("cstream_fleet_tenant_violated",
         "Tenant SLO violation in the most recent window (1 violated).",
         [(labels, 1 if t.violated else 0) for labels, t in tenants]),
    ):
        _metric(lines, name, help_text, "gauge", samples)
    return "\n".join(lines) + "\n"


def render_top(
    windows: Sequence[WindowHealth],
    latency_constraint_us_per_byte: Optional[float] = None,
    limit: int = 12,
) -> str:
    """``cstream top``-style terminal view over a health stream."""
    header = (
        f"{'win':>4} {'measured':>10} {'predicted':>10} "
        f"{'residual':>10} {'slo':>4} {'health':<28}"
    )
    rule = "-" * len(header)
    rows: List[str] = [header, rule]
    for window in list(windows)[-limit:]:
        if window.violated:
            slo = "VIOL"
        elif (
            latency_constraint_us_per_byte is not None
            and window.measured_latency_us_per_byte
            > latency_constraint_us_per_byte
        ):
            slo = "edge"
        else:
            slo = "ok"
        if window.attribution is not None:
            health = (
                f"{window.attribution.describe()} "
                f"(score {window.attribution.score:.1f}, "
                f"conf {window.attribution.confidence:.2f})"
            )
        elif window.anomalous:
            health = "anomalous"
        else:
            health = "nominal"
        rows.append(
            f"{window.window_index:>4} "
            f"{window.measured_latency_us_per_byte:>10.4f} "
            f"{window.predicted_latency_us_per_byte:>10.4f} "
            f"{window.latency_residual_us_per_byte:>+10.4f} "
            f"{slo:>4} {health:<28}"
        )
    violated = sum(1 for w in windows if w.violated)
    anomalous = sum(1 for w in windows if w.anomalous)
    rows.append(rule)
    rows.append(
        f"windows={len(windows)} violated={violated} anomalous={anomalous}"
    )
    return "\n".join(rows)


def render_fleet_top(health: FleetHealth, limit: int = 8) -> str:
    """``cstream top``-style terminal view over a fleet health report.

    Shows the most recent window's board table (liveness, breaker,
    load) and tenant table (placement, SLO, measured latency, energy),
    then the tail of the event log.
    """
    rows: List[str] = [
        f"fleet {health.label} arm={health.arm} seed={health.seed} "
        f"boards={health.board_count} tenants={health.tenant_count} "
        f"windows={len(health.windows)} "
        f"violations={health.total_violations()}"
    ]
    if not health.windows:
        return "\n".join(rows)
    last = health.windows[-1]
    rows.append(f"window {last.window_index}")
    board_header = (
        f"  {'board':<12} {'kind':<8} {'state':<6} {'breaker':<9} "
        f"{'load':>6} {'run':>4} {'rpcfail':>7}"
    )
    rows.append(board_header)
    rows.append("  " + "-" * (len(board_header) - 2))
    for board in last.boards:
        state = "alive" if board.alive else "DEAD"
        throttle = (
            f" @{board.throttled_mhz:.0f}MHz"
            if board.throttled_mhz is not None else ""
        )
        rows.append(
            f"  {board.name:<12} {board.kind:<8} {state:<6} "
            f"{board.breaker_state:<9} {board.max_core_load:>6.2f} "
            f"{board.tenants_running:>4} {board.rpc_failures:>7}"
            f"{throttle}"
        )
    tenant_header = (
        f"  {'tenant':<18} {'prio':>4} {'state':<9} {'board':>5} "
        f"{'L_set':>8} {'measured':>9} {'uJ/B':>8} {'slo':>4}"
    )
    rows.append(tenant_header)
    rows.append("  " + "-" * (len(tenant_header) - 2))
    for tenant in last.tenants:
        board = (
            str(tenant.board_index)
            if tenant.board_index is not None else "-"
        )
        if tenant.state == "running":
            measured = f"{tenant.measured_latency_us_per_byte:>9.4f}"
            energy = f"{tenant.modeled_energy_uj_per_byte:>8.4f}"
        else:
            measured = f"{'-':>9}"
            energy = f"{'-':>8}"
        slo = "VIOL" if tenant.violated else "ok"
        rows.append(
            f"  {tenant.name:<18} {tenant.priority:>4} "
            f"{tenant.state:<9} {board:>5} "
            f"{tenant.l_set_us_per_byte:>8.4f} {measured} {energy} "
            f"{slo:>4}"
        )
    tail = list(health.events)[-limit:]
    if tail:
        rows.append(f"  last {len(tail)} events:")
        for event in tail:
            who = []
            if event.tenant_id is not None:
                who.append(f"tenant {event.tenant_id}")
            if event.board_index is not None:
                who.append(f"board {event.board_index}")
            subject = " ".join(who) if who else "fleet"
            rows.append(
                f"    w{event.window_index:<3} {event.kind:<13} "
                f"{subject}: {event.detail}"
            )
    return "\n".join(rows)
