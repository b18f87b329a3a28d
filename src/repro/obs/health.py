"""Session and fleet health reports.

A :class:`SessionHealth` (schema v1) is the operator-facing summary of
one windowed session: per window, the measured-vs-predicted latency and
energy, the attributed residual, and — when a component's anomaly score
clears the threshold — a named culprit (:class:`Attribution`): a
degraded interconnect path, a retry-heavy stage, or an underperforming
core.

A :class:`FleetHealth` (schema v2) is the fleet gateway's analogue: per
window, the state of every board (liveness, breaker state, core load)
and every tenant (placement, SLO compliance, energy), plus the ordered
event log (admissions, rejections, sheds, failovers, breaker
transitions, board faults) that makes the run replayable.

The dataclasses below are the only statement of both formats. Their
field types — ``int``, ``float``, ``bool``, ``str``, a ``Literal`` of
the allowed values, ``Optional[X]``, ``Tuple[X, ...]`` or a nested
record — drive one walker that provides the JSON records
(``to_record``/``from_record``, ``to_json``/``from_json``), the
finiteness check (``finite``) and the schema validation
(:func:`schema_problems`, which :mod:`repro.obs.check` runs).
:func:`load_health` reads any health file (v1, v2 or an NDJSON tail)
and :mod:`repro.analysis.verify` enforces the reports' invariants
(HLT001-003 for v1, FLT001-005 for v2).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields
from typing import (Any, Dict, Iterator, List, Literal, Optional, Tuple,
                    Type, TypeVar, Union, get_args, get_origin,
                    get_type_hints)

from repro.obs.residuals import ComponentKind, WindowResidual

__all__ = [
    "HEALTH_SCHEMA_VERSION",
    "FLEET_HEALTH_SCHEMA_VERSION",
    "BREAKER_STATES",
    "BreakerState",
    "TenantState",
    "EventKind",
    "Attribution",
    "Component",
    "WindowHealth",
    "SessionHealth",
    "build_window_health",
    "FleetBoardHealth",
    "FleetTenantHealth",
    "FleetEvent",
    "FleetWindowHealth",
    "FleetHealth",
    "schema_problems",
    "float_fields",
    "health_schema",
    "load_health",
]

HEALTH_SCHEMA_VERSION = 1
FLEET_HEALTH_SCHEMA_VERSION = 2

#: anomaly score above which a window's top component is named
DEFAULT_ANOMALY_THRESHOLD = 3.0

BreakerState = Literal["closed", "open", "half-open"]
#: "running", "queued" (awaiting admission/re-admission), "stranded"
#: (board dead, no failover arm), "rejected" (final), or "pending"
#: (not yet tried)
TenantState = Literal["pending", "queued", "running", "stranded", "rejected"]
EventKind = Literal[
    "admit", "reject", "queue", "retry", "shed", "failover", "breaker",
    "board-crash", "board-reboot", "board-throttle", "rpc-failure",
]

#: the circuit breaker's states (:mod:`repro.fleet.breaker` re-exports
#: them)
BREAKER_STATES: Tuple[str, ...] = get_args(BreakerState)


# -- the schema walker --------------------------------------------------------

R = TypeVar("R", bound="_Record")


@functools.lru_cache(maxsize=None)
def _schema(cls: Any) -> Tuple[Tuple[str, Any], ...]:
    """(field name, resolved type) of a record class, in field order."""
    hints = get_type_hints(cls)
    return tuple((field.name, hints[field.name]) for field in fields(cls))


def _optional(hint: Any) -> Any:
    """``X`` for ``Optional[X]``, else None."""
    if get_origin(hint) is Union:
        return next(arg for arg in get_args(hint) if arg is not type(None))
    return None


def _is_record(hint: Any) -> bool:
    return isinstance(hint, type) and issubclass(hint, _Record)


def _encode(value: Any) -> Any:
    if isinstance(value, _Record):
        return {
            name: _encode(getattr(value, name))
            for name, _ in _schema(type(value))
        }
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


def _decode(hint: Any, raw: Any) -> Any:
    inner = _optional(hint)
    if inner is not None:
        return None if raw is None else _decode(inner, raw)
    if get_origin(hint) is tuple:
        return tuple(_decode(get_args(hint)[0], item) for item in raw)
    if get_origin(hint) is Literal:
        return str(raw)
    if _is_record(hint):
        return hint(**{
            name: _decode(sub, raw[name]) for name, sub in _schema(hint)
        })
    return hint(raw)


def _finite(value: Any) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # a JSON integer beyond float range
        return False


#: scalar field type -> (accepts a parsed JSON value, what it expects)
_SCALARS = {
    bool: (lambda v: isinstance(v, bool), "a boolean"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool),
          "an integer"),
    float: (lambda v: isinstance(v, (int, float))
            and not isinstance(v, bool) and _finite(v),
            "a finite number"),
    str: (lambda v: isinstance(v, str) and v != "", "a non-empty string"),
}


def _check(
    hint: Any, raw: Any, where: str, name: Optional[str],
    problems: List[str],
) -> None:
    """Check ``raw``: field ``name`` of the object at ``where``, or (with
    ``name`` None) the object at ``where`` itself."""
    subject = where or "top level"
    if name is not None:
        subject += f": {name!r}"
        path = f"{where}.{name}" if where else name
    else:
        subject += ":"
        path = where
    inner = _optional(hint)
    if inner is not None:
        if raw is not None:
            _check(inner, raw, where, name, problems)
        return
    if raw is None:
        problems.append(f"{subject} must not be null")
    elif get_origin(hint) is tuple:
        if not isinstance(raw, list):
            problems.append(f"{subject} must be an array")
            return
        for index, item in enumerate(raw):
            _check(get_args(hint)[0], item, f"{path}[{index}]", None,
                   problems)
    elif get_origin(hint) is Literal:
        if not isinstance(raw, str) or raw not in get_args(hint):
            problems.append(
                f"{subject} unknown value {raw!r} "
                f"(expected one of {', '.join(get_args(hint))})")
    elif _is_record(hint):
        if not isinstance(raw, dict):
            problems.append(f"{subject} must be an object")
            return
        schema = _schema(hint)
        names = [field_name for field_name, _ in schema]
        where_record = path or "top level"
        problems.extend(
            f"{where_record}: missing field {field_name!r}"
            for field_name in names if field_name not in raw
        )
        problems.extend(
            f"{where_record}: unexpected field {key!r}"
            for key in sorted(raw) if key not in names
        )
        for field_name, sub in schema:
            if field_name in raw:
                _check(sub, raw[field_name], path, field_name, problems)
    else:
        accepts, expected = _SCALARS[hint]
        if not accepts(raw):
            problems.append(f"{subject} must be {expected}")


def schema_problems(cls: type, raw: Any, where: str = "") -> List[str]:
    """Every way parsed JSON ``raw`` departs from record class ``cls``.

    Field sets are exact (missing and unexpected keys both count);
    integers must not be booleans, floats must be finite, strings
    non-empty, ``Literal`` fields one of their values, and ``null`` is
    allowed only where the type is ``Optional``. ``where`` prefixes the
    locations (``"windows[0]"``); empty means the top level. No problems
    means ``cls.from_record(raw)`` builds a well-formed report.
    """
    problems: List[str] = []
    _check(cls, raw, where, None, problems)
    return problems


def float_fields(cls: type, raw: Any,
                 prefix: str = "") -> Iterator[Tuple[str, Any]]:
    """(path, value) of every float field of the parsed record ``raw``.

    Follows ``cls``'s schema: a missing field yields None, an absent
    optional value nothing, and a branch that is not an object or an
    array is skipped (the schema layer reports those).
    """
    if not isinstance(raw, dict):
        return
    for name, hint in _schema(cls):
        value = raw.get(name)
        inner = _optional(hint)
        if inner is not None:
            if value is None:
                continue
            hint = inner
        if hint is float:
            yield prefix + name, value
        elif get_origin(hint) is tuple and isinstance(value, list):
            for index, item in enumerate(value):
                yield from float_fields(
                    get_args(hint)[0], item, f"{prefix}{name}[{index}].")
        elif _is_record(hint):
            yield from float_fields(hint, value, f"{prefix}{name}.")


class _Record:
    """JSON record methods every health dataclass derives from its fields."""

    def to_record(self) -> Dict[str, Any]:
        return _encode(self)

    @classmethod
    def from_record(cls: Type[R], record: Any) -> R:
        return _decode(cls, record)

    def finite(self) -> bool:
        """True when every float in the record is finite."""
        return all(
            math.isfinite(value)
            for _, value in float_fields(type(self), self.to_record())
        )


class _Report(_Record):
    """A whole report: one indented, key-sorted JSON document."""

    def to_json(self) -> str:
        return json.dumps(self.to_record(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls: Type[R], text: str) -> R:
        return cls.from_record(json.loads(text))


# -- session health (schema v1) ---------------------------------------------


@dataclass(frozen=True)
class Attribution(_Record):
    """The component a window's residual is pinned on."""

    kind: ComponentKind
    #: path class ("c1"), stage index ("2"), or core id ("4")
    key: str
    score: float
    #: residual the component carries, µs/byte
    residual_us_per_byte: float
    #: score separation from the runner-up, in (0, 1]
    confidence: float

    def describe(self) -> str:
        if self.kind == "path":
            return f"degraded link {self.key}"
        if self.kind == "retry":
            return f"retry-heavy stage s{self.key}"
        return f"underperforming core {self.key}"


@dataclass(frozen=True)
class Component(_Record):
    """One component's slice of a window's residual."""

    kind: ComponentKind
    key: str
    residual_us_per_byte: float
    score: float


@dataclass(frozen=True)
class WindowHealth(_Record):
    """One window's health record (one NDJSON line when streamed)."""

    window_index: int
    measured_latency_us_per_byte: float
    predicted_latency_us_per_byte: float
    latency_residual_us_per_byte: float
    measured_energy_uj_per_byte: float
    predicted_energy_uj_per_byte: float
    energy_residual_uj_per_byte: float
    components: Tuple[Component, ...]
    unattributed_us_per_byte: float
    #: window violated the latency SLO on a steady batch
    violated: bool
    anomalous: bool
    attribution: Optional[Attribution]


def build_window_health(
    residual: WindowResidual,
    violated: bool,
    threshold: float = DEFAULT_ANOMALY_THRESHOLD,
) -> WindowHealth:
    """Fold one ledger window into a health record.

    The window is *anomalous* when its top-scoring component clears
    ``threshold``; the attribution's confidence is the relative score
    gap to the runner-up (1.0 when there is none), so two components
    racing each other read as low-confidence.
    """
    ranked = sorted(
        residual.components, key=lambda c: c.score, reverse=True
    )
    attribution = None
    anomalous = bool(ranked) and ranked[0].score >= threshold
    if anomalous:
        top = ranked[0]
        runner_up = ranked[1].score if len(ranked) > 1 else 0.0
        confidence = 1.0 - max(runner_up, 0.0) / top.score
        attribution = Attribution(
            kind=top.kind,
            key=top.key,
            score=top.score,
            residual_us_per_byte=top.residual_us_per_byte,
            confidence=max(min(confidence, 1.0), 0.0),
        )
    return WindowHealth(
        window_index=residual.window_index,
        measured_latency_us_per_byte=residual.measured_latency_us_per_byte,
        predicted_latency_us_per_byte=residual.predicted_latency_us_per_byte,
        latency_residual_us_per_byte=residual.latency_residual_us_per_byte,
        measured_energy_uj_per_byte=residual.measured_energy_uj_per_byte,
        predicted_energy_uj_per_byte=residual.predicted_energy_uj_per_byte,
        energy_residual_uj_per_byte=residual.energy_residual_uj_per_byte,
        components=tuple(
            Component(c.kind, c.key, c.residual_us_per_byte, c.score)
            for c in residual.components
        ),
        unattributed_us_per_byte=residual.unattributed_us_per_byte,
        violated=violated,
        anomalous=anomalous,
        attribution=attribution,
    )


@dataclass(frozen=True)
class SessionHealth(_Report):
    """Whole-session health report: the windows plus identity."""

    label: str
    board: str
    latency_constraint_us_per_byte: float
    windows: Tuple[WindowHealth, ...]
    schema_version: int = HEALTH_SCHEMA_VERSION

    def dominant(self) -> Optional[Attribution]:
        """The highest-scoring attribution across all windows."""
        best: Optional[Attribution] = None
        for window in self.windows:
            a = window.attribution
            if a is not None and (best is None or a.score > best.score):
                best = a
        return best

    def anomalous_windows(self) -> Tuple[WindowHealth, ...]:
        return tuple(w for w in self.windows if w.anomalous)


# -- fleet health (schema v2) -------------------------------------------------


@dataclass(frozen=True)
class FleetBoardHealth(_Record):
    """One board's state at the end of one gateway window."""

    board_index: int
    name: str
    kind: str
    alive: bool
    breaker_state: BreakerState
    consecutive_failures: int
    #: sustained DVFS cap in force, or None at nominal frequency
    throttled_mhz: Optional[float]
    #: utilization of the most-loaded core (busy-µs / window period)
    max_core_load: float
    tenants_running: int
    #: window RPCs against this board that failed (after retries)
    rpc_failures: int


@dataclass(frozen=True)
class FleetTenantHealth(_Record):
    """One tenant's state at the end of one gateway window."""

    tenant_id: int
    name: str
    priority: int
    state: TenantState
    #: hosting board while running/stranded, else None
    board_index: Optional[int]
    l_set_us_per_byte: float
    modeled_latency_us_per_byte: float
    #: synthesized measurement (0.0 while not running)
    measured_latency_us_per_byte: float
    modeled_energy_uj_per_byte: float
    violated: bool


@dataclass(frozen=True)
class FleetEvent(_Record):
    """One entry of the gateway's ordered event log."""

    #: running sequence number — total order across the whole run
    sequence: int
    window_index: int
    kind: EventKind
    tenant_id: Optional[int]
    board_index: Optional[int]
    detail: str


@dataclass(frozen=True)
class FleetWindowHealth(_Record):
    """One gateway window: every board and tenant, plus aggregates."""

    window_index: int
    boards: Tuple[FleetBoardHealth, ...]
    tenants: Tuple[FleetTenantHealth, ...]
    #: tenants whose measured latency breached their l_set (stranded
    #: tenants count — their stream is down, the SLO is being violated)
    violations: int
    #: modeled fleet energy spent this window, µJ
    energy_uj: float


@dataclass(frozen=True)
class FleetHealth(_Report):
    """Whole-run fleet health report (schema v2)."""

    label: str
    #: scenario arm: "static", "shed", or "shed-failover"
    arm: str
    seed: int
    board_count: int
    tenant_count: int
    #: fleet-wide energy budget the admission controller enforced, µJ
    #: per window
    energy_budget_uj_per_window: float
    windows: Tuple[FleetWindowHealth, ...]
    events: Tuple[FleetEvent, ...]
    schema_version: int = FLEET_HEALTH_SCHEMA_VERSION

    # -- aggregates ----------------------------------------------------------

    def total_violations(self) -> int:
        return sum(w.violations for w in self.windows)

    def violations_after(self, window_index: int) -> int:
        """SLO violations in windows ``>= window_index`` (steady state
        after warmup, or post-fault accounting)."""
        return sum(
            w.violations for w in self.windows
            if w.window_index >= window_index
        )

    def admitted_tenants(self) -> Tuple[int, ...]:
        """Tenant ids that were admitted at least once, in id order."""
        admitted = {
            e.tenant_id for e in self.events
            if e.kind == "admit" and e.tenant_id is not None
        }
        return tuple(sorted(admitted))

    def events_of(self, kind: str) -> Tuple[FleetEvent, ...]:
        return tuple(e for e in self.events if e.kind == kind)


# -- loading ------------------------------------------------------------------

_REPORTS: Dict[int, type] = {
    HEALTH_SCHEMA_VERSION: SessionHealth,
    FLEET_HEALTH_SCHEMA_VERSION: FleetHealth,
}


def health_schema(payload: Any) -> Optional[type]:
    """The record class a parsed health document declares.

    :class:`SessionHealth` or :class:`FleetHealth` by its
    ``schema_version``; :class:`WindowHealth` for an unversioned object
    with a ``window_index`` (one NDJSON window record); None for
    anything else (an unknown version, or not a health report).
    """
    if not isinstance(payload, dict):
        return None
    version = payload.get("schema_version")
    if version is None:
        return WindowHealth if "window_index" in payload else None
    return _REPORTS.get(version) if isinstance(version, int) else None


def load_health(text: str) -> Tuple[Optional[type], Any]:
    """Parse a health file into ``(record class, parsed JSON)``.

    One JSON document dispatches on :func:`health_schema`; a lone
    window record comes back as a one-record tail. Other text is read
    as an NDJSON tail of objects, ``(WindowHealth, [record, ...])``,
    blank lines skipped. Raises :class:`json.JSONDecodeError` when it
    is neither.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        records = [json.loads(line) for line in text.splitlines()
                   if line.strip()]
        if not records or not all(isinstance(r, dict) for r in records):
            raise
        return WindowHealth, records
    schema = health_schema(payload)
    if schema is WindowHealth:
        return schema, [payload]
    return schema, payload
