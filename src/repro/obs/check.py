"""Validate exported trace files and session/fleet health reports.

Checker for the Chrome trace-event JSON written by
:func:`repro.obs.export.write_chrome_trace` and for the health reports
of :mod:`repro.obs.health` — CI runs it on the traced smoke cell and on
the chaos and fleet health artifacts before uploading them::

    python -m repro.obs.check trace.json
    python -m repro.obs.check --health health.json
    python -m repro.obs.check --health health.ndjsonl

``--health`` accepts a session (v1) or fleet (v2) health report, or an
NDJSON tail of per-window records (:func:`repro.obs.health.load_health`
reads all three). Their schema is the dataclasses of
:mod:`repro.obs.health`, walked by
:func:`~repro.obs.health.schema_problems`; the invariants come from
:mod:`repro.analysis.verify`. Exit status 0 means the file is valid; 1
lists every violation found. The trace checks come in two layers:

* **schema** — what Perfetto and ``chrome://tracing`` require to render
  the file: known phases, numeric non-negative timestamps/durations,
  integer pid/tid, args of the right shape per phase;
* **stream invariants** — delegated to
  :func:`repro.analysis.verify.verify_chrome_payload` so the two tools
  cannot drift: per-track non-decreasing timestamps, monotone energy
  counters, non-overlapping spans (``TRC001``-``TRC007``). Only
  error-severity findings fail validation; warnings (e.g. ``TRC004``
  same-timestamp counter pairs) are the verifier CLI's business.
"""

from __future__ import annotations

import json
import numbers
import sys
from typing import Any, List

from repro.analysis.verify import (
    verify_chrome_payload,
    verify_fleet_health,
    verify_health,
)
from repro.obs.health import (
    FleetHealth,
    SessionHealth,
    WindowHealth,
    health_schema,
    load_health,
    schema_problems,
)

__all__ = [
    "validate_trace",
    "validate_health",
    "validate_fleet_health",
    "main",
]

#: phases the exporter emits (subset of the full trace-event spec)
_KNOWN_PHASES = {"X", "i", "C", "M"}
_METADATA_NAMES = {"process_name", "thread_name"}


def _check_event(index: int, event: Any, problems: List[str]) -> None:
    where = f"traceEvents[{index}]"
    if not isinstance(event, dict):
        problems.append(f"{where}: not an object")
        return
    name = event.get("name")
    if not isinstance(name, str) or not name:
        problems.append(f"{where}: missing/empty 'name'")
    phase = event.get("ph")
    if phase not in _KNOWN_PHASES:
        problems.append(f"{where}: unknown phase {phase!r}")
        return
    for key in ("pid", "tid"):
        if not isinstance(event.get(key), int):
            problems.append(f"{where}: '{key}' must be an integer")
    if phase == "M":
        if name not in _METADATA_NAMES:
            problems.append(f"{where}: unexpected metadata event {name!r}")
        args = event.get("args")
        if not isinstance(args, dict) or not isinstance(args.get("name"), str):
            problems.append(f"{where}: metadata needs args.name string")
        return
    ts = event.get("ts")
    if not isinstance(ts, numbers.Real) or isinstance(ts, bool) or ts < 0:
        problems.append(f"{where}: 'ts' must be a non-negative number")
    if phase == "X":
        dur = event.get("dur")
        if (
            not isinstance(dur, numbers.Real)
            or isinstance(dur, bool)
            or dur < 0
        ):
            problems.append(f"{where}: complete event needs 'dur' >= 0")
    if phase == "C":
        args = event.get("args")
        if not isinstance(args, dict) or not args:
            problems.append(f"{where}: counter event needs non-empty args")
        elif not all(
            isinstance(value, numbers.Real) and not isinstance(value, bool)
            for value in args.values()
        ):
            problems.append(f"{where}: counter args must be numeric")
    if phase == "i" and event.get("s") not in (None, "t", "p", "g"):
        problems.append(f"{where}: instant scope must be one of t/p/g")


def validate_trace(payload: Any) -> List[str]:
    """All schema violations in a parsed trace object (empty = valid)."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["top level: expected an object with 'traceEvents'"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["top level: 'traceEvents' must be an array"]
    if not events:
        problems.append("top level: 'traceEvents' is empty")
    for index, event in enumerate(events):
        _check_event(index, event, problems)
    if not any(
        isinstance(e, dict) and e.get("ph") not in (None, "M") for e in events
    ):
        problems.append("top level: no non-metadata events recorded")
    for finding in verify_chrome_payload(payload):
        if finding.severity == "error":
            problems.append(finding.format())
    return problems


def _errors(findings) -> List[str]:
    return [f.format() for f in findings if f.severity == "error"]


def validate_fleet_health(payload: Any) -> List[str]:
    """All problems of a parsed fleet health report (v2).

    Schema problems (:func:`repro.obs.health.schema_problems` against
    :class:`~repro.obs.health.FleetHealth`) first; when the shape is
    sound, the fleet invariants (``FLT001``-``FLT005``) of
    :func:`repro.analysis.verify.verify_fleet_health`.
    """
    problems = schema_problems(FleetHealth, payload)
    return problems or _errors(verify_fleet_health(payload))


def _validate_window(record: Any) -> List[str]:
    """Problems of one per-window record (an NDJSON tail line)."""
    problems = schema_problems(WindowHealth, record, "windows[0]")
    return problems or _errors(verify_health({"windows": [record]}))


def validate_health(payload: Any) -> List[str]:
    """All problems of a parsed health report (empty = valid).

    Accepts a session report (v1), a fleet report (v2) or a single
    per-window NDJSON record, told apart by
    :func:`repro.obs.health.health_schema`. Schema problems are
    reported first; when the shape is sound the invariants
    (``HLT001``-``HLT003``, or ``FLT001``-``FLT005`` for fleet reports)
    are delegated to :mod:`repro.analysis.verify`.
    """
    schema = health_schema(payload)
    if schema is FleetHealth:
        return validate_fleet_health(payload)
    if schema is WindowHealth:
        return _validate_window(payload)
    problems = schema_problems(SessionHealth, payload)
    if schema is None and not problems:
        problems.append(
            "top level: unknown schema_version "
            f"{payload['schema_version']!r}")
    return problems or _errors(verify_health(payload))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    health_mode = "--health" in argv
    if health_mode:
        argv.remove("--health")
    if len(argv) != 1:
        print(
            "usage: python -m repro.obs.check [--health] FILE.json",
            file=sys.stderr,
        )
        return 2
    path = argv[0]
    if health_mode:
        try:
            with open(path, "r", encoding="utf-8") as source:
                schema, payload = load_health(source.read())
        except (OSError, json.JSONDecodeError) as error:
            print(f"{path}: unreadable health report: {error}",
                  file=sys.stderr)
            return 1
        if schema is WindowHealth:
            problems = [
                f"line {index + 1}: {problem}"
                for index, record in enumerate(payload)
                for problem in _validate_window(record)
            ]
        else:
            problems = validate_health(payload)
        if problems:
            for problem in problems:
                print(f"{path}: {problem}", file=sys.stderr)
            print(f"{path}: INVALID ({len(problems)} problems)",
                  file=sys.stderr)
            return 1
        count = len(payload if schema is WindowHealth else payload["windows"])
        print(f"{path}: OK ({count} windows)")
        return 0
    try:
        with open(path, "r", encoding="utf-8") as source:
            payload = json.load(source)
    except (OSError, json.JSONDecodeError) as error:
        print(f"{path}: unreadable trace: {error}", file=sys.stderr)
        return 1
    problems = validate_trace(payload)
    if problems:
        for problem in problems:
            print(f"{path}: {problem}", file=sys.stderr)
        print(f"{path}: INVALID ({len(problems)} problems)", file=sys.stderr)
        return 1
    events = payload["traceEvents"]
    print(f"{path}: OK ({len(events)} events)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
