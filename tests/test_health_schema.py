"""Negative schema cases for the health reports (v1 session, v2 fleet).

Each case breaks one field of an otherwise valid report — a missing or
an unexpected field, a wrong type, an unknown enum value, ``true`` for
an integer, NaN for a float, ``null`` where the field is not optional —
and the validator must reject it, naming where.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.check import main as check_main
from repro.obs.check import validate_fleet_health, validate_health


def _fleet_payload():
    return {
        "schema_version": 2,
        "label": "fleet:board-crash",
        "arm": "shed-failover",
        "seed": 0,
        "board_count": 1,
        "tenant_count": 1,
        "energy_budget_uj_per_window": 5000.0,
        "windows": [{
            "window_index": 0,
            "boards": [{
                "board_index": 0,
                "name": "rk3399-0",
                "kind": "rk3399",
                "alive": True,
                "breaker_state": "closed",
                "consecutive_failures": 0,
                "throttled_mhz": None,
                "max_core_load": 0.25,
                "tenants_running": 1,
                "rpc_failures": 0,
            }],
            "tenants": [{
                "tenant_id": 0,
                "name": "tenant-0",
                "priority": 1,
                "state": "running",
                "board_index": 0,
                "l_set_us_per_byte": 20.0,
                "modeled_latency_us_per_byte": 12.0,
                "measured_latency_us_per_byte": 12.5,
                "modeled_energy_uj_per_byte": 0.3,
                "violated": False,
            }],
            "violations": 0,
            "energy_uj": 1200.0,
        }],
        "events": [{
            "sequence": 0,
            "window_index": 0,
            "kind": "admit",
            "tenant_id": 0,
            "board_index": 0,
            "detail": "placed on rk3399-0",
        }],
    }


def _session_payload():
    return {
        "schema_version": 1,
        "label": "chaos:interconnect",
        "board": "Radxa RockPi 4a",
        "latency_constraint_us_per_byte": 33.0,
        "windows": [{
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
        }],
    }


#: level -> (location prefix in the problem text, record getter)
_FLEET_LEVELS = {
    "top": ("top level", lambda p: p),
    "window": ("windows[0]", lambda p: p["windows"][0]),
    "board": ("windows[0].boards[0]", lambda p: p["windows"][0]["boards"][0]),
    "tenant": (
        "windows[0].tenants[0]", lambda p: p["windows"][0]["tenants"][0]),
    "event": ("events[0]", lambda p: p["events"][0]),
}
_SESSION_LEVELS = {
    "top": ("top level", lambda p: p),
    "window": ("windows[0]", lambda p: p["windows"][0]),
    "component": (
        "windows[0].components[0]",
        lambda p: p["windows"][0]["components"][0],
    ),
    "attribution": (
        "windows[0].attribution", lambda p: p["windows"][0]["attribution"]),
}

_DELETE = object()
_NAN = float("nan")

#: (level, case) -> (field, value); a case a level has no field for is
#: left out (events carry no float, only boards/tenants/events/
#: components/attributions carry enums, and so on)
_FLEET_CASES = {
    ("top", "missing"): ("seed", _DELETE),
    ("top", "extra"): ("surprise", 1),
    ("top", "wrong-type"): ("label", ["fleet"]),
    ("top", "true-for-int"): ("board_count", True),
    ("top", "nan-float"): ("energy_budget_uj_per_window", _NAN),
    ("top", "null"): ("arm", None),
    ("window", "missing"): ("energy_uj", _DELETE),
    ("window", "extra"): ("surprise", 1),
    ("window", "wrong-type"): ("violations", "none"),
    ("window", "true-for-int"): ("window_index", True),
    ("window", "nan-float"): ("energy_uj", _NAN),
    ("window", "null"): ("violations", None),
    ("board", "missing"): ("breaker_state", _DELETE),
    ("board", "extra"): ("surprise", 1),
    ("board", "wrong-type"): ("alive", "yes"),
    ("board", "unknown-enum"): ("breaker_state", "ajar"),
    ("board", "true-for-int"): ("consecutive_failures", True),
    ("board", "nan-float"): ("max_core_load", _NAN),
    ("board", "null"): ("max_core_load", None),
    ("tenant", "missing"): ("violated", _DELETE),
    ("tenant", "extra"): ("surprise", 1),
    ("tenant", "wrong-type"): ("priority", 1.5),
    ("tenant", "unknown-enum"): ("state", "zombie"),
    ("tenant", "true-for-int"): ("priority", True),
    ("tenant", "nan-float"): ("l_set_us_per_byte", _NAN),
    ("tenant", "null"): ("violated", None),
    ("event", "missing"): ("detail", _DELETE),
    ("event", "extra"): ("surprise", 1),
    ("event", "wrong-type"): ("detail", 7),
    ("event", "unknown-enum"): ("kind", "meteor"),
    ("event", "true-for-int"): ("sequence", True),
    ("event", "null"): ("window_index", None),
}
_SESSION_CASES = {
    ("top", "missing"): ("board", _DELETE),
    ("top", "extra"): ("surprise", 1),
    ("top", "wrong-type"): ("label", 3),
    ("top", "nan-float"): ("latency_constraint_us_per_byte", _NAN),
    ("top", "null"): ("windows", None),
    ("window", "missing"): ("anomalous", _DELETE),
    ("window", "extra"): ("surprise", 1),
    ("window", "wrong-type"): ("violated", "no"),
    ("window", "true-for-int"): ("window_index", True),
    ("window", "nan-float"): ("unattributed_us_per_byte", _NAN),
    ("window", "null"): ("components", None),
    ("component", "missing"): ("score", _DELETE),
    ("component", "extra"): ("surprise", 1),
    ("component", "wrong-type"): ("key", 1),
    ("component", "unknown-enum"): ("kind", "gremlin"),
    ("component", "nan-float"): ("residual_us_per_byte", _NAN),
    ("component", "null"): ("score", None),
    ("attribution", "missing"): ("confidence", _DELETE),
    ("attribution", "extra"): ("surprise", 1),
    ("attribution", "wrong-type"): ("score", "high"),
    ("attribution", "unknown-enum"): ("kind", "gremlin"),
    ("attribution", "nan-float"): ("confidence", _NAN),
    ("attribution", "null"): ("key", None),
}


def _break(payload, levels, level, case, field, value):
    where, getter = levels[level]
    record = getter(payload)
    if value is _DELETE:
        del record[field]
    else:
        record[field] = value
    # the problem names the field, or for an enum the rejected value
    return where, value if case == "unknown-enum" else field


def _assert_rejected(problems, where, token):
    assert problems, "the broken report was accepted"
    assert any(where in p and str(token) in p for p in problems), problems


@pytest.mark.parametrize(
    "level,case", sorted(_FLEET_CASES), ids=lambda x: str(x))
def test_fleet_schema_rejects(level, case):
    payload = _fleet_payload()
    field, value = _FLEET_CASES[(level, case)]
    where, token = _break(payload, _FLEET_LEVELS, level, case, field, value)
    _assert_rejected(validate_fleet_health(payload), where, token)
    _assert_rejected(validate_health(payload), where, token)


@pytest.mark.parametrize(
    "level,case", sorted(_SESSION_CASES), ids=lambda x: str(x))
def test_session_schema_rejects(level, case):
    payload = _session_payload()
    field, value = _SESSION_CASES[(level, case)]
    where, token = _break(
        payload, _SESSION_LEVELS, level, case, field, value)
    _assert_rejected(validate_health(payload), where, token)


def test_out_of_float_range_integer_is_rejected():
    from repro.analysis.verify import verify_health

    fleet = _fleet_payload()
    fleet["energy_budget_uj_per_window"] = 10 ** 400
    _assert_rejected(
        validate_health(fleet), "top level", "energy_budget_uj_per_window")
    session = _session_payload()
    session["windows"][0]["unattributed_us_per_byte"] = 10 ** 400
    _assert_rejected(
        validate_health(session), "windows[0]", "unattributed_us_per_byte")
    assert [f.code for f in verify_health(session)] == ["HLT003"]


def test_valid_reports_pass():
    assert validate_fleet_health(_fleet_payload()) == []
    assert validate_health(_fleet_payload()) == []
    assert validate_health(_session_payload()) == []
    # a null attribution and a null throttle are allowed
    session = _session_payload()
    session["windows"][0].update(attribution=None, anomalous=False)
    assert validate_health(session) == []
    fleet = _fleet_payload()
    fleet["windows"][0]["boards"][0]["throttled_mhz"] = 1200.0
    assert validate_health(fleet) == []


def test_cli_accepts_compact_fleet_report(tmp_path, capsys):
    compact = tmp_path / "fleet.compact.json"
    compact.write_text(json.dumps(_fleet_payload(), separators=(",", ":")))
    assert check_main(["--health", str(compact)]) == 0
    broken = _fleet_payload()
    broken["windows"][0]["boards"][0]["breaker_state"] = "ajar"
    compact.write_text(json.dumps(broken, separators=(",", ":")))
    assert check_main(["--health", str(compact)]) == 1
    assert "ajar" in capsys.readouterr().err
