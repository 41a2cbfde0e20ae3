"""Scenario files: a group, an ambient context, a state and an optional
move script, bundled as versioned JSON."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .groups import group_from_json, group_to_json
from .moves import MoveRecord
from .state import (
    Context, LinkState, context_from_json, context_to_json,
    state_from_json, state_to_json,
)

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    pass


@dataclass
class Scenario:
    G: object
    ctx: Context
    state: LinkState
    script: list
    name: str = ""


def _check_version(obj: dict):
    version = obj.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema version {version!r}")


def scenario_from_json(obj: dict) -> Scenario:
    try:
        _check_version(obj)
        G = group_from_json(obj["group"])
        ctx = context_from_json(obj.get("context", {}))
        state = state_from_json(G, obj["state"])
    except ScenarioError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise ScenarioError(f"malformed scenario: {err}") from err
    script = obj.get("script", [])
    if not isinstance(script, list):
        raise ScenarioError("script must be a list of move entries")
    name = obj.get("name", "")
    if type(name) is not str:
        raise ScenarioError(f"the scenario name must be a string, got {name!r}")
    return Scenario(G=G, ctx=ctx, state=state, script=script, name=name)


def scenario_to_json(sc: Scenario) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "name": sc.name,
        "group": group_to_json(sc.G),
        "context": context_to_json(sc.ctx),
        "state": state_to_json(sc.G, sc.state),
        "script": sc.script,
    }


def _load_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as err:
            raise ScenarioError(f"not valid JSON: {err}") from err


def load_scenario(path: str) -> Scenario:
    return scenario_from_json(_load_json(path))


def record_to_json(rec: MoveRecord) -> dict:
    return {
        "move": rec.move,
        "params": rec.params,
        "pre_hash": rec.pre_hash,
        "post_hash": rec.post_hash,
        "steps": [{"move": n, "params": p} for n, p in rec.steps],
    }


def trace_to_json(trace) -> dict:
    return {"schema_version": SCHEMA_VERSION,
            "script": [record_to_json(r) for r in trace]}


def script_from_json(obj):
    """A move script: a bare list of entries, or a trace object of this
    schema version that carries one."""
    if isinstance(obj, dict):
        _check_version(obj)
        obj = obj.get("script", [])
    if not isinstance(obj, list):
        raise ScenarioError("script must be a list of move entries")
    return obj


def load_script(path: str):
    return script_from_json(_load_json(path))
