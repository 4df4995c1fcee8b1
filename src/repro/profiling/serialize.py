"""JSON (de)serialization for profiles and schedules.

Profiling is the expensive step of the pipeline (one simulation per
mode), so a real deployment profiles once and reuses the data; likewise
a schedule is the compiler's deliverable.  Both round-trip through plain
JSON dicts here.

Edges serialize as ``"src->dst"`` and local paths as ``"h->i->j"``;
block labels must therefore not contain ``"->"`` (the frontend never
emits such labels).
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any

from repro.errors import ProfileError, ScheduleError
from repro.core.analytical.params import ProgramParams
from repro.core.milp.schedule import DVSSchedule
from repro.profiling.profile_data import BlockModeData, ProfileData

_SEP = "->"
FORMAT_VERSION = 1


def _edge_key(edge: tuple[str, str]) -> str:
    return f"{edge[0]}{_SEP}{edge[1]}"


def _parse_edge(text: str) -> tuple[str, str]:
    parts = text.split(_SEP)
    if len(parts) != 2:
        raise ProfileError(f"malformed edge key {text!r}")
    return parts[0], parts[1]


def profile_to_dict(profile: ProfileData) -> dict[str, Any]:
    """Serialize a profile to a JSON-compatible dict."""
    return {
        "format": FORMAT_VERSION,
        "kind": "profile",
        "name": profile.name,
        "num_modes": profile.num_modes,
        "return_value": profile.return_value,
        "block_counts": dict(profile.block_counts),
        "edge_counts": {_edge_key(e): c for e, c in profile.edge_counts.items()},
        "path_counts": {
            f"{h}{_SEP}{i}{_SEP}{j}": c for (h, i, j), c in profile.path_counts.items()
        },
        "wall_time_s": {str(m): t for m, t in profile.wall_time_s.items()},
        "cpu_energy_nj": {str(m): e for m, e in profile.cpu_energy_nj.items()},
        "per_mode": {
            str(mode): {
                label: [d.total_time_s, d.total_energy_nj, d.count]
                for label, d in blocks.items()
            }
            for mode, blocks in profile.per_mode.items()
        },
        "params": None if profile.params is None else asdict(profile.params),
    }


def profile_from_dict(data: dict[str, Any]) -> ProfileData:
    """Rebuild a :class:`ProfileData` from its dict form (validated)."""
    if data.get("kind") != "profile":
        raise ProfileError(f"not a profile document (kind={data.get('kind')!r})")
    if data.get("format") != FORMAT_VERSION:
        raise ProfileError(f"unsupported profile format {data.get('format')!r}")
    profile = ProfileData(name=data["name"], num_modes=int(data["num_modes"]))
    profile.return_value = data.get("return_value")
    profile.block_counts = {k: int(v) for k, v in data["block_counts"].items()}
    profile.edge_counts = {
        _parse_edge(k): int(v) for k, v in data["edge_counts"].items()
    }
    for key, count in data["path_counts"].items():
        parts = key.split(_SEP)
        if len(parts) != 3:
            raise ProfileError(f"malformed path key {key!r}")
        profile.path_counts[(parts[0], parts[1], parts[2])] = int(count)
    profile.wall_time_s = {int(m): float(t) for m, t in data["wall_time_s"].items()}
    profile.cpu_energy_nj = {int(m): float(e) for m, e in data["cpu_energy_nj"].items()}
    for mode, blocks in data["per_mode"].items():
        profile.per_mode[int(mode)] = {
            label: BlockModeData(float(t), float(e), int(c))
            for label, (t, e, c) in blocks.items()
        }
    if data["params"] is not None:
        profile.params = ProgramParams(**data["params"])
    profile.validate()
    return profile


def schedule_to_dict(schedule: DVSSchedule) -> dict[str, Any]:
    """Serialize a schedule to a JSON-compatible dict."""
    return {
        "format": FORMAT_VERSION,
        "kind": "schedule",
        "num_modes": schedule.num_modes,
        "assignment": {_edge_key(e): m for e, m in schedule.assignment.items()},
    }


def schedule_from_dict(data: dict[str, Any]) -> DVSSchedule:
    if data.get("kind") != "schedule":
        raise ScheduleError(f"not a schedule document (kind={data.get('kind')!r})")
    if data.get("format") != FORMAT_VERSION:
        raise ScheduleError(f"unsupported schedule format {data.get('format')!r}")
    assignment = {
        _parse_edge(key): int(mode) for key, mode in data["assignment"].items()
    }
    return DVSSchedule(assignment=assignment, num_modes=int(data["num_modes"]))


#: The observable facts of one simulated execution that experiment
#: artifacts persist (the full RunResult drags the data memory along).
_RUN_SUMMARY_FIELDS = (
    "return_value",
    "wall_time_s",
    "cpu_energy_nj",
    "memory_energy_nj",
    "transition_energy_nj",
    "transition_time_s",
    "instructions",
    "mem_misses",
    "mode_transitions",
    "modeset_executions",
    "final_mode",
)


def run_summary_to_dict(result) -> dict[str, Any]:
    """Serialize the persistent slice of a simulator ``RunResult``."""
    summary: dict[str, Any] = {"format": FORMAT_VERSION, "kind": "run-summary"}
    for name in _RUN_SUMMARY_FIELDS:
        summary[name] = getattr(result, name)
    return summary


def run_summary_from_dict(data: dict[str, Any]) -> dict[str, Any]:
    """Validate and strip a run-summary document down to its fields."""
    if data.get("kind") != "run-summary":
        raise ProfileError(f"not a run-summary document (kind={data.get('kind')!r})")
    if data.get("format") != FORMAT_VERSION:
        raise ProfileError(f"unsupported run-summary format {data.get('format')!r}")
    missing = [name for name in _RUN_SUMMARY_FIELDS if name not in data]
    if missing:
        raise ProfileError(f"run-summary document is missing fields {missing}")
    return {name: data[name] for name in _RUN_SUMMARY_FIELDS}


def save_profile(profile: ProfileData, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(profile_to_dict(profile), handle)


def load_profile(path: str) -> ProfileData:
    """Load a profile JSON file.

    Raises:
        ProfileError: the file is not valid JSON or not a well-formed
            profile document (truncated downloads, hand-edits, wrong
            file passed to ``--profile``).  OS-level errors (missing
            file, permissions) propagate as :class:`OSError` so callers
            can distinguish "bad content" from "bad path".
    """
    with open(path) as handle:
        try:
            data = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ProfileError(f"cannot parse profile {path}: {error}") from error
    if not isinstance(data, dict):
        raise ProfileError(f"profile {path} is not a JSON object")
    try:
        return profile_from_dict(data)
    except (KeyError, TypeError, ValueError) as error:
        raise ProfileError(
            f"malformed profile document {path}: {type(error).__name__}: {error}"
        ) from error


def save_schedule(schedule: DVSSchedule, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(schedule_to_dict(schedule), handle)


def load_schedule(path: str) -> DVSSchedule:
    """Load a schedule JSON file (error contract as :func:`load_profile`)."""
    with open(path) as handle:
        try:
            data = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ScheduleError(f"cannot parse schedule {path}: {error}") from error
    if not isinstance(data, dict):
        raise ScheduleError(f"schedule {path} is not a JSON object")
    try:
        return schedule_from_dict(data)
    except (KeyError, TypeError, ValueError) as error:
        raise ScheduleError(
            f"malformed schedule document {path}: {type(error).__name__}: {error}"
        ) from error
