"""Replayable run records: every CLI command persists its input, seeds,
and output under a content-hash id so any run can be re-executed and
compared later."""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone

from . import __version__ as TOOL_VERSION

BODY_FIELDS = ("command", "input", "output", "seeds", "tolerance", "tool_version")


def canonical_json(obj) -> str:
    """Deterministic serialization: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def run_id(record: dict) -> str:
    """sha256 of the canonical JSON of the record's body fields."""
    body = {key: record[key] for key in BODY_FIELDS}
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()


def make_record(command: str, input_obj, output_obj, seeds, tolerance: float) -> dict:
    record = {
        "command": command,
        "input": input_obj,
        "output": output_obj,
        "seeds": list(seeds),
        "tolerance": tolerance,
        "tool_version": TOOL_VERSION,
    }
    record["run_id"] = run_id(record)
    record["timestamp"] = datetime.now(timezone.utc).isoformat()
    return record
