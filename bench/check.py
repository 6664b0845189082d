"""Correctness gate for one CLI invocation, and the reference reports behind it.

An invocation fails if it exits non-zero, if its report does not have
``passed: true``, if any oracle failure count in it is non-zero, or, at the
default seed, if its report differs by a single byte from the reference
report recorded for that workload, invocation and seed.  The CLI promises
byte-identical reports for identical configurations, so at other seeds only
the verdict fields are checked.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
MANIFEST = "manifest.json"


def _failure_fields(obj, path: str = "") -> list[str]:
    """Failure fields that are not zero: counts named ``*failure*`` and failure records."""
    out = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            where = f"{path}.{key}" if path else key
            if "failure" in key and not (isinstance(value, int) and not isinstance(value, bool) and value == 0):
                out.append(f"{where}={json.dumps(value)[:80]}")
            else:
                out.extend(_failure_fields(value, where))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            out.extend(_failure_fields(value, f"{path}[{i}]"))
    return out


def check_invocation(returncode: int, stdout: bytes, reference: bytes | None) -> list[str]:
    """Every reason this invocation failed; empty when it passed."""
    problems = []
    if returncode != 0:
        problems.append(f"exit status {returncode}")
    try:
        report = json.loads(stdout)
    except ValueError:
        return problems + ["report is not JSON"]
    if not isinstance(report, dict) or report.get("passed") is not True:
        problems.append("report does not have passed: true")
    else:
        problems.extend(f"oracle failure {field}" for field in _failure_fields(report))
    if reference is not None and stdout != reference:
        problems.append("report differs from the reference report")
    return problems


def load_references(workload: str, seed: int, directory: Path = REFERENCE_DIR) -> dict[str, bytes]:
    """Reference reports of one workload at one seed, keyed by invocation key."""
    manifest = json.loads((directory / MANIFEST).read_text(encoding="utf-8"))
    out = {}
    for entry in manifest["reports"]:
        if entry["workload"] == workload and entry["seed"] == seed:
            out[entry["key"]] = (directory / entry["file"]).read_bytes()
    return out


def manifest_entry(workload: str, key: str, argv: list[str], signature, seed: int) -> dict:
    return {
        "workload": workload,
        "key": key,
        "argv": argv,
        "signature": None if signature is None else list(signature),
        "seed": seed,
        "file": f"{workload}/{key}.json",
    }
