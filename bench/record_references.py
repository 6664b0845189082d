"""Record the reference reports that the correctness gate compares against.

Usage: python3 bench/record_references.py

Runs every invocation of every workload at the default seed from ``src/``
and writes each report, with a manifest naming the workload, invocation,
signature and seed that produced it, under ``bench/reference/``.  A report
that does not pass is not recorded.  Re-record only when a change alters a
report on purpose, and say why in the change's notes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from check import MANIFEST, REFERENCE_DIR, check_invocation, manifest_entry
from workloads import DEFAULT_SEED, WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    entries = []
    for workload in WORKLOADS.values():
        (REFERENCE_DIR / workload.name).mkdir(parents=True, exist_ok=True)
        for inv in workload.invocations:
            argv = inv.argv(DEFAULT_SEED)
            done = subprocess.run([sys.executable, "-m", "grafclifford.cli", *argv], env=env, capture_output=True)
            problems = check_invocation(done.returncode, done.stdout, None)
            if problems:
                print(f"{workload.name} {' '.join(argv)}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            entry = manifest_entry(workload.name, inv.key, argv, inv.signature, DEFAULT_SEED)
            (REFERENCE_DIR / entry["file"]).write_bytes(done.stdout)
            entries.append(entry)
            print(f"recorded {entry['file']} ({len(done.stdout)} bytes)")
    manifest = {"reports": entries}
    (REFERENCE_DIR / MANIFEST).write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
