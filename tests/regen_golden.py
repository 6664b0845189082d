"""The golden report corpus: fixed CLI invocations and the bytes they print.

``tests/golden/manifest.json`` holds, for each invocation, its argv, exit
status, the sha256 of its stdout and its stderr text.  ``test_golden.py``
replays every invocation through ``cli.main`` in process and compares.
Invocations run with ``tests/golden`` as the working directory, so the
classify inputs are named by bare file names.

Regenerate the manifest only when a report is meant to change, and list
each changed invocation with its reason in CHANGES.md:

    PYTHONPATH=src python tests/regen_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "manifest.json"
MAX_N = 12


def _signatures(max_n: int):
    return [(p, n - p) for n in range(max_n + 1) for p in range(n, -1, -1)]


def invocations() -> list[list[str]]:
    """Every argv of the corpus, in manifest order."""
    out: list[list[str]] = []
    # build-rep over every signature with n <= 12, refusals included; the
    # volume sign changes the generators only for odd n, so the negative
    # sign runs there
    for p, q in _signatures(MAX_N):
        out.append(["build-rep", "--signature", f"{p},{q}"])
        if (p + q) % 2 == 1:
            out.append(["build-rep", "--signature", f"{p},{q}", "--volume-sign", "-"])
    for sign in ("+", "-"):
        for sig, samples in (("9,0", "2"), ("0,4", "2"), ("1,2", "4")):
            out.append(
                ["verify-fierz", "--signature", sig, "--samples", samples, "--volume-sign", sign]
            )
        for sig, samples in (("9,0", "6"), ("1,2", "30")):
            out.append(
                ["census", "--signature", sig, "--samples", samples, "--seed", "3", "--volume-sign", sign]
            )
    # verify-fierz beyond the three classified signatures: every case, tiny
    # and mid-sized representations
    for sig in ("0,0", "1,0", "0,1", "2,2", "3,0", "4,1", "1,6", "7,0"):
        out.append(["verify-fierz", "--signature", sig, "--samples", "2", "--seed", "5"])
    for sig in ("3,0", "1,6"):
        out.append(["verify-fierz", "--signature", sig, "--samples", "2", "--volume-sign", "-"])
    # n = 10 under the standard and a mixed-sign metric: the dense products
    # of the widest Fierz checks
    for sig in ("10,0", "5,5"):
        out.append(["verify-fierz", "--signature", sig, "--samples", "1"])
    out += [
        ["verify-fierz", "--signature", "1,2", "--samples", "2", "--format", "text"],
        ["census", "--signature", "1,2", "--samples", "10", "--format", "text"],
        ["build-rep", "--signature", "0,4", "--format", "text"],
        ["check-algebra", "--signature", "2,1", "--trials", "4"],
        ["check-algebra", "--signature", "1,3", "--trials", "2", "--format", "text"],
        ["check-algebra", "--trials", "1", "--seed", "5"],
        ["appendix-check", "--trials", "2", "--seed", "11"],
        ["appendix-check", "--trials", "1", "--format", "text"],
        ["classify", "--signature", "9,0", "spinor_9_0.json"],
        ["classify", "--signature", "9,0", "--volume-sign", "-", "spinor_9_0.json"],
        ["classify", "--signature", "9,0", "spinor_9_0_mixed.json"],
        ["classify", "--signature", "1,2", "spinor_1_2.json"],
        ["classify", "--signature", "9,0", "inject_9_0.json"],
        ["classify", "--signature", "9,0", "--format", "text", "inject_9_0.json"],
        # exit 1: injected sets that violate the reduced rows or the master identity
        ["classify", "--signature", "1,2", "inject_1_2.json"],
        ["classify", "--signature", "9,0", "master_violation_9_0.json"],
        # exit 2: invalid invocations
        ["classify", "--signature", "9,0", "spinor_short.json"],
        ["classify", "--signature", "9,0", "bad_scalar_9_0.json"],
        ["classify", "--signature", "9,0", "unknown_key_9_0.json"],
        ["classify", "--signature", "9,0", "unknown_term_key_9_0.json"],
        ["classify", "--signature", "9,0", "out_of_range_9_0.json"],
        ["classify", "--signature", "1,2", "inject_9_0.json"],
        ["classify", "--signature", "9,0", "missing.json"],
        ["classify", "spinor_1_2.json"],
        ["census", "--signature", "2,2", "--samples", "1"],
        ["census", "--signature", "9,0", "--samples", "-1"],
        ["appendix-check", "--signature", "1,2", "--trials", "1"],
        ["appendix-check", "--volume-sign", "-", "--trials", "1"],
        ["verify-fierz"],
        ["build-rep", "--signature", "3"],
        ["build-rep", "--signature", "13,0"],
    ]
    return out


def run(argv: list[str]) -> tuple[int, bytes, str]:
    """Exit status, stdout bytes and stderr text of one in-process CLI run."""
    from grafclifford.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
    finally:
        os.chdir(cwd)
    return status, out.getvalue().encode("utf-8"), err.getvalue()


def record(argv: list[str]) -> dict:
    status, out, err = run(argv)
    return {
        "argv": argv,
        "exit": status,
        "stdout_sha256": hashlib.sha256(out).hexdigest(),
        "stderr": err,
    }


def main() -> None:
    os.environ.pop("GRAF_MAX_DIM", None)
    entries = [record(argv) for argv in invocations()]
    MANIFEST.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} invocations to {MANIFEST}", file=sys.stderr)


if __name__ == "__main__":
    main()
