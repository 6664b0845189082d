"""The golden report corpus: every recorded invocation prints the recorded bytes."""

import hashlib
import json

from regen_golden import MANIFEST, invocations, run


def test_manifest_lists_the_corpus_invocations():
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in manifest] == invocations()


def test_reports_match_the_golden_corpus(monkeypatch):
    monkeypatch.delenv("GRAF_MAX_DIM", raising=False)
    mismatches = []
    for entry in json.loads(MANIFEST.read_text(encoding="utf-8")):
        status, out, err = run(entry["argv"])
        got = (status, hashlib.sha256(out).hexdigest(), err)
        if got != (entry["exit"], entry["stdout_sha256"], entry["stderr"]):
            mismatches.append(" ".join(entry["argv"]))
    assert not mismatches, mismatches
