"""Self-tests of the benchmark.  Run with: python3 -m pytest -q bench"""

from __future__ import annotations

import bisect
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from check import check_invocation, load_references
from hostspeed import PERIOD_S, pinned_to_one_cpu, sample
from run import END_TO_END_UNITS, PER_LAYER_UNITS, ROOT, run_benchmark
from spans import Span, layer_metrics, self_times
from workloads import DEFAULT_SEED, WORKLOADS, Invocation, Workload

OTHER_SEED = 5

# The same subcommands as each workload, on the cheapest inputs.
TINY = {
    "fierz-dense": (Invocation("verify-fierz", (1, 2), 2), Invocation("verify-fierz", (0, 4), 1)),
    "census-sparse": (Invocation("census", (9, 0), 3), Invocation("census", (1, 2), 20)),
    "rep-sweep": (Invocation("build-rep", (0, 4)), Invocation("check-algebra")),
}

DETERMINISTIC = [name for name, unit in PER_LAYER_UNITS.items() if name.endswith(".calls")] + [
    "graf.blade_pairs",
    "graf.rational_share",
    "fierz.blade_actions",
    "linalg.mat_mul_madds",
    "cli.report_bytes",
]


def tiny(name: str) -> Workload:
    return Workload(name, TINY[name], WORKLOADS[name].setup_signatures)


def test_tiny_workloads_cover_every_workload():
    assert set(TINY) == set(WORKLOADS)
    for name, invocations in TINY.items():
        assert {i.command for i in invocations} == {i.command for i in WORKLOADS[name].invocations}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(name, trace):
    record = run_benchmark(tiny(name), OTHER_SEED, 0.1, trace)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    assert {k: v["unit"] for k, v in record["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in record["metrics"].values())
    assert record["attempted"] >= len(TINY[name])
    assert record["failed"] == 0, record["failures"]  # error_rate = 0
    if not trace:
        assert record["metrics"]["wall_s"]["value"] > 0
        assert record["metrics"]["setup_s"]["value"] > 0
        assert record["metrics"]["peak_rss_mb"]["value"] > 0


def test_deterministic_counters_repeat_for_one_seed():
    workload = Workload(
        "mixed",
        (
            Invocation("census", (9, 0), 3),
            Invocation("verify-fierz", (1, 2), 2),
            Invocation("build-rep", (0, 4)),
        ),
        (),
    )
    first, second = (run_benchmark(workload, OTHER_SEED, 0.1, True)["metrics"] for _ in range(2))
    for name in DETERMINISTIC:
        assert first[name]["value"] == second[name]["value"], name
    for name in ("graf.calls", "fierz.calls", "linalg.calls", "graf.blade_pairs", "fierz.blade_actions",
                 "linalg.mat_mul_madds", "cli.report_bytes"):
        assert first[name]["value"] > 0, name


def _span(name, start, end, parent, error=False, bookkeeping=0.0):
    return Span(name, start, end, parent, error, bookkeeping, "synthetic")


def test_self_time_is_duration_minus_children():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("graf.graf_product", 1.0, 4.0, 0),
        _span("linalg.mat_mul", 2.0, 3.0, 1),
        _span("graf._product_terms_diag", 2.25, 2.75, 2),
        _span("exterior.wedge", 5.0, 9.0, 0, error=True),
    ]
    assert self_times(spans) == [3.0, 2.0, 0.5, 0.5, 4.0]
    m = layer_metrics(spans)
    assert (m["cli.calls"], m["cli.total_s"], m["cli.self_s"]) == (1, 10.0, 3.0)
    # graf nested under graf (through linalg) is counted once in total_s
    assert (m["graf.calls"], m["graf.total_s"], m["graf.self_s"]) == (2, 3.0, 2.5)
    assert (m["linalg.total_s"], m["linalg.self_s"]) == (1.0, 0.5)
    assert (m["exterior.errors"], m["graf.errors"]) == (1, 0)
    assert m["fierz.calls"] == 0


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("graf.hodge", 1.0, 5.0, 0),
        _span("graf.hodge", 4.0, 6.0, 0),
        _span("graf.hodge", 9.0, 12.0, 0),
    ]
    assert self_times(spans)[0] == 10.0 - 5.0 - 1.0


def test_child_bookkeeping_is_not_the_parents_self_time():
    spans = [
        _span("classify.classify_90", 0.0, 10.0, -1),
        _span("graf.graf_product", 1.0, 4.0, 0, bookkeeping=0.5),
        _span("graf.graf_product", 5.0, 6.0, 0, bookkeeping=0.25),
    ]
    assert self_times(spans) == [10.0 - 3.0 - 0.5 - 1.0 - 0.25, 3.0, 1.0]
    m = layer_metrics(spans)
    assert (m["classify.self_s"], m["classify.total_s"]) == (5.25, 10.0)
    assert m["graf.self_s"] == 4.0


# Alternates 0.1 s phases on a small and a large working set; prints when each began.
PHASED_CHILD = r"""
import json, random, sys, time
small = list(range(512))
large = list(range(1_000_000))
random.Random(1).shuffle(large)
phases, end, k = [], time.perf_counter() + float(sys.argv[1]), 0
while time.perf_counter() < end:
    data = large if k % 2 else small
    phases.append(time.perf_counter())
    stop, idx, acc = time.perf_counter() + 0.1, 0, 0
    while time.perf_counter() < stop:
        for _ in range(2000):
            idx = data[(idx + acc) % len(data)]
            acc += idx & 7
    k += 1
phases.append(time.perf_counter())
print(json.dumps(phases))
"""


def test_speed_samples_ignore_the_childs_working_set():
    """Control for the host-speed correction: the speed it reads beside a child
    must not depend on how much of the cache the child uses.  Adjacent phases
    are compared, so the host's own speed changes cancel."""
    taken = []
    with pinned_to_one_cpu():
        child = subprocess.Popen([sys.executable, "-c", PHASED_CHILD, "4"], stdout=subprocess.PIPE)
        fd = os.pidfd_open(child.pid)
        try:
            while not select.select([fd], [], [], PERIOD_S)[0]:
                taken.append((time.perf_counter(), sample()))
        finally:
            os.close(fd)
            out = child.communicate()[0]
    assert child.returncode == 0
    phases = json.loads(out)
    speeds: dict[int, list[float]] = {}
    for at, seconds in taken:
        i = bisect.bisect_right(phases, at) - 1
        if 0 <= i < len(phases) - 1:
            speeds.setdefault(i, []).append(1 / seconds)
    ratios = [
        statistics.fmean(speeds[i]) / statistics.fmean(speeds[i + 1])
        for i in range(0, len(phases) - 2, 2)
        if i in speeds and i + 1 in speeds
    ]
    assert len(ratios) >= 10
    assert abs(statistics.median(ratios) - 1) < 0.1, ratios


def test_check_invocation_verdicts():
    ok = json.dumps({"passed": True, "oracles": {"fierz_failures": 0}}).encode()
    assert check_invocation(0, ok, None) == []
    assert check_invocation(0, ok, ok) == []
    assert check_invocation(1, ok, None)
    assert check_invocation(0, b"not json", None)
    assert check_invocation(0, json.dumps({"passed": False}).encode(), None)
    assert check_invocation(0, json.dumps({"passed": True, "oracles": {"fierz_failures": 2}}).encode(), None)
    assert check_invocation(0, json.dumps({"passed": True, "failures": {"associativity": {}}}).encode(), None)
    assert check_invocation(0, ok, ok.replace(b"0", b"1"))


def test_references_name_workload_signature_and_seed():
    manifest = json.loads((Path(__file__).parent / "reference" / "manifest.json").read_text())
    recorded = {(e["workload"], e["key"]) for e in manifest["reports"]}
    expected = {(w.name, i.key) for w in WORKLOADS.values() for i in w.invocations}
    assert recorded == expected
    for entry in manifest["reports"]:
        assert entry["seed"] == DEFAULT_SEED
        assert entry["argv"][entry["argv"].index("--seed") + 1] == str(DEFAULT_SEED)


def test_tampered_reference_is_a_failed_invocation(tmp_path):
    inv = next(i for i in WORKLOADS["fierz-dense"].invocations if i.signature == (1, 2))
    workload = Workload("fierz-dense", (inv,), ())
    assert run_benchmark(workload, DEFAULT_SEED, 0.1, False)["failed"] == 0

    tampered = tmp_path / "reference"
    shutil.copytree(Path(__file__).parent / "reference", tampered)
    path = tampered / "fierz-dense" / f"{inv.key}.json"
    path.write_bytes(path.read_bytes().replace(b'"samples":20', b'"samples":21'))
    assert load_references("fierz-dense", DEFAULT_SEED, tampered)[inv.key] != load_references(
        "fierz-dense", DEFAULT_SEED
    )[inv.key]
    record = run_benchmark(workload, DEFAULT_SEED, 0.1, False, reference_dir=tampered)
    assert record["failed"] == record["attempted"] >= 1
    assert all("reference" in " ".join(f["problems"]) for f in record["failures"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(Path(__file__).parent, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rep-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == b""
