"""Benchmark of the grafclifford CLI: end-to-end metrics, or per-layer metrics from spans.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is run from ``src/`` there.
Load is a closed loop with one client: the invocations of a workload run
one after another, each in a fresh interpreter, because every CLI user pays
cold caches.  A pass is one run of all the workload's invocations.

``--trace 0`` measures set-up several times, then repeats passes for about
``--seconds`` and prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes for about ``--seconds`` and prints the per-layer
metrics.  Every report is checked (``check.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from check import REFERENCE_DIR, check_invocation, load_references
from hostspeed import SpeedProbe, pinned_to_one_cpu
from spans import LAYERS, layer_metrics, load_spans
from workloads import DEFAULT_SEED, WORKLOADS, Invocation, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.total_s": "s", f"{layer}.self_s": "s", f"{layer}.errors": "count"})
    units.update(
        {
            "graf.blade_pairs": "count",
            "graf.rational_share": "ratio",
            "graf.yield": "ratio",
            "fierz.blade_actions": "count",
            "matrixrep.build_rep_s": "s",
            "matrixrep.build_structure_s": "s",
            "bilinear.admissible_pairings_s": "s",
            "linalg.mat_mul_calls": "count",
            "linalg.mat_mul_madds": "count",
            "cli.report_bytes": "bytes",
            "trace.overhead_s": "s",
        }
    )
    return units


PER_LAYER_UNITS = _per_layer_units()


@dataclass
class Process:
    """One finished child process; ``seconds`` is corrected to the reference speed."""

    seconds: float
    raw_seconds: float
    factor: float
    rss_mib: float
    returncode: int
    stdout: bytes
    stderr: bytes


@dataclass
class Runner:
    """Runs and checks the invocations of one workload at one seed."""

    workload: Workload
    seed: int
    scratch: Path
    references: dict[str, bytes]
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    attempted: int = 0
    failures: list = field(default_factory=list)
    peak_rss_mib: float = 0.0
    samples: dict = field(default_factory=dict)
    raw_samples: dict = field(default_factory=dict)

    def spawn(self, argv: list[str]) -> tuple[Process, float]:
        """Run ``python3 ARGV...`` to completion; also returns the monotonic clock at its start."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        with tempfile.TemporaryFile(dir=self.scratch) as out, tempfile.TemporaryFile(dir=self.scratch) as err:
            started = time.monotonic()
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env, stdout=out, stderr=err)
            try:
                ended, factor = self.probe.watch(proc.pid)
            finally:
                _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            raw = ended - t0
            result = Process(
                raw * factor,
                raw,
                factor,
                usage.ru_maxrss / 1024,
                proc.returncode,
                out.read(),
                err.read(),
            )
        self.peak_rss_mib = max(self.peak_rss_mib, result.rss_mib)
        return result, started

    def setup_seconds(self) -> float:
        """One set-up probe: fresh interpreter to the verifier's first item, at reference speed."""
        sigs = [f"{p},{q}" for p, q in self.workload.setup_signatures]
        result, started = self.spawn([str(BENCH / "setup_probe.py"), *sigs])
        if result.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{result.stderr.decode(errors='replace')}")
        ready = float(result.stdout.decode().strip().splitlines()[-1])
        return (ready - started) * result.factor

    def invoke(self, inv: Invocation, spans_path: Path | None = None, run_id: str = "", same_as: bytes | None = None) -> Process:
        """Run and check one invocation; traced when ``spans_path`` is given."""
        cli_argv = inv.argv(self.seed)
        if spans_path is None:
            argv = ["-m", "grafclifford.cli", *cli_argv]
        else:
            argv = [str(BENCH / "traced_cli.py"), str(spans_path), run_id, *cli_argv]
        result, _ = self.spawn(argv)
        self.attempted += 1
        problems = check_invocation(result.returncode, result.stdout, self.references.get(inv.key))
        if same_as is not None and result.stdout != same_as:
            problems.append("traced report differs from the untraced report")
        if problems:
            self.failures.append({"invocation": cli_argv, "traced": spans_path is not None, "problems": problems})
        return result

    def run_pass(self) -> tuple[float, list[Process]]:
        results = [self.invoke(inv) for inv in self.workload.invocations]
        for inv, result in zip(self.workload.invocations, results):
            self.samples.setdefault(inv.key, []).append(result.seconds)
            self.raw_samples.setdefault(inv.key, []).append(result.raw_seconds)
        return sum(r.seconds for r in results), results

    def run_traced_pass(self, index: int, untraced: list[Process]) -> tuple[float, dict]:
        """A traced pass; its reports must match the untraced pass byte for byte."""
        wall = 0.0
        totals: dict[str, float] = {}
        for i, (inv, plain) in enumerate(zip(self.workload.invocations, untraced)):
            path = self.scratch / f"spans-{index}-{i}.json"
            run_id = f"{self.workload.name}/seed{self.seed}/pass{index}/{inv.key}"
            result = self.invoke(inv, path, run_id, same_as=plain.stdout)
            wall += result.seconds
            if not path.exists():
                continue
            spans, counters = load_spans(str(path))
            path.unlink()
            for name, value in (*layer_metrics(spans).items(), *counters.items()):
                if PER_LAYER_UNITS.get(name) == "s":
                    value *= result.factor
                totals[name] = totals.get(name, 0) + value
            totals["cli.report_bytes"] = totals.get("cli.report_bytes", 0) + len(result.stdout)
        return wall, totals


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _loop(seconds: float, started: float, body) -> list:
    """Closed loop: repeat ``body`` while another round is expected to end within ``seconds``."""
    out = []
    while True:
        round_start = time.perf_counter()
        out.append(body(len(out)))
        last = time.perf_counter() - round_start
        if time.perf_counter() - started + last > seconds:
            return out


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, list[float]]:
    started = time.perf_counter()
    setups = [runner.setup_seconds() for _ in range(SETUP_REPEATS)]
    walls = [wall for wall, _ in _loop(seconds, started, lambda _: runner.run_pass())]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": runner.peak_rss_mib,
    }
    return metrics, walls


def measure_per_layer(runner: Runner, seconds: float) -> tuple[dict, list[float]]:
    started = time.perf_counter()

    def pair(index: int):
        wall, results = runner.run_pass()
        traced_wall, totals = runner.run_traced_pass(index, results)
        return wall, traced_wall, totals

    rounds = _loop(seconds, started, pair)
    walls = [r[0] for r in rounds]
    traced = [r[1] for r in rounds]
    names = sorted({name for r in rounds for name in r[2]})
    merged = {name: statistics.median(r[2].get(name, 0) for r in rounds) for name in names}
    metrics = {name: merged.get(name, 0) for name in PER_LAYER_UNITS}
    graf_calls = merged.get("graf.calls", 0)
    pairs = merged.get("graf.blade_pairs", 0)
    metrics["graf.rational_share"] = merged.get("graf.rational_calls", 0) / graf_calls if graf_calls else 0.0
    metrics["graf.yield"] = merged.get("graf.output_terms", 0) / pairs if pairs else 0.0
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(walls)
    return metrics, walls


def metadata() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            if done.returncode == 0:
                commit = done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool, reference_dir: Path = REFERENCE_DIR) -> dict:
    """One benchmark run; returns its record (the summary and the last output line are derived from it)."""
    references = load_references(workload.name, seed, reference_dir) if seed == DEFAULT_SEED else {}
    with pinned_to_one_cpu(), tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp-") as scratch:
        runner = Runner(workload, seed, Path(scratch), references)
        runner.setup_seconds()  # untimed warm-up: writes the bytecode cache a user would have
        measure = measure_per_layer if trace else measure_end_to_end
        metrics, walls = measure(runner, seconds)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "metadata": metadata(),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures,
        "invocation_seconds": runner.samples,
        "invocation_raw_seconds": runner.raw_samples,
        "pass_wall_s": walls,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def _summary(record: dict) -> list[str]:
    lines = [f"# {record['workload']} seed={record['seed']} trace={int(record['trace'])} meta={json.dumps(record['metadata'])}"]
    for key, values in record["invocation_seconds"].items():
        q1, med, q3 = _quartiles(values)
        raw = statistics.median(record["invocation_raw_seconds"][key])
        lines.append(f"#   {key}: median {med:.3f} s (raw {raw:.3f} s), quartiles {q1:.3f}-{q3:.3f} s, {len(values)} runs")
    walls = record["pass_wall_s"]
    lines.append(f"#   passes: {len(walls)}, pass wall {', '.join(f'{w:.3f}' for w in walls)} s")
    for name, metric in record["metrics"].items():
        lines.append(f"{name} = {metric['value']:.6g} {metric['unit']}")
    rate = record["failed"] / record["attempted"] if record["attempted"] else 0.0
    lines.append(f"error_rate = {rate:.6g} ratio ({record['failed']} failed of {record['attempted']} invocations)")
    for failure in record["failures"]:
        lines.append(f"# FAILED {' '.join(failure['invocation'])} traced={failure['traced']}: {'; '.join(failure['problems'])}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "grafclifford" / "cli.py").is_file():
        print(f"bench: no program at {SRC / 'grafclifford'}; run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        record = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(_summary(record)))
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
