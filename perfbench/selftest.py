"""Self-test of the benchmark on tiny inputs; finishes in well under a minute.

    python3 perfbench/selftest.py

Runs every workload plain and traced through the same code as run.py, with
every output check, and parses the printed result. It also checks that the
benchmark fails, without printing a result, where no tdalab sources exist.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import time

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def tiny_workloads():
    from workloads import ConvexityTubular, CurvatureGeodesic, HolesDTM

    return {
        # two clouds per shape leave 4 training clouds a class for the 3 folds
        "holes-dtm": HolesDTM(clouds_per_shape=2, points=80, subsample=40),
        "curvature-geodesic": CurvatureGeodesic(points=25, test_count=6),
        "convexity-tubular": ConvexityTubular(
            clouds_per_shape=2, polygons_per_class=6, points=300, masks=20, mask_side=20
        ),
    }


def check_run(name, workload, modules, trace: bool) -> list:
    """Problems found in one tiny run and its printed result."""
    problems = []
    units = run.declared_metrics(trace)
    correct, ops, metrics, lines = run.measure(name, workload, modules, 0, 0.0, trace)
    if not trace:
        metrics["setup_s"] = run.setup_seconds(name, 0, trials=1)  # full-size inputs
    verdicts = [line for line in lines if line.startswith("check ")]
    failed_checks = [line for line in verdicts if ": ok" not in line]
    # at these sizes the learners need not beat their baselines; the
    # baseline checks must still run and reach a verdict
    wrong = [line for line in failed_checks if not line.startswith("check beats-")]
    if not verdicts or not any(line.startswith("check beats-") for line in verdicts):
        problems.append(f"checks missing: {verdicts}")
    if ops.failed or wrong or correct != (not failed_checks):
        problems.append(f"{ops.failed} operations failed; failed checks: {wrong}")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.print_result(correct, ops, metrics, lines, units)
    result = json.loads(out.getvalue().splitlines()[-1])
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        problems.append(f"bad result keys or counts: {sorted(result)}")
    for metric, unit in units.items():
        entry = result["metrics"].get(metric, {})
        value = entry.get("value")
        if entry.get("unit") != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {metric}: {entry}")
    if trace and result["metrics"]["persistence.calls"]["value"] < 1:
        problems.append("the traced run saw no persistence calls")
    return problems


def check_bare_directory() -> list:
    """Without tdalab sources next to it the benchmark exits nonzero, silently."""
    bare = run.HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "holes-dtm",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    _, modules = run.import_tdalab()
    problems = check_bare_directory()
    for name, workload in tiny_workloads().items():
        for trace in (False, True):
            start = time.perf_counter()
            found = check_run(name, workload, modules, trace)
            verdict = "ok" if not found else "FAILED"
            print(f"{name} trace={int(trace)}: {verdict} ({time.perf_counter() - start:.1f} s)")
            problems += [f"{name} trace={int(trace)}: {p}" for p in found]
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
