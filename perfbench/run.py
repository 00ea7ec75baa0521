"""Run one benchmark workload in this process, with jobs=1, and print its metrics.

    python3 perfbench/run.py --workload holes-dtm --seed 0 --seconds 40 --trace 0

The inputs come from --seed. The run repeats the workload's experiment
calls, from in-memory inputs to the serialized reports, for about --seconds
(at least MIN_REPS times in each mode), then checks the outputs. With --trace 0 it
reports the end-to-end metrics of BENCHMARK.json, timing the set-up in
SETUP_TRIALS fresh processes and scaling both times by a machine probe; with
--trace 1 it alternates plain and traced repetitions and reports the
per-layer metrics, writing the spans to perfbench/out/. The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the workloads run with jobs=1, and
# with OpenBLAS's own threads a repetition used more CPU time than wall time,
# competing for the second of two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_TRIALS = 3
MIN_REPS = 2
# On a shared machine the same work can take a quarter longer for minutes at
# a time. A fixed probe that does not touch tdalab, timed after every plain
# repetition and every set-up, measures that speed; run_s and setup_s are the
# times scaled to a machine that runs the probe in PROBE_REFERENCE_S.
PROBE_REFERENCE_S = 0.2


def machine_probe() -> float:
    """Seconds taken by a fixed piece of interpreted and numpy work."""
    import numpy as np  # not at the top: setup_s times the import of tdalab and numpy

    # small arrays worked in place, so that the probe never sets peak_rss_mb
    data = np.random.default_rng(0).random(20_000)
    work = np.empty_like(data)
    start = time.perf_counter()
    counts = {}
    for i in range(600_000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    for _ in range(300):
        work[:] = data
        work.sort()
        np.sqrt(work, out=work)
        np.cumsum(work, out=work)
    return time.perf_counter() - start


def import_tdalab():
    """Import tdalab from this checkout's sources; returns (seconds, modules)."""
    if not (SRC / "tdalab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tdalab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import tdalab
    from tdalab import datagen, io, pipelines

    seconds = time.perf_counter() - start
    if Path(tdalab.__file__).resolve().parent != SRC / "tdalab":
        sys.exit(f"perfbench: imported tdalab from {tdalab.__file__}, not from {SRC}")
    return seconds, {"datagen": datagen, "io": io, "pipelines": pipelines}


def declared_metrics(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Operations:
    """Counts attempted and failed operations; a failure is logged to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, name, thunk, weight: int = 1):
        self.attempted += weight
        try:
            return thunk()
        except Exception:
            self.failed += weight
            print(f"operation {name} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None


def repetition(workload, lib, inputs, seed) -> tuple:
    reports = workload.repetition(lib, inputs, seed)
    return reports, tuple(lib.io.report_to_json(r) for r in reports)


def setup_seconds(name: str, seed: int, trials: int = SETUP_TRIALS) -> float:
    """Median over fresh processes of the time to import tdalab and generate
    the workload's inputs, each scaled by the probe timed after it in the
    same process; the interpreter's own start-up is not counted."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(trials):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        seconds, probe = map(float, proc.stdout.split()[-2:])
        times.append(seconds * PROBE_REFERENCE_S / probe)
    return statistics.median(times)


def measure(name: str, workload, modules, seed: int, seconds: float, trace: bool):
    """Repeat and check one workload; returns (correct, ops, metrics, lines).

    A plain run generates the inputs once. A traced run generates them
    SETUP_TRIALS times under the tracer, for ``datagen.busy_s``.
    """
    from spans import Tracer

    ops = Operations()
    plain = SimpleNamespace(**modules)
    tracer = Tracer() if trace else None
    traced = SimpleNamespace(**{k: tracer.view(m) for k, m in modules.items()}) if trace else None

    for trial in range(SETUP_TRIALS if trace else 1):
        if tracer:
            tracer.begin(f"setup-{trial}")
        inputs = workload.setup(traced or plain, seed)

    times = {False: [], True: []}  # traced? -> seconds per repetition
    probes = []  # seconds per probe, one after each plain repetition
    texts, reports = [], None

    def timed_repetition(with_trace: bool) -> bool:
        nonlocal reports
        lib = plain
        if with_trace:
            tracer.begin(f"rep-{len(times[True])}")
            lib = traced
        start = time.perf_counter()
        with tracer.installed(modules["pipelines"]) if with_trace else nullcontext():
            out = ops.run("experiment", lambda: repetition(workload, lib, inputs, seed), workload.calls)
        elapsed = time.perf_counter() - start
        if out is None:
            return False
        times[with_trace].append(elapsed)
        if not with_trace:
            probes.append(machine_probe())
        reports, text = out
        texts.append(text)
        return True

    # a traced run alternates plain and traced repetitions, so drift hits both
    modes = (False, True) if trace else (False,)
    # stop before a repetition that would end past the deadline
    deadline = time.perf_counter() + seconds
    while all(timed_repetition(with_trace) for with_trace in modes):
        step = sum(times[with_trace][-1] for with_trace in modes)
        if time.perf_counter() + step > deadline and len(times[False]) >= MIN_REPS:
            break
    plain_times, traced_times = times[False], times[True]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    lines = []
    correct = ops.failed == 0
    if reports is not None:
        checks_start = time.perf_counter()
        checks = [("reports-identical", lambda: (len(set(texts)) == 1, f"{len(texts)} repetitions"))]
        checks += workload.checks(inputs, reports, seed)
        for check_name, thunk in checks:
            result = ops.run(check_name, thunk)
            ok = result is not None and bool(result[0])
            correct &= ok
            lines.append(f"check {check_name}: {'ok' if ok else 'FAILED'}" + (f" ({result[1]})" if result else ""))
        lines.append(f"checks took {time.perf_counter() - checks_start:.1f} s")

    if trace:
        setup_phases = [f"setup-{i}" for i in range(SETUP_TRIALS)]
        rep_phases = [f"rep-{i}" for i in range(len(traced_times))]
        metrics = {}
        if traced_times:
            metrics, note = tracer.layer_metrics(setup_phases, rep_phases)
            lines.append(note)
        if traced_times and plain_times:
            metrics["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(plain_times)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{name}-seed{seed}.jsonl")
        lines.append(f"traced repetitions: {len(traced_times)}, plain: {len(plain_times)}")
    else:
        wall = statistics.median(plain_times) if plain_times else 0.0  # failed: see stderr
        probe = statistics.median(probes) if probes else PROBE_REFERENCE_S
        metrics = {"run_s": wall * PROBE_REFERENCE_S / probe, "peak_rss_mb": peak_rss_mb}
        lines.append("repetitions (s): " + " ".join(f"{t:.4f}" for t in plain_times))
        lines.append("probes (s): " + " ".join(f"{t:.4f}" for t in probes))
        lines.append(f"run_s is the median repetition, {wall:.4f} s, times {PROBE_REFERENCE_S}"
                     f" over the median probe, {probe:.4f} s")
    return correct, ops, metrics, lines


def print_result(correct: bool, ops: Operations, metrics: dict, lines: list, units: dict) -> None:
    """Print the human-readable lines, then the result as the last line."""
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        sys.exit(f"perfbench: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for line in lines:
        print(line)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]} {unit}")
    result = {
        "correct": bool(correct),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_s, modules = import_tdalab()
    from workloads import BENCH

    if args.workload not in BENCH:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(BENCH)}")
    workload = BENCH[args.workload]
    if args.setup_only:
        start = time.perf_counter()
        workload.setup(SimpleNamespace(**modules), args.seed)
        print(import_s + time.perf_counter() - start, machine_probe())
        return 0
    units = declared_metrics(bool(args.trace))
    correct, ops, metrics, lines = measure(
        args.workload, workload, modules, args.seed, args.seconds, bool(args.trace)
    )
    if not args.trace:
        metrics["setup_s"] = setup_seconds(args.workload, args.seed)
        lines.append(f"setup_s is the median of {SETUP_TRIALS} set-ups in fresh processes, each scaled"
                     f" by {PROBE_REFERENCE_S} over the probe after it")
    print_result(correct, ops, metrics, lines, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
