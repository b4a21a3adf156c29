"""Run one benchmark workload and print its metrics; the last line is JSON.

Usage, from the repository root:

    python3 perfbench/run.py --workload small-bench --seed 0 --seconds 24 --trace 0

``--trace 0`` times whole ops and prints the end-to-end metrics. ``--trace 1``
alternates untraced and traced executions of each op, checks that both give
the same outputs, and prints the per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import labelaudit  # noqa: E402

if not Path(labelaudit.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"labelaudit was imported from {labelaudit.__file__}, not from {SRC}")

import tracing  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 3
MIN_OPS = 4         # the quality metrics average the first MIN_OPS ops of a run
IMPORT_PROBE = "import labelaudit.bench, labelaudit.cli"
PROBE_REFERENCE_S = 0.012  # speed_probe() on the reference machine (see README.md)

END_TO_END = (  # name, unit
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("examples_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ema_ap_at_t", "frac"),
    ("flag_f1", "frac"),
)


def speed_probe() -> float:
    """Median of 5 timings of a fixed kernel that runs no labelaudit code.

    Small matrix products and sigmoids, as in the trainer's inner loop, and
    row sorts, as in the scoring and ranking code: of the kernels tried, this
    mix tracked the ops' times most closely (correlation ~0.68 on 2 cores).
    """
    rng = np.random.default_rng(0)
    X, W, values = rng.random((4000, 3)), rng.random((4, 3)), rng.random((300, 40))
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(60):
            P = 1.0 / (1.0 + np.exp(-(X @ W.T)))
            (P - 0.5).T @ X
        for _ in range(5):
            np.sort(values, axis=1).cumsum(axis=1)
            np.argsort(values.ravel(), kind="stable")
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class ScaledTimer:
    """Times calls in wall seconds and in seconds at the reference machine speed.

    On a shared host the machine's speed drifts by up to ~25% for tens of
    seconds at a time, which no number of ops in one run averages out. The
    speed probe runs before and after each timed call, untimed, and the call's
    wall time is scaled by PROBE_REFERENCE_S over the mean of the two probes.
    """

    def __init__(self):
        self.probe = speed_probe()
        self.wall: list[float] = []
        self.scaled: list[float] = []

    def time(self, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        wall = time.perf_counter() - start
        probe = speed_probe()
        self.wall.append(wall)
        self.scaled.append(wall * PROBE_REFERENCE_S / ((self.probe + probe) / 2))
        self.probe = probe
        return out


def measure_setup(workload, workdir: Path) -> float:
    """Median fresh-process import time plus median workload set-up time, scaled."""
    imports, setups = ScaledTimer(), ScaledTimer()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(SETUP_REPEATS):
        imports.time(subprocess.run, [sys.executable, "-c", IMPORT_PROBE], env=env, check=True)
        setups.time(workload.setup, workdir)
    return statistics.median(imports.scaled) + statistics.median(setups.scaled)


def blas_info() -> tuple[str, int | None]:
    """BLAS library name and the thread count it will use."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    try:
        import ctypes
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for lib_path in libs:
            lib = ctypes.CDLL(lib_path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    return name, int(fn())
    except OSError:
        pass
    return name, None


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args) -> dict:
    blas, threads = blas_info()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
    }


def timed(workload, i: int):
    start = time.perf_counter()
    out = workload.op(i)
    return out, time.perf_counter() - start


def run_untraced(workload, seconds: float):
    """Closed loop, one op at a time, until ``seconds`` have passed and MIN_OPS ops ran."""
    timer, verdicts = ScaledTimer(), []
    start = time.perf_counter()
    while len(verdicts) < MIN_OPS or time.perf_counter() - start < seconds:
        i = len(verdicts)
        out = timer.time(workload.op, i)
        verdicts.append(workload.verify(i, out))
    return timer, verdicts


def run_traced(workload, seconds: float, tracer: tracing.Tracer):
    """Each op runs untraced and traced; both must give the same verified outputs."""
    untraced, traced, failures = [], [], []
    workload.op(0)  # one-off costs of a first op stay out of the comparison
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        # alternate which side runs first, so that neither gains from going second
        for side in ("untraced", "traced") if i % 2 == 0 else ("traced", "untraced"):
            if side == "untraced":
                out, t = timed(workload, i)
                untraced.append(t)
                plain = workload.verify(i, out)
            else:
                tracer.begin_op(i, workload.noise_matrices)
                with tracer.patched():
                    out, t = timed(workload, i)
                tracer.end_op(t, workload.entry)
                traced.append(t)
                seen = workload.verify(i, out)
        if plain.failure:
            failures.append(f"op {i} untraced: {plain.failure}")
        if seen.failure:
            failures.append(f"op {i} traced: {seen.failure}")
        elif plain.failure is None and seen.fingerprint != plain.fingerprint:
            failures.append(f"op {i}: traced outputs differ from untraced outputs")
        i += 1
    return untraced, traced, failures


def print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:32s} {value:14.6g} {unit:8s} {note}".rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment(args)
    print("env " + json.dumps(env))
    workload = workloads.make(args.workload, args.seed)
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            workload.setup(workdir)
            result = report_traced(workload, args, tracer := tracing.Tracer())
            spans = WORK / f"spans-{args.workload}-seed{args.seed}.json"
            spans.write_text(json.dumps({"env": env, "spans": tracer.span_records()}) + "\n")
            print(f"spans written to {spans.relative_to(ROOT)}")
        else:
            result = report_untraced(workload, args, measure_setup(workload, workdir))
    finally:
        shutil.rmtree(workdir)
    print(json.dumps(result))
    return 0


def report_untraced(workload, args, setup_s: float) -> dict:
    timer, verdicts = run_untraced(workload, args.seconds)
    n_ops = len(verdicts)
    failures = [v.failure for v in verdicts if v.failure]
    quality = verdicts[:MIN_OPS]
    values = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(timer.scaled),
        "examples_per_s": workload.n_examples * n_ops / sum(timer.scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ema_ap_at_t": statistics.fmean(v.ema_ap_at_t for v in quality),
        "flag_f1": statistics.fmean(v.flag_f1 for v in quality),
    }
    print(f"{args.workload}: {n_ops} ops, closed loop, one op at a time, one process")
    notes = {"setup_s": "at reference speed",
             "op_p50_s": f"at reference speed, median of {n_ops} ops",
             "examples_per_s": "at reference speed",
             "ema_ap_at_t": f"mean of the first {MIN_OPS} ops",
             "flag_f1": f"mean of the first {MIN_OPS} ops"}
    for name, unit in END_TO_END:
        print_metric(name, values[name], unit, notes.get(name, ""))
    print_metric("wall_op_p50_s", statistics.median(timer.wall), "s",
                 "wall clock, not scaled by the speed probe")
    print_metric("wall_examples_per_s", workload.n_examples * n_ops / sum(timer.wall), "1/s",
                 "wall clock, not scaled by the speed probe")
    print("op wall seconds: " + " ".join(f"{t:.3f}" for t in timer.wall))
    print_metric("failed_frac", len(failures) / n_ops, "frac",
                 f"{len(failures)} of {n_ops} ops failed their output check")
    for failure in failures:
        print(f"FAILED: {failure}")
    return {
        "correct": not failures,
        "attempted": n_ops,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
    }


def report_traced(workload, args, tracer: tracing.Tracer) -> dict:
    untraced, traced, failures = run_traced(workload, args.seconds, tracer)
    values = tracer.layer_medians()
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    print(f"{args.workload}: {len(traced)} traced ops, each paired with an untraced run "
          "of the same op, in alternating order, after one untimed warm-up op")
    print("one process runs one op at a time with no queue, so no layer has wait time")
    for name, unit, _ in tracing.PER_LAYER:
        print_metric(name, values[name], unit)
    for failure in failures:
        print(f"FAILED: {failure}")
    attempted = len(untraced) + len(traced)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in tracing.PER_LAYER},
    }


if __name__ == "__main__":
    sys.exit(main())
