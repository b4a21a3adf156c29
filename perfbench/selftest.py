"""Self-test of the benchmark's output checks, on tiny inputs (a few seconds).

Usage, from the repository root:

    python3 perfbench/selftest.py

Each workload kind runs three ops clean, then three ops whose output is
corrupted right after the op (one byte of a CSV, or one metric row). Clean
runs must report no failed op; corrupted runs must count every op as failed.
A traced run must give the untraced outputs. Exits 1 if any case goes wrong.
"""

from __future__ import annotations

import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run  # puts the repository's src/ first on sys.path
import tracing
import workloads
from labelaudit import bench
from labelaudit.model import TrainConfig
from labelaudit.synth import SMALL

TINY = 300


class Corrupted:
    """A workload whose op output is damaged by ``corrupt`` before it is checked."""

    def __init__(self, inner, corrupt):
        self.inner = inner
        self.corrupt = corrupt

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def op(self, i):
        return self.corrupt(self.inner, self.inner.op(i))


def flip_last_digit(path: Path) -> None:
    data = bytearray(path.read_bytes())
    i = max(i for i, b in enumerate(data) if chr(b).isdigit())
    data[i] = ord("1") if data[i] == ord("0") else ord("0")
    path.write_bytes(bytes(data))


def corrupt_file(name):
    def corrupt(workload, out):
        flip_last_digit(workload.dir / name)
        return out
    return corrupt


def out_of_range_row(workload, result):
    rows = list(result.metric_rows)
    rows[0] = rows[0][:7] + (rows[0][7] + 2.0,)
    return replace(result, metric_rows=tuple(rows))


def dropped_row(workload, result):
    return replace(result, metric_rows=result.metric_rows[1:])


def tiny_workloads():
    plan = bench.BenchmarkPlan(gen_config=replace(SMALL, n_samples=TINY), dataset_name="tiny",
                               train_config=TrainConfig(epochs=20))
    return {
        "replicate": (workloads.ReplicateWorkload("tiny-bench", plan),
                      [("one metric row out of range", out_of_range_row),
                       ("one metric row missing", dropped_row)]),
        "audit-csv": (workloads.AuditCsvWorkload(seed=0, n_examples=TINY),
                      [("one byte of scores.csv", corrupt_file("scores.csv")),
                       ("one byte of flags.csv", corrupt_file("flags.csv"))]),
        "gen-export": (workloads.GenExportWorkload(seed=0, n_examples=TINY),
                       [("one byte of labels.csv", corrupt_file("labels.csv"))]),
    }


def main() -> int:
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}  {what}")
        if not ok:
            problems.append(what)

    run.WORK.mkdir(exist_ok=True)
    for kind, (workload, corruptions) in tiny_workloads().items():
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            workload.setup(Path(tmp))
            _, verdicts = run.run_untraced(workload, seconds=0)
            failed = sum(v.failure is not None for v in verdicts)
            expect(failed == 0, f"{kind}: clean ops pass their check ({failed} failed)")
            for what, corrupt in corruptions:
                _, verdicts = run.run_untraced(Corrupted(workload, corrupt), seconds=0)
                failed = sum(v.failure is not None for v in verdicts)
                expect(failed == len(verdicts),
                       f"{kind}: {what} corrupted: {failed} of {len(verdicts)} ops failed")
            tracer = tracing.Tracer()
            _, traced, failures = run.run_traced(workload, 0, tracer)
            expect(not failures, f"{kind}: traced op reproduces the untraced outputs {failures}")
            self_time = tracer.per_op[0][f"{workload.entry}.self.s"]
            expect(0 <= self_time <= traced[0],
                   f"{kind}: spans plus entry self time account for the traced op")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
