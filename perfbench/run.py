#!/usr/bin/env python3
"""The germlab benchmark: one workload in one single-threaded process.

    python3 perfbench/run.py --workload local --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; germlab is imported from ``src/``.
The loop is closed with one client: each operation starts when the previous
one returns.  Operations come in whole cycles (one instance of every kind in
the workload, drawn fresh from the seed), and cycles run until the summed
operation wall time reaches ``--seconds``.  After one untimed warm-up cycle,
each operation is timed alone; its answer is checked outside the timed
region, against a closed form or an independent route (``workloads.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced cycles, and prints the per-layer metrics from the traced
half plus the tracing overhead, traced minus untraced wall (``spans.py``).  The last line
of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 15
#: at least this many timed operations, so that 10 latency samples lie beyond p90
MIN_OPS = 100
FAILURE_CAUSES = ("deadline", "guard", "precondition", "wrong", "error")


@dataclass
class Record:
    kind: str
    cycle: int
    status: Optional[str]   # None when the answer is right, else a failure cause
    wall: float


def _fresh_import():
    for name in [m for m in sys.modules if m == "germlab" or m.startswith("germlab.")]:
        del sys.modules[name]
    gl = importlib.import_module("germlab")
    importlib.import_module("germlab.cli")
    return gl


def setup(build, seed: int, work_dir: Path):
    """Import germlab and build the warm-up cycle, SETUP_REPEATS times; the
    median of the repeats is setup_s."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        gl = _fresh_import()
        warm = build(gl, seed, -1, work_dir)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), gl, warm


class Runner:
    def __init__(self, gl, deadline_s: float):
        self.gl = gl
        self.deadline_s = deadline_s
        self.deferred = []      # (record, check thunk) needing sympy
        self.seen = set()
        self.executed = 0
        self.tracer = None

    def execute(self, op, cycle: int) -> Optional[Record]:
        if op.key in self.seen:
            print(f"skipped {op.kind}: input repeated", file=sys.stderr)
            return None
        self.seen.add(op.key)
        gl = self.gl
        at = [0.0]
        guards = gl.GuardConfig(cancel=lambda: time.perf_counter() > at[0])
        self.executed += 1
        if self.tracer is not None:
            self.tracer.begin_op(self.executed)
        status, value = None, None
        t0 = time.perf_counter()
        at[0] = t0 + self.deadline_s
        try:
            value = op.call(gl, guards)
        except gl.gb.ComputationCancelled:
            status = "deadline"
        except gl.ResourceLimitError:
            status = "guard"
        except gl.PreconditionError:
            status = "precondition"
        except Exception:  # a crash is a failed operation, not a dead run
            status = "error"
            print(f"error in {op.kind}:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - t0
        if status is None and wall > self.deadline_s:
            status = "deadline"
        rec = Record(op.kind, cycle, status, wall)
        if status is None:
            self._check(op, value, rec)
        return rec

    def _check(self, op, value, rec: Record) -> None:
        try:
            verdict = op.check(value)
        except Exception:
            print(f"check of {op.kind} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            verdict = False
        if isinstance(verdict, str):
            rec.status = verdict    # the CLI reported a failure by exit code
        elif callable(verdict):
            self.deferred.append((rec, verdict))
        elif not verdict:
            rec.status = "wrong"
            print(f"wrong answer: {op.kind}: {op.key[:200]}", file=sys.stderr)

    def finish_checks(self) -> None:
        """Run the checks that need sympy (imported only now)."""
        for rec, thunk in self.deferred:
            try:
                ok = thunk()
            except Exception:
                print(f"check of {rec.kind} raised:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                ok = False
            if not ok:
                rec.status = "wrong"
                print(f"wrong answer: {rec.kind}", file=sys.stderr)
        self.deferred = []

    def cycles(self, build, seed: int, work_dir: Path, first: int,
               seconds: float = 0.0, count: Optional[int] = None):
        """Run whole cycles from index ``first``: ``count`` of them, or until
        the summed operation wall time reaches ``seconds`` and at least
        MIN_OPS operations ran."""
        records: List[Record] = []
        wall = 0.0
        cycle = first
        while ((wall < seconds or len(records) < MIN_OPS) if count is None
               else cycle - first < count):
            for op in build(self.gl, seed, cycle, work_dir):
                rec = self.execute(op, cycle)
                if rec is not None:
                    records.append(rec)
                    wall += rec.wall
            cycle += 1
        return records, cycle - first


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _failures(records) -> Counter:
    return Counter(r.status for r in records if r.status is not None)


def _summary(workload, records, n_cycles, extra="") -> None:
    fails = _failures(records)
    print(f"{workload}: {len(records)} operations in {n_cycles} cycles, "
          f"{sum(r.wall for r in records):.3f} s timed; failed "
          + ", ".join(f"{c}={fails.get(c, 0)}" for c in FAILURE_CAUSES) + extra)


def run(args, work_dir: Path) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    build = workloads.CYCLES[args.workload]
    setup_s, gl, warm = setup(build, args.seed, work_dir)
    runner = Runner(gl, workloads.DEADLINE_S[args.workload])
    warm_records = [runner.execute(op, -1) for op in warm]
    golden_ok = True
    if args.workload == "pipeline":
        golden_ok = _golden_spodzieja(gl)

    if not args.trace:
        records, n_cycles = runner.cycles(build, args.seed, work_dir, 0,
                                          seconds=args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        runner.finish_checks()
        walls = sorted(r.wall for r in records)
        deciles = statistics.quantiles(walls, n=10, method="inclusive")
        ok = sum(1 for r in records if r.status is None)
        metrics = {
            "ops_per_s": _metric(ok / sum(walls), "1/s"),
            "latency_p50_ms": _metric(deciles[4] * 1000, "ms"),
            "latency_p90_ms": _metric(deciles[8] * 1000, "ms"),
            "ok_share": _metric(ok / len(records), "ratio"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
        _summary(args.workload, records, n_cycles,
                 f"; {len(walls)} latency samples, {len(walls) // 10} beyond p90")
        self_sum_ok = True
    else:
        import spans

        # alternate untraced and traced cycles, so that drift between the
        # two halves does not show up as tracing overhead
        tracer = spans.Tracer(gl)
        plain, traced = [], []
        n_cycles = 0
        while sum(r.wall for r in plain) < args.seconds / 2:
            for target, wrapped in ((plain, False), (traced, True)):
                if wrapped:
                    tracer.install()
                    runner.tracer = tracer
                records, _ = runner.cycles(build, args.seed, work_dir, n_cycles,
                                           count=1)
                target += records
                tracer.uninstall()
                runner.tracer = None
                n_cycles += 1
        runner.finish_checks()
        records = plain + traced
        plain_s = sum(r.wall for r in plain)
        traced_s = sum(r.wall for r in traced)
        self_sum_share = tracer.root_seconds() / traced_s
        self_sum_ok = spans.SELF_SUM_MIN_SHARE <= self_sum_share <= 1.0
        values = tracer.metrics()
        fails = _failures(records)
        values.update({f"ops.failed.{c}": fails.get(c, 0) for c in FAILURE_CAUSES})
        values["trace.overhead_s"] = traced_s - plain_s
        values["trace.overhead_share"] = (traced_s - plain_s) / plain_s
        values["trace.self_sum_share"] = self_sum_share
        units = dict(spans.METRICS)
        units.update({f"ops.failed.{c}": "count" for c in FAILURE_CAUSES})
        units.update({"trace.overhead_s": "s", "trace.overhead_share": "ratio",
                      "trace.self_sum_share": "ratio"})
        metrics = {name: _metric(values[name], units[name]) for name in units}
        tracer.dump(HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl")
        _summary(args.workload, records, n_cycles,
                 f"; tracing overhead {values['trace.overhead_s']:.3f} s, "
                 f"root spans cover {self_sum_share:.4f} of traced wall "
                 f"(slack {1 - spans.SELF_SUM_MIN_SHARE:.2f})")

    warm_bad = _failures(r for r in warm_records if r is not None)
    fails = _failures(records)
    correct = (golden_ok and self_sum_ok
               and not warm_bad.get("wrong") and not warm_bad.get("error")
               and fails.get("wrong", 0) == 0 and fails.get("error", 0) == 0)
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(fails.values()),
        "metrics": metrics,
    }))
    return 0


def _golden_spodzieja(gl) -> bool:
    """The seed-0 spodzieja report matches tests/data byte for byte."""
    argv = ["spodzieja", "--ring", "s,t", "--map", "s^2-t^2, s*(s^2-t^2), t",
            "--coring", "x,y,t", "--extra-point", "0,0,1", "--seed", "0",
            "--json", "--no-timestamp"]
    _, text = gl.cli.run_command(argv)
    ok = text == (ROOT / "tests" / "data" / "spodzieja_seed0.json").read_text()
    if not ok:
        print("seed-0 spodzieja report differs from tests/data", file=sys.stderr)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline", "local", "zero_dim"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (ROOT / "src" / "germlab" / "__init__.py",
                   ROOT / "tests" / "data" / "spodzieja_seed0.json"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from the "
                  "root of a germlab checkout", file=sys.stderr)
            return 2
    work_dir = HERE / "out" / f"scenarios-{args.workload}-{args.seed}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
