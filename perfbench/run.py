"""abext benchmark: one workload per process, checked outputs, named metrics.

    python3 perfbench/run.py --workload certify-small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Untraced (``--trace 0``): repeat whole rounds of the workload's operations
for about ``--seconds`` (at least one round), check every output, and report
the end-to-end metrics, times at reference pace (see ``Pace``).  Traced
(``--trace 1``): one untraced round, then the same round under the span
tracer, and report the per-layer metrics.  The last stdout line is one JSON
object; the lines above it are for people.  Exit status 0 means every check
held, apart from the known faults F1-F6.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("certify-small", "certify-large", "snf", "cli")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Set-up: a fresh interpreter imports abext, builds the CLI parser and answers
# one trivial request, as every `abext` invocation does.  Median of several.
SETUP_SPAWNS = 9
SETUP_CODE = "import sys, abext.cli; sys.exit(abext.cli.main(['ext', '--A', 'Z(2)', '--B', 'Z(2)']))"

_REF_MATRIX = [[(i * 7 + j * 3) % 11 - 5 for j in range(24)] for i in range(24)]


class Pace:
    """How fast plain Python runs on this machine right now.

    The host's speed drifts by up to 2x over seconds to minutes under other
    tenants' load, far more than the differences the benchmark must resolve.
    A fixed reference computation (small integer matrix products and dict
    inserts, the kind of work abext does) is timed between operations every
    ``EVERY_S``.  A wall time is reported at reference pace: multiplied by
    ``NOMINAL_S`` over the median reference timing within ``WINDOW_S`` of it.
    """

    NOMINAL_S = 0.004
    EVERY_S = 0.25
    WINDOW_S = 1.0

    def __init__(self):
        self.at = float("-inf")
        self.log = []  # (end time, duration) of each reference timing

    def sample(self, force: bool = False):
        if not force and time.perf_counter() - self.at < self.EVERY_S:
            return
        t0 = time.perf_counter()
        seen = {}
        cols = list(zip(*_REF_MATRIX))
        for _ in range(2):
            for row in _REF_MATRIX:
                prod = tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                seen[prod] = seen.get(prod, 0) + 1
        self.at = time.perf_counter()
        self.log.append((self.at, self.at - t0))

    def paced(self, t0: float, t1: float) -> float:
        """The wall time t1 - t0 at reference pace."""
        near = [d for t, d in self.log if t0 - self.WINDOW_S <= t <= t1 + self.WINDOW_S]
        return (t1 - t0) * self.NOMINAL_S / statistics.median(near)


def measure_setup(pace: Pace) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spans = []
    for _ in range(SETUP_SPAWNS):
        pace.sample(force=True)
        t0 = time.perf_counter()
        # No timeout: with one, wait() polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, stdout=subprocess.DEVNULL, check=True)
        spans.append((t0, time.perf_counter()))
    pace.sample(force=True)
    return statistics.median(pace.paced(t0, t1) for t0, t1 in spans)


def window_mean(ordered, rank: int, half: int) -> float:
    """Mean of the order statistics within ``half`` ranks of ``rank``.

    Estimates the quantile at ``rank`` without jumping when outside load
    swaps two operations of different cost across it.
    """
    lo, hi = max(rank - half, 0), min(rank + half + 1, len(ordered))
    return statistics.fmean(ordered[lo:hi])


class Tally:
    """Outcomes of the operations attempted in one phase of a run."""

    def __init__(self, pace: Pace):
        self.pace = pace
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0  # time inside operations at reference pace, checks excluded
        self.raw_busy_s = 0.0  # the same in wall time (the tracer's clock)
        self.latencies = []  # reference-pace seconds of the operations that passed
        self.rounds = []  # (passed, busy, sorted passing latencies) per round
        self.faults = Counter()  # known fault id -> failures
        self.unexpected = Counter()  # label -> failures outside the known faults
        self.size_max = None

    def run_round(self, ops):
        clock = time.perf_counter
        self.pace.sample(force=True)
        spans, passed = [], []
        for op in ops:
            t0 = clock()
            try:
                out = op.call()
                raised = False
            except Exception:  # a failed operation is counted, not fatal
                raised = True
            spans.append((t0, clock()))
            self.pace.sample()
            self.attempted += 1
            try:
                ok = not raised and op.check(out) is True
            except Exception:
                ok = False
            if ok:
                passed.append(len(spans) - 1)
                if op.size is not None:
                    size = op.size(out)
                    self.size_max = size if self.size_max is None else max(self.size_max, size)
                continue
            self.failed += 1
            if op.fault:
                self.faults[op.fault] += 1
            else:
                self.unexpected[op.label] += 1
        self.pace.sample(force=True)
        paced = [self.pace.paced(t0, t1) for t0, t1 in spans]
        lat = sorted(paced[i] for i in passed)
        self.busy_s += sum(paced)
        self.raw_busy_s += sum(t1 - t0 for t0, t1 in spans)
        self.latencies += lat
        self.rounds.append((len(lat), sum(paced), lat))

    def end_to_end(self, setup_s: float) -> dict:
        """Throughput and tail per round, then the median over the rounds:
        every round runs the same operations, so a burst of outside load
        moves one round, not the run."""
        pooled = sorted(self.latencies)
        values = {
            "setup_s": setup_s,
            "ops_per_s": statistics.median(n / busy for n, busy, _ in self.rounds),
            "op_p50_ms": window_mean(pooled, len(pooled) // 2, max(1, len(pooled) // 10)) * 1e3,
            # The latency with ten passing operations beyond it in a round;
            # every round has at least forty passing operations.
            "op_tail_ms": statistics.median(window_mean(lat, len(lat) - 11, 2) for _, _, lat in self.rounds) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def report(name, seed, tally, metrics, fault_ids):
    rounds = len(tally.rounds)
    print(f"workload {name}  seed {seed}  rounds {rounds}  attempted {tally.attempted}  failed {tally.failed}")
    for fid in fault_ids:
        print(f"  known fault {fid}: {tally.faults[fid]} failed of {rounds} attempted")
    for label, n in sorted(tally.unexpected.items()):
        print(f"  CHECK FAILED {label}: {n}")
    ref_ms = statistics.median(d for _, d in tally.pace.log) * 1e3
    print(f"  reference computation: median {ref_ms:.3f} ms over {len(tally.pace.log)} timings, "
          f"nominal {Pace.NOMINAL_S * 1e3:g} ms; unpaced {len(tally.latencies) / tally.raw_busy_s:.6g} op/s")
    if tally.size_max is not None:
        print(f"  transform_digits_max {tally.size_max} digits")
    for metric, entry in metrics.items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    import workloads

    ops = workloads.WORKLOADS[name](random.Random(seed))
    fault_ids = [op.fault for op in ops if op.fault]
    pace = Pace()
    tally = Tally(pace)
    if not traced:
        setup_s = measure_setup(pace)
        start = time.perf_counter()
        while True:
            tally.run_round(ops)
            elapsed = time.perf_counter() - start
            # Whole rounds only: stop at the round end nearest to --seconds.
            if elapsed + elapsed / len(tally.rounds) / 2 >= seconds:
                break
        metrics = tally.end_to_end(setup_s)
        correct = not tally.unexpected
    else:
        tally.run_round(ops)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        traced_tally = Tally(pace)
        traced_tally.run_round(ops)
        metrics = tracer.metrics(traced_tally.raw_busy_s - tally.raw_busy_s)
        tracer.write(HERE / "out" / f"trace-{name}-seed{seed}.json")
        correct = not tally.unexpected and not traced_tally.unexpected
    report(name, seed, tally, metrics, fault_ids)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own fresh process, so peak memory is its own."""
    summary = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        summary[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else {"correct": False}
    correct = all(r["correct"] for r in summary.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.get("attempted", 0) for r in summary.values()),
        "failed": sum(r.get("failed", 0) for r in summary.values()),
        "workloads": summary,
    }))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "abext" / "__init__.py").is_file():
        print(f"error: no abext sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(SRC), str(HERE)]
    import abext

    if not Path(abext.__file__).resolve().is_relative_to(SRC):
        print(f"error: abext was imported from {abext.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
