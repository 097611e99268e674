"""Benchmark of skewsharp, driven in-process through its public entry points.

    python3 skewbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.  One
client runs whole rounds of ops in a closed loop until S seconds have passed.
With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` rounds alternate untraced and traced on identical work, and it
reports per-layer call counts and self times, the share of op time under a
span and the tracing overhead.  Spans are written to
``skewbench/.out/trace-<workload>.jsonl`` and reduced from that file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / ".out"
SETUP_REPEATS = 5
PROBE_EVERY_S = 0.25   # op time between two host-speed probes
THREADS = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import skewsharp.cli\n"
    "print(time.perf_counter() - t0)\n"
)


def time_import() -> float:
    """Import time of skewsharp.cli (numpy and scipy included) in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class OpLog:
    """Timed ops of one run.  A host-speed probe is taken after every
    PROBE_EVERY_S of op time and after every round; each op is scaled by the
    mean of the probes just before and just after it (see speed.py)."""

    def __init__(self, probe, tracer):
        self.probe = probe
        self.tracer = tracer
        self.seconds: list[float] = []
        self.ops: list[int] = []
        self.failed: list[int] = []
        self.traced: list[bool] = []
        self.round: list[int] = []
        self.factor: list[float] = []
        self.current_round = 0
        self.tracing = False
        self._pending = 0
        self._pending_s = 0.0
        self._last_probe = probe.time()

    def record(self, seconds: float, ops: int, failed: int) -> None:
        self.seconds.append(seconds)
        self.ops.append(ops)
        self.failed.append(failed)
        self.traced.append(self.tracing)
        self.round.append(self.current_round)
        self._pending += 1
        self._pending_s += seconds
        if self._pending_s >= PROBE_EVERY_S:
            self.end_stretch()
        if self.tracer is not None:
            self.tracer.op = len(self.seconds)

    def end_stretch(self) -> None:
        if not self._pending:
            return
        probe_s = self.probe.time()
        self.factor += [self.probe.ref_s / ((self._last_probe + probe_s) / 2)] * self._pending
        self._last_probe = probe_s
        self._pending, self._pending_s = 0, 0.0

    def scaled(self) -> list[float]:
        return [s * f for s, f in zip(self.seconds, self.factor)]


def run_rounds(wl, log: OpLog, seconds: float) -> int:
    """Whole rounds until `seconds` have passed.  A traced run alternates
    untraced and traced rounds of the same work and ends on a traced one."""
    tracer = log.tracer
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds or (tracer and rounds % 2):
        log.current_round = rounds
        log.tracing = tracer is not None and rounds % 2 == 1
        if log.tracing:
            tracer.install()
        try:
            wl.round(rounds // 2 if tracer else rounds, log.record)
        finally:
            if log.tracing:
                tracer.uninstall()
        log.end_stretch()
        rounds += 1
    return rounds


def end_to_end_metrics(log: OpLog, rounds: int, setup_samples: list[float]) -> dict:
    scaled = log.scaled()
    round_s, round_n = [0.0] * rounds, [0] * rounds
    for r, s, n in zip(log.round, scaled, log.ops):
        round_s[r] += s
        round_n[r] += n
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (statistics.median(n / s for n, s in zip(round_n, round_s)), "1/s"),
        "op_p50_ms": (statistics.median(1e3 * s / n for s, n in zip(scaled, log.ops)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer_metrics(log: OpLog, spans, trace_path: Path) -> dict:
    log.tracer.write_jsonl(str(trace_path))

    def per_op(traced: bool, times: list[float]) -> float:
        pick = [(s, n) for s, n, t in zip(times, log.ops, log.traced) if t == traced]
        return sum(s for s, _ in pick) / sum(n for _, n in pick)

    layer = spans.reduce_spans(spans.read_jsonl(str(trace_path)),
                               sum(s for s, t in zip(log.seconds, log.traced) if t))
    scaled = log.scaled()
    layer["trace.overhead_pct"] = 100 * (per_op(True, scaled) / per_op(False, scaled) - 1)
    units = {"calls": "count", "self_s": "s", "coverage": "ratio", "overhead_pct": "%"}
    return {k: (v, units[k.rsplit(".", 1)[1]]) for k, v in layer.items()}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "skewsharp" / "__init__.py").is_file():
        print(f"error: no skewsharp package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, str(SRC))

    import spans
    import speed
    import workloads  # imports numpy and skewsharp after the thread settings

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]

    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_probe = speed.SpeedProbe("numpy-small")
        import_s, in_process_s, probe_s = [], [], []
        for i in range(SETUP_REPEATS):
            import_s.append(time_import())
            workdir = run_dir / f"setup{i}"
            workdir.mkdir(parents=True)
            t0 = time.perf_counter()
            workloads.warm_up()
            wl = cls(args.seed, str(workdir))
            wl.prepare()
            in_process_s.append(time.perf_counter() - t0)
            probe_s.append(setup_probe.time())
        # the child's import is load and link work that the probe does not model
        f = setup_probe.ref_s / statistics.median(probe_s)
        setup_samples = [a + b * f for a, b in zip(import_s, in_process_s)]

        log = OpLog(speed.SpeedProbe(cls.probe), spans.Tracer() if args.trace else None)
        rounds = run_rounds(wl, log, args.seconds)
        wl.finish()
        if args.trace:
            metrics = per_layer_metrics(log, spans, OUT / f"trace-{args.workload}.jsonl")
        else:
            metrics = end_to_end_metrics(log, rounds, setup_samples)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result = {
        "correct": not wl.errors,
        "attempted": sum(log.ops),
        "failed": sum(log.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for msg in wl.errors:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"{args.workload}: rounds={rounds} attempted={result['attempted']} "
          f"failed={result['failed']} correct={str(result['correct']).lower()} "
          f"wall_op_s={sum(log.seconds):.3f} normalized_op_s={sum(log.scaled()):.3f}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
