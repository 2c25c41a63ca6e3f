"""Benchmark of demchar: time, memory and failures to reach a
cross-checked exact answer, on four workloads.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each workload is a closed loop: one client, one operation at a time, in one
worker process started fresh for every pass, so the module-level memos and
cached crystals never carry over from one pass to the next.  Passes repeat
until ``--seconds`` have gone by; timings are medians over the passes of
the worker's CPU time, in seconds at a reference machine speed that the
worker samples as it runs (see ``worker.SpeedProbe``), with wall-clock
medians in the report.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` alternates plain
and traced passes and prints the per-layer metrics.  Every result is
checked; the last line of stdout is the result JSON, the line before it a
report with the failure split, digests and environment.  The exit code is 1
if any result is wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_SETUPS = 5
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """A worker failed to start, answer or exit cleanly."""


def run_pass(ops: list[dict], order: list[int], mode: str, run: bool = True) -> tuple[tuple[float, float], dict | None]:
    """Spawn a worker, time its set-up and, if ``run``, run the operations
    in the given order.

    Returns the set-up time at the reference speed and on the wall clock,
    and the worker's result line with statuses and digests put back in the
    order of ``ops``."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(SRC), mode],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
    )
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        proc.stdin.write(json.dumps([ops[i] for i in order]) + "\n")
        proc.stdin.flush()
        ready = proc.stdout.readline().split()
        wall = perf_counter() - start
        if ready[:1] != ["ready"]:
            raise BenchError("worker failed during set-up")
        setup = (float(ready[1]), wall)
        proc.stdin.write("run\n" if run else "quit\n")
        proc.stdin.flush()
        result = json.loads(proc.stdout.readline()) if run else None
        proc.stdin.close()
        proc.wait()
    except (OSError, ValueError) as exc:
        raise BenchError(f"worker did not answer: {exc}") from exc
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    if result:
        for key in ("statuses", "digests"):
            result[key] = [value for _, value in sorted(zip(order, result[key]))]
    return setup, result


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "worker": "one process per pass, single-threaded, --threads never passed, PYTHONHASHSEED=0",
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(ops: list[dict], seed: int, seconds: float, trace: bool) -> tuple[dict[str, list[dict]], list[tuple[float, float]]]:
    """Passes until ``seconds`` have gone by, plain ones alternating with
    traced ones when ``trace``; then set-up-only spawns up to MIN_SETUPS.
    A pass starts only if half a pass, at the mean length so far, still
    fits, so that a run overruns ``seconds`` by half a pass at most and by
    nothing on average.

    Each pass (each plain/traced pair) runs the operations in its own
    seeded order, so that a run's medians average over the orders' effect
    on the memos instead of keeping one order's."""
    modes = ("plain", "trace") if trace else ("plain",)
    passes: dict[str, list[dict]] = {mode: [] for mode in modes}
    setups: list[tuple[float, float]] = []
    orders = random.Random(seed)
    started = perf_counter()
    while not passes[modes[-1]] or elapsed * (1 + 0.5 / len(passes[modes[-1]])) < seconds:
        order = orders.sample(range(len(ops)), len(ops))
        for mode in modes:
            setup, result = run_pass(ops, order, mode)
            passes[mode].append(result)
            if mode == "plain":
                setups.append(setup)
        elapsed = perf_counter() - started
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(run_pass(ops, list(range(len(ops))), "plain", run=False)[0])
    return passes, setups


def summarize(passes: dict[str, list[dict]], setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The result line (correct, attempted, failed, metrics) and the
    failure split and wall-clock times, from the passes of one run."""
    everything = [result for results in passes.values() for result in results]
    statuses = [status for result in everything for status in result["statuses"]]
    split = {kind: statuses.count(kind) for kind in ("mismatch", "guard", "error")}
    failed = sum(split.values())
    digests = {tuple(result["digests"]) for result in everything}
    threads = {result["threads"] for result in everything}
    correct = split["mismatch"] == 0 and split["error"] == 0 and len(digests) == 1 and threads == {1}

    plain = passes["plain"]
    plain_run_s = statistics.median(result["run_s"] for result in plain)
    if "trace" in passes:
        traced = passes["trace"]
        layers = {name: statistics.median(result["layers"][name] for result in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead"] = statistics.median(result["run_s"] for result in traced) / plain_run_s
        metrics = {name: metric(value, unit_of(name)) for name, value in sorted(layers.items())}
        correct = correct and 0.9 <= layers["trace.coverage"] <= 1.0
    else:
        latencies_ms = [1000 * t for result in plain for t in result["latencies"]]
        plain_statuses = [status for result in plain for status in result["statuses"]]
        metrics = {
            "setup_s": metric(statistics.median(reference for reference, _ in setups), "s"),
            "run_s": metric(plain_run_s, "s"),
            "op_p50_ms": metric(statistics.median(latencies_ms), "ms"),
            "op_p90_ms": metric(statistics.quantiles(latencies_ms, n=10, method="inclusive")[8], "ms"),
            "peak_rss_mb": metric(statistics.median(result["peak_rss_mb"] for result in plain), "MB"),
            "ok_ratio": metric(plain_statuses.count("ok") / len(plain_statuses), "ratio"),
        }
    line = {"correct": correct, "attempted": len(statuses), "failed": failed, "metrics": metrics}
    details = {
        "failures": {**split, "fail_ratio": failed / len(statuses), "base": len(statuses)},
        "digest": outputs_digest(digests),
        "wall_clock": {
            "run_s": statistics.median(result["wall_s"] for result in plain),
            "setup_s": statistics.median(wall for _, wall in setups) if setups else None,
        },
    }
    return line, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "demchar" / "__init__.py").is_file():
        print(f"error: no demchar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    ops = workloads.operations(args.workload, args.seed)
    started = perf_counter()
    try:
        passes, setups = measure(ops, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    line, details = summarize(passes, setups)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": {mode: len(results) for mode, results in passes.items()},
        "setups": len(setups),
        "operations_per_pass": len(ops),
        "latency_samples": len(ops) * len(passes["plain"]),
        **details,
        "wall_s": perf_counter() - started,
        "environment": environment(),
    }
    if args.trace:
        report["layer_targets"] = tracer.TARGETS
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "overhead", "coverage")):
        return "ratio"
    return "count"


def outputs_digest(digests: set[tuple[str, ...]]) -> str | list:
    """One digest for the pass outputs, or every variant if passes differ."""
    if len(digests) == 1:
        return hashlib.sha256("".join(next(iter(digests))).encode()).hexdigest()[:16]
    return sorted(hashlib.sha256("".join(d).encode()).hexdigest()[:16] for d in digests)


if __name__ == "__main__":
    sys.exit(main())
