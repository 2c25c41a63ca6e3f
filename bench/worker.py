"""One pass of a workload in a fresh interpreter.

Protocol on stdin/stdout, one line each: the parent sends the operation
list as JSON; the worker imports demchar, builds what the operations need
and answers ``ready``; the parent sends ``run`` (or ``quit`` when it only
measures set-up); the worker runs every operation, one at a time, and
answers with one JSON line of timings, statuses and digests.

Times are the worker's CPU time at a reference machine speed (see
``SpeedProbe``); the wall-clock run time is reported beside them.

Usage: python3 worker.py <src-dir> <plain|trace>
"""

from __future__ import annotations

import bisect
import gc
import json
import resource
import signal
import statistics
import sys
import threading
import traceback
from fractions import Fraction
from time import perf_counter, thread_time

REFERENCE_RATE = 2.5e5  # probe additions per second that define one reference second
PROBE_INTERVAL_S = 0.01
PROBE_TERMS = tuple(Fraction(i, 7) for i in range(1, 33))


class SpeedProbe:
    """Samples the machine's speed every 10 ms while the worker runs.

    The worker is single-threaded and does no I/O while it runs, so its CPU
    time is its wall time minus the time the host gave its processor to
    someone else; those stalls reach a second per operation on a shared
    host, and CPU time leaves them out.  It is read from the thread's
    clock, because the process's turns coarse once a timer is set.  The
    host also changes this machine's speed by up to 1.8x, in phases of
    seconds to minutes, so CPU times of identical passes still differ by a
    third.  A SIGALRM handler times a fixed sum of ``PROBE_TERMS``, 32
    fractions, about 120 us, between the program's bytecodes; a CPU time
    times the mean rate sampled inside it, divided by ``REFERENCE_RATE``,
    is the time the same work takes at the reference speed.  Fraction
    arithmetic (Python-level calls, small allocations, integer gcds) moves
    with the machine much as the program does: over 16-24 passes of each
    of three workloads, CPU times corrected by it spread 3-6%, where a bare
    counting loop left 7-14%.  The sum uses only its own objects, and the
    garbage collector is held off while it runs so that no collection of
    the program's heap lands in it; so a faster or slower program moves
    the reference time exactly as much as the CPU time.  The probe costs
    about 1% of the run, inside whichever span it interrupts.
    """

    def __init__(self):
        self.times: list[float] = []
        self.rates: list[float] = []
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def sample(self, *_) -> None:
        if self._busy:  # the timer fired during an explicit sample
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        total = 0
        for term in PROBE_TERMS:
            total += term
        self.times.append(start)
        self.rates.append(len(PROBE_TERMS) / (perf_counter() - start))
        if collecting:
            gc.enable()
        self._busy = False

    def reference_s(self, begin: float, end: float, cpu_s: float) -> float:
        """``cpu_s``, spent from wall time ``begin`` to ``end``, at the
        reference speed: times the mean rate sampled in the interval, or the
        last one before it for an interval shorter than the sampling
        period."""
        lo, hi = bisect.bisect_left(self.times, begin), bisect.bisect_right(self.times, end)
        rate = statistics.fmean(self.rates[lo:hi]) if hi > lo else self.rates[max(hi - 1, 0)]
        return cpu_s * rate / REFERENCE_RATE


def main() -> int:
    src, mode = sys.argv[1], sys.argv[2]
    probe = SpeedProbe()
    probe.start()
    began = perf_counter()
    sys.path.insert(0, src)
    channel = sys.stdout
    ops = json.loads(sys.stdin.readline())

    import demchar

    if not demchar.__file__.startswith(src):
        raise SystemExit(f"demchar imported from {demchar.__file__}, not from {src}")
    import tracer
    import workloads

    trace = tracer.Tracer() if mode == "trace" else None
    if trace:
        trace.install()
    calls = workloads.setup(ops)
    at_ready = trace.snapshot() if trace else None
    probe.sample()
    ready = perf_counter()
    # Set-up time at the reference speed: the CPU time since the process
    # started, interpreter start-up included.
    print("ready", probe.reference_s(began, ready, thread_time()), file=channel, flush=True)
    if sys.stdin.readline().strip() != "run":
        probe.stop()
        return 0

    results, bounds = [], []
    probe.sample()
    start, start_cpu = perf_counter(), thread_time()
    for op, call in zip(ops, calls):
        begin, begin_cpu = perf_counter(), thread_time()
        try:
            result = workloads.execute(op, call)
        except Exception as exc:  # an operation's failure is a result to report
            traceback.print_exc()
            result = exc
        bounds.append((begin, perf_counter(), thread_time() - begin_cpu))
        results.append(result)
    end, run_cpu = perf_counter(), thread_time() - start_cpu
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    threads = threading.active_count()
    layers = None
    if trace:
        trace.uninstall()
        layers = tracer.layer_metrics(trace.snapshot(), at_ready, end - start)

    checked = [workloads.check(op, result) for op, result in zip(ops, results)]
    print(json.dumps({
        "run_s": probe.reference_s(start, end, run_cpu),
        "wall_s": end - start,
        "latencies": [probe.reference_s(*bound) for bound in bounds],
        "statuses": [status for status, _ in checked],
        "digests": [digest for _, digest in checked],
        "peak_rss_mb": peak_rss_mb,
        "threads": threads,
        "layers": layers,
    }), file=channel, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
