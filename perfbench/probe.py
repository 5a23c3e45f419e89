"""Timing helpers: a CPU-speed probe that runs beside the benchmark, and
the run-queue wait of the calling thread.

    python3 perfbench/probe.py <pid> <interval>

samples the speed of the CPU that process <pid> runs on; see sample()."""

import json
import os
import select
import sys
import time

PROBE_SEQ = tuple(1 if (i * 7919) % 11 < 6 else -1 for i in range(24))
PROBE_REFERENCE_S = 3.0e-4  # CPU time of probe() at the reference speed


def probe():
    """CPU seconds this thread spends on a fixed pure-Python task that does
    not touch quadseq: autocorrelations of a fixed sign sequence."""
    t0 = time.thread_time()
    n = len(PROBE_SEQ)
    for _ in range(8):
        tuple(sum(PROBE_SEQ[i] * PROBE_SEQ[i + j] for i in range(n - j)) for j in range(n))
    return time.thread_time() - t0


def speed():
    """Machine speed relative to the reference: above 1 faster, below 1 slower."""
    return PROBE_REFERENCE_S / probe()


def run_queue_wait():
    """Seconds the calling thread has spent runnable but waiting for a CPU
    (field 2 of its schedstat), or 0.0 where the kernel does not say."""
    try:
        with open("/proc/thread-self/schedstat", encoding="ascii") as fh:
            return int(fh.read().split()[1]) / 1e9
    except (OSError, IndexError, ValueError):
        return 0.0


def sample(pid, interval):
    """Every `interval` seconds, move to the CPU that process `pid` last ran
    on and time one probe, until standard input becomes readable (data or
    end of file); then print the (time.perf_counter(), speed) samples as
    JSON.  Run as a process of its own, the probe never waits for the
    benchmark's interpreter lock."""
    stat = f"/proc/{pid}/stat"
    samples = []
    while not select.select([sys.stdin], [], [], interval)[0]:
        try:
            with open(stat, encoding="ascii", errors="replace") as fh:
                cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
            os.sched_setaffinity(0, {cpu})
        except (OSError, AttributeError):
            pass  # no /proc or no affinity control: probe wherever scheduled
        samples.append((time.perf_counter(), speed()))
    print(json.dumps(samples))


if __name__ == "__main__":
    sample(int(sys.argv[1]), float(sys.argv[2]))
