"""quadseq benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload search-nn12 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from the
checkout's src/ directory, nothing is installed.  Each workload is a single
client in a closed loop: the next operation starts when the previous one has
returned, as a batch/CLI user would run it.  Operations continue until their
summed time reaches --seconds and at least two have run.  Every output is
checked outside the timed section.

Times are reported at a reference speed.  The host's speed drifts by tens
of percent over seconds to minutes, so a probe process times a fixed
pure-Python task every PROBE_INTERVAL_S and each operation's wall time is
scaled by the mean speed the probe saw meanwhile.  Set-up, mostly importing
numpy, does not follow that probe; each set-up time is scaled by the time a
fresh interpreter takes to import numpy right after it.  Raw wall times are
printed too.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced operations, prints the per-layer metrics from the traced ones and
writes every span to perfbench/out/.  Human-readable "name value unit" lines
come first; the last line of stdout is one JSON object.  See README.md for
the metric definitions and the layer -> metric -> workload predictions.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

from probe import run_queue_wait
from tracing import Tracer, untraced

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("search-nn12", "resume-nn12", "hadamard-chain", "archive-orbits")
MIN_OPS = 2
SETUP_REPS = 12  # set-up/reference pairs per run, after one pair that compiles bytecode
WALL_LIMIT_S = 140.0  # stop starting operations; the run must end within 180 s

PROBE_INTERVAL_S = 0.05
CHILDREN_INTERVAL_S = 0.2

# Set-up interpreters run with one BLAS thread: numpy's import starts one
# OpenBLAS thread per CPU, and how long that takes depends on whether other
# tenants leave the second vCPU free.  quadseq never uses BLAS threads.
SETUP_ENV = {"OPENBLAS_NUM_THREADS": "1"}
SETUP_CODE = """
import json, time
from probe import run_queue_wait
w0, t0 = run_queue_wait(), time.perf_counter()
import quadseq.cli
w1, t1 = run_queue_wait(), time.perf_counter()
from quadseq import catalog
catalog.witness_records()
w2, t2 = run_queue_wait(), time.perf_counter()
print(json.dumps({"import_s": t1 - t0 - (w1 - w0), "witness_records_s": t2 - t1 - (w2 - w1),
                  "wall_s": t2 - t0, "file": quadseq.cli.__file__}))
"""
# The reference task for set-up: importing numpy alone, which quadseq
# imports but does not own, timed in a fresh interpreter right after each
# set-up interpreter.  REFERENCE_IMPORT_S is its time at the reference
# speed, close to its median on the machine described in README.md.
REFERENCE_CODE = """
import json, time
from probe import run_queue_wait
w0, t0 = run_queue_wait(), time.perf_counter()
import numpy
w1, t1 = run_queue_wait(), time.perf_counter()
print(json.dumps({"reference_s": t1 - t0 - (w1 - w0), "wall_reference_s": t1 - t0}))
"""
REFERENCE_IMPORT_S = 0.07

# calls whose per-operation time is reported as "<name>.s"
TIMED_CALLS = (
    "search.search",
    "search.load_checkpoint",
    "search.equivalence_classes",
    "construct.bs_to_ts",
    "construct.ts_to_od",
    "construct.verify_od",
    "construct.od_substitute",
    "construct.pm_matrix_to_text",
    "catalog.record_for_quad",
    "catalog.archive_save",
    "catalog.archive_load",
    "codec.parse_record",
    "codec.format_record",
    "seqcore.verify_quadruple",
)
SELF_LAYERS = ("search", "construct", "catalog", "codec", "bench")


class Monitor:
    """Samples CPU speed and the memory of child processes while a run lasts.

    Speed comes from a probe process (probe.py) that follows the benchmark's
    main thread from CPU to CPU, and so never waits for this interpreter's
    lock.  Child memory is watched by a thread once watch_children() is
    called: each child's high-water mark (VmHWM) is read from /proc, and the
    largest sum over children alive at one sample is kept.  Pages shared
    after fork count once per process."""

    def __init__(self):
        self.speeds = []  # (time.perf_counter(), speed), filled in on exit
        self.children_peak = 0
        self._watch_children = False
        self._helpers = set()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._prober = None

    def __enter__(self):
        self._prober = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py"), str(os.getpid()), str(PROBE_INTERVAL_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        out, _ = self._prober.communicate(timeout=60)  # closing stdin stops it
        self.speeds = json.loads(out)

    def watch_children(self):
        """Start sampling children, ignoring those alive now (the probe)."""
        if os.path.isdir("/proc/self"):
            self._helpers = set(_children(os.getpid()))
            self._watch_children = True

    def speed(self, t0, t1):
        """Mean speed sampled in [t0, t1], or the nearest sample to t1 when
        the interval is shorter than the sampling interval."""
        inside = [s for t, s in self.speeds if t0 <= t <= t1]
        if not inside:
            inside = [min(self.speeds, key=lambda ts: abs(ts[0] - t1))[1]]
        return statistics.fmean(inside)

    @property
    def peak_rss(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 + self.children_peak

    def _run(self):
        while not self._stop.wait(CHILDREN_INTERVAL_S):
            if self._watch_children:
                self._sample_children()

    def _sample_children(self):
        total = 0
        for child in _children(os.getpid()):
            if child in self._helpers:
                continue
            try:
                total += _hwm(child)
            except OSError:
                pass  # exited between listing and reading
        self.children_peak = max(self.children_peak, total)


def _children(pid):
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while listing
        if int(fields[1]) == pid:
            yield int(entry)


def _hwm(pid):
    with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    return 0


def setup_runs(reps, warm_up):
    """Time `reps` fresh interpreters that import quadseq.cli and call
    catalog.witness_records(), each followed by a reference interpreter that
    imports numpy alone; both timed inside the interpreter, less the time
    they waited for a CPU.  With warm_up, one more pair runs first and is
    dropped: it compiles the bytecode."""
    env = dict(os.environ, **SETUP_ENV)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    def fresh(code):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        return json.loads(proc.stdout.splitlines()[-1])

    runs = []
    for _ in range(reps + warm_up):
        result = fresh(SETUP_CODE)
        if not os.path.abspath(result["file"]).startswith(SRC + os.sep):
            raise RuntimeError(f"fresh interpreter imported quadseq from {result['file']}")
        result.update(fresh(REFERENCE_CODE))
        runs.append(result)
    return runs[warm_up:]


def setup_figures(runs):
    """Medians over set-up runs, each scaled to the reference speed by the
    reference interpreter that followed it:
    time x REFERENCE_IMPORT_S / (numpy import time)."""
    def scaled(key):
        return statistics.median(
            sum(r[k] for k in key) * REFERENCE_IMPORT_S / r["reference_s"] for r in runs)

    return {
        "setup_s": scaled(("import_s", "witness_records_s")),
        "cli.import_s": scaled(("import_s",)),
        "catalog.witness_records.s": scaled(("witness_records_s",)),
        "wall_setup_s": statistics.median(r["wall_s"] for r in runs),
        "wall_reference_s": statistics.median(r["wall_reference_s"] for r in runs),
    }


def run_ops(workload, seconds, tracer, started):
    """Closed loop; with a tracer, odd-numbered operations are traced."""
    ops = []
    timed = 0.0
    while True:
        kinds = {op["traced"] for op in ops}
        done = timed >= seconds and len(ops) >= MIN_OPS and (tracer is None or len(kinds) == 2)
        if done or time.perf_counter() - started > WALL_LIMIT_S:
            break
        op_id = len(ops)
        traced = tracer is not None and op_id % 2 == 1
        out, problems, counters = None, [], {}
        w0 = run_queue_wait()
        t0 = time.perf_counter()
        try:
            out = tracer.root("bench.op", op_id, workload.op) if traced else workload.op(untraced)
        except Exception:
            problems.append("operation raised:\n" + traceback.format_exc())
        t1 = time.perf_counter()
        waited = 0.0 if workload.uses_pool else run_queue_wait() - w0
        timed += t1 - t0
        if out is not None:
            try:
                problems, counters = (tracer.root("bench.check", op_id, workload.check, out)
                                      if traced else workload.check(untraced, out))
            except Exception:
                problems = ["output check raised:\n" + traceback.format_exc()]
        for problem in problems:
            print(f"op {op_id} FAILED: {problem}", file=sys.stderr)
        ops.append({"traced": traced, "seconds": t1 - t0, "waited": waited, "window": (t0, t1),
                    "ok": not problems, "counters": counters})
    return ops


def tail(values):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; None below 11 samples."""
    if len(values) < 11:
        return None
    return sorted(values)[-11], 100.0 * (len(values) - 10) / len(values)


def end_to_end(ops, setup, peak_rss):
    scaled = [op["scaled"] for op in ops]
    return {
        "setup_s": (setup["setup_s"], "s"),
        "op_p50_s": (statistics.median(scaled), "s"),
        "ops_per_s": (sum(op["ok"] for op in ops) / sum(scaled), "1/s"),
        "peak_rss_mb": (peak_rss / 2**20, "MB"),
    }


def per_layer(ops, setup, tracer, counters):
    traced = [i for i, op in enumerate(ops) if op["traced"]]
    by_op = tracer.per_op()
    med = statistics.median

    def call_time(i, name):
        return by_op[i]["calls"].get(name, (0.0, 0))[0]

    metrics = {}
    for name in TIMED_CALLS:
        metrics[f"{name}.s"] = (med(call_time(i, name) for i in traced), "s")
    metrics["construct.ts_to_od.assembly_s"] = (
        med(call_time(i, "construct.ts_to_od") - call_time(i, "construct.verify_od") for i in traced), "s")
    metrics["catalog.witness_records.s"] = (setup["catalog.witness_records.s"], "s")
    metrics["cli.import_s"] = (setup["cli.import_s"], "s")
    for name, unit in counters.items():
        metrics[name] = (statistics.median_low(ops[i]["counters"].get(name, 0) for i in traced), unit)
    for layer in SELF_LAYERS:
        metrics[f"layer.{layer}.self_s"] = (med(by_op[i]["self"].get(layer, 0.0) for i in traced), "s")
    traced_p50 = med(ops[i]["scaled"] for i in traced)
    untraced_p50 = med(op["scaled"] for op in ops if not op["traced"])
    metrics["trace.op_p50_s"] = (traced_p50, "s")
    metrics["trace.untraced_op_p50_s"] = (untraced_p50, "s")
    metrics["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")
    metrics["trace.spans"] = (med(sum(n for _, n in by_op[i]["calls"].values()) for i in traced), "count")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "quadseq", "__init__.py")):
        print(f"error: no quadseq sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import quadseq

    if not os.path.abspath(quadseq.__file__).startswith(SRC + os.sep):
        print(f"error: quadseq imported from {quadseq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import COUNTERS, WORKLOADS

    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)

    tracer = Tracer() if args.trace else None
    # half the set-up runs before the operations and half after, so that
    # they sample the host over the whole run
    setup = setup_runs(SETUP_REPS // 2, warm_up=True)
    with Monitor() as monitor:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
            workload = WORKLOADS[args.workload](args.seed, workdir, expected)
            monitor.watch_children()
            ops = run_ops(workload, args.seconds, tracer, started)
    setup = setup_figures(setup + setup_runs(SETUP_REPS - SETUP_REPS // 2, warm_up=False))
    for op in ops:
        op["speed"] = monitor.speed(*op["window"])
        op["scaled"] = (op["seconds"] - op["waited"]) * op["speed"]
    speed = statistics.fmean(s for _, s in monitor.speeds)

    attempted = len(ops)
    failed = sum(not op["ok"] for op in ops)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations, {failed} failed")
    print("op_wall_seconds " + " ".join(f"{op['seconds']:.4f}{'t' if op['traced'] else ''}" for op in ops))
    print("op_speed " + " ".join(f"{op['speed']:.4f}" for op in ops))
    print("op_run_queue_wait_s " + " ".join(f"{op['waited']:.4f}" for op in ops))
    print(f"machine_speed {speed!r} x reference ({len(monitor.speeds)} probes)")
    if tracer is None:
        metrics = end_to_end(ops, setup, monitor.peak_rss)
        wall = [op["seconds"] for op in ops]
        print(f"wall_setup_s {setup['wall_setup_s']!r} s")
        print(f"wall_reference_import_s {setup['wall_reference_s']!r} s")
        print(f"wall_op_p50_s {statistics.median(wall)!r} s")
        print(f"wall_ops_per_s {sum(op['ok'] for op in ops) / sum(wall)!r} 1/s")
        for name, values in (("op_tail_s", [op["scaled"] for op in ops]), ("wall_op_tail_s", wall)):
            found = tail(values)
            if found is None:
                print(f"{name} n/a ({len(values)} operations, needs 11)")
            else:
                print(f"{name} {found[0]!r} s (p{found[1]:.0f} of {len(values)} operations)")
    else:
        metrics = per_layer(ops, setup, tracer, COUNTERS)
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(trace_path)
        print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
    print(f"error_rate {failed / attempted!r} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
