"""The four benchmark workloads.

Each workload is one client in a closed loop: `op(call)` runs one operation
and returns its output; `check(call, out)` runs outside the timed section
and returns (problems, counters).  `call(name, fn, *args)` is the span
adapter from tracing.py: every call into a quadseq module goes through it,
so the traced run sees the same calls as the untraced one.

Counters are exact: for a given commit they must repeat exactly on every
operation and every run.  A counter that differs between two operations on
the same input is reported as a failed operation.
"""

import hashlib
import os
import random
from dataclasses import dataclass

import numpy as np

from quadseq import catalog, codec, construct
from quadseq.search import (
    BudgetExhausted,
    SearchSpec,
    equivalence_classes,
    load_checkpoint,
    nn_orbit,
    search,
)
from quadseq.seqcore import SeqQuadruple, verify_quadruple

from tracing import untraced

# Every counter a workload can report, with its unit; a layer a workload
# leaves idle reports 0.
COUNTERS = {
    "search.search.calls": "count",
    "search.nodes": "count",
    "search.solutions": "count",
    "search.prunes.sum_of_squares": "count",
    "search.prunes.partial_lag": "count",
    "search.prunes.case": "count",
    "search.a_candidates": "count",
    "search.join_probes": "count",
    "search.yield": "ratio",
    "search.checkpoint_bytes": "B",
    "construct.verify_od.macs": "MAC",
    "construct.verify_od.bytes": "B",
    "construct.od_substitute.macs": "MAC",
    "construct.od_substitute.bytes": "B",
    "construct.pm_matrix_to_text.bytes": "B",
    "catalog.archive_bytes": "B",
    "seqcore.verify_quadruple.calls": "count",
}

INT64_BYTES = 8


def sha256_lines(lines):
    return hashlib.sha256("".join(line + "\n" for line in sorted(lines)).encode()).hexdigest()


class Workload:
    name = ""
    # True when an operation runs work in other processes; its main thread
    # then waits for CPUs its own workers hold, and that wait is part of
    # the operation's time.
    uses_pool = False

    def __init__(self, seed, workdir, expected):
        self.expected = expected
        self._first_counters = {}

    def _repeatable(self, key, counters):
        """Problems if `counters` differ from the first operation on `key`."""
        first = self._first_counters.setdefault(key, dict(counters))
        return [] if first == counters else [f"counters changed between operations: {first} != {counters}"]


# --- search workloads ----------------------------------------------------

@dataclass
class SearchOutput:
    spec: SearchSpec
    result: object
    lines: list
    legs: int


def _search_counters(spec, result, legs):
    """Counters of one finished search.  `nodes` mixes A-candidates with
    join probes; the split is derived here from the size of the A-space
    each case pass scans (a quarter of it with representatives, which skips
    A's whose first or last entry is -1)."""
    stats = result.stats
    passes = len(spec.cases) if spec.cases else 1
    a_space = 1 << (spec.order + 1)
    if spec.representatives:
        a_space //= 4
    a_candidates = a_space * passes
    return {
        "search.search.calls": legs,
        "search.nodes": stats.nodes,
        "search.solutions": result.count,
        "search.prunes.sum_of_squares": stats.prunes.get("sum_of_squares", 0),
        "search.prunes.partial_lag": stats.prunes.get("partial_lag", 0),
        "search.prunes.case": stats.prunes.get("case", 0),
        "search.a_candidates": a_candidates,
        "search.join_probes": stats.nodes - a_candidates,
        "search.yield": result.count / stats.nodes,
    }


class _SearchWorkload(Workload):
    """nn order 12, all solutions, printed as record lines.  Neither search
    workload depends on the seed: the problem has exactly one input."""

    def file_counters(self):
        return {}

    def check(self, call, out):
        problems = []
        count = self.expected["search_nn12_count"]
        if out.result.count != count or len(out.lines) != count:
            problems.append(f"{out.result.count} solutions, {len(out.lines)} lines, expected {count}")
        if sha256_lines(out.lines) != self.expected["search_nn12_sha256"]:
            problems.append("sha256 of the sorted printed lines differs")
        failing = sum(
            1 for quad in out.result.solutions
            if not call("seqcore.verify_quadruple", verify_quadruple, quad)
        )
        if failing:
            problems.append(f"{failing} solutions fail verify_quadruple")
        counters = _search_counters(out.spec, out.result, out.legs)
        counters["seqcore.verify_quadruple.calls"] = len(out.result.solutions)
        counters.update(self.file_counters())
        return problems + self._repeatable(None, counters), counters


class SearchNN12(_SearchWorkload):
    """What `quadseq search --kind nn --order 12` does and prints."""

    name = "search-nn12"
    SPEC = SearchSpec("nn", 12, mode="all")

    def op(self, call):
        result = call("search.search", search, self.SPEC, workers=1)
        lines = [call("codec.format_record", codec.format_record, q) for q in result.solutions]
        return SearchOutput(self.SPEC, result, lines, 1)


class ResumeNN12(_SearchWorkload):
    """The same problem as a budgeted, checkpointed search on two workers,
    resumed from its checkpoint after each exhausted budget until done.

    The parallel budget is known to drain the whole block queue before it
    raises; this workload keeps that behaviour visible on purpose."""

    name = "resume-nn12"
    uses_pool = True
    SPEC = SearchSpec("nn", 12, mode="all", node_limit=1_000_000)
    WORKERS = 2
    MAX_LEGS = 64  # a resume that stops making progress fails instead of looping

    def __init__(self, seed, workdir, expected):
        super().__init__(seed, workdir, expected)
        self.checkpoint = os.path.join(workdir, "search.ckpt")

    def op(self, call):
        resume = None
        for legs in range(1, self.MAX_LEGS + 1):
            try:
                result = call("search.search", search, self.SPEC, workers=self.WORKERS,
                              resume=resume, checkpoint_path=self.checkpoint)
                break
            except BudgetExhausted:
                resume = call("search.load_checkpoint", load_checkpoint, self.checkpoint)
        else:
            raise RuntimeError(f"search not finished after {self.MAX_LEGS} legs")
        lines = [call("codec.format_record", codec.format_record, q) for q in result.solutions]
        return SearchOutput(self.SPEC, result, lines, legs)

    def file_counters(self):
        # the file as the last leg left it; every operation rewrites it
        return {"search.checkpoint_bytes": os.path.getsize(self.checkpoint)}


# --- construction chain ---------------------------------------------------

@dataclass
class ChainOutput:
    line: str
    ts: SeqQuadruple
    od: object
    h: np.ndarray
    report: object
    text: str


class HadamardChain(Workload):
    """Witness record -> T-sequences -> orthogonal design -> Hadamard matrix
    -> text, one witness row per operation, rows cycling in seeded order."""

    name = "hadamard-chain"
    VALUES = (1, 1, 1, 1)

    def __init__(self, seed, workdir, expected):
        super().__init__(seed, workdir, expected)
        self.rows = [f"nn {r.quad.n} {r.ab_code} {r.cd_code}" for r in catalog.witness_records()]
        random.Random(seed).shuffle(self.rows)
        self.next = 0

    def op(self, call):
        line = self.rows[self.next % len(self.rows)]
        self.next += 1
        quad = call("codec.parse_record", codec.parse_record, line)
        ts = call("construct.bs_to_ts", construct.bs_to_ts, quad)
        od = call("construct.ts_to_od", construct.ts_to_od, ts)
        h, report = call("construct.od_substitute", construct.od_substitute,
                         od, self.VALUES, require_hadamard=True)
        text = call("construct.pm_matrix_to_text", construct.pm_matrix_to_text, h)
        return ChainOutput(line, ts, od, h, report, text)

    def check(self, call, out):
        problems = []
        n = out.od.order
        if not out.report:
            problems.append(f"program's HH^T verdict fails: {out.report.failure}")
        # independent of the program's int64 product: exact float64 BLAS
        # (entries are +-1, every sum is at most n, far below 2^53)
        hf = out.h.astype(np.float64)
        if (out.h.shape != (n, n) or not np.all(np.abs(out.h) == 1)
                or not np.array_equal(hf @ hf.T, n * np.eye(n))):
            problems.append(f"independent check H H^T = {n} I fails")
        want = self.expected["hadamard_text_sha256"].get(out.line)
        if hashlib.sha256(out.text.encode()).hexdigest() != want:
            problems.append(f"matrix text for {out.line!r} differs from the expected output")
        if not call("seqcore.verify_quadruple", verify_quadruple, out.ts):
            problems.append("T-sequences fail verify_quadruple")
        # the same design again, so that a traced run can split ts_to_od's
        # assembly share off; skipped untraced, where it would only add time
        if call is not untraced and not call("construct.verify_od", construct.verify_od, out.od):
            problems.append("design fails verify_od")
        # computed, not measured: verify_od does u squares and u(u-1) cross
        # products of n x n int64 coefficient matrices, od_substitute one
        # product; each product reads two n x n operands and writes one
        u = out.od.nvars
        products = u + u * (u - 1)
        matmul_bytes = 3 * INT64_BYTES * n * n
        counters = {
            "construct.verify_od.macs": products * n ** 3,
            "construct.verify_od.bytes": products * matmul_bytes,
            "construct.od_substitute.macs": n ** 3,
            "construct.od_substitute.bytes": matmul_bytes,
            "construct.pm_matrix_to_text.bytes": len(out.text.encode()),
            "seqcore.verify_quadruple.calls": 1,
        }
        return problems + self._repeatable(out.line, counters), counters


# --- archive round trip ---------------------------------------------------

@dataclass
class ArchiveOutput:
    records: list
    loaded: list
    classes: list


class ArchiveOrbits(Workload):
    """Record, save, reload and classify every member of the six witness
    orbits, in seeded order."""

    name = "archive-orbits"

    def __init__(self, seed, workdir, expected):
        super().__init__(seed, workdir, expected)
        self.quads = []
        canonical = []
        for rec in catalog.witness_records():
            # sorted first: set order depends on the interpreter's hash seed
            orbit = sorted(nn_orbit(rec.quad), key=SeqQuadruple.plaintext)
            self.quads += orbit
            canonical.append(orbit[0])
        random.Random(seed).shuffle(self.quads)
        self.classes = sorted(canonical, key=SeqQuadruple.plaintext)
        self.path = os.path.join(workdir, "orbits.txt")

    def op(self, call):
        records = [call("catalog.record_for_quad", catalog.record_for_quad, q) for q in self.quads]
        call("catalog.archive_save", catalog.archive_save, records, self.path)
        loaded = call("catalog.archive_load", catalog.archive_load, self.path)
        classes = call("search.equivalence_classes", equivalence_classes, [r.quad for r in loaded])
        return ArchiveOutput(records, loaded, classes)

    def check(self, call, out):
        problems = []
        if len(out.records) != self.expected["archive_quads"]:
            problems.append(f"{len(out.records)} records, expected {self.expected['archive_quads']}")
        encoded = sum(1 for r in out.records if r.ab_code is not None)
        if encoded != self.expected["archive_encoded"]:
            problems.append(f"{encoded} encoded records, expected {self.expected['archive_encoded']}")
        saved = [(r.quad, r.ab_code, r.cd_code) for r in out.records]
        if saved != [(r.quad, r.ab_code, r.cd_code) for r in out.loaded]:
            problems.append("loaded records differ from the saved ones")
        failing = sum(
            1 for r in out.loaded if not call("seqcore.verify_quadruple", verify_quadruple, r.quad)
        )
        if failing:
            problems.append(f"{failing} loaded records fail verify_quadruple")
        if out.classes != self.classes:
            problems.append(f"{len(out.classes)} equivalence classes, expected the {len(self.classes)} witness classes")
        counters = {
            "catalog.archive_bytes": os.path.getsize(self.path),
            "seqcore.verify_quadruple.calls": len(out.loaded),
        }
        return problems + self._repeatable(None, counters), counters


WORKLOADS = {w.name: w for w in (SearchNN12, ResumeNN12, HadamardChain, ArchiveOrbits)}
