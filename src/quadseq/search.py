"""Exhaustive search for normal and near-normal quadruples.

Layout: the long pair (A, B) costs one free sequence, because B is forced on
positions 1..n by the (near-)normality pattern and at position n+1 by the
top-lag cancellation a_1*a_{n+1} + b_1*b_{n+1} = 0, which therefore holds
for every A and is never tested.  The short pair (C, D) is found by a hash
join on positive-lag profiles (seqcore.ProfileIndex): each A that survives
the sum-of-squares prune fixes a target profile at lags 1..n-1 that C and D
must add up to, and for each C-profile the D-profile it needs is looked up
directly.

The target also fixes c^2 + d^2 = 2(m+n) - a^2 - b^2, and a profile fixes
the squared sum of its sequences, so the join probes only the C-profiles
whose c^2 leaves an admissible d^2.  Surviving A's share few targets, so a
pass joins each distinct target once and reuses its (C, D) pairs for every
A that shares it.  A pass scans A in lex order, in blocks of isqrt(2^(n+1))
A's whatever the worker count, mode or budget, so its first block with a
solution holds its lex-least one; a memo lives one pass in each process.

The sum-of-squares prune is the only test before the join.  With
use_sum_prune off, an A of inadmissible sums reaches the join, whose sum
index finds nothing for it, so the toggle changes counters, never solutions.

A node is one A candidate or one C-profile probed for a surviving A.  Each
surviving A is charged the probes of its target's join whether the join was
computed or reused, so node counts, node_limit, checkpoints and resume do not
depend on block size, worker count or how often the memo hits.

Case splitting partitions the admissible sums vectors (a, b, c, d) with
a^2+b^2+c^2+d^2 = 2(m+n) into orbits under coordinate sign changes and the
C<->D swap, packed into exactly 12 descriptors so long runs can be resumed
and distributed case by case.
"""

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import partial
from itertools import product
from math import isqrt
from operator import sub

from .seqcore import (
    KIND_NEAR_NORMAL,
    KIND_NORMAL,
    ProfileIndex,
    QuadseqError,
    SeqQuadruple,
    alternate,
    int_to_seq,
    negate,
    npaf_values,
    parse_quad,
    profile_index,
    reverse,
    seq_str,
    sum_of_squares_check,
    verify_quadruple,
    write_text_atomic,
)

MAX_ORDER_WITHOUT_OVERRIDE = 20
NUM_CASES = 12
CHECKPOINT_EVERY = 250_000  # nodes between periodic checkpoint writes

PRUNE_SUM = "sum_of_squares"
PRUNE_CASE = "case"


class SearchError(QuadseqError):
    """Invalid search specification."""


class BudgetExhausted(QuadseqError):
    """Node budget ran out; carries a resumable checkpoint."""

    def __init__(self, checkpoint):
        super().__init__("node budget exhausted")
        self.checkpoint = checkpoint


@dataclass(frozen=True)
class SearchSpec:
    kind: str
    order: int
    mode: str = "all"  # all | first | count
    cases: tuple[int, ...] | None = None
    node_limit: int | None = None
    representatives: bool = False
    allow_large: bool = False
    use_sum_prune: bool = True


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    prunes: dict[str, int]
    elapsed: float


@dataclass(frozen=True)
class SearchResult:
    solutions: list[SeqQuadruple]
    count: int
    stats: SearchStats


@dataclass(frozen=True)
class CaseDescriptor:
    case_id: int
    sums_reps: tuple[tuple[int, int, int, int], ...]
    note: str


@dataclass
class Checkpoint:
    kind: str
    order: int
    mode: str
    representatives: bool
    cases: tuple[int, ...] | None
    case_pos: int
    lex_next: int  # lex index of the first long sequence not yet scanned
    nodes: int
    prunes: dict[str, int]
    found: int
    solutions: list[str]  # plaintext quadruples


def _validate_spec(spec: SearchSpec) -> None:
    if spec.kind not in (KIND_NORMAL, KIND_NEAR_NORMAL):
        raise SearchError(f"searchable kinds are ns and nn, got {spec.kind!r}")
    if spec.order < 0:
        raise SearchError("order must be nonnegative")
    if spec.order > MAX_ORDER_WITHOUT_OVERRIDE and not spec.allow_large:
        raise SearchError(
            f"order {spec.order} above the default bound "
            f"{MAX_ORDER_WITHOUT_OVERRIDE}; set allow_large to proceed"
        )
    if spec.mode not in ("all", "first", "count"):
        raise SearchError(f"unknown report mode {spec.mode!r}")
    if spec.cases is not None:
        bad = [c for c in spec.cases if not 1 <= c <= NUM_CASES]
        if bad:
            raise SearchError(f"case ids must be in 1..{NUM_CASES}, got {bad}")


def _sums_rep(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    """Orbit representative under per-coordinate negation and the C<->D swap."""
    return (abs(a), abs(b), max(abs(c), abs(d)), min(abs(c), abs(d)))


def _admissible_values(length: int) -> list[int]:
    # possible sums of `length` entries from {-1, +1}, nonnegative side
    return list(range(length % 2, length + 1, 2))


def enumerate_cases(kind: str, order: int) -> list[CaseDescriptor]:
    """Exactly 12 pairwise-disjoint case descriptors covering every sums
    vector allowed by the quadratic identity.

    The natural unit is one sums orbit per case; when there are more than 12
    orbits the tail is merged into case 12, and when there are fewer the
    remaining descriptors are empty, with the spill noted on the descriptor.
    """
    if kind not in (KIND_NORMAL, KIND_NEAR_NORMAL):
        raise SearchError(f"searchable kinds are ns and nn, got {kind!r}")
    m, n = order + 1, order
    total = 2 * (m + n)
    reps = set()
    for a in _admissible_values(m):
        for b in _admissible_values(m):
            rest = total - a * a - b * b
            if rest < 0:
                continue
            for c in _admissible_values(n):
                leftover = rest - c * c
                if leftover < 0:
                    continue
                for d in _admissible_values(n):
                    if d * d == leftover:
                        reps.add(_sums_rep(a, b, c, d))
    ordered = sorted(reps)
    cases = []
    if len(ordered) > NUM_CASES:
        spill = len(ordered) - NUM_CASES + 1
        for i in range(NUM_CASES - 1):
            cases.append(CaseDescriptor(i + 1, (ordered[i],), ""))
        cases.append(
            CaseDescriptor(
                NUM_CASES,
                tuple(ordered[NUM_CASES - 1 :]),
                f"merged {spill} residual sums orbits",
            )
        )
    else:
        for i in range(NUM_CASES):
            if i < len(ordered):
                cases.append(CaseDescriptor(i + 1, (ordered[i],), ""))
            else:
                cases.append(CaseDescriptor(i + 1, (), "empty padding"))
    return cases


def _derive_b(a_seq: tuple[int, ...], kind: str, n: int) -> tuple[int, ...]:
    if kind == KIND_NORMAL:
        body = a_seq[:n]
    else:
        body = tuple(v if i % 2 == 0 else -v for i, v in enumerate(a_seq[:n]))
    return body + (-a_seq[n],)


class _PassPlan:
    """What one case pass needs beyond the A range: built once per pass and
    given once to each process that scans it."""

    def __init__(self, spec: SearchSpec, pass_case: int):
        self.spec = spec
        # admissible c^2 (and d^2), and admissible c^2 + d^2
        self.squared_sums = frozenset(v * v for v in _admissible_values(spec.order))
        self.sum_targets = frozenset(c2 + d2 for c2 in self.squared_sums for d2 in self.squared_sums)
        # sums reps of the case and their (|a|, |b|) parts; None when unfiltered
        self.reps_filter = self.ab_filter = None
        if pass_case != 0:
            descriptor = enumerate_cases(spec.kind, spec.order)[pass_case - 1]
            self.reps_filter = frozenset(descriptor.sums_reps)
            self.ab_filter = frozenset((r[0], r[1]) for r in self.reps_filter)


def _join(target: tuple[int, ...], index: ProfileIndex, squared_sums: frozenset[int]):
    """Every (C, D) whose positive-lag profiles add up to `target`.

    The target fixes c^2 + d^2 = 2n + 2*sum(target), so only C-profiles
    whose c^2 leaves an admissible d^2 are probed.  Returns the pairs grouped
    by (max(|c|,|d|), min(|c|,|d|)), the part of the sums rep they share,
    and the number of C-profiles probed.
    """
    residual = 2 * index.length + 2 * sum(target)
    groups = index.groups
    joined = []
    probes = 0
    for c2, c_groups in index.by_square_sum.items():
        d2 = residual - c2
        if d2 not in squared_sums:
            continue
        probes += len(c_groups)
        pairs = []
        for c_profile, c_seqs in c_groups:
            d_seqs = groups.get(tuple(map(sub, target, c_profile)))
            if d_seqs:
                pairs.extend(product(c_seqs, d_seqs))
        if pairs:
            c_abs, d_abs = isqrt(c2), isqrt(d2)
            joined.append(((max(c_abs, d_abs), min(c_abs, d_abs)), pairs))
    return joined, probes


def _scan_block(plan: _PassPlan, memo: dict, bounds: tuple[int, int]):
    """Scan the long sequences of lex indices lo <= k < hi; returns raw
    solutions, node and prune counters.

    `memo` maps a join target to its _join result and carries over between
    the blocks of a pass that one process scans.  Every surviving A is
    charged the C-profiles its join probes whether or not the memo already
    held it, so the counters do not depend on which process scans a block.
    """
    spec = plan.spec
    reps_filter, ab_filter = plan.reps_filter, plan.ab_filter
    n = spec.order
    m = n + 1
    index = profile_index(n)
    total = 2 * (m + n)
    top_bit = m - 1
    nodes = 0
    prunes = {PRUNE_SUM: 0, PRUNE_CASE: 0}
    solutions = []
    for k in range(*bounds):
        # entries 0 and m-1 are bits top_bit and 0: the test is order-free
        if spec.representatives and (k & 1 or (k >> top_bit) & 1):
            continue
        a_seq = int_to_seq(k, m)[::-1]  # bit top_bit is entry 0: k counts in lex order
        b_seq = _derive_b(a_seq, spec.kind, n)
        nodes += 1
        a_sum, b_sum = sum(a_seq), sum(b_seq)
        if spec.use_sum_prune and (total - a_sum * a_sum - b_sum * b_sum) not in plan.sum_targets:
            prunes[PRUNE_SUM] += 1
            continue
        ab_rep = (abs(a_sum), abs(b_sum))
        if ab_filter is not None and ab_rep not in ab_filter:
            prunes[PRUNE_CASE] += 1
            continue
        pa, pb = npaf_values(a_seq), npaf_values(b_seq)
        target = tuple(-pa[j] - pb[j] for j in range(1, n))
        joined = memo.get(target)
        if joined is None:
            joined = memo[target] = _join(target, index, plan.squared_sums)
        by_cd_rep, probes = joined
        nodes += probes
        for cd_rep, pairs in by_cd_rep:
            if reps_filter is not None and ab_rep + cd_rep not in reps_filter:
                prunes[PRUNE_CASE] += len(pairs)
                continue
            solutions.extend((a_seq, b_seq, c_seq, d_seq) for c_seq, d_seq in pairs)
    return solutions, nodes, prunes


def _order_zero_solutions(spec: SearchSpec):
    # no positive lags at all: every (A, B) pair of length 1 qualifies
    quads = []
    for a in (1, -1):
        for b in (1, -1):
            if spec.representatives and (a, b) != (1, -1):
                continue
            quads.append(((a,), (b,), (), ()))
    return quads


def _in_plaintext_order(quads) -> list:
    """Raw (A, B, C, D) tuples sorted as their plaintexts sort.

    All quadruples of one search share one shape, so plaintext order is
    entry-by-entry order with '+' before '-': descending integer order.
    """
    return sorted(quads, reverse=True)


def _plaintext(quad) -> str:
    return ";".join(map(seq_str, quad))


def _parse_solutions(texts, kind: str) -> list:
    """Raw tuples of checkpoint plaintexts; equal sequences share one tuple,
    as they do in a search's own results."""
    shared = {}
    return [
        tuple(shared.setdefault(seq, seq) for seq in parse_quad(text, kind).seqs())
        for text in texts
    ]


def _merge_prunes(total: dict, part: dict) -> None:
    # only the counters `total` keeps: an older checkpoint's retired ones drop
    for key in total:
        total[key] += part.get(key, 0)


def search(
    spec: SearchSpec,
    *,
    workers: int = 1,
    resume: Checkpoint | None = None,
    checkpoint_path: str | None = None,
) -> SearchResult:
    """Run the search described by spec.

    Output is deterministic: solutions are sorted by plaintext, independent
    of worker count and case interleaving.  A node budget overrun raises
    BudgetExhausted carrying (and, when checkpoint_path is given, writing) a
    checkpoint from which the run can be resumed to the identical result;
    while checkpoint_path is given, a checkpoint is also written every
    CHECKPOINT_EVERY nodes.

    first mode returns the lex-least solution of the first case pass (or of
    the search, without cases) that has any; neither it nor `nodes` depends
    on worker count or budget.  A budget may be overshot by one block.
    """
    _validate_spec(spec)
    started = time.perf_counter()
    passes: list[int] = list(spec.cases) if spec.cases is not None else [0]

    nodes = 0
    prunes = {PRUNE_SUM: 0, PRUNE_CASE: 0}
    found = 0
    texts: list[str] = []
    case_start, lex_start = 0, 0
    if resume is not None:
        _check_resume(spec, resume)
        case_start, lex_start = resume.case_pos, resume.lex_next
        nodes = resume.nodes
        _merge_prunes(prunes, resume.prunes)
        found = resume.found
        texts = list(resume.solutions)

    if spec.order == 0:
        quads = _order_zero_solutions(spec)
        return _finish(spec, quads, len(quads), nodes + len(quads), prunes, started)

    tracker = _ProgressTracker(spec, nodes, prunes, found, texts, checkpoint_path)
    for case_pos in range(case_start, len(passes)):
        plan = _PassPlan(spec, passes[case_pos])
        start = lex_start if case_pos == case_start else 0
        if _run_pass(plan, case_pos, start, case_pos == len(passes) - 1, tracker, workers):
            break  # first mode found its solution
    return _finish(spec, tracker.solutions, tracker.found, tracker.nodes, tracker.prunes, started)


class _ProgressTracker:
    """Accumulates results and enforces budget/checkpoint bookkeeping.

    Solutions are kept as raw tuples; a checkpoint stores them as plaintext,
    converted once each, when the first checkpoint that holds them is made.
    """

    def __init__(self, spec, nodes, prunes, found, texts, checkpoint_path):
        self.spec = spec
        self.nodes = nodes
        self.prunes = prunes
        self.found = found
        self.solutions = _parse_solutions(texts, spec.kind)
        self._texts = texts  # plaintexts of a prefix of self.solutions
        self.checkpoint_path = checkpoint_path
        self._base_nodes = nodes  # node_limit budgets the current run only
        self._last_checkpoint_nodes = nodes

    def commit(self, case_pos, lex_next, sols, block_nodes, block_prunes, last_block):
        # True on a first-mode hit, which, like the search's last block, no budget interrupts
        hit = self.spec.mode == "first" and bool(sols)
        if hit:
            sols = _in_plaintext_order(sols)[:1]
        self.nodes += block_nodes
        _merge_prunes(self.prunes, block_prunes)
        self.found += len(sols)
        if self.spec.mode != "count":
            self.solutions.extend(sols)
        exhausted = (
            self.spec.node_limit is not None
            and self.nodes - self._base_nodes >= self.spec.node_limit
            and not (hit or last_block)
        )
        if exhausted:
            checkpoint = self._checkpoint(case_pos, lex_next)
            if self.checkpoint_path:
                save_checkpoint(checkpoint, self.checkpoint_path)
            raise BudgetExhausted(checkpoint)
        if (
            self.checkpoint_path
            and self.nodes - self._last_checkpoint_nodes >= CHECKPOINT_EVERY
        ):
            save_checkpoint(self._checkpoint(case_pos, lex_next), self.checkpoint_path)
            self._last_checkpoint_nodes = self.nodes
        return hit

    def _checkpoint(self, case_pos, lex_next):
        self._texts.extend(map(_plaintext, self.solutions[len(self._texts):]))
        return Checkpoint(
            kind=self.spec.kind,
            order=self.spec.order,
            mode=self.spec.mode,
            representatives=self.spec.representatives,
            cases=self.spec.cases,
            case_pos=case_pos,
            lex_next=lex_next,
            nodes=self.nodes,
            prunes=dict(self.prunes),
            found=self.found,
            solutions=list(self._texts),
        )


def _run_pass(plan, case_pos, lex_start, last_pass, tracker, workers) -> bool:
    """Scan one case pass from `lex_start` on and commit its blocks in lex
    order; True on a first-mode hit.  Leaving early (a hit, an exhausted
    budget, an interrupt) cancels every queued block.
    """
    lex_limit = 1 << (plan.spec.order + 1)
    block = isqrt(lex_limit)
    ranges = [(lo, min(lo + block, lex_limit)) for lo in range(lex_start, lex_limit, block)]
    with ExitStack() as cleanup:
        if workers > 1:
            profile_index(plan.spec.order)  # built before the fork: the workers inherit it
            pool = ProcessPoolExecutor(workers, initializer=_serve_pass, initargs=(plan,))
            cleanup.callback(pool.shutdown, cancel_futures=True)
            results = pool.map(_scan_served_block, ranges)
        else:
            results = map(partial(_scan_block, plan, {}), ranges)
        for (_lo, hi), (sols, block_nodes, block_prunes) in zip(ranges, results):
            if tracker.commit(case_pos, hi, sols, block_nodes, block_prunes,
                              last_pass and hi == lex_limit):
                return True
    return False


_served_pass = None  # (plan, memo) of the pass a pool worker process scans


def _serve_pass(plan: _PassPlan) -> None:
    global _served_pass
    _served_pass = (plan, {})


def _scan_served_block(bounds: tuple[int, int]):
    return _scan_block(*_served_pass, bounds)


def _finish(spec, quads, found, nodes, prunes, started):
    solutions = []
    if spec.mode != "count":
        ordered = _in_plaintext_order(quads)
        if spec.mode == "first":
            ordered = ordered[:1]
        solutions = [SeqQuadruple(*quad, spec.kind) for quad in ordered]
    stats = SearchStats(nodes=nodes, prunes=dict(prunes), elapsed=time.perf_counter() - started)
    return SearchResult(solutions=solutions, count=found, stats=stats)


def _check_resume(spec: SearchSpec, checkpoint: Checkpoint) -> None:
    if (
        checkpoint.kind != spec.kind
        or checkpoint.order != spec.order
        or checkpoint.mode != spec.mode
        or checkpoint.representatives != spec.representatives
        or checkpoint.cases != spec.cases
    ):
        raise SearchError("checkpoint does not match the requested search")


def save_checkpoint(checkpoint: Checkpoint, path: str) -> None:
    lines = [
        "# quadseq search checkpoint",
        f"kind {checkpoint.kind}",
        f"order {checkpoint.order}",
        f"mode {checkpoint.mode}",
        f"representatives {int(checkpoint.representatives)}",
        "cases " + (",".join(map(str, checkpoint.cases)) if checkpoint.cases else "all"),
        f"case-pos {checkpoint.case_pos}",
        f"nodes {checkpoint.nodes}",
        f"found {checkpoint.found}",
    ]
    for key, value in sorted(checkpoint.prunes.items()):
        lines.append(f"prune {key} {value}")
    lines.append(f"frame lex-next {checkpoint.lex_next}")
    for text in checkpoint.solutions:
        lines.append(f"sol {text}")
    write_text_atomic(path, "\n".join(lines) + "\n")


def load_checkpoint(path: str) -> Checkpoint:
    fields = {"prunes": {}, "solutions": []}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, rest = line.partition(" ")
            if key == "prune":
                name, _, value = rest.partition(" ")
                fields["prunes"][name] = int(value)
            elif key == "sol":
                fields["solutions"].append(rest)
            elif key == "frame":
                name, _, value = rest.partition(" ")
                if name == "a-next":
                    raise SearchError("checkpoint is in the older a-next format: cannot resume")
                if name != "lex-next":
                    raise SearchError(f"unknown checkpoint frame {name!r}")
                fields["lex_next"] = int(value)
            elif key == "cases":
                fields["cases"] = (
                    None if rest == "all" else tuple(int(v) for v in rest.split(","))
                )
            elif key == "case-pos":
                fields["case_pos"] = int(rest)
            elif key in ("order", "nodes", "found"):
                fields[key] = int(rest)
            elif key == "representatives":
                fields[key] = bool(int(rest))
            elif key in ("kind", "mode"):
                fields[key] = rest
            else:
                raise SearchError(f"unknown checkpoint field {key!r}")
    try:
        checkpoint = Checkpoint(**fields)
    except TypeError as exc:
        raise SearchError(f"incomplete checkpoint: {exc}") from exc
    if checkpoint.mode != "count" and checkpoint.found != len(checkpoint.solutions):
        raise SearchError(
            f"damaged checkpoint: found {checkpoint.found} but "
            f"{len(checkpoint.solutions)} solution lines"
        )
    return checkpoint


# --- equivalence machinery ---------------------------------------------------

def _op_negate_ab(q: SeqQuadruple) -> SeqQuadruple:
    return replace(q, a=negate(q.a), b=negate(q.b))


def _op_negate_c(q: SeqQuadruple) -> SeqQuadruple:
    return replace(q, c=negate(q.c))


def _op_negate_d(q: SeqQuadruple) -> SeqQuadruple:
    return replace(q, d=negate(q.d))


def _op_swap_cd(q: SeqQuadruple) -> SeqQuadruple:
    return replace(q, c=q.d, d=q.c)


def _op_reverse_c(q: SeqQuadruple) -> SeqQuadruple:
    return replace(q, c=reverse(q.c))


def _op_reverse_d(q: SeqQuadruple) -> SeqQuadruple:
    return replace(q, d=reverse(q.d))


def _op_alternate_all(q: SeqQuadruple) -> SeqQuadruple:
    return replace(q, a=alternate(q.a), b=alternate(q.b), c=alternate(q.c), d=alternate(q.d))


def _op_swap_ab(q: SeqQuadruple) -> SeqQuadruple:
    return replace(q, a=q.b, b=q.a)


def _odd_interior(m: int) -> range:
    # 0-based indices of the 1-based odd positions below the top entry
    return range(0, m - 1, 2)


def _op_reverse_odd_interior(q: SeqQuadruple) -> SeqQuadruple:
    """Reverse the odd-position interior subsequence of the long pair.

    For a near-normal pair the combined autocorrelation splits into the norms
    of the odd-interior part and of the rest, so any norm-preserving move on
    the odd-interior subsequence alone keeps membership.
    """
    idx = list(_odd_interior(q.m))
    a, b = list(q.a), list(q.b)
    for j, i in enumerate(idx):
        src = idx[len(idx) - 1 - j]
        a[i], b[i] = q.a[src], q.b[src]
    return replace(q, a=tuple(a), b=tuple(b))


def _op_negate_odd_interior(q: SeqQuadruple) -> SeqQuadruple:
    a, b = list(q.a), list(q.b)
    for i in _odd_interior(q.m):
        a[i], b[i] = -a[i], -b[i]
    return replace(q, a=tuple(a), b=tuple(b))


EQUIVALENCE_OPS = {
    "NegateAB": _op_negate_ab,
    "NegateC": _op_negate_c,
    "NegateD": _op_negate_d,
    "SwapCD": _op_swap_cd,
    "ReverseC": _op_reverse_c,
    "ReverseD": _op_reverse_d,
    "AlternateAll": _op_alternate_all,
    "SwapAB": _op_swap_ab,
    "ReverseOddInterior": _op_reverse_odd_interior,
    "NegateOddInterior": _op_negate_odd_interior,
}

DEFAULT_GENERATORS = tuple(EQUIVALENCE_OPS)


def nn_orbit(q: SeqQuadruple, generators: tuple[str, ...] = DEFAULT_GENERATORS):
    """Closure of a verified near-normal quadruple under the generator set."""
    report = verify_quadruple(q)
    if not report:
        raise SearchError(f"orbit input fails verification: {report.failure}")
    ops = [EQUIVALENCE_OPS[name] for name in generators]
    seen = {q}
    frontier = [q]
    while frontier:
        cur = frontier.pop()
        for op in ops:
            nxt = op(cur)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def canonicalize(q: SeqQuadruple, generators: tuple[str, ...] = DEFAULT_GENERATORS) -> SeqQuadruple:
    """Lexicographically least plaintext member of the orbit; idempotent and
    constant on orbits by construction."""
    return min(nn_orbit(q, generators), key=SeqQuadruple.plaintext)


def equivalence_classes(
    quads, generators: tuple[str, ...] = DEFAULT_GENERATORS
) -> list[SeqQuadruple]:
    """Distinct canonical forms among `quads`, sorted by plaintext."""
    canonical = set()
    seen = set()
    for q in quads:
        if q in seen:
            continue
        orbit = nn_orbit(q, generators)
        seen.update(orbit)
        canonical.add(min(orbit, key=SeqQuadruple.plaintext))
    return sorted(canonical, key=SeqQuadruple.plaintext)


def oracle_check_solution(q: SeqQuadruple) -> bool:
    """Every emitted solution must satisfy both the verifier and the
    sums-of-squares necessity; used as a belt-and-braces assertion."""
    return bool(verify_quadruple(q)) and sum_of_squares_check(q.m, q.n, q.sums())
