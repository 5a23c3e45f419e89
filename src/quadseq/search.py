"""Exhaustive search for normal and near-normal quadruples.

Layout: the long pair (A, B) costs one free sequence, because B is forced on
positions 1..n by the (near-)normality pattern and at position n+1 by the
top-lag cancellation a_1*a_{n+1} + b_1*b_{n+1} = 0, which therefore holds
for every A and is never tested.  The short pair (C, D) is found by the hash
join on positive-lag profiles, ProfileIndex.join: each A that survives the
sum-of-squares prune fixes a target profile at lags 1..n-1 that C and D
must add up to.

Surviving A's share few targets, so a pass joins each distinct target once
and reuses its (C, D) pairs for every A that shares it.  A pass scans A in
lex order, in blocks of isqrt(2^(n+1)) A's whatever the worker count, mode
or budget, so its first block with a solution holds its lex-least one.  A
block is one array pass: its A and B rows, their verdicts from the pass's
(|a|, |b|) table and their targets from one seqcore.row_lags call; only the
survivors whose target has pairs become tuples.  A block's new targets go
to the join as one array, so their PSD test is one product.  The scan and
the pass's one memo live in the calling process; with workers > 1 a process
pool, one for the whole search, joins them in one array chunk per worker.

The sum-of-squares prune is the only test before the join.  It only saves
work: the join's sum index finds no (C, D) for an A it rejects.  Inside the
join, the power-spectral-density (PSD) test skips the C-profiles, or whole
targets, that no D can complete (see ProfileIndex.join and
seqcore._PSD_MARGIN for its float error bound); it changes no solution.

A node is one A candidate or one C-profile probed for a surviving A: every
sum-compatible C-profile of the target, including those the PSD test
disposes of, as a sum-pruned A is still a node.  Each surviving A is charged
the probes of its target's join whether the join was computed or reused, so
node counts, node_limit, checkpoints and resume do not depend on block size,
worker count, how often the memo hits or what the PSD test rejects.

Case splitting partitions the admissible sums vectors (a, b, c, d) with
a^2+b^2+c^2+d^2 = 2(m+n) into orbits under coordinate sign changes and the
C<->D swap, packed into exactly 12 descriptors so long runs can be resumed
and distributed case by case.  One cached map, _case_of, gives each orbit's
rep its case; the descriptors, a pass's verdict table, the filter that
keeps a pass's (C, D) pairs by the sums of all four sequences, and the
resume check all read it.

A run's only state is one Checkpoint, which one loop in search() advances
block by block and saves as one JSON document tagged with CHECKPOINT_FORMAT.
load_checkpoint refuses a file of another format, a truncated one or one
whose fields are missing or mistyped; every other refusal is made when the
run starts, for a loaded checkpoint and one held in memory alike, so a
damaged checkpoint is refused, never misread.
"""

import json
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from functools import cache, partial
from itertools import chain, product
from math import isqrt

import numpy as np

from .seqcore import (
    KIND_NEAR_NORMAL,
    KIND_NORMAL,
    KIND_T,
    QuadseqError,
    SeqQuadruple,
    join_quad,
    parse_seq,
    profile_index,
    row_lags,
    seq_str,
    split_quad,
    verify_quadruple,
    write_text_atomic,
)

MAX_ORDER_WITHOUT_OVERRIDE = 20
NUM_CASES = 12
CHECKPOINT_EVERY = 250_000  # nodes between periodic checkpoint writes

PRUNE_SUM = "sum_of_squares"
PRUNE_CASE = "case"

# bump when a checkpoint's fields or their meaning change: older files are refused
CHECKPOINT_FORMAT = "quadseq-search-checkpoint/3"


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
    solutions_sha256: str  # of the solutions in order, joined by "\n"


# the fields a checkpoint shares with the SearchSpec it resumes; every other
# SearchSpec field is per run and changes no counter
_IDENTITY_FIELDS = ("kind", "order", "mode", "representatives", "cases")


def _identity(spec_or_checkpoint) -> tuple:
    return tuple(getattr(spec_or_checkpoint, name) for name in _IDENTITY_FIELDS)


def _solutions_sha256(solutions: list[str]) -> str:
    # imported here, not with the module: hashlib's OpenSSL binding takes
    # about 5 ms and 3 MB to load, which only a search should pay
    import hashlib

    return hashlib.sha256("\n".join(solutions).encode()).hexdigest()


def _validate_kind_and_order(kind: str, order: int) -> None:
    if kind not in (KIND_NORMAL, KIND_NEAR_NORMAL):
        raise SearchError(f"searchable kinds are ns and nn, got {kind!r}")
    if order < 0:
        raise SearchError("order must be nonnegative")


def _validate_spec(spec: SearchSpec) -> None:
    _validate_kind_and_order(spec.kind, spec.order)
    if spec.order > MAX_ORDER_WITHOUT_OVERRIDE and not spec.allow_large:
        raise SearchError(
            f"order {spec.order} above the default bound "
            f"{MAX_ORDER_WITHOUT_OVERRIDE}; set allow_large (--allow-large) to proceed"
        )
    if spec.node_limit is not None and spec.node_limit < 1:
        raise SearchError(f"node limit must be at least 1, got {spec.node_limit}")
    if spec.mode not in ("all", "first", "count"):
        raise SearchError(f"unknown report mode {spec.mode!r}")
    if spec.cases is not None:
        if not spec.cases:
            raise SearchError("cases must name at least one case id")
        bad = [c for c in spec.cases if not 1 <= c <= NUM_CASES]
        if bad:
            raise SearchError(f"case ids must be in 1..{NUM_CASES}, got {bad}")
        if len(set(spec.cases)) != len(spec.cases):
            raise SearchError(f"case ids must not repeat, got {list(spec.cases)}")


def _sums_rep(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    """Orbit representative under per-coordinate negation and the C<->D swap."""
    return (abs(a), abs(b), max(abs(c), abs(d)), min(abs(c), abs(d)))


@cache
def _case_of(kind: str, order: int) -> dict[tuple[int, int, int, int], int]:
    """Each admissible sums rep of the order, in sorted order, mapped to its
    case id: the sorted reps are cases 1, 2, ..., and every rep from the
    12th on is case 12.  The one place that enumerates sums reps."""
    _validate_kind_and_order(kind, order)
    m, n = order + 1, order
    # the nonnegative sums of m and of n entries from {-1, +1}
    long, short = range(m % 2, m + 1, 2), range(n % 2, n + 1, 2)
    root = {d * d: d for d in short}
    reps = sorted({_sums_rep(a, b, c, root[d2]) for a, b, c in product(long, long, short)
                   if (d2 := 2 * (m + n) - a * a - b * b - c * c) in root})
    return {rep: min(i, NUM_CASES - 1) + 1 for i, rep in enumerate(reps)}


def enumerate_cases(kind: str, order: int) -> list[CaseDescriptor]:
    """Exactly 12 pairwise-disjoint case descriptors covering every sums
    vector allowed by the quadratic identity.

    The natural unit is one sums orbit per case; when there are more than 12
    orbits the tail is merged into case 12, and when there are fewer the
    remaining descriptors are empty, with the spill noted on the descriptor.
    """
    reps = [[] for _ in range(NUM_CASES)]
    for rep, case in _case_of(kind, order).items():
        reps[case - 1].append(rep)
    cases = []
    for case, group in enumerate(reps, start=1):
        note = f"merged {len(group)} residual sums orbits" if len(group) > 1 else ""
        cases.append(CaseDescriptor(case, tuple(group), note if group else "empty padding"))
    return cases


def _pass_verdicts(spec: SearchSpec, pass_case: int) -> np.ndarray:
    """The table verdict[|a|, |b|] of one case pass (0 without cases), from
    the case map.  0 sends an A to the join; 1 is the sum prune, for no sums
    rep that starts with (|a|, |b|): no admissible c^2 + d^2 is left to C
    and D; 2 is the case prune, for no such rep of the pass's case."""
    m = spec.order + 1
    verdict = np.ones((m + 1, m + 1), dtype=np.int8)
    for (a, b, _c, _d), case in _case_of(spec.kind, spec.order).items():
        if pass_case in (0, case):
            verdict[a, b] = 0
        elif verdict[a, b] == 1:
            verdict[a, b] = 2
    return verdict


def _scan_block(spec: SearchSpec, verdict: np.ndarray, bounds: tuple[int, int]):
    """Scan the long sequences of lex indices lo <= k < hi under a pass's
    verdict table; returns the survivors' (A, B, (|a|, |b|), join target)
    rows in lex order, and the block's counters before its joins, which the
    caller charges.  B is derived from A column-wise, as in ProfileIndex."""
    n = spec.order
    m = n + 1
    ks = np.arange(*bounds, dtype=np.int64)
    if spec.representatives:
        # entries 0 and m-1 are bits m-1 and 0: the test is order-free
        ks = ks[(ks & 1 | ks >> (m - 1) & 1) == 0]
    # bit m-1 is entry 0, so k counts in lex order ('+' before '-')
    a = (1 - 2 * (ks[:, None] >> np.arange(m - 1, -1, -1) & 1)).astype(np.int8)
    b = a.copy()
    if spec.kind == KIND_NEAR_NORMAL:
        b[:, 1:n:2] *= -1
    b[:, n] *= -1  # top-lag cancellation: a_1 * a_m + b_1 * b_m = 0
    if n == 0 and not spec.representatives:  # no lag at all, so B is free
        a, b = np.concatenate([a, a]), np.concatenate([b, a])
    ab = np.abs(np.stack([a.sum(axis=1), b.sum(axis=1)], axis=1))
    row_verdicts = verdict[ab[:, 0], ab[:, 1]]
    _join_count, sum_pruned, case_pruned = np.bincount(row_verdicts, minlength=3).tolist()
    keep = row_verdicts == 0
    a, b, ab = a[keep], b[keep], ab[keep]
    # target_j = -(A's plus B's autocorrelation at lag j), j = 1..n-1
    lags = row_lags(np.concatenate([a, b]), n - 1)
    targets = -(lags[: len(a)] + lags[len(a) :])
    return (a, b, ab, targets), len(row_verdicts), {PRUNE_SUM: sum_pruned, PRUNE_CASE: case_pruned}


def _join(order: int, targets: np.ndarray):
    # module level, so that a process pool can run it
    return profile_index(order).join(targets)


def _in_plaintext_order(quads) -> list:
    """Raw (A, B, C, D) tuples sorted as their plaintexts sort.

    All quadruples of one search share one shape, so plaintext order is
    entry-by-entry order with '+' before '-': descending integer order.
    """
    return sorted(quads, reverse=True)


def _check_counters(checkpoint: Checkpoint) -> None:
    """Refuse counters that no run leaves, whatever search it resumes: prune
    counters other than the run's two, a negative counter, or solutions other
    than the `found` ones (none in count mode)."""
    if checkpoint.prunes.keys() != {PRUNE_SUM, PRUNE_CASE}:
        raise SearchError(f"checkpoint prune counters must be {PRUNE_SUM} and {PRUNE_CASE}, "
                          f"got {sorted(checkpoint.prunes)}")
    if min(checkpoint.nodes, checkpoint.found, *checkpoint.prunes.values()) < 0:
        raise SearchError("checkpoint counters must not be negative")
    held = 0 if checkpoint.mode == "count" else checkpoint.found  # a count run keeps none
    if len(checkpoint.solutions) != held:
        raise SearchError(f"damaged checkpoint: found {checkpoint.found} but "
                          f"{len(checkpoint.solutions)} solutions in {checkpoint.mode} mode")


def _resume_state(spec: SearchSpec, passes: list[int], resume: Checkpoint | None):
    """The run's state, a copy of `resume` or a fresh Checkpoint, and the raw
    (A, B, C, D) tuples of its solutions, which the run returns as its own.

    Every refusal beyond load_checkpoint's checks of the document is made
    here, so a checkpoint loaded from a file and one held in memory
    (BudgetExhausted's is mutable) are refused alike: another search, bad
    counters, a position off the run's passes or block grid, a solution
    that fails to parse or verify, is repeated, or lies where the run has yet
    to scan, and last solutions that do not match their sha256, such as a
    consistent deletion (a solution removed and `found` lowered to match).
    Each distinct sequence is parsed once, by an unbounded memo, so equal
    ones share a tuple as in a search's results.
    """
    if resume is None:
        return Checkpoint(
            **dict(zip(_IDENTITY_FIELDS, _identity(spec))),
            case_pos=0, lex_next=0, nodes=0, prunes={PRUNE_SUM: 0, PRUNE_CASE: 0},
            found=0, solutions=[], solutions_sha256=_solutions_sha256([]),
        ), []
    if _identity(resume) != _identity(spec):
        raise SearchError("checkpoint does not match the requested search")
    _check_counters(resume)
    lex_limit = 1 << (spec.order + 1)
    if not 0 <= resume.case_pos < len(passes):
        raise SearchError(f"checkpoint case_pos {resume.case_pos} is not a pass of this run")
    if not 0 <= resume.lex_next <= lex_limit or (
            resume.lex_next % isqrt(lex_limit) and resume.lex_next != lex_limit):
        raise SearchError(f"checkpoint lex_next {resume.lex_next} is not a block boundary")
    # a solution is reached when its pass comes before case_pos, or is
    # case_pos and its A lies below lex_next (without cases all share pass
    # 0); a representatives run scans only A's that start and end with +
    case_of = _case_of(spec.kind, spec.order)
    pass_of = {case: pos for pos, case in enumerate(spec.cases or ())}
    unlisted = 0 if spec.cases is None else len(passes)
    to_bits = str.maketrans("+-", "01")  # A's lex index: bit m-1 is entry 0
    parse = cache(parse_seq)
    quads = {}  # in checkpoint order
    for text in resume.solutions:
        try:
            quad = split_quad(text, parse)
        except QuadseqError as exc:
            raise SearchError(f"checkpoint solution {text} does not parse: {exc}") from None
        try:
            failure = verify_quadruple(SeqQuadruple(*quad, spec.kind)).failure
        except QuadseqError as exc:
            failure = str(exc)
        if failure is None and len(quad[2]) != spec.order:
            failure = f"order {len(quad[2])}, expected {spec.order}"
        if failure is not None:
            raise SearchError(f"checkpoint solution {text} fails verification: {failure}")
        if quad in quads:
            raise SearchError(f"checkpoint solution {text} is repeated")
        a = quad[0]
        position = (pass_of.get(case_of[_sums_rep(*map(sum, quad))], unlisted),
                    int(seq_str(a).translate(to_bits), 2))
        if position >= (resume.case_pos, resume.lex_next) or (
                spec.representatives and not a[0] == a[-1] == 1):
            raise SearchError(f"checkpoint solution {text} lies where the run has yet to scan")
        quads[quad] = None
    if resume.solutions_sha256 != _solutions_sha256(resume.solutions):
        raise SearchError("damaged checkpoint: its solutions do not match their sha256")
    return replace(resume, prunes=dict(resume.prunes), solutions=list(resume.solutions)), [*quads]


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
    if workers < 1:
        raise SearchError(f"workers must be at least 1, got {workers}")
    started = time.perf_counter()
    passes: list[int] = list(spec.cases) if spec.cases is not None else [0]
    first = spec.mode == "first"
    if workers > 1:
        profile_index(spec.order)  # built before the fork: the workers inherit it
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        if pool:  # fork the workers now, not at the first join, for the whole search
            pool.submit(int)
        state, quads = _resume_state(spec, passes, resume)
        base_nodes = saved_nodes = state.nodes  # node_limit budgets the current run only
        # a first-mode run ends at its hit, which its checkpoint may already hold
        blocks = () if first and state.found else _blocks(
            spec, passes, state.case_pos, state.lex_next, pool, workers)
        for case_pos, lex_next, sols, nodes, prunes, last in blocks:
            hit = first and bool(sols)  # like the run's last block, no budget interrupts it
            if hit:
                sols = _in_plaintext_order(sols)[:1]
            state.case_pos, state.lex_next = case_pos, lex_next
            state.nodes += nodes
            for key, value in prunes.items():
                state.prunes[key] += value
            state.found += len(sols)
            if spec.mode != "count":
                quads.extend(sols)
            exhausted = (spec.node_limit is not None and not (hit or last)
                         and state.nodes - base_nodes >= spec.node_limit)
            if exhausted or checkpoint_path and state.nodes - saved_nodes >= CHECKPOINT_EVERY:
                # only the solutions found since the last save become text
                state.solutions.extend(map(join_quad, quads[len(state.solutions):]))
                state.solutions_sha256 = _solutions_sha256(state.solutions)
                if checkpoint_path:
                    save_checkpoint(state, checkpoint_path)
                saved_nodes = state.nodes
            if exhausted:
                raise BudgetExhausted(state)
            if hit:
                break
    # every raw tuple here is already a tuple of plain +-1 ints, with A, B and
    # C, D of equal lengths: scan rows come from int8 .tolist(), C and D from
    # ProfileIndex's product((1, -1)), and resumed solutions were parsed by
    # parse_seq and verified in _resume_state
    kept = _in_plaintext_order(quads)[: {"all": None, "first": 1, "count": 0}[spec.mode]]
    solutions = [SeqQuadruple._trusted(*quad, spec.kind) for quad in kept]
    stats = SearchStats(state.nodes, dict(state.prunes), time.perf_counter() - started)
    return SearchResult(solutions, state.found, stats)


def _blocks(spec, passes, case_pos, lex_start, pool, workers):
    """Scan the run's case passes from `case_pos` and `lex_start` on, and
    yield each block, in lex order, as (case_pos, lex_next, solutions,
    nodes, prunes, last); `last` marks the run's last block.

    A pass joins each distinct target once, when a block first holds it,
    on `pool` when one is given, and charges its probes to every surviving
    A that has it.  A block's joins are all back before it is yielded, so a
    first hit or an exhausted budget leaves no join running.
    """
    join = partial(_join, spec.order)
    case_of = _case_of(spec.kind, spec.order)
    lex_limit = 1 << (spec.order + 1)
    block = isqrt(lex_limit)
    row_bytes = 8 * max(spec.order - 1, 0)  # of an int64 join target
    for case_pos in range(case_pos, len(passes)):
        pass_case = passes[case_pos]
        verdict = _pass_verdicts(spec, pass_case)
        memo = {}  # join target -> (pairs, probes)
        if spec.order == 0:  # no lags: the empty (C, D) completes every (A, B), unprobed
            memo[()] = ([((), ())], 0)
        for lo in range(lex_start, lex_limit, block):
            hi = min(lo + block, lex_limit)
            (a, b, ab, targets), nodes, prunes = _scan_block(spec, verdict, (lo, hi))
            # distinct targets by the bytes of their rows (np.unique's axis=0 costs
            # several times more per block); without lags all rows are equal
            keys = targets.view(f"V{row_bytes}").ravel() if row_bytes else np.zeros(len(targets))
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            distinct_rows = targets[first]
            distinct = list(map(tuple, distinct_rows.tolist()))
            new = [i for i, target in enumerate(distinct) if target not in memo]
            # the new targets as one array, or one chunk per worker
            chunks = np.array_split(distinct_rows[new], min(workers, len(new))) if new else []
            joined = pool.map(join, chunks) if pool else map(join, chunks)
            memo.update(zip([distinct[i] for i in new], chain.from_iterable(joined)))
            joins = [memo[target] for target in distinct]
            probes = np.array([count for _pairs, count in joins], dtype=np.int64)
            nodes += int(probes[inverse].sum())
            has_pairs = np.array([bool(pairs) for pairs, _count in joins], dtype=bool)
            rows = np.flatnonzero(has_pairs[inverse])  # only these become tuples, in lex order
            solutions = []
            for a_seq, b_seq, (a_abs, b_abs), i in zip(
                    map(tuple, a[rows].tolist()), map(tuple, b[rows].tolist()),
                    ab[rows].tolist(), inverse[rows].tolist()):
                pairs = joins[i][0]
                if pass_case:  # a pair whose sums rep is another case's is a case prune
                    kept = [(c_seq, d_seq) for c_seq, d_seq in pairs if case_of[
                        _sums_rep(a_abs, b_abs, sum(c_seq), sum(d_seq))] == pass_case]
                    prunes[PRUNE_CASE] += len(pairs) - len(kept)
                    pairs = kept
                solutions.extend((a_seq, b_seq, c_seq, d_seq) for c_seq, d_seq in pairs)
            yield case_pos, hi, solutions, nodes, prunes, (
                case_pos == len(passes) - 1 and hi == lex_limit)
        lex_start = 0


def save_checkpoint(checkpoint: Checkpoint, path: str) -> None:
    # no trailing newline: every proper prefix of the file fails to parse
    write_text_atomic(path, json.dumps({"format": CHECKPOINT_FORMAT, **vars(checkpoint)}))


_CHECKPOINT_KEYS = {"format"} | {field.name for field in fields(Checkpoint)}
_SCALAR_TYPES = {
    "kind": str, "order": int, "mode": str, "representatives": bool,
    "case_pos": int, "lex_next": int, "nodes": int, "found": int, "solutions_sha256": str,
}


def _all_of(values, expected: type) -> bool:
    return all(type(v) is expected for v in values)


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError:  # not JSON, or a truncated document
            data = None
    if type(data) is not dict or data.get("format") != CHECKPOINT_FORMAT:
        raise SearchError(
            f"checkpoint is not a complete {CHECKPOINT_FORMAT} document: cannot resume"
        )
    if data.keys() != _CHECKPOINT_KEYS:
        raise SearchError(
            f"checkpoint fields {sorted(data.keys() ^ _CHECKPOINT_KEYS)} missing or unknown"
        )
    del data["format"]
    cases, prunes, solutions = data["cases"], data["prunes"], data["solutions"]
    if not (
        all(type(data[name]) is expected for name, expected in _SCALAR_TYPES.items())
        and (cases is None or type(cases) is list and _all_of(cases, int))
        and type(prunes) is dict and _all_of(prunes.values(), int)
        and type(solutions) is list and _all_of(solutions, str)
    ):
        raise SearchError("checkpoint has a field of the wrong type")
    if cases is not None:
        data["cases"] = tuple(cases)
    checkpoint = Checkpoint(**data)
    _check_counters(checkpoint)
    return checkpoint


# --- equivalence machinery ---------------------------------------------------

@cache
def _signed_maps(m: int, n: int) -> tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...]:
    """The ten generators of the equivalence group for shape (m, n), each a
    named signed position map (name, source, sign) over the flat tuple
    A||B||C||D: image[i] = sign[i] * flat[source[i]].

    Negation and reversal of C or D, the C<->D swap and the simultaneous
    alternation of all four sequences keep any base quadruple a base
    quadruple.  Negating A and B together, swapping them, and reversing or
    negating the odd-position interior of both (the 1-based odd positions
    below the top entry) keep the near-normality pattern too: the long
    pair's combined autocorrelation splits into the norms of its
    odd-interior part and of the rest, so any norm-preserving move on the
    odd interior alone keeps membership.
    """
    a, b = range(m), range(m, 2 * m)
    c, d = range(2 * m, 2 * m + n), range(2 * m + n, 2 * m + 2 * n)
    odd_a, odd_b = a[: m - 1 : 2], b[: m - 1 : 2]

    def signed_map(name, moves=(), negated=()):
        source = list(range(2 * m + 2 * n))
        for dst, src in moves:
            source[dst] = src
        sign = [1] * len(source)
        for i in negated:
            sign[i] = -1
        return name, tuple(source), tuple(sign)

    return (
        signed_map("NegateAB", negated=chain(a, b)),
        signed_map("NegateC", negated=c),
        signed_map("NegateD", negated=d),
        signed_map("SwapCD", moves=chain(zip(c, d), zip(d, c))),
        signed_map("ReverseC", moves=zip(c, reversed(c))),
        signed_map("ReverseD", moves=zip(d, reversed(d))),
        signed_map("AlternateAll", negated=chain(a[::2], b[::2], c[::2], d[::2])),
        signed_map("SwapAB", moves=chain(zip(a, b), zip(b, a))),
        signed_map("ReverseOddInterior",
                   moves=chain(zip(odd_a, reversed(odd_a)), zip(odd_b, reversed(odd_b)))),
        signed_map("NegateOddInterior", negated=chain(odd_a, odd_b)),
    )


@cache
def _group(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The equivalence group of shape (m, n), closed from the generators of
    _signed_maps, as a (|G|, L) intp source table and a (|G|, L) int8 sign
    table over the L = 2m + 2n entries of A||B||C||D: row g maps flat to
    sign[g] * flat[source[g]], so an orbit is one array product.

    Applying (src, sign) after (s, g) gives (s[src], sign * g[src]).  The
    closure holds each element as the bytes of one int32 row (s + 1) * g,
    which composes as one gather and one product.
    """
    maps = _signed_maps(m, n)
    gen_source = np.array([source for _name, source, _sign in maps], dtype=np.intp)
    gen_sign = np.array([sign for _name, _source, sign in maps], dtype=np.int32)
    length = 2 * (m + n)
    elements = [np.arange(1, length + 1, dtype=np.int32).tobytes()]  # the identity
    seen = set(elements)
    for element in elements:  # breadth first: the list grows while it is read
        for image in map(bytes, np.frombuffer(element, dtype=np.int32)[gen_source] * gen_sign):
            if image not in seen:
                seen.add(image)
                elements.append(image)
    table = np.frombuffer(b"".join(elements), dtype=np.int32).reshape(len(elements), length)
    return np.abs(table).astype(np.intp) - 1, np.sign(table).astype(np.int8)


def _flat(q: SeqQuadruple) -> tuple[int, ...]:
    return q.a + q.b + q.c + q.d


def _verified_orbit(q: SeqQuadruple) -> set[tuple[int, ...]]:
    """Flat tuples of the orbit of a verified binary quadruple."""
    if q.kind == KIND_T:
        raise SearchError("equivalence orbits are defined for binary quadruples")
    verify_quadruple(q).require(SearchError, "orbit input fails verification")
    source, sign = _group(q.m, q.n)
    # a product repeats members (1,024 rows for at most 512 near-normal ones):
    # drop the repeats as row bytes, before the costlier tuple conversion
    members = set(map(bytes, np.array(_flat(q), dtype=np.int8)[source] * sign))
    table = np.frombuffer(b"".join(members), dtype=np.int8).reshape(len(members), source.shape[1])
    return set(map(tuple, table.tolist()))


def _quadruple(flat: tuple[int, ...], like: SeqQuadruple, shared: dict) -> SeqQuadruple:
    """The quadruple of kind and shape `like` whose flat tuple is `flat`.

    A sequence equal to one already in `shared` reuses that tuple, so the
    members of an orbit, which have few distinct sequences, share them.
    """
    m, n = like.shape
    seqs = (flat[:m], flat[m : 2 * m], flat[2 * m : 2 * m + n], flat[2 * m + n :])
    # flat is a signed permutation of a verified binary quadruple's +-1
    # entries (see _verified_orbit), cut at that quadruple's lengths: plain
    # ints in the alphabet, A, B and C, D of equal lengths
    return SeqQuadruple._trusted(*(shared.setdefault(seq, seq) for seq in seqs), like.kind)


def nn_orbit(q: SeqQuadruple) -> set[SeqQuadruple]:
    """Closure of a verified near-normal quadruple under the equivalence group."""
    shared = {}
    return {_quadruple(flat, q, shared) for flat in _verified_orbit(q)}


def canonicalize(q: SeqQuadruple) -> SeqQuadruple:
    """Lexicographically least plaintext member of the orbit; idempotent and
    constant on orbits by construction.

    Within one shape plaintext order is entry-by-entry order with '+'
    before '-' (see _in_plaintext_order), so that member has the largest
    flat tuple.
    """
    return _quadruple(max(_verified_orbit(q)), q, {})


def equivalence_classes(quads) -> list[SeqQuadruple]:
    """Distinct canonical forms among `quads`, sorted by plaintext."""
    canonical = []
    seen = set()
    shared = {}
    for q in quads:
        kind_shape = (q.kind, q.shape)  # flat tuples of other kinds or shapes may coincide
        if (kind_shape, _flat(q)) in seen:
            continue
        orbit = _verified_orbit(q)
        seen.update((kind_shape, flat) for flat in orbit)
        canonical.append(_quadruple(max(orbit), q, shared))
    return sorted(canonical, key=SeqQuadruple.plaintext)
