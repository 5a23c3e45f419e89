"""Exhaustive search for normal and near-normal quadruples.

Layout: the long pair (A, B) costs one free sequence, because B is forced on
positions 1..n by the (near-)normality pattern and at position n+1 by the
top-lag cancellation a_1*a_{n+1} + b_1*b_{n+1} = 0, which therefore holds
for every A and is never tested.  The short pair (C, D) is found by the hash
join on positive-lag profiles, ProfileIndex.join: each A that survives the
sum-of-squares prune fixes a target profile at lags 1..n-1 that C and D
must add up to.

Surviving A's share few targets, so a pass joins each distinct target once
and reuses its (C, D) pairs for every A that shares it.  A pass cuts A, in
lex order, into blocks of isqrt(2^(n+1)) A's whatever the worker count,
mode or budget.  The block is the unit of the run's state: its first block
with a solution holds a pass's lex-least one, and counters, budgets and
checkpoints advance block by block.  The batch is the unit of work: a run of
whole blocks, one block at the start of each pass and each run, then twice
as many each time up to SCAN_ROWS A's.  A batch is one array pass over
bit patterns: A is a lex index, B is A with the (near-)normality bits
flipped, |a| and |b| are popcounts, their verdicts come from the pass's
(|a|, |b|) table and their int16 targets from one seqcore.bit_lags call;
its new targets go to the join as one array, so their PSD screen is one
product.  The pass's memo is arrays too: its joined targets' row bytes,
sorted, beside their probes and pair-list ids, so one np.searchsorted
tells a batch's new targets from its known ones, and the new ones are
merged in.  Only the survivors whose target has pairs are unpacked to +-1
rows and become tuples, one group per A: A, B and the (C, D)
pairs, both in the order the join found them, which a checkpoint keeps,
and in plaintext order, ranked once per distinct target, from which the
result is assembled.  The scan and the memo live in the calling thread.  With
workers > 1 the calling thread and workers - 1 pool threads, at most
MAX_POOL_THREADS, started for the whole search (_JoinPool), each join one
array chunk of a batch's new targets.  Lex indices are int64, so no order
above MAX_ORDER is searched, and a run builds the profile index before its
first scan, so an order whose index cannot be held fails before a block's
lex indices are asked for.

The sum-of-squares prune is the only test before the join.  It only saves
work: the join's sum index finds no (C, D) for an A it rejects.  Inside the
join, a float power-spectral-density (PSD) screen drops the targets that no
(C, D) can complete (see ProfileIndex.join and seqcore._PSD_MARGIN for its
float error bound), and exact integer keys pick the C-profiles worth a hash
lookup; neither changes a solution.

A node is one A candidate or one C-profile probed for a surviving A: every
sum-compatible C-profile of the target, including those the PSD screen or
the keys dispose of, as a sum-pruned A is still a node.  Each surviving A
is charged the probes of its target's join whether the join was computed or
reused, so node counts, node_limit, checkpoints and resume do not depend on
block size, worker count, how often the memo hits or what the join skips.

Case splitting partitions the admissible sums vectors (a, b, c, d) with
a^2+b^2+c^2+d^2 = 2(m+n) into orbits under coordinate sign changes and the
C<->D swap, packed into exactly 12 descriptors so long runs can be resumed
and distributed case by case.  One cached map, _case_of, gives each orbit's
rep its case; the descriptors, a pass's verdict table, the filter that
keeps a pass's (C, D) pairs by the sums of all four sequences, and the
resume check all read it.

A run's only state is one Checkpoint, which one loop in search() advances
block by block and saves as one JSON document tagged with CHECKPOINT_FORMAT.
A save makes text only of the solutions found since the last, from one
"A;B;" text per group and the "C;D" texts of each pair list, made once per
run (_solution_texts), and writes the file from the JSON items of the saved
solutions, encoded once per run and extended by each save's new texts
(_write_checkpoint), so its Python-level work follows the new solutions.
load_checkpoint refuses a file that is not UTF-8, one of another format, a
truncated one or one whose fields are missing or mistyped; every other
refusal, counters included, is made when the run starts (_resume_state),
for a loaded checkpoint and one held in memory alike, so a damaged
checkpoint is refused, never misread.  That check reads every solution
text into int8 rows in one array pass, keys each distinct sequence by one
uint64 word (for A, its lex index), places each A with the scan's own
tests, and hands the resumed solutions to the run in plaintext order, so
the final sort merges two sorted runs.
"""

import json
import os
import time
from dataclasses import dataclass, fields, replace
from functools import cache
from itertools import chain, islice, product
from math import isqrt
from operator import add

import numpy as np

from .seqcore import (
    KIND_NEAR_NORMAL,
    KIND_NORMAL,
    QuadseqError,
    SeqQuadruple,
    bit_lags,
    bit_rows,
    first_failing,
    parse_seq,
    parsed_quadruple,
    profile_index,
    read_text,
    seq_str,
    split_quad,
    verify_quadruple,
    write_text_atomic,
)

MAX_ORDER_WITHOUT_OVERRIDE = 20
MAX_ORDER = 62  # the lex indices of longer A's do not fit the scan's int64
NUM_CASES = 12
CHECKPOINT_EVERY = 250_000  # nodes between periodic checkpoint writes
SCAN_ROWS = 1 << 15  # A's in one batch of whole search blocks at most
# the most pool threads a search starts, concurrent.futures' default cap;
# a pool is given exactly workers - 1, since one with spare room starts a
# thread for a chunk submitted before the last chunk's thread marks itself idle
MAX_POOL_THREADS = min(32, (os.cpu_count() or 1) + 4)

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


def _solutions_digest(solutions: list[str]):
    """A running sha256 of the solutions in order, joined by "\n": a save
    feeds it only the solutions added since the last (see search)."""
    # imported here, not with the module: hashlib's OpenSSL binding takes
    # about 5 ms and 3 MB to load, which only a search should pay
    import hashlib

    return hashlib.sha256("\n".join(solutions).encode())


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
    if spec.order > MAX_ORDER:
        raise SearchError(f"order {spec.order} above {MAX_ORDER}: the lex indices of its "
                          "long sequences do not fit int64")
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


def _block_size(order: int) -> int:
    """The A's in one search block, isqrt(2^(order+1)), whatever the worker
    count, mode or budget: 5 at order 4, 90 at 12, 1448 at 20."""
    return isqrt(1 << (order + 1))


def _scanned(lex: np.ndarray, m: int) -> np.ndarray:
    """Which long sequences of lex indices `lex` and length m a
    representatives run scans: those whose entries 0 and m-1, bits m-1 and
    0 (see _scan_block), are +1."""
    return (lex & 1 | lex >> (m - 1) & 1) == 0


def _scan_block(spec: SearchSpec, verdict: np.ndarray, bounds: tuple[int, int]):
    """Scan the long sequences of lex indices lo <= k < hi under a pass's
    verdict table, in blocks of _block_size A's from lo.

    Returns the survivors' (A, B, (|a|, |b|), join target) rows and their
    lex indices, in lex order, and one row per block that counts its A's by
    verdict (joined, sum-pruned, case-pruned): the block's counters before
    its joins, which the caller charges.  A and B are uint64 bit patterns
    whose bit m-1-i is set when entry i is -1 (int_to_seq's bits in reverse
    order), so A is k's low m bits and k counts in lex order ('+' before
    '-'); the targets are C-contiguous int16 rows."""
    n = spec.order
    m = n + 1
    lo, hi = bounds
    ks = np.arange(lo, hi, dtype=np.int64)
    if spec.representatives:
        ks = ks[_scanned(ks, m)]
    free_b = n == 0 and not spec.representatives  # no lag at all, so B is free
    if free_b:  # each A twice: with its derived B, then with B = A
        ks = ks.repeat(2)
    # B is A with entry n negated (top-lag cancellation: a_1 * a_m + b_1 *
    # b_m = 0), and for nn with its odd entries below n negated too; entry i
    # is bit m-1-i
    flip = 1
    if spec.kind == KIND_NEAR_NORMAL:
        flip |= sum(1 << (n - i) for i in range(1, n, 2))
    a = ks.astype(np.uint64) & np.uint64((1 << m) - 1)
    b = a ^ np.uint64(flip)
    if free_b:
        b[1::2] = a[1::2]
    ab = np.abs(m - 2 * np.bitwise_count(np.stack([a, b], axis=1)).astype(np.int64))
    row_verdicts = verdict[ab[:, 0], ab[:, 1]]
    block = _block_size(n)
    tallies = np.bincount((ks - lo) // block * 3 + row_verdicts,
                          minlength=3 * -(-(hi - lo) // block)).reshape(-1, 3)
    keep = row_verdicts == 0
    a, b, ab = a[keep], b[keep], ab[keep]
    # target_j = -(A's plus B's autocorrelation at lag j), j = 1..n-1; a
    # reversed sequence has the same autocorrelations, so bit_lags reads them
    lags = bit_lags(np.concatenate([a, b]), m, n - 1)
    targets = -(lags[: len(a)] + lags[len(a) :])
    return (a, b, ab, targets), ks[keep], tallies


class _JoinPool:
    """The profile join of one search over `workers` threads, at most
    MAX_POOL_THREADS + 1: the caller and the pool threads, which share the
    caller's profile index.

    ProfileIndex.join is numpy array passes over a read-only index, which
    release the GIL, so the threads join their chunks side by side.
    concurrent.futures is imported only here, so only a pooled search loads
    it.  Leaving the `with` block, however it is left, cancels the chunks
    not yet started and waits for those still running."""

    def __init__(self, order: int, workers: int):
        self.order, self.threads = order, None
        self.workers = min(workers, MAX_POOL_THREADS + 1)
        if self.workers > 1:
            from concurrent.futures import ThreadPoolExecutor

            self.threads = ThreadPoolExecutor(self.workers - 1)

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        if self.threads is not None:
            self.threads.shutdown(cancel_futures=True)

    def join(self, targets: np.ndarray) -> list[tuple[list, int]]:
        """ProfileIndex.join(targets), in one array chunk per thread: the
        pool threads are given chunks 1, 2, ... and the caller joins chunk 0,
        then appends their results in chunk order.  A join that raises in a
        pool thread raises its own exception here."""
        index = profile_index(self.order)  # built once, in the caller
        chunks = np.array_split(targets, min(self.workers, len(targets)))
        parts = [self.threads.submit(index.join, chunk) for chunk in chunks[1:]]
        joined = index.join(chunks[0])
        for part in parts:
            joined += part.result()
        return joined


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


def _solution_rows(texts: list[str], order: int) -> tuple[np.ndarray, int | None]:
    """The int8 rows A||B||C||D of checkpoint solution texts of the run's
    order, +1 for '+' and -1 for '-', up to the first text it cannot read,
    and that text's index (None when it reads them all).

    A text is read as parse_seq reads a sequence, without its whitespace:
    "A;B;C;D" over +- with the run's lengths, 4 * order + 5 characters with
    ';' at three fixed columns, by one np.frombuffer of the texts' joined
    bytes.  Without whitespace, a solution of the run's order is exactly
    such a text, so a text it cannot read has a fault (see _text_fault)."""
    m, width = order + 1, 4 * order + 5
    texts = [text if len(text) == width else "".join(text.split()) for text in texts]
    lengths = np.fromiter(map(len, texts), np.intp, len(texts))
    stop = np.append(np.flatnonzero(lengths != width), len(texts))[0]
    # a non-ASCII character becomes one '?', so each text keeps its width
    data = "".join(texts[:stop]).encode("ascii", "replace")
    values = 44 - np.frombuffer(data, np.int8).reshape(-1, width)  # '+' 1, '-' -1, ';' -15
    separators = [m, 2 * m + 1, 3 * m + 1]
    signs = np.delete(values, separators, axis=1)
    good = (np.abs(signs) == 1).all(axis=1) & (values[:, separators] == -15).all(axis=1)
    stop = int(np.append(np.flatnonzero(~good), stop)[0])
    return signs[:stop], None if stop == len(texts) else stop


def _text_fault(text: str, spec: SearchSpec) -> str:
    """The fault of a checkpoint solution text that _solution_rows cannot
    read: parse_seq's, verify_quadruple's or the order's."""
    try:
        quad = split_quad(text, parse_seq)
    except QuadseqError as exc:
        return f"does not parse: {exc}"
    try:
        failure = verify_quadruple(parsed_quadruple(*quad, spec.kind)).failure
    except QuadseqError as exc:
        failure = str(exc)
    return f"fails verification: {failure or f'order {len(quad[2])}, expected {spec.order}'}"


def _shared_pairs(x_rows: np.ndarray, y_rows: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
    """The distinct pairs (X, Y) of two blocks of int8 +-1 rows of at most 64
    entries, as tuples in plaintext order, each distinct sequence one tuple;
    each row's pair number; and each pair's X key.

    A sequence's key is its bits as one big-endian uint64 word, a set bit
    for -1 and its last entry the lowest bit: the lex index that the scan
    keys an A by."""
    both = np.concatenate([x_rows, y_rows])
    bits = np.zeros((len(both), 64), bool)
    bits[:, 64 - both.shape[1] :] = both < 0
    keys = np.packbits(bits, axis=1).view(">u8").ravel().astype(np.uint64)
    seq_keys, seq_row, numbers = np.unique(keys, return_index=True, return_inverse=True)
    seqs = list(map(tuple, both[seq_row].tolist()))
    x, y = numbers[: len(x_rows)], numbers[len(x_rows) :]
    pair_keys, pair_numbers = np.unique(x * len(seqs) + y, return_inverse=True)
    x_of, y_of = (pair_keys // len(seqs)).tolist(), (pair_keys % len(seqs)).tolist()
    pairs = list(zip(map(seqs.__getitem__, x_of), map(seqs.__getitem__, y_of)))
    return pairs, pair_numbers, seq_keys[x_of]


def _resume_state(spec: SearchSpec, passes: list[int], resume: Checkpoint | None):
    """The run's state, a copy of `resume` or a fresh Checkpoint, the raw
    (A, B, C, D) tuples of its solutions in plaintext order, which the run
    returns as its own, and the running sha256 of their texts (see
    _solutions_digest).

    Every refusal beyond load_checkpoint's checks of the document is made
    here, so a checkpoint loaded from a file and one held in memory
    (BudgetExhausted's is mutable) are refused alike: another search, bad
    counters, a position off the run's passes or block grid, a solution
    that fails to parse or verify, is repeated, or lies where the run has yet
    to scan, and last solutions that do not match their sha256, such as a
    consistent deletion (a solution removed and `found` lowered to match).
    The refusal names the solution of lowest index with a fault; at one
    index a parse, verification or order fault comes before a repeat, and a
    repeat before an unreached solution.

    The solutions are checked in array passes, at about the cost of their
    distinct sequences and pairs.  One read makes every text an int8 row
    (see _solution_rows) up to the first it cannot read, whose fault
    _text_fault words.  Each distinct (A, B) and (C, D) pair is numbered by
    its sequences' one-word keys and becomes tuples once, so equal sequences
    share a tuple as in a search's results (_shared_pairs);
    seqcore.first_failing decides every solution off the verifier's memos,
    one lookup per distinct pair, and verify_quadruple words a failure.  One
    stable sort of the pair numbers finds repeats and gives plaintext order;
    each distinct sums vector is placed in its pass once, and each distinct
    A by its key, which is the scan's lex index, with the scan's own tests.
    """
    if resume is None:
        digest = _solutions_digest([])
        return Checkpoint(
            **dict(zip(_IDENTITY_FIELDS, _identity(spec))),
            case_pos=0, lex_next=0, nodes=0, prunes={PRUNE_SUM: 0, PRUNE_CASE: 0},
            found=0, solutions=[], solutions_sha256=digest.hexdigest(),
        ), [], digest
    if _identity(resume) != _identity(spec):
        raise SearchError("checkpoint does not match the requested search")
    _check_counters(resume)
    lex_limit = 1 << (spec.order + 1)
    if not 0 <= resume.case_pos < len(passes):
        raise SearchError(f"checkpoint case_pos {resume.case_pos} is not a pass of this run")
    if not 0 <= resume.lex_next <= lex_limit or (
            resume.lex_next % _block_size(spec.order) and resume.lex_next != lex_limit):
        raise SearchError(f"checkpoint lex_next {resume.lex_next} is not a block boundary")
    texts, m = resume.solutions, spec.order + 1
    rows, unread = _solution_rows(texts, spec.order)
    longs, long_ids, lex = _shared_pairs(rows[:, :m], rows[:, m : 2 * m])
    shorts, short_ids, _keys = _shared_pairs(rows[:, 2 * m : 3 * m - 1], rows[:, 3 * m - 1 :])
    # the faults found, as (index, what); no two share an index, as a
    # repeat's earlier copy has any fault the repeat has, and no solution at
    # or past the first that fails can name an earlier one
    failing = first_failing(spec.kind, longs, shorts, long_ids, short_ids)
    if failing is not None:
        quad = parsed_quadruple(*longs[long_ids[failing]], *shorts[short_ids[failing]], spec.kind)
        faults = [(failing, f"fails verification: {verify_quadruple(quad).failure}")]
        long_ids, short_ids = long_ids[:failing], short_ids[:failing]
    else:
        faults = [] if unread is None else [(unread, _text_fault(texts[unread], spec))]
    # a solution's number: in plaintext order, and below len(texts) ** 2
    keys = long_ids * len(shorts) + short_ids
    order = np.argsort(keys, kind="stable")
    repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]  # later copies
    if len(repeats):
        faults.append((int(repeats.min()), "is repeated"))
    # a solution is reached when its pass comes before case_pos, or is
    # case_pos and its A lies below lex_next (without cases all share pass
    # 0), and in a representatives run only if the scan keeps its A.  Its
    # pass is its sums vector's, worked out once per distinct vector
    cuts = (0, m, 2 * m, 3 * m - 1, 4 * m - 2)
    sums = np.stack([rows[: len(keys), lo:hi].sum(axis=1) for lo, hi in zip(cuts, cuts[1:])], 1)
    _codes, first, inverse = np.unique((sums + m) @ (2 * m + 1) ** np.arange(4),
                                       return_index=True, return_inverse=True)
    case_of = _case_of(spec.kind, spec.order)
    pass_of = {case: pos for pos, case in enumerate(spec.cases or ())}
    unlisted = 0 if spec.cases is None else len(passes)
    pass_at = np.array([pass_of.get(case_of[_sums_rep(*vector)], unlisted)
                        for vector in sums[first].tolist()], np.intp)[inverse]
    unreached = (pass_at > resume.case_pos) | (pass_at == resume.case_pos) & (
        lex >= resume.lex_next)[long_ids]
    if spec.representatives:
        unreached |= ~_scanned(lex, m)[long_ids]
    late = np.flatnonzero(unreached)
    if len(late):
        faults.append((int(late[0]), "lies where the run has yet to scan"))
    if faults:
        at, what = min(faults)
        raise SearchError(f"checkpoint solution {texts[at]} {what}")
    digest = _solutions_digest(resume.solutions)
    if resume.solutions_sha256 != digest.hexdigest():
        raise SearchError("damaged checkpoint: its solutions do not match their sha256")
    state = replace(resume, prunes=dict(resume.prunes), solutions=list(resume.solutions))
    quads = list(map(add, map(longs.__getitem__, long_ids[order].tolist()),
                     map(shorts.__getitem__, short_ids[order].tolist())))
    return state, quads, digest


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
    on worker count or budget.  A budget may be overshot by one block; the
    work done past it, or past a first-mode hit, is at most one batch of
    blocks (see _blocks).
    """
    _validate_spec(spec)
    if workers < 1:
        raise SearchError(f"workers must be at least 1, got {workers}")
    started = time.perf_counter()
    passes: list[int] = list(spec.cases) if spec.cases is not None else [0]
    first = spec.mode == "first"
    state, quads, digest = _resume_state(spec, passes, resume)
    groups, saved_groups = [], 0  # the run's own solutions (see _blocks), and those saved
    base_nodes = saved_nodes = state.nodes  # node_limit budgets the current run only
    # a first-mode run ends at its hit, which its checkpoint may already hold
    done = first and state.found
    if not done:  # the join's index, before the first scan: a size it cannot hold fails here
        profile_index(spec.order)
    # the file's solutions array items, encoded with json once per run, as a
    # resumed text may hold whitespace that JSON escapes; a save adds its new
    # texts, which hold only '+', '-' and ';', in quotes
    items = json.dumps(state.solutions)[1:-1] if checkpoint_path else ""
    cd_texts = {}  # the run's "C;D" texts (see _solution_texts)
    # after _resume_state, so that a refused checkpoint starts no thread
    with _JoinPool(spec.order, 1 if done else workers) as pool:
        blocks = () if done else _blocks(
            spec, passes, state.case_pos, state.lex_next, pool.join)
        for case_pos, lex_next, found, nodes, prunes, last in blocks:
            hit = first and bool(found)  # like the run's last block, no budget interrupts it
            if hit:  # the block's plaintext-least solution
                a, b, _pairs, ranked = max(found, key=lambda group: (*group[:2], group[3][0]))
                found = [(a, b, ranked[:1], ranked[:1])]
            state.case_pos, state.lex_next = case_pos, lex_next
            state.nodes += nodes
            for key, value in prunes.items():
                state.prunes[key] += value
            state.found += sum(len(pairs) for _a, _b, pairs, _ranked in found)
            if spec.mode != "count":
                groups.extend(found)
            exhausted = (spec.node_limit is not None and not (hit or last)
                         and state.nodes - base_nodes >= spec.node_limit)
            if exhausted or checkpoint_path and state.nodes - saved_nodes >= CHECKPOINT_EVERY:
                # only the solutions found since the last save become text, in
                # found order, and are hashed, after the "\n" that joins them
                # to the rest
                new = _solution_texts(groups[saved_groups:], cd_texts)
                if new:
                    digest.update(("\n" * bool(state.solutions) + "\n".join(new)).encode())
                    state.solutions.extend(new)
                    if checkpoint_path:
                        items += ", " * bool(items) + '"' + '", "'.join(new) + '"'
                state.solutions_sha256 = digest.hexdigest()
                if checkpoint_path:
                    _write_checkpoint(state, items, checkpoint_path)
                saved_nodes, saved_groups = state.nodes, len(groups)
            if exhausted:
                raise BudgetExhausted(state)
            if hit:
                break
    # each group's pairs are in plaintext order already, so the groups in
    # (A, B) order are one sorted run, and the resumed solutions another
    quads += [(a, b, c, d) for a, b, _pairs, ranked in sorted(
        groups, key=lambda group: group[:2], reverse=True) for c, d in ranked]
    # every raw tuple here is already a tuple of plain +-1 ints, with A, B and
    # C, D of equal lengths: scan rows, C and D from ProfileIndex.join, and
    # resumed solutions, verified in _resume_state, come from int8 .tolist()
    kept = _in_plaintext_order(quads)[: {"all": None, "first": 1, "count": 0}[spec.mode]]
    solutions = SeqQuadruple._trusted_all(kept, spec.kind)
    stats = SearchStats(state.nodes, dict(state.prunes), time.perf_counter() - started)
    return SearchResult(solutions, state.found, stats)


def _solution_texts(groups, cd_texts: dict) -> list[str]:
    """The "A;B;C;D" texts of the solutions of (A, B, pairs, _ranked)
    groups, in found order: join_quad's texts, from an "A;B;" text made once
    per group and "C;D" texts made once per pair list in a run, which groups
    of one target share.  cd_texts, the run's memo, maps id(pairs) to the
    list and its texts: holding the list, it keeps the id from reuse."""
    texts = []
    for a, b, pairs, _ranked in groups:
        known = cd_texts.get(id(pairs))
        if known is None:
            known = cd_texts[id(pairs)] = pairs, [f"{seq_str(c)};{seq_str(d)}" for c, d in pairs]
        head = f"{seq_str(a)};{seq_str(b)};"
        texts += [head + tail for tail in known[1]]
    return texts


def _blocks(spec, passes, case_pos, lex_start, join):
    """Scan the run's case passes from `case_pos` and `lex_start` on, and
    yield each block, in lex order, as (case_pos, lex_next, groups, nodes,
    prunes, last); `last` marks the run's last block.  A block's solutions
    come as one (A, B, pairs, ranked) group for each of its A's that has
    any, in lex order: the same (C, D) pairs twice, as the join found them
    and in plaintext order (descending, see _in_plaintext_order).

    Blocks are scanned and joined in batches: each pass, and each run,
    starts with a batch of one block, and each later batch of the pass
    holds twice as many blocks as the one before, up to SCAN_ROWS A's (at
    least one block).  So the work done past a first hit or an exhausted
    budget is at most one batch, which holds at most one block more than
    all the batches before it in the pass.  A batch is one
    _scan_block call, one np.unique of its targets and one `join` call on
    the new ones (a _JoinPool's, which splits them into one array chunk per
    thread), and is then cut at its block boundaries.

    A pass joins each distinct target once, when a batch first holds it,
    and charges its probes to every surviving A that has it.  Its memo is
    arrays: the row-bytes keys of the targets joined so far, sorted, and
    beside them each one's probes and pair-list id (-1 without pairs).  One
    np.searchsorted finds a batch's known targets, and its new ones are
    merged in.  Each pair list is ranked once.  A batch's joins are all
    back before its first block is yielded, so a first hit or an exhausted
    budget leaves no join running.
    """
    case_of = _case_of(spec.kind, spec.order)
    m = spec.order + 1
    lex_limit = 1 << m
    block = _block_size(spec.order)
    most = max(SCAN_ROWS // block, 1)  # the most blocks in one batch
    row_bytes = 2 * max(spec.order - 1, 0)  # of an int16 join target (see _scan_block)
    # a target's key is the bytes of its row (np.unique's axis=0 costs
    # several times more); without lags all rows are equal
    key_type = np.dtype(f"V{row_bytes}") if row_bytes else np.dtype(np.int8)
    for case_pos in range(case_pos, len(passes)):
        pass_case = passes[case_pos]
        last_pass = case_pos == len(passes) - 1
        verdict = _pass_verdicts(spec, pass_case)
        known, probes, ids = np.empty(0, key_type), np.empty(0, np.int64), np.empty(0, np.intp)
        pair_lists = []  # id -> (pairs, ranked), of a target with pairs
        if spec.order == 0:  # no lags: the empty (C, D) completes every (A, B), unprobed
            known, probes, ids = np.zeros(1, key_type), np.zeros(1, np.int64), np.zeros(1, np.intp)
            pair_lists.append(([((), ())],) * 2)
        lo, size = lex_start, 1
        while lo < lex_limit:
            hi = min(lo + size * block, lex_limit)
            (a, b, ab, targets), lex, tallies = _scan_block(spec, verdict, (lo, hi))
            keys = targets.view(key_type).ravel() if row_bytes else np.zeros(len(targets), key_type)
            distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            at = np.searchsorted(known, distinct)
            new = at == len(known)  # past every known key, or not the key found there
            new[~new] = known[at[~new]] != distinct[~new]
            if new.any():
                joined = join(targets[first[new]])
                new_ids = np.full(len(joined), -1, np.intp)
                for i, (pairs, _count) in enumerate(joined):
                    if pairs:
                        new_ids[i] = len(pair_lists)
                        pair_lists.append((pairs, sorted(pairs, reverse=True)))
                where = at[new]
                known = np.insert(known, where, distinct[new])
                probes = np.insert(probes, where, [count for _pairs, count in joined])
                ids = np.insert(ids, where, new_ids)
                at += np.cumsum(new) - new  # each distinct target's place in the merged memo
            row_at = at[inverse]
            # each block's end, and the survivors below it; a block's nodes are
            # its A's and the probes charged to its survivors
            ends = np.minimum(np.arange(lo + block, hi + block, block), hi)
            cuts = np.searchsorted(lex, ends)
            charged = np.concatenate([[0], np.cumsum(probes[row_at])])[cuts]
            nodes = tallies.sum(axis=1) + np.diff(charged, prepend=0)
            rows = np.flatnonzero(ids[row_at] >= 0)  # only these become tuples, in lex order
            # entry 0 is bit m-1 (see _scan_block): bit_rows' columns reversed
            a_rows, b_rows = (bit_rows(bits[rows], m)[:, ::-1].tolist() for bits in (a, b))
            survivors = zip(map(tuple, a_rows), map(tuple, b_rows),
                            ab[rows].tolist(), ids[row_at[rows]].tolist())
            for hi_block, held, block_nodes, (_joined, sum_pruned, case_pruned) in zip(
                    ends.tolist(), np.diff(np.searchsorted(rows, cuts), prepend=0).tolist(),
                    nodes.tolist(), tallies.tolist()):
                groups = []
                for a_seq, b_seq, (a_abs, b_abs), pair_id in islice(survivors, held):
                    pairs, ranked = pair_lists[pair_id]
                    if pass_case:  # a pair whose sums rep is another case's is a case prune
                        kept = {(c_seq, d_seq) for c_seq, d_seq in pairs if case_of[
                            _sums_rep(a_abs, b_abs, sum(c_seq), sum(d_seq))] == pass_case}
                        case_pruned += len(pairs) - len(kept)
                        if not kept:
                            continue
                        pairs = [pair for pair in pairs if pair in kept]
                        ranked = [pair for pair in ranked if pair in kept]
                    groups.append((a_seq, b_seq, pairs, ranked))
                yield (case_pos, hi_block, groups, block_nodes,
                       {PRUNE_SUM: sum_pruned, PRUNE_CASE: case_pruned},
                       last_pass and hi_block == lex_limit)
            lo, size = hi, min(2 * size, most)
        lex_start = 0


def _write_checkpoint(checkpoint: Checkpoint, items: str, path: str) -> None:
    """Write the checkpoint to `path` as json.dumps({"format":
    CHECKPOINT_FORMAT, **vars(checkpoint)}) writes it, byte for byte, from
    `items`, json.dumps(checkpoint.solutions)[1:-1] made in advance.  Every
    save comes here: save_checkpoint's and each of a run's."""
    document = {"format": CHECKPOINT_FORMAT, **vars(checkpoint)}
    sha256 = document.pop("solutions_sha256")
    del document["solutions"]  # these two are the dataclass's last fields
    # no trailing newline: every proper prefix of the file fails to parse
    write_text_atomic(path, f'{json.dumps(document)[:-1]}, "solutions": [{items}], '
                            f'"solutions_sha256": {json.dumps(sha256)}}}')


def save_checkpoint(checkpoint: Checkpoint, path: str) -> None:
    _write_checkpoint(checkpoint, json.dumps(checkpoint.solutions)[1:-1], path)


_CHECKPOINT_KEYS = {"format"} | {field.name for field in fields(Checkpoint)}
_SCALAR_TYPES = {f.name: f.type for f in fields(Checkpoint) if f.type in (str, int, bool)}


def _all_of(values, expected: type) -> bool:
    return all(type(v) is expected for v in values)


def load_checkpoint(path: str) -> Checkpoint:
    text = read_text(path, SearchError)  # a file that is not UTF-8 is refused here
    try:
        data = json.loads(text)
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
    return Checkpoint(**data)


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


def _orbit_rows(q: SeqQuadruple) -> np.ndarray:
    """The orbit of a verified near-normal quadruple as its distinct int8
    rows A||B||C||D, in byte order: within one order that is plaintext
    order (+1 is 0x01, -1 is 0xff, and '+' sorts before '-'), so row 0 is
    the canonical form.

    Other kinds are refused: the odd-interior generators keep only the
    near-normal pattern (see _signed_maps), so their orbits hold non-members.
    """
    if q.kind != KIND_NEAR_NORMAL:
        raise SearchError(f"equivalence orbits are defined for near-normal quadruples, not {q.kind}")
    verify_quadruple(q).require(SearchError, "orbit input fails verification")
    source, sign = _group(q.m, q.n)
    rows = np.array(q.a + q.b + q.c + q.d, dtype=np.int8)[source] * sign
    # a product repeats members (1,024 rows for at most 512 near-normal ones)
    distinct = np.unique(rows.view(np.dtype((np.void, rows.shape[1]))).ravel())
    return distinct.view(np.int8).reshape(len(distinct), rows.shape[1])


def _quadruples(rows: np.ndarray, n: int) -> list[SeqQuadruple]:
    """The near-normal quadruples of order n whose A||B||C||D are `rows`, rows
    of _orbit_rows.  Equal sequences share one tuple: an orbit's members have
    few distinct sequences."""
    m = n + 1
    share = {}.setdefault
    quads = []
    for row in map(tuple, rows.tolist()):
        a, b, c, d = row[:m], row[m : 2 * m], row[2 * m : 2 * m + n], row[2 * m + n :]
        quads.append((share(a, a), share(b, b), share(c, c), share(d, d)))
    return SeqQuadruple._trusted_all(quads, KIND_NEAR_NORMAL)


def nn_orbit(q: SeqQuadruple) -> set[SeqQuadruple]:
    """Closure of a verified near-normal quadruple under the equivalence group."""
    return set(_quadruples(_orbit_rows(q), q.n))


def canonicalize(q: SeqQuadruple) -> SeqQuadruple:
    """Plaintext-least member of the orbit of a verified near-normal
    quadruple; idempotent and constant on orbits by construction."""
    return _quadruples(_orbit_rows(q)[:1], q.n)[0]


def equivalence_classes(quads) -> list[SeqQuadruple]:
    """Distinct canonical forms among verified near-normal `quads`, sorted
    by plaintext."""
    canonical = []
    seen = set()  # row bytes; quadruples of different orders differ in length
    codes = {}  # sequence -> its int8 bytes: an orbit's members share few sequences

    def code(seq):
        found = codes.get(seq)
        if found is None:
            found = codes[seq] = np.array(seq, dtype=np.int8).tobytes()
        return found

    for q in quads:
        if q.kind == KIND_NEAR_NORMAL and b"".join(map(code, q.seqs())) in seen:
            continue
        rows = _orbit_rows(q)  # refuses other kinds
        seen.update(map(bytes, rows))
        canonical += _quadruples(rows[:1], q.n)
    return sorted(canonical, key=SeqQuadruple.plaintext)
