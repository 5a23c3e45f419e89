import collections
import contextlib
import copy
import dataclasses
import hashlib
import itertools
import json
import math
import os
import random
import re
import signal
import threading
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quadseq.search as search_module
from quadseq.catalog import witness_records
from quadseq.search import (
    CHECKPOINT_FORMAT,
    NUM_CASES,
    BudgetExhausted,
    Checkpoint,
    SearchError,
    SearchSpec,
    canonicalize,
    enumerate_cases,
    equivalence_classes,
    load_checkpoint,
    nn_orbit,
    save_checkpoint,
    search,
)
from quadseq import seqcore
from quadseq.construct import golay_search
from quadseq.seqcore import (
    QuadseqError,
    alternate,
    int_to_seq,
    negate,
    npaf_values,
    parse_quad,
    parse_seq,
    parsed_quadruple,
    ProfileIndex,
    SeqQuadruple,
    profile_index,
    reverse,
    split_quad,
    sum_of_squares_check,
    verify_quadruple,
)

from naive_oracle import brute_force_solutions, profile_groups, square_sum_buckets
from old_formats import TEXT_CHECKPOINT


def plaintexts(result):
    return [q.plaintext() for q in result.solutions]


@pytest.mark.parametrize("kind,order", [
    ("nn", 0), ("nn", 1), ("nn", 2), ("nn", 3), ("nn", 4),
    ("ns", 0), ("ns", 1), ("ns", 2), ("ns", 3), ("ns", 4), ("ns", 5),
])
def test_engine_matches_brute_force_oracle(kind, order):
    got = set(plaintexts(search(SearchSpec(kind, order))))
    assert got == brute_force_solutions(kind, order)


@pytest.mark.slow
def test_engine_matches_brute_force_oracle_ns6():
    got = set(plaintexts(search(SearchSpec("ns", 6))))
    assert got == brute_force_solutions("ns", 6)


def test_odd_orders_are_searched_honestly():
    # no parity shortcut: order 1 really is populated, 3/5 really are empty
    assert search(SearchSpec("nn", 1)).count == 16
    assert search(SearchSpec("nn", 3)).count == 0
    assert search(SearchSpec("nn", 5)).count == 0


def _without_sum_prune(verdict):
    """A pass's verdict table with every sum-pruned entry sent to the join
    instead, so no A is stopped by the sum prune and each one reaches it."""
    return np.where(verdict == 1, 0, verdict)


@pytest.fixture
def sum_prune_off(monkeypatch):
    pass_verdicts = search_module._pass_verdicts

    def verdicts_without_sum_prune(spec, pass_case):
        return _without_sum_prune(pass_verdicts(spec, pass_case))

    monkeypatch.setattr(search_module, "_pass_verdicts", verdicts_without_sum_prune)


@pytest.mark.parametrize("kind,order", [("nn", 4), ("nn", 6), ("ns", 4), ("ns", 6)])
def test_prune_toggles_never_change_solutions(kind, order, request):
    # the sum prune only saves work: switching it off changes neither the
    # solutions nor the nodes, only the prune counters
    on = search(SearchSpec(kind, order))
    request.getfixturevalue("sum_prune_off")
    off = search(SearchSpec(kind, order))
    assert on.stats.prunes["sum_of_squares"] > 0
    assert off.stats.prunes["sum_of_squares"] == 0
    assert plaintexts(off) == plaintexts(on)
    assert off.count == on.count
    assert off.stats.nodes == on.stats.nodes


def test_every_emitted_solution_passes_verifier(solutions):
    for order in (4, 6):
        for quad in solutions("nn", order) + solutions("ns", order):
            assert verify_quadruple(quad)
            assert sum_of_squares_check(quad.m, quad.n, quad.sums())


def test_output_is_sorted_and_deterministic(solutions):
    texts = [q.plaintext() for q in solutions("nn", 6)]
    assert texts == sorted(texts)
    again = plaintexts(search(SearchSpec("nn", 6)))
    assert again == texts


def test_worker_count_does_not_change_output():
    single = plaintexts(search(SearchSpec("nn", 6)))
    for workers in (2, 3):
        assert plaintexts(search(SearchSpec("nn", 6), workers=workers)) == single, workers


def test_case_interleaving_does_not_change_output():
    ordered = plaintexts(search(SearchSpec("nn", 4, cases=tuple(range(1, 13)))))
    shuffled = plaintexts(search(SearchSpec("nn", 4, cases=(7, 3, 11, 1, 5, 9, 2, 12, 4, 8, 6, 10))))
    full = plaintexts(search(SearchSpec("nn", 4)))
    assert ordered == full
    assert sorted(shuffled) == sorted(full)


def test_first_mode_returns_lex_least():
    full = plaintexts(search(SearchSpec("nn", 4)))
    first = plaintexts(search(SearchSpec("nn", 4, mode="first")))
    assert first == full[:1]
    empty = search(SearchSpec("nn", 3, mode="first"))
    assert empty.count == 0 and empty.solutions == []


def test_first_mode_takes_the_first_populated_case_pass():
    # at nn 6 case 3 is empty, and the least solution of case 4 is not the
    # least overall (that one is in case 5)
    cases = (3, 4, 5)
    per_case = [plaintexts(search(SearchSpec("nn", 6, cases=(c,)))) for c in cases]
    assert per_case[0] == [] and per_case[1][0] > per_case[2][0]
    first = search(SearchSpec("nn", 6, mode="first", cases=cases))
    assert plaintexts(first) == per_case[1][:1] and first.count == 1


def test_count_mode_matches_all_mode(solutions):
    assert search(SearchSpec("nn", 6, mode="count")).count == len(solutions("nn", 6))
    assert search(SearchSpec("ns", 6, mode="count")).count == 0


def test_order_bound_refusal():
    with pytest.raises(SearchError):
        search(SearchSpec("nn", 21))
    with pytest.raises(SearchError):
        search(SearchSpec("bs", 4))
    with pytest.raises(SearchError):
        search(SearchSpec("nn", 4, mode="everything"))
    with pytest.raises(SearchError):
        search(SearchSpec("nn", 4, cases=(0,)))


def test_an_order_whose_lex_indices_do_not_fit_int64_is_refused_even_when_large():
    # the scan numbers the long sequences of order n by int64 lex indices
    # below 2^(n+1), so order 62 is the last whose indices fit
    for kind in ("nn", "ns"):
        with pytest.raises(SearchError, match="^order 63 above 62: the lex indices of its long "
                                              "sequences do not fit int64$"):
            search(SearchSpec(kind, 63, allow_large=True))
        search_module._validate_spec(SearchSpec(kind, 62, allow_large=True))  # never searched


@pytest.mark.parametrize("spec,workers,message", [
    (SearchSpec("nn", 4, cases=(3, 3)), 1, "must not repeat"),
    (SearchSpec("nn", 4, cases=(3, 4, 3)), 1, "must not repeat"),
    (SearchSpec("nn", 4), 0, "at least 1"),
    (SearchSpec("nn", 4), -1, "at least 1"),
    (SearchSpec("nn", 4, node_limit=0), 1, "node limit must be at least 1, got 0"),
    (SearchSpec("nn", 4, node_limit=-5), 1, "node limit must be at least 1, got -5"),
    (SearchSpec("nn", 4, cases=()), 1, "at least one case"),  # it used to scan nothing
])
def test_repeated_case_ids_and_worker_counts_below_one_are_refused(spec, workers, message):
    # a repeated case id would scan its pass twice and count its solutions
    # twice; a node budget below 1 would stop a run after its first block
    with pytest.raises(SearchError, match=message):
        search(spec, workers=workers)


@pytest.mark.parametrize("kind", ["nn", "ns"])
@pytest.mark.parametrize("mode", ["all", "first"])
def test_returned_quadruples_equal_checked_ones(kind, mode):
    # the search builds its quadruples without re-checking them
    for order in range(11):
        for quad in search(SearchSpec(kind, order, mode=mode)).solutions:
            assert quad == SeqQuadruple(*quad.seqs(), quad.kind)
            entries = list(itertools.chain(*quad.seqs()))
            assert all(type(v) is int and v in (1, -1) for v in entries), quad


def _sums_rep(text, kind):
    a, b, c, d = map(abs, parse_quad(text, kind).sums())
    return (a, b, max(c, d), min(c, d))


@pytest.mark.parametrize("kind", ["nn", "ns"])
@pytest.mark.parametrize("mode", ["all", "first", "count"])
def test_order_zero_obeys_the_case_filter_and_the_first_mode_rule(kind, mode):
    oracle = sorted(brute_force_solutions(kind, 0))
    passes = [(None, oracle)] + [
        ((case.case_id,), [t for t in oracle if _sums_rep(t, kind) in case.sums_reps])
        for case in enumerate_cases(kind, 0)
    ]
    for cases, want in passes:
        if mode == "first":
            want = want[:1]
        result = search(SearchSpec(kind, 0, mode=mode, cases=cases))
        assert result.count == len(want), cases
        assert plaintexts(result) == ([] if mode == "count" else want), cases


def test_representatives_mode_fixes_boundary(solutions):
    reps = search(SearchSpec("nn", 4, representatives=True)).solutions
    assert reps
    for quad in reps:
        assert quad.a[0] == 1 and quad.b[0] == 1
        assert quad.a[-1] == 1 and quad.b[-1] == -1
    # symmetry breaking must not lose classes
    full_classes = {q.plaintext() for q in equivalence_classes(solutions("nn", 4))}
    rep_classes = {q.plaintext() for q in equivalence_classes(reps)}
    assert rep_classes == full_classes


def test_enumerate_cases_shape():
    cases = enumerate_cases("nn", 36)
    assert len(cases) == 12
    assert [c.case_id for c in cases] == list(range(1, 13))
    reps = [r for c in cases for r in c.sums_reps]
    assert len(reps) == len(set(reps))
    assert cases[-1].note  # order 36 has 16 orbits, so the tail is merged
    padded = enumerate_cases("nn", 10)
    assert sum(1 for c in padded if not c.sums_reps) == 5


@pytest.mark.parametrize("kind,order,message", [
    ("nn", -3, "order must be nonnegative"),
    ("bs", 4, "searchable kinds are ns and nn"),
])
def test_enumerate_cases_refuses_what_the_search_refuses(kind, order, message):
    for refused in (lambda: enumerate_cases(kind, order), lambda: search(SearchSpec(kind, order))):
        with pytest.raises(SearchError, match=message):
            refused()


def test_cases_partition_solution_set(solutions):
    full = {q.plaintext() for q in solutions("nn", 4)}
    per_case = []
    for case_id in range(1, 13):
        got = set(plaintexts(search(SearchSpec("nn", 4, cases=(case_id,)))))
        per_case.append(got)
    union = set().union(*per_case)
    assert union == full
    for first, second in itertools.combinations(per_case, 2):
        assert not (first & second)


def test_budget_exhaustion_and_resume_reproduce_full_run(tmp_path):
    full = plaintexts(search(SearchSpec("nn", 6)))
    spec = SearchSpec("nn", 6, node_limit=40)
    path = str(tmp_path / "run.ckpt")
    checkpoint = None
    for _round in range(10_000):
        try:
            result = search(spec, resume=checkpoint, checkpoint_path=path)
            break
        except BudgetExhausted as exc:
            checkpoint = exc.checkpoint
    else:
        pytest.fail("resume loop did not terminate")
    assert plaintexts(result) == full
    assert _round > 0  # the budget actually bit at least once


def _resumed(spec, workers, path=None):
    """Run spec to completion, resuming after every exhausted budget (through
    the checkpoint file when `path` is given); returns (result, legs)."""
    checkpoint = None
    for legs in range(1, 1000):
        try:
            return search(spec, workers=workers, resume=checkpoint, checkpoint_path=path), legs
        except BudgetExhausted as exc:
            checkpoint = load_checkpoint(path) if path else exc.checkpoint
    pytest.fail("resume loop did not terminate")


@pytest.mark.parametrize("kind", ["nn", "ns"])
def test_counters_do_not_depend_on_workers_budget_or_resume(kind, tmp_path):
    # Every surviving A is charged its sum-compatible C-profiles whether its
    # join was computed or reused, so block size, worker count and resume
    # points change neither the solutions nor a single counter.
    reference = search(SearchSpec(kind, 10))
    budgeted = SearchSpec(kind, 10, node_limit=reference.stats.nodes // 5)
    runs = {
        "workers=2": (search(SearchSpec(kind, 10), workers=2), 1),
        "workers=3": (search(SearchSpec(kind, 10), workers=3), 1),
        "budget, workers=1": _resumed(budgeted, 1),
        "budget, workers=2, file": _resumed(budgeted, 2, str(tmp_path / "run.ckpt")),
        "budget, workers=3, file": _resumed(budgeted, 3, str(tmp_path / "run3.ckpt")),
    }
    for name, (result, legs) in runs.items():
        assert plaintexts(result) == plaintexts(reference), name
        assert result.count == reference.count, name
        assert result.stats.nodes == reference.stats.nodes, name
        assert result.stats.prunes == reference.stats.prunes, name
    assert runs["budget, workers=1"][1] > 1
    assert runs["budget, workers=2, file"][1] > 1
    assert runs["budget, workers=3, file"][1] > 1


@pytest.mark.parametrize("kind", ["nn", "ns"])
def test_pass_verdicts_agree_with_their_definition(kind):
    # by brute force over (|a|, |b|) and the admissible (c, d): an A goes to
    # the join when some (c, d) completes its sums, and, in a case pass, the
    # sums rep of one such completion is the case's.  The case map the
    # verdicts and the pair filter read holds exactly the reps of the
    # completions, each with its descriptor's case
    for order in range(21):
        m, n = order + 1, order
        case_of = search_module._case_of(kind, order)
        all_reps = set()
        for pass_case in range(NUM_CASES + 1):
            case_reps = None if pass_case == 0 else set(
                enumerate_cases(kind, order)[pass_case - 1].sums_reps)
            if case_reps is not None:
                assert case_reps == {rep for rep, case in case_of.items() if case == pass_case}
            verdict = search_module._pass_verdicts(SearchSpec(kind, order), pass_case)
            assert verdict.shape == (m + 1, m + 1)
            for a, b in itertools.product(range(m + 1), repeat=2):
                completions = [
                    (c, d) for c in range(n % 2, n + 1, 2) for d in range(n % 2, n + 1, 2)
                    if a * a + b * b + c * c + d * d == 2 * (m + n)
                ]
                all_reps.update(search_module._sums_rep(a, b, c, d) for c, d in completions)
                if not completions:
                    want = 1
                elif case_reps is None or any(
                        search_module._sums_rep(a, b, c, d) in case_reps for c, d in completions):
                    want = 0
                else:
                    want = 2
                assert verdict[a, b] == want, (order, pass_case, a, b)
        assert list(case_of) == sorted(all_reps), order


def test_case_filter_keeps_only_the_case_s_pairs_of_a_shared_target():
    # at ns 13 the sums reps (0, 2, 5, 5) of case 1 and (0, 2, 7, 1) of case 2
    # share (|a|, |b|): the verdict table sends the same A's to the join in
    # both passes, and only the sums of C and D tell their pairs apart.  No
    # searched order up to 20 has such a pair, so a stand-in join gives each
    # target, in both passes, the same flat pairs of both cases
    assert [search_module._case_of("ns", 13)[rep] for rep in ((0, 2, 5, 5), (0, 2, 7, 1))] == [1, 2]

    def seq(total):  # a +-1 sequence of length 13 and sum `total`
        return (1,) * ((13 + total) // 2) + (-1,) * ((13 - total) // 2)

    pairs = [(seq(c), seq(d)) for c, d in ((1, 7), (5, -5), (-7, 1), (5, 5))]

    def join(targets):
        return [(pairs, 0)] * len(targets)

    kept = {}
    for case in (1, 2):
        spec = SearchSpec("ns", 13, cases=(case,))
        blocks = list(search_module._blocks(spec, [case], 0, 0, join))
        # a block's solutions come grouped by (A, B), each group's pairs in
        # found order and again in plaintext order
        groups = [group for block in blocks for group in block[2]]
        assert all(ranked == sorted(pairs, reverse=True) for _a, _b, pairs, ranked in groups)
        quads = [(a, b, c, d) for a, b, pairs, _ranked in groups for c, d in pairs]
        kept[case] = {tuple(map(sum, quad[2:])) for quad in quads}
        # each A that reaches the join keeps two of its four pairs, and each
        # pair it drops is a case prune on top of the scan's
        _rows, _lex, tallies = search_module._scan_block(
            spec, search_module._pass_verdicts(spec, case), (0, 1 << 14))
        assert sum(block[4]["case"] for block in blocks) == tallies[:, 2].sum() + len(quads) > 0
    assert kept == {1: {(5, -5), (5, 5)}, 2: {(1, 7), (-7, 1)}}


def _lex_rows(bits, length):
    """The +-1 tuples of a scan's A or B bit patterns, entry 0 at bit length-1."""
    return [int_to_seq(k, length)[::-1] for k in bits.tolist()]


def _scan_all(spec):
    """_scan_block over every long sequence of spec's order, in an unfiltered pass."""
    verdict = search_module._pass_verdicts(spec, 0)
    return search_module._scan_block(spec, verdict, (0, 1 << (spec.order + 1)))


@pytest.mark.parametrize("kind", ["nn", "ns"])
def test_scan_rows_are_the_long_sequences_in_lex_order(kind):
    # every A of order 4 in lex order, '+' before '-', and the last A's of
    # order 20, whose lex indices need three bytes; each B is derived from
    # its A column-wise: the odd positions below n negated (nn) or kept
    # (ns), the top entry negated
    for order, bounds in ((4, (0, 32)), (20, ((1 << 21) - 40, 1 << 21))):
        spec = SearchSpec(kind, order)
        verdict = np.zeros((order + 2, order + 2), dtype=np.int8)  # every A is joined
        (a_bits, b_bits, _ab, targets), lex, _tallies = search_module._scan_block(
            spec, verdict, bounds)
        assert a_bits.dtype == b_bits.dtype == np.uint64
        assert targets.dtype == np.int16 and targets.flags.c_contiguous  # its rows are memo keys
        assert lex.tolist() == list(range(*bounds))
        a, b = _lex_rows(a_bits, order + 1), _lex_rows(b_bits, order + 1)
        if order == 4:
            assert a == list(itertools.product((1, -1), repeat=5))
        assert a == [int_to_seq(k, order + 1)[::-1] for k in range(*bounds)]
        for a_row, b_row in zip(a, b):
            body = [v if kind == "ns" or i % 2 == 0 else -v for i, v in enumerate(a_row[:order])]
            assert b_row == (*body, -a_row[order])


@pytest.mark.parametrize("kind", ["nn", "ns"])
def test_join_finds_nothing_for_an_a_the_sum_prune_rejects(kind):
    # the prune only saves work: for every A it rejects, the join's own sum
    # index probes no C-profile and returns no (C, D)
    for order in range(1, 9):
        spec = SearchSpec(kind, order)
        verdict = search_module._pass_verdicts(spec, 0)
        (a, _b, ab, targets), _lex, tallies = search_module._scan_block(
            spec, _without_sum_prune(verdict), (0, 1 << (order + 1)))
        assert len(a) == tallies.sum() == 1 << (order + 1)
        assert not tallies[:, 1:].any()  # no A is pruned
        rejected = verdict[ab[:, 0], ab[:, 1]] == 1  # sum-pruned
        joined = profile_index(order).join(targets[rejected])
        assert joined == [([], 0)] * len(joined), order
        assert rejected.any() or order < 3, order


def _reference_scan(spec, pass_case, bounds):
    """The per-A loop that _scan_block batches: same survivors, each with its
    lex index first, and same counters.
    Its sum test and case filter are its own, from the admissible sums and
    the case's sums reps."""
    n = spec.order
    m = n + 1
    squares = [v * v for v in range(n % 2, n + 1, 2)]
    sum_targets = {c2 + d2 for c2 in squares for d2 in squares}
    ab_filter = None
    if pass_case:
        ab_filter = {rep[:2] for rep in enumerate_cases(spec.kind, n)[pass_case - 1].sums_reps}
    nodes = 0
    prunes = {"sum_of_squares": 0, "case": 0}
    survivors = []
    for k in range(*bounds):
        if spec.representatives and (k & 1 or (k >> (m - 1)) & 1):
            continue
        a_seq = int_to_seq(k, m)[::-1]
        if spec.kind == "ns":
            body = a_seq[:n]
        else:
            body = tuple(v if i % 2 == 0 else -v for i, v in enumerate(a_seq[:n]))
        b_seq = body + (-a_seq[n],)
        nodes += 1
        a_sum, b_sum = sum(a_seq), sum(b_seq)
        if 2 * (m + n) - a_sum * a_sum - b_sum * b_sum not in sum_targets:
            prunes["sum_of_squares"] += 1
            continue
        ab_rep = (abs(a_sum), abs(b_sum))
        if ab_filter is not None and ab_rep not in ab_filter:
            prunes["case"] += 1
            continue
        pa, pb = npaf_values(a_seq), npaf_values(b_seq)
        survivors.append((k, a_seq, b_seq, ab_rep, tuple(-pa[j] - pb[j] for j in range(1, n))))
    return survivors, nodes, prunes


@pytest.mark.parametrize("kind", ["nn", "ns"])
@pytest.mark.parametrize("representatives", [False, True])
def test_batched_scan_matches_the_per_a_reference(kind, representatives):
    # the scan's bounds are cut into blocks of _block_size A's from lo, and
    # each block's counters are those of the per-A loop over that block alone
    for order in range(1, 11):
        spec = SearchSpec(kind, order, representatives=representatives)
        lex_limit = 1 << (order + 1)
        block = search_module._block_size(order)
        for pass_case in (0, 1, 3):
            verdict = search_module._pass_verdicts(spec, pass_case)
            for bounds in ((0, lex_limit), (lex_limit // 3, lex_limit // 3 + 7), (5, 5)):
                (a, b, ab, targets), lex, tallies = search_module._scan_block(spec, verdict, bounds)
                assert [row.dtype for row in (a, b, ab, targets)] == [
                    np.uint64, np.uint64, np.int64, np.int16]
                survivors = list(zip(lex.tolist(), _lex_rows(a, order + 1), _lex_rows(b, order + 1),
                                     *(map(tuple, row.tolist()) for row in (ab, targets))))
                lo, hi = bounds
                blocks = [(start, min(start + block, hi)) for start in range(lo, hi, block)]
                assert len(tallies) == len(blocks), (order, bounds)
                expected = []
                for (joined, sum_pruned, case_pruned), block_bounds in zip(tallies.tolist(), blocks):
                    block_survivors, nodes, prunes = _reference_scan(spec, pass_case, block_bounds)
                    got = joined + sum_pruned + case_pruned, {"sum_of_squares": sum_pruned,
                                                              "case": case_pruned}
                    assert got == (nodes, prunes), (order, pass_case, block_bounds)
                    assert joined == len(block_survivors)
                    expected += block_survivors
                assert survivors == expected, (order, pass_case, bounds)


@pytest.mark.parametrize("kind,order", [("nn", 4), ("ns", 4)])
def test_join_without_sum_prune_matches_brute_force_oracle(kind, order, sum_prune_off):
    # with the sum prune off, A's of inadmissible sums reach the join, and
    # the join's own sum index must find nothing for them
    result = search(SearchSpec(kind, order))
    assert result.stats.prunes["sum_of_squares"] == 0
    assert set(plaintexts(result)) == brute_force_solutions(kind, order)


def test_join_probes_only_sum_compatible_profiles():
    n = 8
    index, groups = profile_index(n), profile_groups(n)
    squares = frozenset(v * v for v in range(0, n + 1, 2))
    c, d = (1, 1, -1, 1, 1, 1, -1, -1), (1, -1, -1, -1, 1, 1, 1, 1)
    target = tuple(u + v for u, v in zip(npaf_values(c)[1:], npaf_values(d)[1:]))
    residual = 2 * n + 2 * sum(target)
    [(got, probes)] = index.join(np.array([target], dtype=np.int64))
    compatible = [p for p in groups if residual - (n + 2 * sum(p)) in squares]
    assert probes == len(compatible) < len(groups)
    expected = {
        (c_seq, d_seq) for p in groups for c_seq in groups[p]
        for d_seq in groups.get(tuple(t - v for t, v in zip(target, p)), ())
    }
    assert (c, d) in expected and len(got) == len(expected) and set(got) == expected
    # the flat pairs come in the order of C's squared-sum buckets
    bucket = {c2: i for i, c2 in enumerate(square_sum_buckets(n))}
    buckets = [bucket[sum(c_seq) ** 2] for c_seq, _d_seq in got]
    assert buckets == sorted(buckets)


def _reference_join(length, target):
    """The join of one target, without the PSD test, straight from the
    reference grouping of the sequences of `length`: the flat (C, D) pairs,
    in bucket order, and the probes that ProfileIndex.join must return for
    it."""
    residual = 2 * length + 2 * sum(target)
    groups, buckets = profile_groups(length), square_sum_buckets(length)
    pairs, probes = [], 0
    for c2, c_groups in buckets.items():
        if residual - c2 not in buckets:
            continue
        probes += len(c_groups)
        for profile, c_seqs in c_groups:
            d_seqs = groups.get(tuple(t - v for t, v in zip(target, profile)), [])
            pairs += [(c_seq, d_seq) for c_seq in c_seqs for d_seq in d_seqs]
    return pairs, probes


@pytest.mark.parametrize("kind,order", [("nn", 12), ("ns", 10)])
def test_batched_join_matches_the_per_row_reference(kind, order):
    # every distinct target of the scan, PSD-dead ones included, in one array
    (_a, _b, _ab, rows), _lex, _tallies = _scan_all(SearchSpec(kind, order))
    targets = np.unique(rows, axis=0)
    index = profile_index(order)
    expected = [_reference_join(order, target) for target in targets.tolist()]
    assert index.join(targets) == expected
    bound = seqcore._psd(2 * order, targets, index.cosines) + seqcore._PSD_MARGIN
    probed = np.array([probes for _pairs, probes in expected]) > 0
    dead = np.flatnonzero((bound.min(axis=1) < 0) & probed)
    live = np.flatnonzero([bool(pairs) for pairs, _probes in expected])
    assert len(dead) >= 10 and len(live) >= 10
    # dead and live rows interleaved, some repeated, join row by row
    picks = [i for pair in zip(dead[:10], live[:10]) for i in pair] + [live[0], dead[0], live[0]]
    assert index.join(targets[picks]) == [expected[i] for i in picks]
    assert index.join(targets[:0]) == []


@pytest.fixture
def psd_filter_off(monkeypatch):
    # an infinite margin lets every target and every C-profile through
    monkeypatch.setattr(seqcore, "_PSD_MARGIN", math.inf)


@pytest.mark.parametrize(
    "kind,order", [("nn", n) for n in range(1, 15)] + [("ns", n) for n in range(1, 13)]
)
def test_psd_filter_never_changes_solutions_or_counters(kind, order, request):
    on = search(SearchSpec(kind, order))
    request.getfixturevalue("psd_filter_off")
    off = search(SearchSpec(kind, order))
    assert plaintexts(off) == plaintexts(on)
    assert off.count == on.count
    assert off.stats.nodes == on.stats.nodes
    assert off.stats.prunes == on.stats.prunes


def test_psd_filter_never_changes_golay_search(request):
    on = [golay_search(g) for g in range(13)]
    request.getfixturevalue("psd_filter_off")
    assert [golay_search(g) for g in range(13)] == on


def test_golay_search_is_pinned():
    # pair counts and the sha256 of the pairs' newline-joined plaintexts,
    # lengths 0..12 in order
    pairs = [golay_search(g) for g in range(13)]
    assert [len(found) for found in pairs] == [1, 4, 8, 0, 32, 0, 0, 0, 192, 0, 128, 0, 0]
    text = "\n".join(pair.plaintext() for found in pairs for pair in found)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "bef0b492750d279687ba1e8d1370d9cb8378804f1e3123b7b993ba4e4abd0529")


def test_a_psd_dead_target_never_reaches_the_keyed_stage_but_counts_its_probes(monkeypatch):
    # the float screen sends only live targets to _keyed_hits; a dead one
    # has no pairs but still counts its probes, and so its nodes
    order = 10
    (_a, _b, _ab, rows), _lex, _tallies = _scan_all(SearchSpec("nn", order))
    targets = np.unique(rows, axis=0)
    index = profile_index(order)
    keyed, reached = index._keyed_hits, []

    def spy(live):
        reached.extend(map(tuple, live.tolist()))
        return keyed(live)

    monkeypatch.setattr(index, "_keyed_hits", spy)
    joined = index.join(targets)
    # R(w) of each target at the 4n + 1 samples, worked out here
    samples = np.cos(np.outer(np.arange(1, order), np.linspace(0, np.pi, 4 * order + 1)))
    dead = (2 * order + 2 * targets @ samples).min(axis=1) < -1e-6
    residuals = 2 * order + 2 * targets.sum(axis=1)
    assert dead.sum() >= 10 and (~dead).sum() >= 10
    assert sorted(reached) == sorted(map(tuple, targets[~dead].tolist()))
    assert joined == [_reference_join(order, target) for target in targets.tolist()]
    dead_joins = [(joins, residual) for joins, residual, is_dead in zip(
        joined, residuals.tolist(), dead.tolist()) if is_dead]
    for (pairs, probes), residual in dead_joins:
        assert pairs == [] and probes == index.probes_by_residual.get(residual, 0)
    assert any(probes for (_pairs, probes), _residual in dead_joins)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 14).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(*[st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)] * 2),
             max_size=4),
    st.lists(st.tuples(*[st.integers(-2 * (n - j), 2 * (n - j)) for j in range(1, n)]),
             max_size=4),
)))
def test_join_matches_the_reference_on_realizable_and_random_targets(case):
    # the keyed join returns the reference's pairs in order, and its probes,
    # for the profile sums of random (C, D) pairs and for random vectors
    n, pairs, randoms = case
    pairs = [(tuple(c), tuple(d)) for c, d in pairs]
    targets = [tuple(u + v for u, v in zip(npaf_values(c)[1:], npaf_values(d)[1:]))
               for c, d in pairs] + randoms
    index = profile_index(n)
    joined = index.join(np.array(targets, dtype=np.int16).reshape(len(targets), n - 1))
    assert joined == [_reference_join(n, target) for target in targets]
    for pair, (found, _probes) in zip(pairs, joined):
        assert pair in found


def test_a_colliding_hash_multiplier_is_redrawn_and_the_join_stays_exact(monkeypatch):
    # all-ones multipliers hash a profile to its sum, which profiles of one
    # squared sum share: the index must draw the stream's next multipliers
    order = 8
    drawn = seqcore._multipliers
    ones = np.ones(order - 1, dtype=np.uint64)

    def colliding(count):
        yield ones
        yield from drawn(count)

    monkeypatch.setattr(seqcore, "_multipliers", colliding)
    index = ProfileIndex(order)
    assert len(set((index.profiles.astype(np.uint64) @ ones).tolist())) < len(index.profiles)
    assert index.multipliers.tolist() == next(drawn(order - 1)).tolist()
    assert len(set(index._hashes.tolist())) == len(index.profiles)
    assert (index.multipliers & 1).all()
    (_a, _b, _ab, rows), _lex, _tallies = _scan_all(SearchSpec("nn", order))
    targets = np.unique(rows, axis=0)
    expected = [_reference_join(order, target) for target in targets.tolist()]
    assert any(pairs for pairs, _probes in expected)
    assert index.join(targets) == expected


@pytest.mark.parametrize("order,count,nodes", [
    (12, 9344, 1_891_640), (14, 6144, 17_166_500), (16, 20480, 431_947_688),
])
def test_nn_counts_and_nodes_are_pinned(order, count, nodes):
    result = search(SearchSpec("nn", order, mode="count"))
    assert (result.count, result.stats.nodes) == (count, nodes)


@pytest.mark.parametrize("order,count,nodes,sum_pruned", [
    (12, 4096, 2_589_716, 3044), (13, 1792, 17_194_688, 1512),
    (15, 512, 151_600_348, 27_784), (16, 15_872, 237_599_732, 73_300),
])
def test_ns_counts_nodes_and_prunes_are_pinned(order, count, nodes, sum_pruned):
    # the ns flip mask (only the top entry negated) above the oracle's orders
    result = search(SearchSpec("ns", order, mode="count"))
    assert (result.count, result.stats.nodes) == (count, nodes)
    assert result.stats.prunes == {"sum_of_squares": sum_pruned, "case": 0}


@pytest.mark.slow
def test_nn18_count_nodes_and_prunes_are_pinned():
    result = search(SearchSpec("nn", 18, mode="count"))
    assert (result.count, result.stats.nodes) == (15_232, 5_365_187_984)
    assert result.stats.prunes == {"sum_of_squares": 241_544, "case": 0}


@pytest.mark.slow
def test_nn20_count_nodes_and_prunes_are_pinned():
    # the largest order searched without --allow-large; the profile index
    # of length 20 takes about 2 s and 130 MB to build
    result = search(SearchSpec("nn", 20, mode="count"))
    assert (result.count, result.stats.nodes) == (16_896, 71_128_797_632)
    assert result.stats.prunes == {"sum_of_squares": 905_984, "case": 0}


def test_checkpoint_file_round_trip(tmp_path):
    spec = SearchSpec("nn", 4, node_limit=10, cases=(3, 1, 2))
    path = str(tmp_path / "ck.json")
    with pytest.raises(BudgetExhausted) as info:
        search(spec, checkpoint_path=path)
    loaded = load_checkpoint(path)
    assert loaded == info.value.checkpoint and loaded.cases == (3, 1, 2)
    assert loaded.found == len(loaded.solutions) > 0
    text = "\n".join(loaded.solutions)
    assert loaded.solutions_sha256 == hashlib.sha256(text.encode()).hexdigest()
    with open(path, encoding="utf-8") as fh:
        document = json.load(fh)
    assert document.pop("format") == CHECKPOINT_FORMAT
    assert document == {**vars(loaded), "cases": [3, 1, 2]}
    save_checkpoint(loaded, path)
    assert load_checkpoint(path) == loaded
    with pytest.raises(SearchError):
        search(SearchSpec("nn", 6), resume=loaded)


def test_checkpoint_identity_covers_every_counter_changing_spec_field():
    # a SearchSpec field outside the identity is not recorded in a checkpoint,
    # so it must not change what a resumed run counts
    per_run = {"node_limit", "allow_large"}
    spec_fields = {field.name for field in dataclasses.fields(SearchSpec)}
    assert spec_fields == set(search_module._IDENTITY_FIELDS) | per_run
    base = SearchSpec("nn", 4, mode="all", cases=(2,), node_limit=10)
    with pytest.raises(BudgetExhausted) as info:
        search(base)
    checkpoint = info.value.checkpoint
    changed = {"kind": "ns", "order": 6, "mode": "count", "representatives": True, "cases": (3,)}
    assert changed.keys() == set(search_module._IDENTITY_FIELDS)
    for name, value in changed.items():
        with pytest.raises(SearchError, match="does not match"):
            search(dataclasses.replace(base, **{name: value}), resume=checkpoint)
    resumed = search(dataclasses.replace(base, node_limit=None, allow_large=True), resume=checkpoint)
    assert plaintexts(resumed) == plaintexts(search(SearchSpec("nn", 4, cases=(2,))))


@pytest.mark.parametrize("text", [
    TEXT_CHECKPOINT,
    TEXT_CHECKPOINT.replace("frame lex-next", "frame a-next"),
    "",
    "[]",
    json.dumps({"format": "quadseq-search-checkpoint/1"}),
    json.dumps({"format": "quadseq-search-checkpoint/2"}),  # before the solutions' sha256
])
def test_checkpoint_of_another_format_is_refused(tmp_path, text):
    path = tmp_path / "old.ckpt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SearchError, match=f"not a complete {CHECKPOINT_FORMAT} document"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("data,fault", [
    (b"\xff\xfe\x00garbage\n", "invalid start byte at byte 0"),
    # a Latin-1 byte inside an otherwise well-formed document
    (b'{"format": "quadseq-search-checkpoint/3", "kind": "n\xe9"}',
     "invalid continuation byte at byte 52"),
], ids=["garbage", "latin-1"])
def test_checkpoint_that_is_not_utf8_is_refused_naming_the_file_and_byte(tmp_path, data, fault):
    path = tmp_path / "garbage.ckpt"
    path.write_bytes(data)
    with pytest.raises(SearchError, match=re.escape(f"{path} is not UTF-8 text: {fault}")):
        load_checkpoint(str(path))


def _budgeted_checkpoint_file(tmp_path, spec):
    path = str(tmp_path / "run.ckpt")
    with pytest.raises(BudgetExhausted):
        search(spec, checkpoint_path=path)
    return path


@pytest.mark.parametrize("spec", [
    SearchSpec("nn", 4, node_limit=25),
    SearchSpec("nn", 6, mode="first", cases=(3, 4), node_limit=40),  # case 3 is empty
    SearchSpec("nn", 4, mode="count", node_limit=25),
], ids=lambda spec: spec.mode)
def test_truncated_checkpoint_is_refused_at_every_byte(tmp_path, spec):
    path = _budgeted_checkpoint_file(tmp_path, spec)
    with open(path, "rb") as fh:
        data = fh.read()
    assert load_checkpoint(path).nodes > 0
    cut = str(tmp_path / "cut.ckpt")
    for size in range(len(data)):
        with open(cut, "wb") as fh:
            fh.write(data[:size])
        with pytest.raises(SearchError):
            load_checkpoint(cut)


def _rewritten(path, **changes):
    """The checkpoint document at `path` with top-level fields changed
    (None deletes one), written back."""
    with open(path, encoding="utf-8") as fh:
        document = json.load(fh)
    for name, value in changes.items():
        if value is None:
            del document[name]
        else:
            document[name] = value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
    return path


def _refused_from_file_and_from_memory(tmp_path, spec, damage, message):
    """Damage the checkpoint of a budgeted run of `spec` (`damage` maps it to
    the fields to change) and resume the run from it twice, through the file
    and from the Checkpoint object: both must be refused alike."""
    path = str(tmp_path / "run.ckpt")
    with pytest.raises(BudgetExhausted) as info:
        search(spec, checkpoint_path=path)
    changes = damage(info.value.checkpoint)
    in_memory = dataclasses.replace(info.value.checkpoint, **changes)
    for resume in (lambda: load_checkpoint(_rewritten(path, **changes)), lambda: in_memory):
        with pytest.raises(SearchError, match=message):
            search(dataclasses.replace(spec, node_limit=None), resume=resume())


def test_count_mode_checkpoint_holding_solutions_is_refused(tmp_path, solutions):
    # a count run writes no solutions; with 5 added, nn 8 used to resume to
    # count 640 after parsing and verifying solutions it then dropped
    added = [q.plaintext() for q in solutions("nn", 8)[:5]]
    _refused_from_file_and_from_memory(
        tmp_path, SearchSpec("nn", 8, mode="count", node_limit=6000),
        lambda ck: {"found": ck.found + 5, "solutions": ck.solutions + added},
        r"damaged checkpoint: found \d+ but 5 solutions in count mode")


def test_torn_checkpoint_is_rejected(tmp_path):
    # a checkpoint that lost a solution must not resume to a run that counts
    # it but no longer returns it
    def torn(checkpoint):
        assert len(checkpoint.solutions) > 3
        return {"solutions": checkpoint.solutions[:-1]}

    _refused_from_file_and_from_memory(
        tmp_path, SearchSpec("nn", 8, node_limit=6000), torn, "damaged checkpoint")


@pytest.mark.parametrize("position", [0, 200, -1])
def test_checkpoint_with_a_consistent_deletion_is_refused(tmp_path, position):
    # a solution removed and `found` lowered to match passes every other
    # check; nn 8 used to resume to 639 of its 640 solutions
    def deleted(checkpoint):
        assert len(checkpoint.solutions) > 200
        kept = list(checkpoint.solutions)
        del kept[position]
        return {"found": checkpoint.found - 1, "solutions": kept}

    _refused_from_file_and_from_memory(
        tmp_path, SearchSpec("nn", 8, node_limit=6000), deleted,
        "damaged checkpoint: its solutions do not match their sha256")


@pytest.mark.parametrize("prunes", [
    {"sum_of_squares": 3, "case": 0, "partial_lag": 0},  # retired with the partial-lag prune
    {"sum_of_squares": 3, "case": 0, "psd": 0},
    {"sum_of_squares": 3},
], ids=["retired", "unknown", "missing"])
def test_checkpoint_with_an_unknown_or_retired_prune_counter_is_refused(tmp_path, prunes):
    _refused_from_file_and_from_memory(
        tmp_path, SearchSpec("nn", 6, node_limit=40), lambda _: {"prunes": prunes},
        "prune counters must be")


@pytest.mark.parametrize("name,value,message", [
    ("order", "6", "wrong type"),
    ("nodes", True, "wrong type"),  # JSON true is not a count
    ("representatives", 0, "wrong type"),
    ("found", 2.0, "wrong type"),
    ("cases", [7, "3"], "wrong type"),
    ("cases", 7, "wrong type"),
    ("prunes", {"sum_of_squares": 3, "case": "0"}, "wrong type"),
    ("prunes", [], "wrong type"),
    ("solutions", "+;+;+;+", "wrong type"),
    ("lex_next", None, "missing or unknown"),
    ("partial_lag", 0, "missing or unknown"),
])
def test_checkpoint_with_a_bad_field_is_refused(tmp_path, name, value, message):
    path = _budgeted_checkpoint_file(tmp_path, SearchSpec("nn", 6, node_limit=40))
    with pytest.raises(SearchError, match=message):
        load_checkpoint(_rewritten(path, **{name: value}))


@pytest.mark.parametrize("bad,message", [
    ("+++++;+++++;++++;++++", "near-normality"),  # not a solution
    ("+++;+--;+-;+-", "order 2, expected 4"),  # a solution, of another order
    ("+++++;+++++;++++", "does not parse: expected four"),  # not a quadruple
    ("+++++;+++++;+x++;++++", "does not parse: bad sequence character 'x'"),
])
def test_checkpoint_with_a_solution_that_fails_verification_is_refused(tmp_path, bad, message):
    # a resumed run returns the checkpoint's solutions as its own
    assert verify_quadruple(parse_quad("+++;+--;+-;+-", "nn"))

    def replaced(checkpoint):
        assert checkpoint.solutions
        return {"solutions": [bad] + checkpoint.solutions[1:]}

    _refused_from_file_and_from_memory(
        tmp_path, SearchSpec("nn", 4, node_limit=25), replaced,
        f"solution {re.escape(bad)} .*{message}")


@pytest.mark.parametrize("mode,name,value,message", [
    ("all", "case_pos", 3, "case_pos 3 is not a pass"),  # the run has one pass
    ("all", "case_pos", -1, "case_pos -1 is not a pass"),
    ("all", "lex_next", 1_000_000, "lex_next 1000000 is not a block boundary"),
    ("all", "lex_next", -90, "lex_next -90 is not a block boundary"),
    ("all", "lex_next", 133, "lex_next 133 is not a block boundary"),  # blocks of 22
    ("all", "nodes", -5, "counters must not be negative"),
    ("count", "found", -1, "counters must not be negative"),
    ("all", "prunes", {"sum_of_squares": -1, "case": 0}, "counters must not be negative"),
])
def test_checkpoint_with_a_position_or_counter_outside_its_run_is_refused(
        tmp_path, mode, name, value, message):
    # each of these used to resume to a wrong result: solutions lost or
    # counted twice, A's scanned twice, or counters off
    _refused_from_file_and_from_memory(
        tmp_path, SearchSpec("nn", 8, mode=mode, node_limit=2000), lambda _: {name: value},
        message)


@pytest.mark.parametrize("damage,message", [
    (lambda ck, _: {"found": ck.found + 7}, "damaged checkpoint: found 551 but 544 solutions"),
    (lambda ck, _: {"prunes": {"sum_of_squares": ck.prunes["sum_of_squares"]}},
     "prune counters must be"),
    (lambda ck, _: {"found": ck.found + 1, "solutions": ck.solutions + ck.solutions[:1]},
     "is repeated"),
    (lambda ck, unscanned: {"found": ck.found + 1, "solutions": ck.solutions + unscanned[-1:]},
     "yet to scan"),
], ids=["found raised", "case counter missing", "solution repeated", "solution unscanned"])
def test_checkpoint_that_resumed_to_a_wrong_result_is_refused(tmp_path, solutions, damage,
                                                               message):
    # nn 8 has 640 solutions; these checkpoints used to resume to count 647,
    # to a KeyError, and twice to 641 solutions of which 640 were distinct
    everything = [q.plaintext() for q in solutions("nn", 8)]
    assert len(everything) == 640

    def damaged(checkpoint):
        assert (checkpoint.found, checkpoint.lex_next) == (544, 396)
        unscanned = [text for text in everything if text not in checkpoint.solutions]
        return damage(checkpoint, unscanned)

    _refused_from_file_and_from_memory(
        tmp_path, SearchSpec("nn", 8, node_limit=6000), damaged, message)


@pytest.mark.parametrize("spec", [
    SearchSpec("nn", 6, node_limit=1),
    SearchSpec("nn", 6, cases=(5, 2), node_limit=1),  # case 4 holds 48 more
    SearchSpec("nn", 6, representatives=True, node_limit=1),
    SearchSpec("nn", 4, node_limit=1),  # two A's, of lex indices 5 and 15, start blocks
], ids=["one pass", "cases", "representatives", "an A at lex_next"])
def test_a_checkpoint_may_hold_only_the_solutions_its_run_has_reached(spec, solutions):
    # at every block boundary, each solution the checkpoint does not hold is
    # one the run has yet to scan, or never scans: adding it is refused
    everything = [q.plaintext() for q in solutions(spec.kind, spec.order)]
    unbudgeted = dataclasses.replace(spec, node_limit=None)
    checkpoint, refused = None, 0
    while True:
        try:
            search(spec, resume=checkpoint)
            break
        except BudgetExhausted as exc:
            checkpoint = exc.checkpoint
        for text in everything:
            if text not in checkpoint.solutions:
                damaged = dataclasses.replace(checkpoint, found=checkpoint.found + 1,
                                              solutions=checkpoint.solutions + [text])
                with pytest.raises(SearchError, match="yet to scan"):
                    search(unbudgeted, resume=damaged)
                refused += 1
    assert refused > len(everything)


@pytest.mark.parametrize("cases", [None, (3, 1, 2)])
def test_first_mode_resumed_from_its_last_checkpoint_reproduces_the_run(tmp_path, monkeypatch,
                                                                         cases):
    # the periodic checkpoint of a first-mode hit block already holds the
    # solution; resuming it used to scan on and count a second one
    monkeypatch.setattr(search_module, "CHECKPOINT_EVERY", 1)
    spec = SearchSpec("nn", 8, mode="first", cases=cases)
    path = str(tmp_path / "run.ckpt")
    full = search(spec, checkpoint_path=path)
    checkpoint = load_checkpoint(path)
    assert checkpoint.found == full.count == 1
    resumed = search(spec, resume=checkpoint)
    assert plaintexts(resumed) == plaintexts(full)
    assert (resumed.count, resumed.stats.nodes) == (full.count, full.stats.nodes)
    assert resumed.stats.prunes == full.stats.prunes


@pytest.mark.parametrize("spec", [SearchSpec("nn", 8), SearchSpec("ns", 6, cases=(3, 1, 2))],
                         ids=["nn 8", "ns 6 cases"])
def test_every_checkpoint_of_a_budgeted_run_resumes_to_the_full_result(tmp_path, spec):
    # a budget of one node stops after every block, so the legs leave a
    # checkpoint at each block boundary, the end of a non-last pass included
    full = search(spec)
    path = str(tmp_path / "run.ckpt")
    checkpoints, checkpoint = [], None
    while True:
        try:
            search(dataclasses.replace(spec, node_limit=1), resume=checkpoint, checkpoint_path=path)
            break
        except BudgetExhausted as exc:
            checkpoint = exc.checkpoint
            checkpoints += [copy.deepcopy(checkpoint), load_checkpoint(path)]
    lex_limit = 1 << (spec.order + 1)
    assert len(checkpoints) > 20
    assert (spec.cases is None) != any(c.lex_next == lex_limit for c in checkpoints)
    for checkpoint in checkpoints:
        resumed = search(spec, resume=checkpoint)
        assert plaintexts(resumed) == plaintexts(full)
        assert (resumed.count, resumed.stats.nodes) == (full.count, full.stats.nodes)
        assert resumed.stats.prunes == full.stats.prunes


def test_resume_from_memory_refuses_a_solution_that_fails_verification():
    # the checkpoint a BudgetExhausted carries is mutable; the resumed run
    # verifies its solutions, so a tampered one is refused, not returned
    with pytest.raises(BudgetExhausted) as info:
        search(SearchSpec("nn", 4, node_limit=25))
    checkpoint = info.value.checkpoint
    checkpoint.solutions[0] = "+++++;+++++;++++;++++"
    with pytest.raises(SearchError, match=r"solution \+{5};\+{5};\+{4};\+{4} fails verification"):
        search(SearchSpec("nn", 4), resume=checkpoint)


def _reference_resume(spec, checkpoint):
    """The per-solution resume check of `checkpoint`'s solutions for the
    unbudgeted `spec`: each solution parsed, verified, checked for a repeat
    and placed one at a time, in order, and the sha256 checked last.
    Returns the refusal text, or None and the raw tuples in checkpoint order."""
    case_of = search_module._case_of(spec.kind, spec.order)
    pass_of = {case: pos for pos, case in enumerate(spec.cases or ())}
    unlisted = 0 if spec.cases is None else len(spec.cases)
    quads = {}
    for text in checkpoint.solutions:
        try:
            quad = split_quad(text, parse_seq)
        except QuadseqError as exc:
            return f"checkpoint solution {text} does not parse: {exc}", None
        try:
            failure = verify_quadruple(parsed_quadruple(*quad, spec.kind)).failure
        except QuadseqError as exc:
            failure = str(exc)
        if failure is None and len(quad[2]) != spec.order:
            failure = f"order {len(quad[2])}, expected {spec.order}"
        if failure is not None:
            return f"checkpoint solution {text} fails verification: {failure}", None
        if quad in quads:
            return f"checkpoint solution {text} is repeated", None
        a = quad[0]
        lex = int("".join("0" if v == 1 else "1" for v in a), 2)
        position = (pass_of.get(case_of[search_module._sums_rep(*map(sum, quad))], unlisted), lex)
        if position >= (checkpoint.case_pos, checkpoint.lex_next) or (
                spec.representatives and not a[0] == a[-1] == 1):
            return f"checkpoint solution {text} lies where the run has yet to scan", None
        quads[quad] = None
    if hashlib.sha256("\n".join(checkpoint.solutions).encode()).hexdigest() != (
            checkpoint.solutions_sha256):
        return "damaged checkpoint: its solutions do not match their sha256", None
    return None, list(quads)


@cache
def _first_leg(spec):
    """The checkpoint of the first leg of the budgeted run `spec`."""
    try:
        search(spec)
    except BudgetExhausted as exc:
        return exc.checkpoint
    pytest.fail(f"{spec} did not exhaust its budget")


def _resumed_state(spec, checkpoint):
    """The refusal text of resuming `checkpoint` for `spec`, or None and the
    raw tuples the resume returns."""
    passes = list(spec.cases) if spec.cases is not None else [0]
    try:
        _state, quads, _digest = search_module._resume_state(spec, passes, checkpoint)
    except SearchError as exc:
        return str(exc), None
    return None, quads


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([
    SearchSpec("nn", 4, node_limit=25),
    SearchSpec("nn", 6, node_limit=40),
    SearchSpec("nn", 6, cases=(5, 2), node_limit=300),
    SearchSpec("nn", 8, node_limit=6000),
    SearchSpec("nn", 8, cases=(3, 1, 2), node_limit=6000),
    SearchSpec("nn", 8, representatives=True, node_limit=600),
    SearchSpec("nn", 10, node_limit=20_000),
    SearchSpec("ns", 8, node_limit=3000),
]), st.data())
def test_a_checkpoint_with_a_flipped_sign_is_decided_as_the_per_solution_check_decides(
        spec, data):
    # the array passes of _resume_state must accept and refuse exactly what
    # the per-solution loop does, with its words, also when a solution has
    # whitespace inside
    checkpoint = _first_leg(spec)
    texts = list(checkpoint.solutions)
    assert texts
    i = data.draw(st.integers(0, len(texts) - 1), label="solution")
    j = data.draw(st.sampled_from([j for j, ch in enumerate(texts[i]) if ch in "+-"]),
                  label="entry")
    texts[i] = texts[i][:j] + {"+": "-", "-": "+"}[texts[i][j]] + texts[i][j + 1 :]
    if data.draw(st.booleans(), label="whitespace inside a solution"):
        k = data.draw(st.integers(0, len(texts) - 1), label="spaced solution")
        space = data.draw(st.sampled_from([" ", "\t", "\u3000"]), label="whitespace")
        texts[k] = texts[k][:1] + space + texts[k][1:]
    digest = checkpoint.solutions_sha256
    if data.draw(st.booleans(), label="sha256 recomputed"):
        digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    damaged = dataclasses.replace(checkpoint, solutions=texts, solutions_sha256=digest)
    unbudgeted = dataclasses.replace(spec, node_limit=None)
    refusal, quads = _reference_resume(unbudgeted, damaged)
    assert refusal is not None or digest != checkpoint.solutions_sha256
    got_refusal, got_quads = _resumed_state(unbudgeted, damaged)
    assert got_refusal == refusal
    if refusal is None:  # in plaintext order
        assert got_quads == sorted(quads, reverse=True)


@pytest.mark.parametrize("spec", [
    SearchSpec("nn", 4, node_limit=25),
    SearchSpec("nn", 8, cases=(3, 1, 2), node_limit=6000),
    SearchSpec("nn", 8, representatives=True, node_limit=600),
], ids=["nn 4", "nn 8 cases", "nn 8 representatives"])
def test_an_accepted_checkpoint_resumes_to_the_reference_tuples_in_plaintext_order(spec):
    checkpoint = _first_leg(spec)
    unbudgeted = dataclasses.replace(spec, node_limit=None)
    refusal, quads = _reference_resume(unbudgeted, checkpoint)
    assert refusal is None and quads
    assert _resumed_state(unbudgeted, checkpoint) == (None, sorted(quads, reverse=True))


@pytest.mark.parametrize("length", [0, 1, 13, 64])
def test_shared_pairs_are_the_distinct_pairs_in_plaintext_order(length):
    # a sequence of up to 64 entries is keyed by one uint64 word: an X's key
    # is the lex index the scan gives it
    rng = random.Random(length)
    seqs = [tuple(rng.choice((1, -1)) for _ in range(length)) for _ in range(5)]
    rows = [(rng.choice(seqs), rng.choice(seqs)) for _ in range(40)]
    x, y = (np.array([row[i] for row in rows], np.int8).reshape(len(rows), length) for i in (0, 1))
    pairs, numbers, keys = search_module._shared_pairs(x, y)
    assert pairs == sorted(set(rows), reverse=True)
    assert [pairs[i] for i in numbers.tolist()] == rows
    assert keys.tolist() == [int("0" + "".join("0" if v == 1 else "1" for v in a), 2)
                             for a, _b in pairs]
    if 1 < length <= 13:  # the scan's rows of those lex indices are the X's
        (a_bits, *_rest), lex, _tallies = search_module._scan_block(
            SearchSpec("nn", length - 1), np.zeros((length + 1,) * 2, np.int8),
            (0, 1 << length))
        assert (lex[keys] == keys).all()
        assert seqcore.bit_rows(a_bits[keys], length)[:, ::-1].tolist() == [
            list(a) for a, _b in pairs]
    distinct = {seq for pair in pairs for seq in pair}
    assert len({id(seq) for pair in pairs for seq in pair}) == len(distinct)


def test_a_resume_works_out_each_distinct_pair_once(tmp_path, monkeypatch):
    # resuming nn 12's leg checkpoint (5,024 solutions over 102 (A, B) and
    # 1,296 (C, D) pairs) reads each verdict memo once per distinct pair and
    # computes no pair's lag sums twice
    path = str(tmp_path / "run12.ckpt")
    spec = SearchSpec("nn", 12, node_limit=1_000_000)
    with pytest.raises(BudgetExhausted):
        search(spec, checkpoint_path=path)
    checkpoint = load_checkpoint(path)
    seqcore._long_pair.cache_clear()
    seqcore._negated_lags.cache_clear()
    calls = collections.Counter()

    def counted(name):
        inner = getattr(seqcore, name)

        def call(*args):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(seqcore, name, call)

    for name in ("_pair_lags", "_long_pair", "_negated_lags", "verify_quadruple"):
        counted(name)
    monkeypatch.setattr(search_module, "verify_quadruple", seqcore.verify_quadruple)
    result = search(dataclasses.replace(spec, node_limit=None), resume=checkpoint)
    monkeypatch.undo()
    quads = search_module._resume_state(SearchSpec("nn", 12), [0], checkpoint)[1]
    assert len(quads) == len(checkpoint.solutions) == 5024
    assert len({q[:2] for q in quads}) == 102 and len({q[2:] for q in quads}) == 1296
    assert calls == {"_pair_lags": 102 + 1296, "_long_pair": 102, "_negated_lags": 1296}
    assert plaintexts(result) == plaintexts(search(SearchSpec("nn", 12)))


def _fault_texts(everything, checkpoint):
    """A solution text with each kind of fault for `checkpoint`, and the
    ending of its refusal."""
    unscanned = [text for text in everything if text not in checkpoint.solutions]
    first = checkpoint.solutions[0]
    failing = {"+": "-", "-": "+"}[first[0]] + first[1:]
    return {
        "unparsable": ("+++;+++;+x;++", "does not parse: bad sequence character 'x'"),
        "failing": (failing, "fails verification: "
                    + verify_quadruple(parse_quad(failing, "nn")).failure),
        "repeated": (first, "is repeated"),
        "unreached": (unscanned[-1], "lies where the run has yet to scan"),
    }


@pytest.mark.parametrize("first,second", [
    ("unreached", "unparsable"), ("unparsable", "unreached"),
    ("repeated", "failing"), ("failing", "repeated"),
    ("unreached", "repeated"), ("repeated", "unreached"),
])
@pytest.mark.parametrize("at", [(3, 7), (2, 5)])
def test_a_checkpoint_with_two_faults_is_refused_naming_the_earlier(tmp_path, solutions, first,
                                                                    second, at):
    # the refusal names the solution of lowest index with any fault,
    # whichever kinds the two faults are
    spec = SearchSpec("nn", 8, node_limit=6000)
    checkpoint = _first_leg(spec)
    faults = _fault_texts([q.plaintext() for q in solutions("nn", 8)], checkpoint)
    texts = list(checkpoint.solutions)
    for kind, i in zip((first, second), at):
        texts[i] = faults[kind][0]
    text, ending = faults[first]
    _refused_from_file_and_from_memory(
        tmp_path, spec, lambda _: {"solutions": texts},
        "^" + re.escape(f"checkpoint solution {text} {ending}") + "$")


def test_a_solution_with_whitespace_inside_resumes_and_its_variant_repeats(tmp_path):
    # parse_seq ignores whitespace, so such a solution is read by the
    # per-text path and joins the others; a variant of an earlier one with
    # whitespace inside is that solution again
    spec = SearchSpec("nn", 4, node_limit=25)
    checkpoint = _first_leg(spec)
    texts = list(checkpoint.solutions)
    texts[5] = texts[5][:2] + " " + texts[5][2:7] + "\t" + texts[5][7:]
    spaced = dataclasses.replace(checkpoint, solutions=texts, solutions_sha256=hashlib.sha256(
        "\n".join(texts).encode()).hexdigest())
    path = str(tmp_path / "spaced.ckpt")
    save_checkpoint(spaced, path)
    full = plaintexts(search(SearchSpec("nn", 4)))
    for resume in (spaced, load_checkpoint(path)):
        assert plaintexts(search(SearchSpec("nn", 4), resume=resume)) == full
    variant = texts[1][:3] + " " + texts[1][3:]

    def repeated(checkpoint):
        return {"solutions": checkpoint.solutions[:4] + [variant] + checkpoint.solutions[5:]}

    _refused_from_file_and_from_memory(
        tmp_path, spec, repeated, "^" + re.escape(f"checkpoint solution {variant} is repeated") + "$")


@pytest.mark.parametrize("bad,refusal", [
    ("+++++;++++;++++;++++", "fails verification: A and B must have equal length"),
    ("+++++;+++++;++++;+++", "fails verification: C and D must have equal length"),
    ("+++++;+++++;+++;+++", "fails verification: kind nn needs shape (n+1, n), got (5, 3)"),
    ("++++++;++++++;+++++;+++++", "fails verification: near-normality violated at position 2"),
    ("+++++;+++++;++++;++++", "fails verification: near-normality violated at position 2"),
    ("+++0+;+++++;++++;++++", "does not parse: binary entry must be +1 or -1, got 0"),
    ("+++;+--;+-;+-", "fails verification: order 2, expected 4"),
    ("++\uff0b++;+++++;++++;++++", "does not parse: bad sequence character '\uff0b'"),
    ("+++++;+++++;++++;++-\u00e9", "does not parse: bad sequence character '\u00e9'"),
    ("+++++;+++++;+++;+++++", "fails verification: C and D must have equal length"),
    *[(f"+++++;++{space}+++;++++;++++", "fails verification: near-normality violated at position 2")
      for space in (" ", "\t", "\u3000")],
    ("+++++;++ ++;++++;++++", "fails verification: A and B must have equal length"),
])
def test_refusal_of_a_checkpoint_solution_names_it_and_its_fault(tmp_path, bad, refusal):
    # the whole message, from a file and from memory: a solution of the
    # run's shape skips the constructor's checks, any other is refused in
    # the constructor's words.  Whitespace is read as parse_seq reads it, so
    # a space in place of a sign leaves a text of the run's width one entry
    # short
    def replaced(checkpoint):
        assert checkpoint.solutions
        return {"solutions": [bad] + checkpoint.solutions[1:]}

    _refused_from_file_and_from_memory(
        tmp_path, SearchSpec("nn", 4, node_limit=25), replaced,
        "^" + re.escape(f"checkpoint solution {bad} {refusal}") + "$")


# sha256 of the checkpoint files that `quadseq search --kind nn --order 10
# --limit 20000 --checkpoint run.ckpt` and its resumed legs write
NN10_FIRST_LEG_SHA256 = "f569dc16e69dc420663ab65829c7ca8f2dd5d8d7bf37c257579ea514350d08c9"
NN10_LAST_LEG_SHA256 = "b33c4a22ecca63901c21197414fba8e23a0dd433544f9f5cef309c6ec92a384b"


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_checkpoint_bytes_of_a_budgeted_run_are_pinned(tmp_path, workers):
    path = str(tmp_path / "run.ckpt")
    spec = SearchSpec("nn", 10, node_limit=20_000)
    digests, checkpoint = [], None
    while len(digests) < 30:
        try:
            search(spec, workers=workers, resume=checkpoint, checkpoint_path=path)
            break
        except BudgetExhausted:
            with open(path, "rb") as fh:
                digests.append(hashlib.sha256(fh.read()).hexdigest())
            checkpoint = load_checkpoint(path)
    assert len(digests) == 7
    assert (digests[0], digests[-1]) == (NN10_FIRST_LEG_SHA256, NN10_LAST_LEG_SHA256)


# sha256 of the checkpoint file that `quadseq search --kind nn --order 12
# --limit 1000000 --checkpoint run12.ckpt` writes, and of the file after its
# resumed leg: they pin the join's found order on a larger index than nn 10's
NN12_FIRST_LEG_SHA256 = "3d193b38d22cbb84c53d7433242a80b6f66218b8221197bc8392f2dead98e6d7"
NN12_FINAL_SHA256 = "5a5d84fda117fc672c34fac5108d239d2cb4a1d6ca9092c761b276fe462c17db"


def test_checkpoint_bytes_of_a_budgeted_nn12_run_are_pinned(tmp_path):
    path = str(tmp_path / "run12.ckpt")
    spec = SearchSpec("nn", 12, node_limit=1_000_000)
    with pytest.raises(BudgetExhausted) as info:
        search(spec, checkpoint_path=path)
    assert info.value.checkpoint.nodes == 1_007_148
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == NN12_FIRST_LEG_SHA256
    search(spec, resume=load_checkpoint(path), checkpoint_path=path)
    with open(path, "rb") as fh:
        final = fh.read()
    assert len(final) == 514_708
    assert hashlib.sha256(final).hexdigest() == NN12_FINAL_SHA256


def test_each_save_hashes_only_the_solutions_added_since_the_last(tmp_path, monkeypatch):
    # the checkpoint's sha256 runs on across saves, so a run hashes each
    # solution's text once, and every save still holds the sha256 of all
    # its solutions
    real_sha256, hashed, saved = hashlib.sha256, [], []

    class CountingSha256:
        def __init__(self, data=b""):
            self.inner = real_sha256(data)
            hashed.append(len(data))

        def update(self, data):
            self.inner.update(data)
            hashed.append(len(data))

        def hexdigest(self):
            return self.inner.hexdigest()

    monkeypatch.setattr(search_module, "CHECKPOINT_EVERY", 1)
    monkeypatch.setattr(hashlib, "sha256", CountingSha256)
    monkeypatch.setattr(search_module, "_write_checkpoint",
                        lambda checkpoint, _items, _path: saved.append(copy.deepcopy(checkpoint)))
    result = search(SearchSpec("nn", 8), checkpoint_path=str(tmp_path / "run.ckpt"))
    monkeypatch.undo()
    assert len(saved) > 20 and sorted(saved[-1].solutions) == plaintexts(result)
    for checkpoint in saved:
        text = "\n".join(checkpoint.solutions).encode()
        assert checkpoint.solutions_sha256 == hashlib.sha256(text).hexdigest()
    assert sum(hashed) == len(text)


@pytest.mark.parametrize("workers", [1, 2])
def test_every_save_writes_what_json_dumps_writes_of_the_state(workers, tmp_path, monkeypatch):
    # a run encodes its resumed solutions once and each save adds only its
    # new texts, so at every save the file must still be json.dumps of the
    # whole state: in each mode, on a case run and after a resume whose
    # texts hold whitespace that JSON escapes
    path = str(tmp_path / "run.ckpt")
    write, saves = search_module._write_checkpoint, []

    def checked_write(checkpoint, items, path):
        write(checkpoint, items, path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert text == json.dumps({"format": CHECKPOINT_FORMAT, **vars(checkpoint)})
        saves.append(text)

    monkeypatch.setattr(search_module, "CHECKPOINT_EVERY", 1)
    monkeypatch.setattr(search_module, "_write_checkpoint", checked_write)
    for spec in (SearchSpec("nn", 8), SearchSpec("nn", 8, mode="first"),
                 SearchSpec("nn", 8, mode="count"), SearchSpec("nn", 10, cases=(7, 3, 11))):
        saves.clear()
        nodes = search(spec, workers=workers).stats.nodes
        result, legs = _resumed(dataclasses.replace(spec, node_limit=nodes // 4), workers, path)
        assert legs > 1 and len(saves) >= legs
        assert json.loads(saves[-1])["found"] == result.count > 0

    leg = _first_leg(SearchSpec("nn", 8, node_limit=5000))
    texts = [text[:3] + " \t　" + text[3:] if i % 3 == 0 else text
             for i, text in enumerate(leg.solutions)]
    spaced = dataclasses.replace(leg, solutions=texts, solutions_sha256=hashlib.sha256(
        "\n".join(texts).encode()).hexdigest())
    saves.clear()
    result = search(SearchSpec("nn", 8), workers=workers, resume=spaced, checkpoint_path=path)
    assert plaintexts(result) == plaintexts(search(SearchSpec("nn", 8)))
    assert len(saves) > 1 and all(r' \t\u3000' in text for text in saves)


def test_resume_from_memory_refuses_an_unparsable_solution_before_searching():
    with pytest.raises(BudgetExhausted) as info:
        search(SearchSpec("nn", 4, node_limit=25))
    checkpoint = info.value.checkpoint
    checkpoint.solutions[0] = "+++;+--;+-"
    with pytest.raises(SearchError, match="solution [+;-]+ does not parse: expected four"):
        search(SearchSpec("nn", 4), resume=checkpoint)


def test_checkpoint_write_replaces_the_file_in_one_step(tmp_path, monkeypatch):
    path = _budgeted_checkpoint_file(tmp_path, SearchSpec("nn", 6, node_limit=40))
    with open(path, encoding="utf-8") as fh:
        before = fh.read()
    checkpoint = load_checkpoint(path)
    checkpoint.nodes += 1

    def crash(src, dst):
        raise OSError("crash before the rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError):
        save_checkpoint(checkpoint, path)
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == before


@pytest.mark.parametrize("workers", [1, 2])
def test_budgeted_first_mode_returns_lex_least(workers, solutions):
    # neither the solution nor the node count of first mode depends on the
    # worker count or on a budget, large or small
    full = [q.plaintext() for q in solutions("nn", 12)]
    unbudgeted = search(SearchSpec("nn", 12, mode="first"), workers=workers)
    runs = [
        unbudgeted,
        search(SearchSpec("nn", 12, mode="first", node_limit=10**9), workers=workers),
        _resumed(SearchSpec("nn", 12, mode="first", node_limit=20_000), workers)[0],
    ]
    for result in runs:
        assert plaintexts(result) == full[:1]
        assert result.count == 1
        assert result.stats.nodes == unbudgeted.stats.nodes


def test_budget_stops_every_worker_count_at_the_same_block(tmp_path, monkeypatch):
    # a budgeted pool used to scan its whole queue of blocks before raising
    log = tmp_path / "blocks.log"
    scan = search_module._scan_block

    def logged_scan(spec, verdict, bounds):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{bounds[0]}\n")
        return scan(spec, verdict, bounds)

    monkeypatch.setattr(search_module, "_scan_block", logged_scan)
    spec = SearchSpec("nn", 12, node_limit=1000)
    checkpoints = {}
    for workers in (1, 2):
        log.write_text("")
        with pytest.raises(BudgetExhausted) as info:
            search(spec, workers=workers)
        checkpoints[workers] = info.value.checkpoint
        scanned = len(log.read_text().splitlines())
        assert scanned < 92 // 4, workers  # nn 12 has 92 blocks of 90 long sequences
    assert checkpoints[1] == checkpoints[2]
    assert checkpoints[1].nodes < 20_000 and checkpoints[1].lex_next == 90


def test_each_distinct_target_is_joined_once_per_pass(tmp_path, monkeypatch):
    # one memo per pass, in the parent: a pool joins each new target once,
    # where per-worker memos used to join nearly every target in each worker
    order = 10
    (a, _b, _ab, rows), _lex, _tallies = _scan_all(SearchSpec("nn", order))
    targets = set(map(tuple, rows.tolist()))
    assert len(a) > len(targets) > 1
    log = tmp_path / "joins.log"
    join = ProfileIndex.join

    def logged_join(index, rows):
        with open(log, "a", encoding="utf-8") as fh:  # pool threads log too
            fh.writelines(["join\n"] + [f"{tuple(target)}\n" for target in rows.tolist()])
        return join(index, rows)

    monkeypatch.setattr(ProfileIndex, "join", logged_join)
    blocks = -(-(1 << (order + 1)) // math.isqrt(1 << (order + 1)))
    for workers in (1, 2):
        log.write_text("")
        search(SearchSpec("nn", order, mode="count"), workers=workers)
        joined = log.read_text().splitlines()
        calls = joined.count("join")
        rows = [line for line in joined if line != "join"]
        assert sorted(rows) == sorted(map(str, targets)), workers
        # one array per block with new targets, or one chunk per worker
        assert calls <= workers * blocks < len(targets), workers


def _scan_rows(order, batch):
    """A SCAN_ROWS that caps a batch of `order` at one block, three blocks or
    a whole pass."""
    block = search_module._block_size(order)
    return {"one block": block, "three blocks": 3 * block, "whole pass": 1 << (order + 1)}[batch]


@pytest.mark.parametrize("cases", [None, (7, 3, 11)])
def test_a_pass_of_one_block_batches_joins_each_target_once(monkeypatch, cases):
    # with one block a batch, most batches meet targets that an earlier batch
    # of the pass joined: the pass's memo knows them, and each target of a
    # pass is joined exactly once, whichever batch first holds it
    spec = SearchSpec("nn", 10, mode="count", cases=cases)
    monkeypatch.setattr(search_module, "SCAN_ROWS", _scan_rows(spec.order, "one block"))
    scan, index = search_module._scan_block, profile_index(spec.order)
    batches = []  # per batch: its distinct targets, and those it joined

    def logged_scan(spec, verdict, bounds):
        rows, lex, tallies = scan(spec, verdict, bounds)
        batches.append((bounds[0], set(map(tuple, rows[3].tolist())), []))
        return rows, lex, tallies

    def logged_join(targets):
        batches[-1][2].extend(map(tuple, targets.tolist()))
        return index.join(targets)

    monkeypatch.setattr(search_module, "_scan_block", logged_scan)
    passes = list(cases or [0])
    blocks = list(search_module._blocks(spec, passes, 0, 0, logged_join))
    assert len(blocks) == len(batches) == len(passes) * 46  # 2048 A's in blocks of 45
    starts = [i for i, (lo, _targets, _joined) in enumerate(batches) if lo == 0]
    assert len(starts) == len(passes)
    for start, end in zip(starts, starts[1:] + [len(batches)]):
        joined = [target for _lo, _targets, new in batches[start:end] for target in new]
        seen = set().union(*(targets for _lo, targets, _new in batches[start:end]))
        assert sorted(joined) == sorted(seen)  # each of the pass's targets once
        known = set()
        for _lo, targets, new in batches[start:end]:
            assert set(new) == targets - known
            known |= targets
        # the batches past the pass's first that reuse a joined target
        hits = sum(bool(targets - set(new)) for _lo, targets, new in batches[start + 1 : end])
        # case 11 sends no A to the join at nn 10
        assert hits > (end - start) // 2 or not seen and passes[-1] == 11 and start == starts[-1]


def test_a_budgeted_case_run_keeps_found_order_and_ranks_each_pass(monkeypatch):
    # each A's pairs come ranked, and a pass scans its A's in plaintext order,
    # so a pass's groups flatten to sorted solutions across its legs; the
    # checkpoints keep the join's found order, which an unbudgeted run saves
    spec = SearchSpec("nn", 10, cases=(7, 3, 11))
    monkeypatch.setattr(search_module, "CHECKPOINT_EVERY", 1)
    saved = {}
    monkeypatch.setattr(search_module, "_write_checkpoint", lambda checkpoint, _items, _path:
                        saved.setdefault((checkpoint.case_pos, checkpoint.lex_next),
                                         list(checkpoint.solutions)))
    full = search(spec, checkpoint_path="unused")
    assert len(saved) > 90 and len(saved[2, 1 << 11]) == full.count == 576
    assert saved[2, 1 << 11] != sorted(saved[2, 1 << 11])  # found order is not plaintext order
    monkeypatch.undo()

    blocks, passes = search_module._blocks, {}

    def logged_blocks(*args):
        for case_pos, *rest in blocks(*args):
            passes.setdefault(case_pos, []).extend(rest[1])
            yield case_pos, *rest

    monkeypatch.setattr(search_module, "_blocks", logged_blocks)
    budgeted = dataclasses.replace(spec, node_limit=1500)
    checkpoint, legs = None, 0
    while True:
        try:
            result = search(budgeted, resume=checkpoint)
            break
        except BudgetExhausted as exc:
            checkpoint, legs = exc.checkpoint, legs + 1
            assert checkpoint.solutions == saved[checkpoint.case_pos, checkpoint.lex_next]
    assert legs > 20 and plaintexts(result) == plaintexts(full)
    # one group for each (A, B) pair of the solutions, each found in one leg
    assert sum(map(len, passes.values())) == len({q.seqs()[:2] for q in full.solutions}) > 10
    for groups in passes.values():
        flat = [(a, b, c, d) for a, b, _pairs, ranked in groups for c, d in ranked]
        assert flat == search_module._in_plaintext_order(flat)


def _observed(spec, workers, path, monkeypatch):
    """All that runs of `spec` show: the result in all and first mode, each
    BudgetExhausted checkpoint of a budgeted resume loop and its result,
    and the bytes of every checkpoint file it saves at `path`, one per block."""
    saved = []
    write = search_module.write_text_atomic

    def logged_write(path, text):
        write(path, text)
        with open(path, "rb") as fh:
            saved.append(fh.read())

    def seen(result):
        return plaintexts(result), result.count, result.stats.nodes, result.stats.prunes

    full = search(spec, workers=workers)
    first = search(dataclasses.replace(spec, mode="first"), workers=workers)
    monkeypatch.setattr(search_module, "write_text_atomic", logged_write)
    budgeted = dataclasses.replace(spec, node_limit=max(full.stats.nodes // 7, 1))
    checkpoints, checkpoint = [], None
    while True:
        try:
            result = search(budgeted, workers=workers, resume=checkpoint, checkpoint_path=path)
            break
        except BudgetExhausted as exc:
            checkpoint = exc.checkpoint
            checkpoints.append(copy.deepcopy(checkpoint))
    monkeypatch.setattr(search_module, "write_text_atomic", write)
    return seen(full), seen(first), checkpoints, seen(result), saved


@pytest.mark.parametrize("spec,workers", [
    (SearchSpec("nn", 10), 1),
    (SearchSpec("nn", 10), 2),
    (SearchSpec("ns", 10), 1),
    (SearchSpec("nn", 10, cases=(7, 3, 11)), 1),
    (SearchSpec("nn", 10, cases=(7, 3, 11), representatives=True), 1),
    (SearchSpec("ns", 10, cases=(7, 3, 11), representatives=True), 2),
    (SearchSpec("nn", 10, representatives=True), 1),
    (SearchSpec("nn", 0), 1),
    (SearchSpec("ns", 0, cases=(1, 2)), 1),
    (SearchSpec("nn", 0, representatives=True), 1),
], ids=lambda value: value if isinstance(value, int) else
    f"{value.kind}{value.order}{'-cases' * bool(value.cases)}{'-reps' * value.representatives}")
def test_batching_never_changes_results(spec, workers, tmp_path, monkeypatch):
    # a batch of one block is the smallest batch: every cap gives the same
    # solutions, counters, first-mode result and checkpoints, byte for byte
    monkeypatch.setattr(search_module, "CHECKPOINT_EVERY", 1)
    scan = search_module._scan_block
    scans = []

    def counted_scan(spec, verdict, bounds):
        scans.append(bounds)
        return scan(spec, verdict, bounds)

    monkeypatch.setattr(search_module, "_scan_block", counted_scan)
    observed, scan_calls = {}, {}
    for batch in ("one block", "three blocks", "whole pass"):
        monkeypatch.setattr(search_module, "SCAN_ROWS", _scan_rows(spec.order, batch))
        scans.clear()
        observed[batch] = _observed(spec, workers, str(tmp_path / "run.ckpt"), monkeypatch)
        scan_calls[batch] = len(scans)
    full, _first, checkpoints, resumed, saved = observed["one block"]
    assert checkpoints and saved and resumed == full
    assert observed["three blocks"] == observed["one block"]
    assert observed["whole pass"] == observed["one block"]
    if spec.order:  # order 0 has two blocks a pass, each its own batch
        assert scan_calls["one block"] > scan_calls["three blocks"] > scan_calls["whole pass"]


@pytest.mark.parametrize("kind", ["nn", "ns"])
@pytest.mark.parametrize("representatives", [False, True])
def test_a_scan_of_several_blocks_is_its_blocks_scans_in_turn(kind, representatives):
    # order 0, whose free B doubles each A, is outside the per-A reference above
    for order in (0, 1, 2, 5, 10):
        spec = SearchSpec(kind, order, representatives=representatives)
        lex_limit = 1 << (order + 1)
        block = search_module._block_size(order)
        verdict = search_module._pass_verdicts(spec, 0)
        rows, lex, tallies = search_module._scan_block(spec, verdict, (0, lex_limit))
        parts = [search_module._scan_block(spec, verdict, (lo, min(lo + block, lex_limit)))
                 for lo in range(0, lex_limit, block)]
        blocks = zip(*[(*part_rows, part_lex, part_tallies)
                       for part_rows, part_lex, part_tallies in parts])
        for got, want in zip([*rows, lex, tallies], blocks, strict=True):
            assert np.array_equal(got, np.concatenate(want)), order


def test_batches_start_at_one_block_and_double_up_to_the_cap(tmp_path, monkeypatch):
    # nn 12 has 92 blocks of 90 long sequences, the last one of 2
    order, block, lex_limit = 12, 90, 1 << 13
    assert search_module._block_size(order) == block
    scan = search_module._scan_block
    scans = []

    def logged_scan(spec, verdict, bounds):
        scans.append(bounds)
        return scan(spec, verdict, bounds)

    def batch_sizes(start=0):  # in blocks, of the scans from lex index `start` on
        # each batch starts where the one before ended, or at 0 in the next pass
        ends = [start] + [hi % lex_limit for _lo, hi in scans[:-1]]
        assert [lo for lo, _hi in scans] == ends
        return [-(-(hi - lo) // block) for lo, hi in scans]

    monkeypatch.setattr(search_module, "_scan_block", logged_scan)
    # the default cap is a whole pass at nn 12; a cap of 10 blocks stops the doubling
    for scan_rows, sizes in ((search_module.SCAN_ROWS, [1, 2, 4, 8, 16, 32, 29]),
                             (10 * block + 89, [1, 2, 4, 8] + [10] * 7 + [7])):
        monkeypatch.setattr(search_module, "SCAN_ROWS", scan_rows)
        scans.clear()
        search(SearchSpec("nn", order, mode="count"))
        assert batch_sizes() == sizes and scans[-1][1] == lex_limit
        # each case pass starts again at one block
        scans.clear()
        search(SearchSpec("nn", order, mode="count", cases=(1, 4)))
        assert batch_sizes() == sizes + sizes

    # a resumed leg restarts at one block, from its checkpoint's block
    monkeypatch.undo()
    monkeypatch.setattr(search_module, "_scan_block", logged_scan)
    spec = SearchSpec("nn", order, node_limit=150_000)
    checkpoint, legs, done = None, 0, False
    while not done:
        start = checkpoint.lex_next if checkpoint else 0
        scans.clear()
        try:
            search(spec, resume=checkpoint)
            done = True
        except BudgetExhausted as exc:
            checkpoint = exc.checkpoint
            assert start < checkpoint.lex_next <= scans[-1][1]  # stopped in its last batch
        legs += 1
        sizes = batch_sizes(start)
        assert sizes[0] == 1 and sizes[:-1] == [1 << i for i in range(len(sizes) - 1)]
    assert legs > 2

    # first mode whose hit is in block k of its leg scans at most 2k blocks
    hits = 0
    for start_block in (0, 5, 20, 40, 60):
        start = start_block * block
        resume = Checkpoint("nn", order, "first", False, None, 0, start, 0,
                            {"sum_of_squares": 0, "case": 0}, 0, [],
                            hashlib.sha256(b"").hexdigest())
        scans.clear()
        result = search(SearchSpec("nn", order, mode="first"), resume=resume)
        if not result.count:
            continue
        hits += 1
        lex = int(seqcore.seq_str(result.solutions[0].a).translate(str.maketrans("+-", "01")), 2)
        k = lex // block - start_block + 1
        assert sum(batch_sizes(start)) <= 2 * k, start_block
    assert hits >= 3

    # a 2-worker run makes at most one join call per worker and batch
    log = tmp_path / "joins.log"
    join = ProfileIndex.join

    def logged_join(index, rows):
        with open(log, "a", encoding="utf-8") as fh:  # pool threads log too
            fh.write("join\n")
        return join(index, rows)

    monkeypatch.setattr(ProfileIndex, "join", logged_join)
    log.write_text("")
    scans.clear()
    search(SearchSpec("nn", order, mode="count"), workers=2)
    calls = log.read_text().count("join")
    assert 0 < calls <= 2 * len(scans) == 2 * 7


def test_orbit_contains_input_and_preserves_membership(solutions):
    quad = solutions("nn", 4)[0]
    orbit = nn_orbit(quad)
    assert quad in orbit
    members = {q.plaintext() for q in solutions("nn", 4)}
    assert {q.plaintext() for q in orbit} <= members


def test_orbits_partition(solutions):
    sols = solutions("nn", 2)
    orbits = {}
    for quad in sols:
        orbits[quad.plaintext()] = frozenset(q.plaintext() for q in nn_orbit(quad))
    distinct = set(orbits.values())
    for first, second in itertools.combinations(distinct, 2):
        assert not (first & second)
    assert set().union(*distinct) == {q.plaintext() for q in sols}


def test_orbit_rejects_non_members():
    refusals = (
        ("+++;+--;++;++", "nn", "fails verification"),
        # the group keeps only the near-normal pattern: the ns solution's
        # orbit holds +++;++-;++;++ and the bs quadruple's ---;++-;--;++,
        # which fail verification
        ("+++;++-;+-;+-", "ns", "near-normal quadruples, not ns"),
        ("+-+;-++;++;++", "bs", "near-normal quadruples, not bs"),
        ("+0;00;0+;00", "ts", "near-normal quadruples, not ts"),
    )
    for text, kind, match in refusals:
        quad = parse_quad(text, kind)
        assert verify_quadruple(quad).passed == (kind != "nn")
        for refuses in (nn_orbit, canonicalize, lambda q: equivalence_classes([q])):
            with pytest.raises(SearchError, match=match):
                refuses(quad)


def test_canonicalize_idempotent_and_orbit_constant(solutions):
    quad = solutions("nn", 4)[-1]
    canon = canonicalize(quad)
    assert canonicalize(canon) == canon
    for member in nn_orbit(quad):
        assert canonicalize(member) == canon


def test_classes_of_different_orders_merge_in_plaintext_order(solutions):
    orders = range(0, 7)
    merged = [q for order in orders for q in equivalence_classes(solutions("nn", order))]
    assert len({q.n for q in merged}) > 1
    quads = [q for order in orders for q in solutions("nn", order)]
    assert equivalence_classes(quads) == sorted(merged, key=SeqQuadruple.plaintext)


def test_single_class_at_order_two(solutions):
    assert len(equivalence_classes(solutions("nn", 2))) == 1


def test_orbit_of_published_row():
    from quadseq.codec import parse_record
    from published import ROW36_RECORD

    quad = parse_record(ROW36_RECORD)
    orbit = nn_orbit(quad)
    assert quad in orbit
    for member in orbit:
        assert verify_quadruple(member).passed
    canon = canonicalize(quad)
    assert canonicalize(canon) == canon
    assert canon in orbit


def _odd_interior(op):
    # op applied to the 1-based odd positions below the top entry
    def move(seq):
        moved = list(seq)
        moved[: len(seq) - 1 : 2] = op(seq[: len(seq) - 1 : 2])
        return tuple(moved)
    return move


# the generators written on the four sequences, the reference for the signed maps
_GENERATORS = {
    "NegateAB": lambda a, b, c, d: (negate(a), negate(b), c, d),
    "NegateC": lambda a, b, c, d: (a, b, negate(c), d),
    "NegateD": lambda a, b, c, d: (a, b, c, negate(d)),
    "SwapCD": lambda a, b, c, d: (a, b, d, c),
    "ReverseC": lambda a, b, c, d: (a, b, reverse(c), d),
    "ReverseD": lambda a, b, c, d: (a, b, c, reverse(d)),
    "AlternateAll": lambda a, b, c, d: (alternate(a), alternate(b), alternate(c), alternate(d)),
    "SwapAB": lambda a, b, c, d: (b, a, c, d),
    "ReverseOddInterior": lambda a, b, c, d: (*map(_odd_interior(reverse), (a, b)), c, d),
    "NegateOddInterior": lambda a, b, c, d: (*map(_odd_interior(negate), (a, b)), c, d),
}


def test_every_generator_preserves_membership(solutions):
    for order in (2, 4, 6):
        members = {q.plaintext() for q in solutions("nn", order)}
        for quad in solutions("nn", order):
            flat = quad.a + quad.b + quad.c + quad.d
            m, n = quad.shape
            maps = search_module._signed_maps(m, n)
            assert [name for name, _source, _sign in maps] == list(_GENERATORS)
            for name, source, sign in maps:
                image = tuple(s * flat[i] for s, i in zip(sign, source))
                seqs = (image[:m], image[m : 2 * m], image[2 * m : 2 * m + n], image[2 * m + n :])
                assert seqs == _GENERATORS[name](*quad.seqs()), name
                assert SeqQuadruple(*seqs, "nn").plaintext() in members, name


def _reference_orbit(flat, maps):
    """Closure of the flat tuple `flat` under the signed position maps, one
    generator image at a time: the orbit the group table must reproduce."""
    seen = {flat}
    frontier = [flat]
    while frontier:
        cur = frontier.pop()
        for _name, source, sign in maps:
            image = tuple([s * cur[i] for s, i in zip(sign, source)])
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return seen


def _flats(quads):
    return {q.a + q.b + q.c + q.d for q in quads}


def _row_bytes(rows):
    """The rows of a 2-d int8 array, as a set of bytes."""
    return set(rows.view(np.dtype((np.void, rows.shape[1]))).ravel().tolist())


def test_group_orbits_equal_the_generator_closure(solutions):
    # nn_orbit against the closure once per orbit and for each witness row;
    # the group-table orbit nn_orbit is built from against the closure for
    # every searched solution, as bytes, since nn_orbit on each of the
    # 4,564 solutions of orders 0-10 would take about 20 s
    for order in range(0, 11):
        maps = search_module._signed_maps(order + 1, order)
        source, sign = search_module._group(order + 1, order)
        closed = {}  # row bytes -> the closure holding it, as row bytes
        for quad in solutions("nn", order):
            flat = np.array(quad.a + quad.b + quad.c + quad.d, dtype=np.int8)
            if flat.tobytes() not in closed:
                orbit = _reference_orbit(tuple(flat.tolist()), maps)
                assert _flats(nn_orbit(quad)) == orbit, order
                rows = _row_bytes(np.array(sorted(orbit), dtype=np.int8))
                closed.update(dict.fromkeys(rows, rows))
            assert _row_bytes(flat[source] * sign) == closed[flat.tobytes()], order
    for record in witness_records():
        quad = record.quad
        maps = search_module._signed_maps(*quad.shape)
        assert _flats(nn_orbit(quad)) == _reference_orbit(quad.a + quad.b + quad.c + quad.d, maps)


@pytest.mark.parametrize("shape,size", [((1, 0), 4), ((2, 1), 64), ((3, 2), 512), ((35, 34), 1024)])
def test_group_table_is_a_group_of_membership_preserving_maps(shape, size):
    m, n = shape
    length = 2 * (m + n)
    source, sign = search_module._group(m, n)
    assert source.shape == sign.shape == (size, length)
    assert source.dtype == np.intp and sign.dtype == np.int8
    rows = {source[g].tobytes() + sign[g].tobytes() for g in range(size)}
    assert len(rows) == size
    # the identity is an element
    assert np.arange(length, dtype=np.intp).tobytes() + np.ones(length, np.int8).tobytes() in rows
    # closed: a generator applied after any element gives an element
    for _name, src, sgn in search_module._signed_maps(m, n):
        src, sgn = np.array(src, dtype=np.intp), np.array(sgn, dtype=np.int8)
        for g in range(size):
            assert source[g][src].tobytes() + (sgn * sign[g][src]).tobytes() in rows
    if shape == (35, 34):
        quad = witness_records()[0].quad
    else:
        quad = search(SearchSpec("nn", n)).solutions[0]
    images = np.array(quad.a + quad.b + quad.c + quad.d)[source] * sign
    for row in images.tolist():
        seqs = (row[:m], row[m : 2 * m], row[2 * m : 2 * m + n], row[2 * m + n :])
        assert verify_quadruple(SeqQuadruple(*seqs, "nn"))


# sha256 of the newline-joined sorted plaintexts of each witness orbit, in
# witness_records() order
WITNESS_ORBIT_SHA256 = (
    "b9f67eae6422dc2702d8c42c6f65037af52f63b9d1d0c43fd6739095dce1c5c0",
    "f1b5b5ddbeb38100f8a89299f30f684995aa4d7db51d45e391c776911331b209",
    "fbb83dc6c678596b4b7e03bac7b09b8807f0c9372b8bda58a40fe56c2c653a40",
    "f54486b6068d13b6e9c4e9e90e6bba1e565591168a6bd907e3a2fa40d29f3dd7",
    "cb7362b5fdcb9f6a4e78533c9275bdca99f38a30808b2d2f0240e0804d376105",
    "63aa94910ab7884a731ef005946961df681bbd357a42e9a4c4db87732edc301d",
)


@cache
def _witness_orbit(index):
    """Plaintext-sorted orbit of one witness record."""
    return tuple(sorted(nn_orbit(witness_records()[index].quad), key=SeqQuadruple.plaintext))


def test_witness_orbits_are_pinned():
    for index, expected in enumerate(WITNESS_ORBIT_SHA256):
        texts = [q.plaintext() for q in _witness_orbit(index)]
        assert len(texts) == 512
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(0, len(WITNESS_ORBIT_SHA256) - 1), st.integers(0, 511))
def test_any_witness_orbit_member_has_the_same_orbit_and_canonical_form(index, position):
    orbit = _witness_orbit(index)
    member = orbit[position]
    assert tuple(sorted(nn_orbit(member), key=SeqQuadruple.plaintext)) == orbit
    assert canonicalize(member) == orbit[0]


def test_classes_of_the_shuffled_witness_orbits_are_their_canonical_forms():
    members = [q for index in range(len(WITNESS_ORBIT_SHA256)) for q in _witness_orbit(index)]
    assert len(members) == 3072
    random.Random(5).shuffle(members)
    canonical = [_witness_orbit(index)[0] for index in range(len(WITNESS_ORBIT_SHA256))]
    assert equivalence_classes(members) == sorted(canonical, key=SeqQuadruple.plaintext)


def test_canonical_form_is_the_plaintext_least_orbit_member(solutions):
    least = {}  # member -> plaintext-least member of its orbit
    for order in range(0, 9):
        for quad in solutions("nn", order):
            if quad not in least:
                orbit = nn_orbit(quad)
                least.update(dict.fromkeys(orbit, min(orbit, key=SeqQuadruple.plaintext)))
            assert canonicalize(quad) == least[quad]
        classes = {least[quad] for quad in solutions("nn", order)}
        assert equivalence_classes(solutions("nn", order)) == sorted(classes, key=SeqQuadruple.plaintext)


def test_alternation_flips_lag_signs():
    # the simultaneous alternation scales every lag-j total by (-1)^j, which
    # is why it must touch all four sequences at once
    quad = parse_quad("+-++;+++-;-++;+-+", "bs")
    base = [sum(npaf_values(s)[j] if j < len(s) else 0 for s in quad.seqs())
            for j in range(1, 4)]
    flipped_quad = [alternate(s) for s in quad.seqs()]
    flipped = [sum(npaf_values(s)[j] if j < len(s) else 0 for s in flipped_quad)
               for j in range(1, 4)]
    assert flipped == [(-1) ** j * v for j, v in zip(range(1, 4), base)]


def test_search_stats_populated():
    result = search(SearchSpec("nn", 4))
    assert result.stats.nodes > 0
    assert set(result.stats.prunes) == {"sum_of_squares", "case"}
    assert result.stats.elapsed >= 0.0


def _hold_pool_chunks_for_the_caller(monkeypatch):
    """Hold each pool thread's chunk until the caller starts on its own, which
    it does once every chunk of the batch is handed out.  So no pool thread is
    idle while chunks are handed out, and a batch of k chunks runs on k
    threads however the host schedules them."""
    caller, join, pool_join = threading.get_ident(), ProfileIndex.join, search_module._JoinPool.join
    handed_out = threading.Event()

    def batch(pool, targets):
        handed_out.clear()
        return pool_join(pool, targets)

    def held(index, rows):
        if threading.get_ident() == caller:
            handed_out.set()
        else:
            handed_out.wait(60)
        return join(index, rows)

    monkeypatch.setattr(search_module._JoinPool, "join", batch)
    monkeypatch.setattr(ProfileIndex, "join", held)


def test_pool_threads_share_the_callers_profile_index(monkeypatch):
    # the caller builds the index, once, and joins on `workers` threads with it
    _hold_pool_chunks_for_the_caller(monkeypatch)
    events = []

    def logged(event, method):
        def wrapper(index, *args):
            events.append((event, threading.get_ident(), id(index)))
            return method(index, *args)
        return wrapper

    monkeypatch.setattr(ProfileIndex, "__init__", logged("build", ProfileIndex.__init__))
    monkeypatch.setattr(ProfileIndex, "join", logged("join", ProfileIndex.join))
    for workers in (2, 3):
        events.clear()
        profile_index.cache_clear()
        search(SearchSpec("nn", 6), workers=workers)
        info = profile_index.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        assert [thread for event, thread, _index in events if event == "build"] == [
            threading.get_ident()]
        assert len({thread for event, thread, _index in events if event == "join"}) == workers
        assert len({index for _event, _thread, index in events}) == 1


def test_a_pool_starts_at_most_the_thread_pool_cap(monkeypatch):
    # --workers beyond the cap joins on the caller and at most
    # MAX_POOL_THREADS pool threads, with the result of one worker
    join, start = ProfileIndex.join, threading.Thread.start
    joined, started = set(), []

    def logged_join(index, rows):
        joined.add(threading.get_ident())
        return join(index, rows)

    def logged_start(thread):
        started.append(thread.name)
        return start(thread)

    monkeypatch.setattr(ProfileIndex, "join", logged_join)
    monkeypatch.setattr(threading.Thread, "start", logged_start)
    result = search(SearchSpec("nn", 10), workers=search_module.MAX_POOL_THREADS + 3)
    monkeypatch.undo()
    assert 1 < len(joined) <= search_module.MAX_POOL_THREADS + 1
    assert len(started) <= search_module.MAX_POOL_THREADS
    assert plaintexts(result) == plaintexts(search(SearchSpec("nn", 10)))


def test_a_profile_table_numpy_cannot_shape_is_out_of_memory():
    # from length 58 on, numpy refuses the 2^length-row lag table with a
    # ValueError before it allocates anything
    with pytest.raises(MemoryError, match=r"^no table of 2\^63 profiles: "):
        ProfileIndex(63)


@contextlib.contextmanager
def _within(seconds):
    """Raise TimeoutError in the block once `seconds` have passed, so that a
    pool that waits on a chunk for ever fails the test instead of hanging it."""
    def expire(_signum, _frame):
        raise TimeoutError(f"not done within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_refused_checkpoint_starts_no_join_thread(tmp_path, monkeypatch):
    # the pool starts only once the checkpoint is accepted, and the refusal
    # keeps its text
    path = str(tmp_path / "run.ckpt")
    spec = SearchSpec("nn", 8, node_limit=6000)
    with pytest.raises(BudgetExhausted) as info:
        search(spec, checkpoint_path=path)
    checkpoint = info.value.checkpoint
    started = []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread.name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    _hold_pool_chunks_for_the_caller(monkeypatch)
    unbudgeted = dataclasses.replace(spec, node_limit=None)
    damaged = dataclasses.replace(checkpoint, lex_next=checkpoint.lex_next + 1)
    for workers in (2, 3):
        with pytest.raises(SearchError, match=f"^checkpoint lex_next {damaged.lex_next} "
                                              "is not a block boundary$"):
            search(unbudgeted, workers=workers, resume=damaged)
        assert started == []
        search(unbudgeted, workers=workers, resume=checkpoint)  # an accepted one starts the pool
        assert len(started) == workers - 1
        started.clear()


def test_a_failed_join_thread_raises_its_own_error_and_no_run_leaves_a_thread(
        tmp_path, monkeypatch):
    caller, join = threading.get_ident(), ProfileIndex.join
    before = set(threading.enumerate())

    def failing(index, rows):
        raise ValueError("injected")

    def failing_in_a_pool_thread(index, rows):
        if threading.get_ident() != caller:
            failing(index, rows)
        return join(index, rows)

    def interrupted_in_the_caller(index, rows):
        if threading.get_ident() == caller:
            raise KeyboardInterrupt
        return join(index, rows)

    # a pool thread's exception reaches the caller as it is, as on one worker
    monkeypatch.setattr(ProfileIndex, "join", failing)
    with pytest.raises(ValueError, match="^injected$"):
        search(SearchSpec("nn", 10), workers=1)
    for stand_in, error, message in [
        (failing_in_a_pool_thread, ValueError, "^injected$"),
        (interrupted_in_the_caller, KeyboardInterrupt, None),
    ]:
        monkeypatch.setattr(ProfileIndex, "join", stand_in)
        for workers in (2, 3):
            with _within(60), pytest.raises(error, match=message):
                search(SearchSpec("nn", 10), workers=workers)
            assert set(threading.enumerate()) == before, (stand_in.__name__, workers)
    monkeypatch.setattr(ProfileIndex, "join", join)
    with _within(60):
        for workers in (2, 3):
            assert search(SearchSpec("nn", 10), workers=workers).count
            assert set(threading.enumerate()) == before
            with pytest.raises(BudgetExhausted):
                search(SearchSpec("nn", 10, node_limit=20_000), workers=workers,
                       checkpoint_path=str(tmp_path / "run.ckpt"))
            assert set(threading.enumerate()) == before
            assert search(SearchSpec("nn", 10, mode="first"), workers=workers).count == 1
            assert set(threading.enumerate()) == before
