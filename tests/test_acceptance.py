"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 8 is calibration-only by contract: its comparison is printed with
orbit diagnostics and the test fails only if the machinery itself breaks,
not on a count mismatch.
"""

import itertools
import time

import numpy as np
import pytest

from quadseq.catalog import is_yang_number, witness_records
from quadseq.codec import PAIR_AB, PAIR_CD, decode_pair, encode_pair, parse_record
from quadseq.construct import bs_to_ts, golay_pair, golay_to_ns, od_substitute, ts_to_od, verify_od
from quadseq.search import SearchSpec, equivalence_classes, nn_orbit, search
from quadseq.seqcore import (
    SeqQuadruple,
    alternate,
    negate,
    npaf_values,
    reverse,
    seq_str,
    sum_of_squares_check,
    verify_quadruple,
)

from naive_oracle import brute_force_solutions
from published import NN36_A, NN36_B, NN36_C, NN36_D, ROWS

PUBLISHED_SUMS = [(7, 7, -2, 6), (-5, 7, 0, 8), (-5, 3, 10, -2),
                  (11, 3, -2, 2), (1, 1, -6, 10), (3, -3, 8, 8)]
PUBLISHED_CLASS_COUNTS = {2: 1, 4: 2, 6: 2, 8: 3, 10: 8}


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_published_rows_round_trip():
    started = time.perf_counter()
    sums = []
    for n, ab, cd, _expected in ROWS:
        a, b = decode_pair(ab, PAIR_AB, n)
        c, d = decode_pair(cd, PAIR_CD, n)
        assert encode_pair(a, b, PAIR_AB) == ab
        assert encode_pair(c, d, PAIR_CD) == cd
        quad = SeqQuadruple(a, b, c, d, "nn")
        assert verify_quadruple(quad).passed
        sums.append(quad.sums())
    elapsed = time.perf_counter() - started
    ok = sums == PUBLISHED_SUMS and elapsed < 1.0
    report(1, ok, f"6 rows decode/re-encode/verify, sums match ({elapsed:.3f}s)")


def test_criterion_2_decoded_row_matches_plaintext():
    quad = parse_record(f"nn 36 {ROWS[5][1]} {ROWS[5][2]}")
    ok = (
        seq_str(quad.a) == NN36_A
        and seq_str(quad.b) == NN36_B
        and seq_str(quad.c) == NN36_C
        and seq_str(quad.d) == NN36_D
    )
    report(2, ok, "decoded order-36 row equals the printed quadruple character-for-character")


def test_criterion_3_pipeline_to_hadamard_292():
    started = time.perf_counter()
    quad = parse_record(f"nn 36 {ROWS[5][1]} {ROWS[5][2]}")
    tseq = bs_to_ts(quad)
    assert tseq.n == 73 and verify_quadruple(tseq).passed
    design = ts_to_od(tseq)
    assert design.order == 292 and design.signature == (73, 73, 73, 73)
    assert verify_od(design).passed
    h, verdict = od_substitute(design, (1, 1, 1, 1), require_hadamard=True)
    assert verdict.passed
    assert np.array_equal(h @ h.T, 292 * np.eye(292, dtype=np.int64))
    elapsed = time.perf_counter() - started
    ok = elapsed < 60.0
    report(3, ok, f"length-73 T-sequences, order-292 design, Hadamard product exact ({elapsed:.2f}s)")


def test_criterion_4_yang_characterization():
    exceptions = {35, 43, 47, 55, 63, 67, 71}
    mismatches = [
        n for n in range(1, 74, 2) if is_yang_number(n) is not (n not in exceptions)
    ]
    report(4, not mismatches, f"odd n <= 73 characterization exact (mismatches: {mismatches})")


def test_criterion_5_small_order_existence(solutions):
    started = time.perf_counter()
    nonempty = {s: len(solutions("nn", s)) for s in (2, 4, 6, 8, 10)}
    nn_elapsed = time.perf_counter() - started
    assert all(nonempty.values())
    assert nn_elapsed < 300.0

    started = time.perf_counter()
    empty_odd = {s: len(solutions("nn", s)) for s in (3, 5, 7)}
    odd_elapsed = time.perf_counter() - started
    assert not any(empty_odd.values())
    assert odd_elapsed < 60.0

    started = time.perf_counter()
    ns6 = len(solutions("ns", 6))
    ns6_elapsed = time.perf_counter() - started
    assert ns6 == 0
    assert ns6_elapsed < 60.0

    ns_witnessed = {}
    for n in (1, 2, 10):
        if n <= 6:
            ns_witnessed[n] = bool(solutions("ns", n))
        else:
            quad = golay_to_ns(golay_pair(n))
            ns_witnessed[n] = verify_quadruple(quad).passed
    assert all(ns_witnessed.values())
    report(
        5,
        True,
        "nn populated at 2,4,6,8,10 "
        f"({nn_elapsed:.1f}s), empty at 3,5,7 ({odd_elapsed:.1f}s), "
        f"ns empty at 6 ({ns6_elapsed:.1f}s), ns witnessed at 1,2,10",
    )


def test_criterion_6_oracle_equivalence_and_prune_soundness(solutions):
    for order in range(0, 5):
        engine = {q.plaintext() for q in solutions("nn", order)}
        assert engine == brute_force_solutions("nn", order), f"nn order {order}"
    for order in range(0, 6):
        engine = {q.plaintext() for q in solutions("ns", order)}
        assert engine == brute_force_solutions("ns", order), f"ns order {order}"
    report(6, True, "engine, with its sum-of-squares prune, = oracle for nn <= 4 and ns <= 5")


def test_criterion_7_invariant_suites(solutions):
    for length in range(0, 13):
        for seq in itertools.product((1, -1), repeat=length):
            values = npaf_values(seq)
            assert npaf_values(reverse(seq)) == values
            assert npaf_values(negate(seq)) == values
            alt_values = npaf_values(alternate(seq))
            assert all(alt_values[j] == (-1) ** j * values[j] for j in range(len(values)))
            if length:
                assert sum(seq) ** 2 == values[0] + 2 * sum(values[1:])
    checked = 0
    for kind, order in (("nn", 2), ("nn", 4), ("nn", 6), ("ns", 4)):
        for quad in solutions(kind, order):
            assert sum_of_squares_check(quad.m, quad.n, quad.sums())
            checked += 1
    for record in witness_records():
        assert sum_of_squares_check(record.quad.m, record.quad.n, record.sums)
        checked += 1
    report(7, True, f"autocorrelation laws exhaustive to length 12; "
                    f"sums necessity on {checked} verified quadruples")


def test_criterion_8_equivalence_class_calibration(solutions):
    counts = {}
    diagnostics = []
    for s in (2, 4, 6, 8, 10):
        sols = solutions("nn", s)
        classes = equivalence_classes(sols)
        counts[s] = len(classes)
        orbit_sizes = sorted(len(nn_orbit(q)) for q in classes)
        diagnostics.append(
            f"s={s}: solutions={len(sols)} classes={len(classes)} "
            f"expected={PUBLISHED_CLASS_COUNTS[s]} orbit_sizes={orbit_sizes}"
        )
    matches = counts == PUBLISHED_CLASS_COUNTS
    for line in diagnostics:
        print("  " + line)
    # calibration is reported, not asserted fatal; the assertion here only
    # guards the machinery itself (nonzero classes wherever solutions exist)
    assert all(counts.values())
    report(8, True, f"class counts {list(counts.values())} vs published "
                    f"{list(PUBLISHED_CLASS_COUNTS.values())} "
                    f"({'exact match' if matches else 'MISMATCH - see diagnostics'})")
