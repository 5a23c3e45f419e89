import itertools
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadseq.codec import parse_record
from quadseq.seqcore import (
    AlphabetError,
    LagProfile,
    SeqQuadruple,
    ShapeError,
    SumsVector,
    alternate,
    negate,
    npaf,
    npaf_values,
    parse_quad,
    parse_seq,
    profile_index,
    reverse,
    seq_str,
    sequence_sum,
    sum_of_squares_check,
    verify_quadruple,
)

from naive_oracle import npaf_double_sum, quadruple_norm_total
from published import ROW36_RECORD


def all_signs(length):
    return itertools.product((1, -1), repeat=length)


def test_npaf_examples():
    assert npaf((1,)).values == (1,)
    assert npaf((1, 1, 1)).values == (3, 2, 1)
    assert npaf((1, 1, -1)).values == (3, 0, -1)


def test_npaf_empty_sequence():
    profile = npaf(())
    assert profile.values == (0,)
    assert profile.source_len == 0


def test_npaf_lag_zero_counts_nonzeros():
    assert npaf((1, 0, -1, 0, 1))[0] == 3
    assert npaf((1, -1, 1, 1))[0] == 4


_SEQUENCES = st.one_of(
    st.lists(st.sampled_from((1, -1)), max_size=80),
    st.lists(st.sampled_from((1, 0, -1)), max_size=80),
    st.lists(st.integers(-(2**40), 2**40), max_size=80),
)


@settings(deadline=None)
@given(_SEQUENCES)
def test_npaf_kernel_equals_the_double_sum(seq):
    values = npaf_values(tuple(seq))
    assert values == npaf_double_sum(seq)
    assert all(type(v) is int for v in values)


def test_npaf_beyond_int64_is_exact():
    assert npaf((2**40, 2**40)).values == (2**81, 2**80)
    # an unguarded int64 correlate wraps 2**81 and 2**80 to 0
    assert npaf((2**40, -3, 2**40)).values == (2**81 + 9, -6 * 2**40, 2**80)


@pytest.mark.parametrize("length", [1, 2, 73])
def test_npaf_at_the_int64_bound(length):
    # the largest peak whose lag sums all fit in int64, and one more
    peak = isqrt((2**63 - 1) // length)
    for p in (peak, peak + 1):
        for seq in ((p,) * length, (-p,) * length):
            assert npaf_values(seq) == npaf_double_sum(seq)
            assert npaf_values(seq)[0] == length * p * p


def test_lag_profile_indexing():
    profile = npaf((1, -1, 1))
    assert profile[0] == 3
    assert len(profile) == 3
    assert isinstance(profile, LagProfile)


@pytest.mark.parametrize("length", range(0, 13))
def test_npaf_laws_exhaustive_binary(length):
    # reversal and negation invariance, alternation sign law, Parseval at 1
    for seq in all_signs(length):
        values = npaf_values(seq)
        assert npaf_values(reverse(seq)) == values
        assert npaf_values(negate(seq)) == values
        alt_values = npaf_values(alternate(seq))
        assert all(
            alt_values[j] == (-1) ** j * values[j] for j in range(len(values))
        )
        if length:
            total = sum(seq)
            assert total * total == values[0] + 2 * sum(values[1:])
        assert all(abs(values[j]) <= length - j for j in range(1, len(values)))


@pytest.mark.parametrize("length", range(1, 9))
def test_npaf_laws_ternary(length):
    for seq in itertools.product((1, 0, -1), repeat=length):
        values = npaf_values(seq)
        assert values[0] == sum(1 for v in seq if v)
        assert npaf_values(reverse(seq)) == values
        assert npaf_values(negate(seq)) == values
        total = sum(seq)
        assert total * total == values[0] + 2 * sum(values[1:])


@pytest.mark.parametrize("length", [0, 1, 5, 8])
def test_profile_index_groups_in_bits_order(length):
    index = profile_index(length)
    assert index.seqs == [
        tuple(-1 if (bits >> i) & 1 else 1 for i in range(length))
        for bits in range(1 << length)
    ]
    position = {seq: bits for bits, seq in enumerate(index.seqs)}
    grouped = []
    for profile, seqs in index.groups.items():
        assert all(npaf_values(seq)[1:] == profile for seq in seqs)
        assert [position[s] for s in seqs] == sorted(position[s] for s in seqs)
        grouped.extend(seqs)
    assert sorted(grouped) == sorted(index.seqs)
    # first appearance in bits order fixes the order of the groups
    firsts = [position[seqs[0]] for seqs in index.groups.values()]
    assert firsts == sorted(firsts)
    by_square = [
        (square, profile, seqs)
        for square, groups in index.by_square_sum.items() for profile, seqs in groups
    ]
    assert len(by_square) == len(index.groups)
    for square, profile, seqs in by_square:
        assert index.groups[profile] is seqs
        assert all(sum(seq) ** 2 == square for seq in seqs)
    assert profile_index(length) is index


def test_sequence_sum():
    assert sequence_sum((1, -1, 1)) == 1
    assert sequence_sum(()) == 0
    row36 = parse_record(ROW36_RECORD)
    assert sequence_sum(row36.a) == 3


def test_parse_seq_round_trip_and_whitespace():
    assert parse_seq("++-") == (1, 1, -1)
    assert parse_seq(" +\n+- ") == (1, 1, -1)
    assert parse_seq("+0-", ternary=True) == (1, 0, -1)
    assert seq_str((1, 0, -1)) == "+0-"
    with pytest.raises(AlphabetError):
        parse_seq("+0-")  # '0' illegal for binary
    with pytest.raises(AlphabetError):
        parse_seq("+x")


def test_quadruple_construction_checks():
    with pytest.raises(ShapeError):
        SeqQuadruple((1,), (1, 1), (), (), "bs")
    with pytest.raises(AlphabetError):
        SeqQuadruple((1,), (0,), (), (), "bs")
    quad = parse_quad("+0;-0;00;+-", "ts")
    assert quad.shape == (2, 2)
    with pytest.raises(ShapeError):
        parse_quad("++;--", "bs")


@pytest.mark.parametrize("kind,entries,expected", [
    ("bs", [1, -1, 1], (1, -1, 1)),
    ("bs", np.array([1, -1, 1]), (1, -1, 1)),
    ("bs", (np.int64(1), -1, np.int8(1)), (1, -1, 1)),
    ("bs", (True, -1, True), (1, -1, 1)),
    ("ts", [0, False, -1], (0, 0, -1)),
    ("ts", (1.0, 0, -1), (1, 0, -1)),
])
def test_quadruple_entries_become_plain_int_tuples(kind, entries, expected):
    quad = SeqQuadruple(entries, entries, entries, entries, kind)
    for seq in quad.seqs():
        assert seq == expected and type(seq) is tuple
        assert all(type(v) is int for v in seq)


def test_quadruple_keeps_a_checked_int_tuple_as_is():
    seq = (1, -1, 1)
    quad = SeqQuadruple(seq, seq, seq, seq, "nn")
    assert all(s is seq for s in quad.seqs())


@pytest.mark.parametrize("kind,entries", [
    ("bs", (1, 0, -1)),
    ("bs", (1, 2)),
    ("bs", [1, -3]),
    ("bs", np.array([1, 0])),
    ("bs", (1, False)),
    ("ts", (0, 2, -1)),
    ("ts", [np.int64(-2)]),
    ("bs", [1.5, -1.9]),
    ("ts", [0.4, -1.2]),
    ("bs", ["1", "-1"]),
])
def test_quadruple_rejects_entries_outside_the_alphabet(kind, entries):
    with pytest.raises(AlphabetError):
        SeqQuadruple(entries, entries, entries, entries, kind)


def test_verify_trivial_base_quadruple():
    quad = parse_quad("+;+;+;+", "bs")
    assert verify_quadruple(quad).passed


def test_verify_published_row():
    quad = parse_record(ROW36_RECORD)
    report = verify_quadruple(quad)
    assert report.passed and report.failure is None


def test_verify_single_flip_breaks_a_lag():
    quad = parse_record(ROW36_RECORD)
    flipped = SeqQuadruple(
        quad.a, quad.b, (-quad.c[0],) + quad.c[1:], quad.d, quad.kind
    )
    report = verify_quadruple(flipped)
    assert not report.passed
    assert "lag" in report.failure


def test_verify_pattern_failure_is_named():
    quad = SeqQuadruple((1, 1, 1), (1, 1, -1), (1, 1), (1, 1), "nn")
    report = verify_quadruple(quad)
    assert not report.passed
    assert "near-normality" in report.failure and "position 2" in report.failure
    quad = SeqQuadruple((1, -1, 1), (1, 1, -1), (1, 1), (1, 1), "ns")
    report = verify_quadruple(quad)
    assert "normality" in report.failure and "position 2" in report.failure


def test_verify_shape_errors_are_not_verdicts():
    with pytest.raises(ShapeError):
        verify_quadruple(SeqQuadruple((1, 1, 1), (1, 1, 1), (1,), (1,), "nn"))
    with pytest.raises(ShapeError):
        verify_quadruple(parse_quad("+0;0-;+;-", "ts"))


def test_verify_t_sequence_conditions():
    quad = parse_quad("+0;00;0+;00", "ts")
    assert verify_quadruple(quad).passed
    bad_support = parse_quad("++;00;0+;00", "ts")
    report = verify_quadruple(bad_support)
    assert not report.passed
    assert "support at position 2" in report.failure


def test_sum_of_squares_check_examples():
    assert sum_of_squares_check(37, 36, SumsVector(3, -3, 8, 8))
    assert sum_of_squares_check(35, 34, SumsVector(7, 7, -2, 6))
    assert not sum_of_squares_check(3, 2, SumsVector(3, 3, 0, 0))


def test_verifier_agrees_with_polynomial_norm_identity():
    # both lengths <= 4 exhaustively: the verifier's verdict must equal the
    # literal norm identity computed by naive Laurent multiplication
    for m in range(0, 5):
        for n in range(0, 5):
            target = {0: 2 * (m + n)} if m + n else {}
            for a in all_signs(m):
                for b in all_signs(m):
                    for c in all_signs(n):
                        for d in all_signs(n):
                            quad = SeqQuadruple(a, b, c, d, "bs")
                            holds = quadruple_norm_total((a, b, c, d)) == target
                            assert verify_quadruple(quad).passed == holds


def test_base_membership_preserving_transforms():
    # negating or reversing any one sequence, swapping C and D, and the
    # simultaneous alternation all preserve membership (checked exhaustively
    # for both lengths <= 2)
    for m in range(0, 3):
        for n in range(0, 3):
            for seqs in itertools.product(
                all_signs(m), all_signs(m), all_signs(n), all_signs(n)
            ):
                quad = SeqQuadruple(*seqs, "bs")
                if not verify_quadruple(quad):
                    continue
                for idx in range(4):
                    for op in (negate, reverse):
                        changed = list(seqs)
                        changed[idx] = op(changed[idx])
                        assert verify_quadruple(SeqQuadruple(*changed, "bs"))
                swapped = SeqQuadruple(seqs[0], seqs[1], seqs[3], seqs[2], "bs")
                assert verify_quadruple(swapped)
                alternated = SeqQuadruple(*(alternate(s) for s in seqs), "bs")
                assert verify_quadruple(alternated)
