import dataclasses
import functools
import itertools
from math import isqrt
from operator import add

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quadseq import seqcore
from quadseq.codec import parse_record
from quadseq.construct import bs_to_ts
from quadseq.search import SearchSpec, search
from quadseq.seqcore import (
    AlphabetError,
    QuadseqError,
    SeqQuadruple,
    ShapeError,
    VerificationReport,
    alternate,
    int_to_seq,
    negate,
    npaf_values,
    parse_quad,
    parse_seq,
    profile_index,
    reverse,
    row_lags,
    seq_str,
    sum_of_squares_check,
    verify_quadruple,
)

from naive_oracle import npaf_double_sum, quadruple_norm_total
from published import ROW36_RECORD


def all_signs(length):
    return itertools.product((1, -1), repeat=length)


def test_npaf_examples():
    assert npaf_values((1,)) == (1,)
    assert npaf_values((1, 1, 1)) == (3, 2, 1)
    assert npaf_values((1, 1, -1)) == (3, 0, -1)
    assert npaf_values((1, -1, 1)) == (3, -2, 1)


def test_npaf_empty_sequence():
    assert npaf_values(()) == (0,)


def test_npaf_lag_zero_counts_nonzeros():
    assert npaf_values((1, 0, -1, 0, 1))[0] == 3
    assert npaf_values((1, -1, 1, 1))[0] == 4


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
    assert npaf_values((2**40, 2**40)) == (2**81, 2**80)
    # an unguarded int64 correlate wraps 2**81 and 2**80 to 0
    assert npaf_values((2**40, -3, 2**40)) == (2**81 + 9, -6 * 2**40, 2**80)


@pytest.mark.parametrize("length", [1, 2, 73])
def test_npaf_at_the_int64_bound(length):
    # the largest peak whose lag sums all fit in int64, and one more
    peak = isqrt((2**63 - 1) // length)
    for p in (peak, peak + 1):
        for seq in ((p,) * length, (-p,) * length):
            assert npaf_values(seq) == npaf_double_sum(seq)
            assert npaf_values(seq)[0] == length * p * p


@pytest.mark.parametrize("big", [False, True])
def test_npaf_refuses_non_integral_entries(big):
    # below and beyond the int64 bound; int64 conversion used to truncate,
    # so (1.5, -1.9) read as (1, -1)
    scale = 2**40 if big else 1
    for bad in (1.5, -1.9, "1", None, float("inf"), np.float64(0.5)):
        with pytest.raises(AlphabetError):
            npaf_values((scale, bad))
    assert npaf_values((float(scale), np.int64(-3), True)) == npaf_double_sum((scale, -3, 1))


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
    in_bits_order = [int_to_seq(bits, length) for bits in range(1 << length)]
    position = {seq: bits for bits, seq in enumerate(in_bits_order)}
    grouped = []
    for profile, seqs in index.groups.items():
        assert all(npaf_values(seq)[1:] == profile for seq in seqs)
        assert [position[s] for s in seqs] == sorted(position[s] for s in seqs)
        grouped.extend(seqs)
    assert sorted(grouped) == sorted(in_bits_order)
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
    # the squared sums present are exactly the admissible ones
    assert set(index.by_square_sum) == {v * v for v in range(length % 2, length + 1, 2)}
    assert profile_index(length) is index
    # each PSD row is |X(e^{iw})|^2 of its profile's sequences at the samples
    assert index.psd_by_square_sum.keys() == index.by_square_sum.keys()
    on_circle = np.exp(1j * np.linspace(0, np.pi, 4 * length + 1))
    for square, groups in index.by_square_sum.items():
        rows = index.psd_by_square_sum[square]
        assert rows.shape == (len(groups), 4 * length + 1)
        for row, (_profile, seqs) in zip(rows, groups):
            for seq in seqs:
                exact = np.abs(np.polyval(seq, on_circle)) ** 2 if seq else np.zeros(1)
                assert np.abs(row - exact).max() < 1e-9


def _binary_pairs(lengths):
    """Pairs (C, D) of binary tuples of one length drawn from `lengths`."""
    def pair(n):
        seq = st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n).map(tuple)
        return st.tuples(seq, seq)
    return lengths.flatmap(pair)


@settings(max_examples=80, deadline=None)
@given(_binary_pairs(st.integers(2, 16)))
def test_join_of_a_pairs_profile_sum_holds_the_pair(pair):
    # the PSD test never drops a true pair; the index is built up to length
    # 16 here (length 20 takes about 9 s and 720 MB), and the test below
    # covers the PSD arithmetic itself up to length 20
    c, d = pair
    target = tuple(map(add, npaf_values(c)[1:], npaf_values(d)[1:]))
    [(pairs, probes)] = profile_index(len(c)).join(np.array([target], dtype=np.int64))
    assert (c, d) in pairs
    assert probes > 0


@settings(max_examples=200, deadline=None)
@given(_binary_pairs(st.integers(2, 20)))
def test_psd_of_a_pair_stays_within_the_margin_up_to_length_20(pair):
    # the arithmetic of ProfileIndex.join for a true (C, D): R is not
    # negative and PSD_C does not exceed R, both within _PSD_MARGIN
    c, d = pair
    n = len(c)
    cosines = seqcore._psd_cosines(n)
    c_lags, d_lags = npaf_values(c)[1:], npaf_values(d)[1:]
    bound = seqcore._psd(2 * n, tuple(map(add, c_lags, d_lags)), cosines) + seqcore._PSD_MARGIN
    psd_c, psd_d = seqcore._psd(n, [c_lags, d_lags], cosines)
    assert bound.min() >= 0
    assert (psd_c <= bound).all() and (psd_d <= bound).all()
    # the float error is far below the margin
    on_circle = np.exp(1j * np.linspace(0, np.pi, 4 * n + 1))
    assert np.abs(psd_c - np.abs(np.polyval(c, on_circle)) ** 2).max() < seqcore._PSD_MARGIN / 1000


def test_parse_seq_round_trip_and_whitespace():
    assert parse_seq("++-") == (1, 1, -1)
    assert parse_seq(" +\n+- ") == (1, 1, -1)
    assert parse_seq("+0-", ternary=True) == (1, 0, -1)
    assert seq_str((1, 0, -1)) == "+0-"
    with pytest.raises(AlphabetError):
        parse_seq("+0-")  # '0' illegal for binary
    with pytest.raises(AlphabetError):
        parse_seq("+x")


def test_parse_seq_memo_keeps_alphabets_and_refusals_apart():
    assert parse_seq("+0-", ternary=True) == (1, 0, -1)
    with pytest.raises(AlphabetError):
        parse_seq("+0-")
    for _ in range(2):  # a refusal is never cached
        with pytest.raises(AlphabetError):
            parse_seq("+x-")
    assert parse_seq("+ -+") is parse_seq("+ -+")


def test_seq_str_formats_lists_and_ternary_tuples():
    assert seq_str([1, -1, 1]) == "+-+"
    assert seq_str((1, 0, -1, 0)) == "+0-0"
    assert seq_str([0, -1]) == "0-"
    assert seq_str(()) == seq_str([]) == ""
    # the memo answers equal tuples alike, as the plain lookup would
    assert seq_str((1, -1)) == seq_str((True, -1.0)) == "+-"


def test_trusted_quadruple_equals_the_checked_one():
    seqs = ((1, -1, 1), (1, 1, -1), (1, -1), (-1, -1))
    trusted = SeqQuadruple._trusted(*seqs, "nn")
    checked = SeqQuadruple(*seqs, "nn")
    assert trusted == checked and hash(trusted) == hash(checked)
    assert trusted.seqs() == seqs and trusted.shape == (3, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        trusted.a = (1, 1, 1)
    # the public constructor keeps its checks
    with pytest.raises(AlphabetError):
        SeqQuadruple((1, 0, 1), *seqs[1:], "nn")
    with pytest.raises(AlphabetError):
        SeqQuadruple((1, 1.5, 1), *seqs[1:], "nn")


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


def test_memoized_verifier_gives_the_verdicts_of_the_unmemoized_one():
    row = parse_record(ROW36_RECORD)
    quads = [
        row,
        SeqQuadruple(row.a, row.b, (-row.c[0],) + row.c[1:], row.d, row.kind),
        SeqQuadruple((1, 1, 1), (1, 1, -1), (1, 1), (1, 1), "nn"),
        SeqQuadruple((1, -1, 1), (1, 1, -1), (1, 1), (1, 1), "ns"),
        parse_quad("+0;00;0+;00", "ts"),
        parse_quad("++;00;0+;00", "ts"),
    ]
    for m, n in ((1, 0), (2, 1), (3, 2), (2, 2)):
        for seqs in itertools.product(*[list(all_signs(m))] * 2, *[list(all_signs(n))] * 2):
            quads.append(SeqQuadruple(*seqs, "bs"))
    # twice over: the second pass reads every sequence from the memo
    for _ in range(2):
        verdicts = [verify_quadruple(q) for q in quads]
        assert verdicts == [seqcore._verify(q, seqcore._npaf_array) for q in quads]
    assert any(v.passed for v in verdicts) and any(not v.passed for v in verdicts)
    for malformed in (
        SeqQuadruple((1, 1, 1), (1, 1, 1), (1,), (1,), "nn"),
        parse_quad("+0;0-;+;-", "ts"),
    ):
        for verify in (verify_quadruple, lambda q: seqcore._verify(q, seqcore._npaf_array)):
            with pytest.raises(ShapeError):
                verify(malformed)
    # one shared array per sequence, which no caller can change
    cached = seqcore._memo_npaf(row.c)
    assert not cached.flags.writeable
    with pytest.raises(ValueError):
        cached[0] = 0
    # lists and numpy ints verify, and share the entry of the equal plain tuple
    loose = SeqQuadruple(list(row.a), np.array(row.b), list(row.c), np.array(row.d, dtype=np.int8),
                         row.kind)
    assert verify_quadruple(loose).passed
    assert seqcore._memo_npaf(loose.c) is cached


def _reference_verify(q):
    """The per-position loops that seqcore._verify replaced, with lag sums
    from the defining double sum: the verdicts, failure texts and ShapeError
    texts the one verifier must keep."""
    if q.kind == "ts":
        if not (q.m == q.n == len(q.b) == len(q.d)):
            raise ShapeError("T-sequence quadruple needs four sequences of equal length")
        for i in range(q.n):
            nonzero = sum(1 for s in q.seqs() if s[i] != 0)
            if nonzero != 1:
                return VerificationReport(
                    False, f"support at position {i + 1}: {nonzero} nonzero entries, expected 1")
    if q.kind in ("ns", "nn"):
        if q.m != q.n + 1:
            raise ShapeError(f"kind {q.kind} needs shape (n+1, n), got ({q.m}, {q.n})")
        for i in range(q.n):
            want = q.a[i] if (q.kind == "ns" or i % 2 == 0) else -q.a[i]
            if q.b[i] != want:
                label = "normality" if q.kind == "ns" else "near-normality"
                return VerificationReport(False, f"{label} violated at position {i + 1}")
    for j in range(1, max(map(len, q.seqs()))):
        total = sum(npaf_double_sum(s)[j] for s in q.seqs() if j < len(s))
        if total:
            return VerificationReport(False, f"lag {j}: autocorrelation sum = {total}, expected 0")
    return VerificationReport(True)


@functools.cache
def _members():
    """Members of every kind: the published row, searched ns and nn
    quadruples, the same as base quadruples, and their T-sequences."""
    quads = [parse_record(ROW36_RECORD)]
    for kind, order in (("ns", 1), ("ns", 3), ("ns", 5), ("nn", 2), ("nn", 4), ("nn", 6)):
        quads += search(SearchSpec(kind, order)).solutions[:8]
    base = [SeqQuadruple(*q.seqs(), "bs") for q in quads]
    return quads + base + [bs_to_ts(q) for q in base]


@st.composite
def _quadruples(draw):
    """A member or a random quadruple of a random kind, then as it is, with
    one entry changed, verified as another kind, or with one pair one entry
    shorter or longer."""
    if draw(st.booleans()):
        member = draw(st.sampled_from(_members()))
        kind, seqs = member.kind, [list(seq) for seq in member.seqs()]
    else:
        kind = draw(st.sampled_from(("bs", "ns", "nn", "ts")))
        n = draw(st.integers(0, 6))
        m = draw(st.sampled_from((n, n + 1, n + 2)))
        alphabet = (1, 0, -1) if kind == "ts" else (1, -1)
        seqs = [draw(st.lists(st.sampled_from(alphabet), min_size=size, max_size=size))
                for size in (m, m, n, n)]
    alphabet = (1, 0, -1) if kind == "ts" else (1, -1)
    change = draw(st.sampled_from(("none", "entry", "kind", "shape")))
    if change == "entry" and any(seqs):
        seq = draw(st.sampled_from([seq for seq in seqs if seq]))
        i = draw(st.integers(0, len(seq) - 1))
        seq[i] = draw(st.sampled_from([v for v in alphabet if v != seq[i]]))
    elif change == "kind" and kind != "ts":
        kind = draw(st.sampled_from(("bs", "ns", "nn")))
    elif change == "shape":
        pair = seqs[:2] if draw(st.booleans()) else seqs[2:]
        if pair[0] and draw(st.booleans()):
            for seq in pair:
                seq.pop()
        else:
            for seq in pair:
                seq.append(draw(st.sampled_from(alphabet)))
    return SeqQuadruple(*seqs, kind)


def _outcome(verify, q):
    try:
        report = verify(q)
    except ShapeError as exc:
        return "ShapeError", str(exc)
    return report.passed, report.failure


@settings(max_examples=400, deadline=None)
@given(_quadruples())
# the empty and one-entry shapes at each kind's boundary
@example(SeqQuadruple((), (), (), (), "ts"))
@example(SeqQuadruple((1,), (0,), (), (), "ts"))
@example(SeqQuadruple((0,), (0,), (1,), (0,), "ts"))
@example(SeqQuadruple((1,), (-1,), (), (), "nn"))
@example(SeqQuadruple((1,), (1,), (1,), (1,), "ns"))
@example(SeqQuadruple((), (), (1,), (1,), "bs"))
def test_verifier_gives_the_verdicts_and_texts_of_the_per_position_reference(q):
    assert _outcome(verify_quadruple, q) == _outcome(_reference_verify, q)


def test_verifier_matches_the_reference_on_every_single_entry_change():
    # every member of order <= 6 and each quadruple one entry away from it,
    # deterministically: passes and every kind of failure text
    quads = []
    for member in _members():
        if member.n > 13:
            continue
        alphabet = (1, 0, -1) if member.kind == "ts" else (1, -1)
        seqs = member.seqs()
        quads.append(member)
        for s, seq in enumerate(seqs):
            for i, value in enumerate(seq):
                for other in alphabet:
                    if other != value:
                        changed = seq[:i] + (other,) + seq[i + 1 :]
                        quads.append(SeqQuadruple(*seqs[:s], changed, *seqs[s + 1 :], member.kind))
    outcomes = [_outcome(_reference_verify, q) for q in quads]
    assert [_outcome(verify_quadruple, q) for q in quads] == outcomes
    texts = " ".join(failure for passed, failure in outcomes if not passed)
    assert any(passed for passed, _ in outcomes)
    for rule in ("lag", " normality", "near-normality", "support"):
        assert rule in texts, rule


def test_require_passes_quietly_or_raises_the_given_error_with_its_context():
    assert VerificationReport(True).require(QuadseqError, "context") is None

    class Refused(QuadseqError):
        pass

    report = verify_quadruple(SeqQuadruple((1, 1, 1), (1, 1, -1), (1, 1), (1, 1), "nn"))
    with pytest.raises(Refused) as info:
        report.require(Refused, "line 3: record")
    assert str(info.value) == "line 3: record: near-normality violated at position 2"


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 20).flatmap(
    lambda width: st.lists(st.lists(st.sampled_from((1, -1)), min_size=width, max_size=width),
                           min_size=1, max_size=6)))
def test_row_lags_are_the_kernels_lags_of_each_row(rows):
    width = len(rows[0])
    block = np.array(rows, dtype=np.int8)
    for count in range(width):
        lags = row_lags(block, count)
        assert lags.dtype == np.int64 and lags.shape == (len(rows), count)
        for row, got in zip(rows, lags.tolist()):
            assert tuple(got) == npaf_values(tuple(row))[1 : count + 1]


def test_sum_of_squares_check_examples():
    assert sum_of_squares_check(37, 36, (3, -3, 8, 8))
    assert sum_of_squares_check(35, 34, (7, 7, -2, 6))
    assert not sum_of_squares_check(3, 2, (3, 3, 0, 0))


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
