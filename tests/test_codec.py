import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from quadseq.codec import (
    CENTER_TABLE,
    PAIR_AB,
    PAIR_CD,
    QUAD_TABLE,
    CodecError,
    UnencodableError,
    _pair_forms,
    code_length,
    decode_pair,
    decode_quadruple,
    encode_pair,
    encode_quadruple,
    format_record,
    parse_record,
    record_codes,
)
from quadseq.construct import bs_to_ts
from quadseq.seqcore import (
    SeqQuadruple,
    join_quad,
    parse_quad,
    parse_seq,
    seq_str,
    verify_quadruple,
)

from published import NN36_A, NN36_B, NN36_C, NN36_D, ROW36_RECORD, ROWS


def test_digit_table_rederived_from_published_plaintext():
    # fit the order-36 code strings against their decoded plaintext; the fit
    # must be consistent, injective, and pin down all nine quad digits
    ab, cd = ROWS[5][1], ROWS[5][2]
    a, b = parse_seq(NN36_A), parse_seq(NN36_B)
    c, d = parse_seq(NN36_C), parse_seq(NN36_D)
    fit = {}

    def feed(digits, x, y):
        length = len(x)
        for k in range(length // 2):
            quad = ((x[k], y[k]), (x[length - 1 - k], y[length - 1 - k]))
            assert fit.setdefault(digits[k], quad) == quad, "inconsistent fit"

    feed(ab, a, b)
    feed(cd, c, d)
    assert set(fit) == set("012345678"), "all nine digits observed"
    assert len(set(fit.values())) == 9, "fit is injective"
    assert all(QUAD_TABLE[digit] == quad for digit, quad in fit.items())
    # the single observable central digit
    assert CENTER_TABLE[ab[-1]] == (a[18], b[18])


def test_center_digit_extrapolation_validated_by_other_rows():
    # central digits '1' and '2' occur in the order-34 rows; those rows must
    # decode to verifying quadruples with the recorded sums
    centers = {ab[-1] for n, ab, cd, sums in ROWS if n == 34}
    assert {"1", "2"} <= centers
    for n, ab, cd, sums in ROWS:
        x, y = decode_pair(ab, PAIR_AB, n)
        c, d = decode_pair(cd, PAIR_CD, n)
        quad = parse_record(f"nn {n} {ab} {cd}")
        assert verify_quadruple(quad).passed
        assert quad.sums() == sums


def test_decode_published_row_matches_plaintext():
    quad = parse_record(ROW36_RECORD)
    assert seq_str(quad.a) == NN36_A
    assert seq_str(quad.b) == NN36_B
    assert seq_str(quad.c) == NN36_C
    assert seq_str(quad.d) == NN36_D


def test_decode_single_quad():
    assert decode_pair("1", PAIR_CD, 2) == ((1, 1), (1, 1))


def test_encode_published_row():
    quad = parse_record(ROW36_RECORD)
    assert encode_pair(quad.a, quad.b, PAIR_AB) == ROWS[5][1]
    assert encode_pair(quad.c, quad.d, PAIR_CD) == ROWS[5][2]
    assert encode_pair((1, 1), (1, 1), PAIR_CD) == "1"


def test_code_lengths():
    assert code_length(PAIR_AB, 36) == 19
    assert code_length(PAIR_CD, 36) == 18
    assert code_length(PAIR_AB, 34) == 18
    assert code_length(PAIR_CD, 34) == 17


def test_decode_errors():
    with pytest.raises(CodecError):
        decode_pair("9", PAIR_CD, 2)
    with pytest.raises(CodecError):
        decode_pair("11", PAIR_CD, 2)
    with pytest.raises(CodecError):
        decode_pair("14", PAIR_AB, 2)  # central digit must be 0..3
    with pytest.raises(CodecError):
        decode_pair("1", "xy", 2)


def test_unencodable_pair_raises():
    with pytest.raises(UnencodableError):
        encode_pair((1, 1), (-1, 1), PAIR_CD)
    with pytest.raises(CodecError):
        encode_pair((1, 1), (1, 1), PAIR_AB)  # even length cannot be an ab pair


_REFERENCE_QUAD_REVERSE = {v: k for k, v in QUAD_TABLE.items()}
_REFERENCE_CENTER_REVERSE = {v: k for k, v in CENTER_TABLE.items()}


def _reference_encode_pair(x, y, pair_kind):
    """The nested-tuple encoder that the flat digit lookup replaced."""
    x, y = tuple(x), tuple(y)
    if len(x) != len(y):
        raise CodecError("sequences of a pair must have equal length")
    length = len(x)
    if length % 2 != {PAIR_AB: 1, PAIR_CD: 0}[pair_kind]:
        raise CodecError(f"{pair_kind} pairs cannot have length {length}")
    digits = []
    for k in range(length // 2):
        quad = ((x[k], y[k]), (x[length - 1 - k], y[length - 1 - k]))
        digit = _REFERENCE_QUAD_REVERSE.get(quad)
        if digit is None:
            raise UnencodableError(f"column pair {quad} at position {k + 1} has no digit")
        digits.append(digit)
    if length % 2 == 1:
        digits.append(_REFERENCE_CENTER_REVERSE[(x[length // 2], y[length // 2])])
    return "".join(digits)


def _outcome(encode, *args):
    try:
        return encode(*args)
    except CodecError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("pair_kind", [PAIR_AB, PAIR_CD])
def test_encoder_agrees_with_the_nested_tuple_reference(pair_kind):
    for length in range(1, 9):
        seqs = list(itertools.product((1, -1), repeat=length))
        for x, y in itertools.product(seqs, repeat=2):
            want = _outcome(_reference_encode_pair, x, y, pair_kind)
            assert _outcome(encode_pair, x, y, pair_kind) == want, (x, y)


@settings(deadline=None)
@given(st.integers(0, 10), st.integers(-1, 1), st.sampled_from(["nn", "ns", "bs"]), st.data())
def test_record_codes_are_the_codes_encode_quadruple_gives(n, skew, kind, data):
    # skew != 0 gives shapes (n+1+skew, n) that have no codes
    m = max(n + 1 + skew, 0)
    seq = lambda length: tuple(data.draw(st.lists(st.sampled_from((1, -1)),
                                                  min_size=length, max_size=length)))
    quad = SeqQuadruple(seq(m), seq(m), seq(n), seq(n), kind)
    want = _outcome(encode_quadruple, quad)
    assert record_codes(quad) == (want if isinstance(want[0], str) else None)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_every_valid_code_round_trips(n):
    for digits in itertools.product("012345678", repeat=n // 2):
        code = "".join(digits)
        pair = decode_pair(code, PAIR_CD, n)
        assert encode_pair(*pair, PAIR_CD) == code
        for center in "0123":
            ab_code = code + center
            pair = decode_pair(ab_code, PAIR_AB, n)
            assert encode_pair(*pair, PAIR_AB) == ab_code


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_every_encodable_pair_round_trips(n):
    # cd pairs of length n and ab pairs of length n+1
    for x in itertools.product((1, -1), repeat=n):
        for y in itertools.product((1, -1), repeat=n):
            try:
                code = encode_pair(x, y, PAIR_CD)
            except UnencodableError:
                continue
            assert decode_pair(code, PAIR_CD, n) == (x, y)
    for x in itertools.product((1, -1), repeat=n + 1):
        for y in itertools.product((1, -1), repeat=n + 1):
            try:
                code = encode_pair(x, y, PAIR_AB)
            except UnencodableError:
                continue
            assert decode_pair(code, PAIR_AB, n) == (x, y)


# the orders the codec encodes: ab pairs have odd length n+1, cd pairs even n
_ORDERS = st.integers(0, 60).map(lambda k: 2 * k)


@settings(deadline=None)
@given(_ORDERS, st.data())
def test_every_digit_string_round_trips(n, data):
    quads, centers = st.sampled_from(sorted(QUAD_TABLE)), st.sampled_from(sorted(CENTER_TABLE))
    cd = "".join(data.draw(st.lists(quads, min_size=n // 2, max_size=n // 2)))
    ab = "".join(data.draw(st.lists(quads, min_size=n // 2, max_size=n // 2))) + data.draw(centers)
    assert encode_pair(*decode_pair(cd, PAIR_CD, n), PAIR_CD) == cd
    assert encode_pair(*decode_pair(ab, PAIR_AB, n), PAIR_AB) == ab


# column quads ((x_k, y_k), (x_mirror, y_mirror)), mostly encodable ones
_COLUMN_QUADS = st.one_of(
    st.sampled_from(sorted(QUAD_TABLE.values())),
    st.tuples(*[st.tuples(st.sampled_from((1, -1)), st.sampled_from((1, -1)))] * 2),
)


@settings(deadline=None)
@given(_ORDERS, st.sampled_from((PAIR_AB, PAIR_CD)), st.data())
def test_every_encodable_pair_round_trips_at_any_order(n, pair_kind, data):
    length = n + 1 if pair_kind == PAIR_AB else n
    quads = data.draw(st.lists(_COLUMN_QUADS, min_size=length // 2, max_size=length // 2))
    x, y = [0] * length, [0] * length
    for k, ((xk, yk), (xm, ym)) in enumerate(quads):
        x[k], y[k], x[length - 1 - k], y[length - 1 - k] = xk, yk, xm, ym
    if length % 2:
        x[length // 2], y[length // 2] = data.draw(st.sampled_from(sorted(CENTER_TABLE.values())))
    x, y = tuple(x), tuple(y)
    if all(quad in QUAD_TABLE.values() for quad in quads):
        assert decode_pair(encode_pair(x, y, pair_kind), pair_kind, n) == (x, y)
    else:
        with pytest.raises(UnencodableError):
            encode_pair(x, y, pair_kind)


def test_parity_structure_of_near_normal_codes():
    # in decoded long pairs, position i <= n satisfies x_i = (-1)^(i-1) y_i;
    # consequently odd-position quads use {1,3,6,8}, even ones {2,4,5,7},
    # and every published row opens with the boundary quad '0'
    for n, ab, cd, _sums in ROWS:
        x, y = decode_pair(ab, PAIR_AB, n)
        assert all(x[i] == (-1) ** i * y[i] for i in range(n))
        assert ab[0] == "0"
        for k in range(1, (n + 1) // 2):
            expected = "1368" if k % 2 == 0 else "2457"
            assert ab[k] in expected


def test_parse_record_variants():
    quad = parse_record("NN 34 058214353712141461 11868756376664254")
    assert quad.sums() == (11, 3, -2, 2)
    small = parse_record("NN 2 01 1")
    assert small.shape == (3, 2)
    assert small.a == (1, 1, 1) and small.b == (1, -1, -1)
    assert small.c == (1, 1) and small.d == (1, 1)
    plain = parse_record("bs +;+;+;+")
    assert plain.kind == "bs" and plain.shape == (1, 1)
    tern = parse_record("ts +0;00;0+;00")
    assert tern.kind == "ts"
    with pytest.raises(CodecError):
        parse_record("xx 2 01 1")
    with pytest.raises(CodecError):
        parse_record("nn 2 01")
    with pytest.raises(CodecError):
        parse_record("")


@pytest.mark.parametrize("order", ["02", "+2", "0_2", "\u0662"])
def test_only_the_written_order_field_is_read(order):
    # format_record writes str(n); int() would also read these spellings
    assert parse_record("nn 2 01 1").n == 2
    with pytest.raises(CodecError, match=re.escape(f"bad order field {order!r}")):
        parse_record(f"nn {order} 01 1")


def test_parse_record_does_not_verify():
    # this little record decodes cleanly but fails the defining equations;
    # parsing must still succeed, verification being a separate step
    quad = parse_record("NN 2 01 1")
    assert not verify_quadruple(quad).passed


def test_format_record_round_trips():
    quad = parse_record(ROW36_RECORD)
    assert format_record(quad) == ROW36_RECORD
    ab, cd = encode_quadruple(quad)
    assert (ab, cd) == (ROWS[5][1], ROWS[5][2])
    # unencodable near-normal members fall back to plaintext records
    plain = parse_record("nn -++;---;++;++")
    line = format_record(plain)
    assert line.startswith("nn ") and ";" in line
    again = parse_record(line)
    assert again == plain


@settings(deadline=None)
@given(st.integers(1, 30).map(lambda k: 2 * k), st.data())
def test_every_encoded_line_round_trips(n, data):
    quads, centers = st.sampled_from(sorted(QUAD_TABLE)), st.sampled_from(sorted(CENTER_TABLE))
    ab = "".join(data.draw(st.lists(quads, min_size=n // 2, max_size=n // 2))) + data.draw(centers)
    cd = "".join(data.draw(st.lists(quads, min_size=n // 2, max_size=n // 2)))
    line = f"nn {n} {ab} {cd}"
    assert format_record(parse_record(line)) == line


@pytest.mark.parametrize("line", ["nn 1 0 1", "nn 3 01 0", "nn -2 0 1", "nn 0 0 1"])
def test_codes_exist_only_for_even_orders_above_zero(line):
    n, ab, cd = line.split(" ")[1:]
    for refused in (lambda: parse_record(line), lambda: decode_quadruple(int(n), ab, cd)):
        with pytest.raises(CodecError, match=f"codes exist only for even orders n > 0, got order {n}"):
            refused()
    # order 1 is written as plaintext, which parses back
    quad = parse_record("nn ++;+-;+;+")
    assert format_record(quad) == "nn ++;+-;+;+"
    with pytest.raises(CodecError, match="got order 1"):
        encode_quadruple(quad)


def test_whitespace_inside_a_plaintext_record_is_ignored():
    assert parse_record("nn + ++ ;+\t--;+-; + -") == parse_record("nn +++;+--;+-;+-")
    assert parse_record("ts +0;0 0;0+;00") == parse_record("ts +0;00;0+;00")


def _reference_digits(x, y):
    """The digits of the pair (x, y) by search of QUAD_TABLE and
    CENTER_TABLE, or None when a column pair has none."""
    length = len(x)
    digits = []
    for k in range(length // 2):
        quad = ((x[k], y[k]), (x[length - 1 - k], y[length - 1 - k]))
        digits += [digit for digit, entry in QUAD_TABLE.items() if entry == quad][:1] or [None]
    if length % 2:
        center = (x[length // 2], y[length // 2])
        digits += [digit for digit, entry in CENTER_TABLE.items() if entry == center][:1] or [None]
    return None if None in digits else "".join(digits)


def _reference_codes(q):
    if q.kind != "nn" or q.m != q.n + 1 or q.n <= 0 or q.n % 2:
        return None
    ab, cd = _reference_digits(q.a, q.b), _reference_digits(q.c, q.d)
    return None if ab is None or cd is None else (ab, cd)


def _reference_line(q):
    codes = _reference_codes(q)
    if codes is None:
        return f"{q.kind} {join_quad(q.seqs())}"
    return f"nn {q.n} {codes[0]} {codes[1]}"


def _assert_memo_agrees_with_the_reference(quads):
    for q in quads:
        assert format_record(q) == _reference_line(q), q.plaintext()
        assert record_codes(q) == _reference_codes(q), q.plaintext()


def test_record_forms_equal_the_table_reference_on_search_results(solutions):
    _pair_forms.cache_clear()
    nn = [q for n in range(2, 13) for q in solutions("nn", n)]
    ns = [q for n in range(9) for q in solutions("ns", n)]
    assert len(nn) > 9344 and ns
    encoded = sum(_reference_codes(q) is not None for q in nn)
    assert 0 < encoded < len(nn)  # encoded and plaintext nn lines both occur
    _assert_memo_agrees_with_the_reference(nn + ns)


def test_record_forms_equal_the_table_reference_on_other_kinds():
    _pair_forms.cache_clear()
    ts = bs_to_ts(parse_record(ROW36_RECORD))
    assert ts.kind == "ts" and 0 in ts.a + ts.b + ts.c + ts.d
    bs = parse_quad("+-++;+++-;-++;+-+", "bs")
    unencodable = parse_quad("+++;+--;+-;++", "nn")  # column pair ((+, +), (-, +)) of C, D
    assert _reference_digits(unencodable.a, unencodable.b) == "01"
    assert _reference_digits(unencodable.c, unencodable.d) is None
    for q in (ts, bs, unencodable):
        _assert_memo_agrees_with_the_reference([q])
        assert format_record(q) == f"{q.kind} {q.plaintext()}"


@pytest.mark.parametrize("nn_first", [True, False])
def test_a_pair_shared_by_records_of_other_kinds_keeps_their_lines_apart(nn_first):
    # the memo is keyed by the pair alone: an nn record's digits must not
    # reach a record of another kind or shape over the same pairs, nor the
    # other way round
    _pair_forms.cache_clear()
    nn = parse_record(ROW36_RECORD)
    others = [SeqQuadruple(*nn.seqs(), kind) for kind in ("bs", "ns", "ts")]
    others.append(SeqQuadruple(nn.c, nn.d, nn.a, nn.b, "nn"))  # shape (n, n + 1)
    quads = [nn] + others if nn_first else others + [nn]
    _assert_memo_agrees_with_the_reference(quads)
    assert format_record(nn) == ROW36_RECORD
    for q in others:
        assert format_record(q) == f"{q.kind} {q.plaintext()}" and record_codes(q) is None
