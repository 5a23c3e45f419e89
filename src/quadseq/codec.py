"""Compact digit encoding of sequence pairs, and the record-line format.

A pair of equal-length binary sequences (X, Y) is written as one digit per
column pair: digit k describes the columns (x_k, y_k) and its mirror
(x_{L+1-k}, y_{L+1-k}).  Odd-length pairs carry one extra trailing digit for
the unpaired central column.  The nine quad digits cover the eight column
pairs whose two columns are each internally constant or internally opposite,
plus the one boundary quad '0'; other column pairs are not encodable.
"""

from functools import lru_cache

from .seqcore import (
    KIND_NEAR_NORMAL,
    ALL_KINDS,
    QuadseqError,
    SeqQuadruple,
    parse_quad,
    seq_str,
)

PAIR_AB = "ab"
PAIR_CD = "cd"

# digit -> ((x_k, y_k), (x_mirror, y_mirror))
QUAD_TABLE = {
    "0": ((1, 1), (1, -1)),
    "1": ((1, 1), (1, 1)),
    "2": ((1, -1), (1, -1)),
    "3": ((-1, -1), (1, 1)),
    "4": ((1, -1), (-1, 1)),
    "5": ((-1, 1), (1, -1)),
    "6": ((1, 1), (-1, -1)),
    "7": ((-1, 1), (-1, 1)),
    "8": ((-1, -1), (-1, -1)),
}

# digit -> (x_center, y_center)
CENTER_TABLE = {
    "0": (1, 1),
    "1": (1, -1),
    "2": (-1, 1),
    "3": (-1, -1),
}

# (x_k, y_k, x_mirror, y_mirror) -> digit
_QUAD_DIGITS = {column + mirror: digit for digit, (column, mirror) in QUAD_TABLE.items()}
_CENTER_DIGITS = {column: digit for digit, column in CENTER_TABLE.items()}


class CodecError(QuadseqError):
    """Malformed code string or record line."""


class UnencodableError(CodecError):
    """Pair contains a column quad outside the nine-digit alphabet."""


def _pair_length(pair_kind: str, n: int) -> int:
    if pair_kind == PAIR_AB:
        return n + 1
    if pair_kind == PAIR_CD:
        return n
    raise CodecError(f"unknown pair kind {pair_kind!r}")


def code_length(pair_kind: str, n: int) -> int:
    """Number of digits encoding a pair of the given kind and order."""
    length = _pair_length(pair_kind, n)
    return length // 2 + length % 2


def decode_pair(digits: str, pair_kind: str, n: int):
    """Decode a digit string into the pair (X, Y) of binary sequences.

    Digit k fills positions k and L+1-k of both sequences; for odd L the
    final digit fills the central column.  Membership of the decoded pair in
    any sequence class is *not* checked here.
    """
    length = _pair_length(pair_kind, n)
    has_center = length % 2 == 1
    npairs = length // 2
    if len(digits) != npairs + (1 if has_center else 0):
        raise CodecError(
            f"{pair_kind} code for order {n} needs "
            f"{npairs + (1 if has_center else 0)} digits, got {len(digits)}"
        )
    x = [0] * length
    y = [0] * length
    for k in range(npairs):
        digit = digits[k]
        if digit not in QUAD_TABLE:
            raise CodecError(f"unknown quad digit {digit!r} at position {k + 1}")
        (xk, yk), (xm, ym) = QUAD_TABLE[digit]
        x[k], y[k] = xk, yk
        x[length - 1 - k], y[length - 1 - k] = xm, ym
    if has_center:
        digit = digits[-1]
        if digit not in CENTER_TABLE:
            raise CodecError(f"unknown central digit {digit!r}")
        x[npairs], y[npairs] = CENTER_TABLE[digit]
    return tuple(x), tuple(y)


def _pair_digits(x, y) -> str | None:
    """The digits of the equal-length pair (x, y), the central digit last
    when the length is odd, or None when some column has no digit."""
    half = len(x) // 2
    digits = list(map(_QUAD_DIGITS.get, zip(x[:half], y[:half], x[::-1][:half], y[::-1][:half])))
    if len(x) % 2:
        digits.append(_CENTER_DIGITS.get((x[half], y[half])))
    return None if None in digits else "".join(digits)


def encode_pair(x, y, pair_kind: str) -> str:
    """Inverse of decode_pair; raises UnencodableError when some column quad
    is outside the nine-digit alphabet."""
    x, y = tuple(x), tuple(y)
    if len(x) != len(y):
        raise CodecError("sequences of a pair must have equal length")
    length = len(x)
    if length % 2 != _pair_length(pair_kind, 0):  # ab pairs have odd length, cd pairs even
        raise CodecError(f"{pair_kind} pairs cannot have length {length}")
    digits = _pair_digits(x, y)
    if digits is not None:
        return digits
    for k in range(length // 2):
        quad = ((x[k], y[k]), (x[length - 1 - k], y[length - 1 - k]))
        if quad[0] + quad[1] not in _QUAD_DIGITS:
            raise UnencodableError(f"column pair {quad} at position {k + 1} has no digit")
    center = (x[length // 2], y[length // 2])
    raise UnencodableError(f"central column {center} has no digit")


def _require_code_order(n: int) -> None:
    """Codes exist only for even orders n > 0, where both codes have digits."""
    if n <= 0 or n % 2:
        raise CodecError(f"codes exist only for even orders n > 0, got order {n}")


def encode_quadruple(q: SeqQuadruple) -> tuple[str, str]:
    """The (ab, cd) digit strings of an nn quadruple of shape (n+1, n) and
    even order n > 0, as an encoded record line needs them."""
    if q.kind != KIND_NEAR_NORMAL or q.m != q.n + 1:
        raise CodecError(f"encoded records need kind nn and shape (n+1, n); "
                         f"got {q.kind} of shape {q.shape}")
    _require_code_order(q.n)
    return encode_pair(q.a, q.b, PAIR_AB), encode_pair(q.c, q.d, PAIR_CD)


def decode_quadruple(n: int, ab: str, cd: str) -> SeqQuadruple:
    """Inverse of encode_quadruple: the near-normal quadruple of order n with
    these codes.  Membership is not verified."""
    _require_code_order(n)
    return SeqQuadruple(*decode_pair(ab, PAIR_AB, n), *decode_pair(cd, PAIR_CD, n),
                        KIND_NEAR_NORMAL)


# a search's solutions repeat few distinct pairs: nn 12's 9,344 hold 184
# (A, B) and 1,296 (C, D) pairs
@lru_cache(maxsize=4096)
def _pair_forms(x, y) -> tuple[str | None, str]:
    """The digits of the pair (x, y), or None (see _pair_digits), and its
    "X;Y" plaintext, computed once per distinct pair while it stays in the
    memo.  Whether the digits may be written depends on the quadruple, not
    on the pair (see _has_codes)."""
    return _pair_digits(x, y), f"{seq_str(x)};{seq_str(y)}"


def _has_codes(q: SeqQuadruple) -> bool:
    """Whether q's kind and shape admit an encoded record line."""
    return q.kind == KIND_NEAR_NORMAL and q.m == q.n + 1 and q.n > 0 and not q.n % 2


def record_codes(q: SeqQuadruple) -> tuple[str, str] | None:
    """The (ab, cd) codes of q's record line, or None when encode_quadruple
    refuses q and the line is plaintext; it raises nothing itself."""
    if not _has_codes(q):
        return None
    ab = _pair_forms(q.a, q.b)[0]
    cd = None if ab is None else _pair_forms(q.c, q.d)[0]
    return None if cd is None else (ab, cd)


def parse_record(line: str) -> SeqQuadruple:
    """Parse one record line into a quadruple; membership is not verified.

    Formats (kind tag case-insensitive):
      nn <n> <ab-code> <cd-code>    encoded near-normal record, n even and > 0
      <kind> <A;B;C;D>              plaintext record, any kind; whitespace
                                    inside the quadruple is ignored
    """
    fields = line.split()
    if not fields:
        raise CodecError("empty record line")
    kind = fields[0].lower()
    if kind not in ALL_KINDS:
        raise CodecError(f"unknown kind tag {fields[0]!r}")
    if ";" in line:
        return parse_quad(line.split(maxsplit=1)[1], kind)
    if kind == KIND_NEAR_NORMAL and len(fields) == 4:
        try:
            n = int(fields[1])
        except ValueError:
            n = None
        if n is None or str(n) != fields[1]:  # only what format_record writes: not 02, +2, 0_2
            raise CodecError(f"bad order field {fields[1]!r}")
        return decode_quadruple(n, fields[2], fields[3])
    raise CodecError(f"malformed record line: {line.strip()!r}")


def format_record(q: SeqQuadruple) -> str:
    """The record line of a quadruple, which parse_record reads back: encoded
    when record_codes gives codes, plaintext otherwise."""
    ab, ab_text = _pair_forms(q.a, q.b)
    cd, cd_text = _pair_forms(q.c, q.d)
    if ab is None or cd is None or not _has_codes(q):
        return f"{q.kind} {ab_text};{cd_text}"
    return f"{q.kind} {q.n} {ab} {cd}"
