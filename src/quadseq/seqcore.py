"""Exact sequence algebra: autocorrelation profiles, sums, and quadruple verifiers.

All sequences are tuples of machine integers over {+1,-1} (binary) or
{-1,0,+1} (ternary).  Every function here except write_text_atomic is pure
and every value immutable, so they are safe to share between worker processes.

The autocorrelations of a sequence come from one numpy kernel, _npaf_array,
exact for any integer sequence: int64 under an explicit bound, Python ints
beyond it.  ProfileIndex forms the same lag sums for every binary sequence
of one length in one batched pass.
"""

import os
from dataclasses import dataclass
from itertools import product

import numpy as np

KIND_BASE = "bs"
KIND_NORMAL = "ns"
KIND_NEAR_NORMAL = "nn"
KIND_T = "ts"

BINARY_KINDS = (KIND_BASE, KIND_NORMAL, KIND_NEAR_NORMAL)
ALL_KINDS = BINARY_KINDS + (KIND_T,)

Seq = tuple[int, ...]


class QuadseqError(Exception):
    """Base class for all errors raised by this package."""


class AlphabetError(QuadseqError):
    """Sequence entry outside the declared alphabet."""


class ShapeError(QuadseqError):
    """Quadruple shape incompatible with its declared kind (malformed input,
    distinct from a clean 'fails the defining equation' verdict)."""


_PLAIN_INT = frozenset({int})
_BINARY = frozenset({1, -1})
_TERNARY = frozenset({1, 0, -1})


def _checked(entries, alphabet: frozenset, what: str) -> Seq:
    """`entries` as a tuple of plain ints once every entry equals a member of
    `alphabet`: 1.0, numpy integers and bools pass, 1.5 and '1' do not.  A
    tuple of plain ints is returned as it is."""
    plain = type(entries) is tuple and _PLAIN_INT.issuperset(map(type, entries))
    if not plain:
        entries = tuple(entries)
    if not alphabet.issuperset(entries):
        bad = next(v for v in entries if v not in alphabet)
        raise AlphabetError(f"{what}, got {bad!r}")
    return entries if plain else tuple(map(int, entries))


def as_binary(entries) -> Seq:
    return _checked(entries, _BINARY, "binary entry must be +1 or -1")


def as_ternary(entries) -> Seq:
    return _checked(entries, _TERNARY, "ternary entry must be -1, 0 or +1")


_CHAR_TO_VALUE = {"+": 1, "-": -1, "0": 0}
_VALUE_TO_CHAR = {1: "+", -1: "-", 0: "0"}


def parse_seq(text: str, ternary: bool = False) -> Seq:
    """Parse a '+'/'-'/'0' string; whitespace anywhere inside is ignored."""
    try:
        values = tuple(map(_CHAR_TO_VALUE.__getitem__, "".join(text.split())))
    except KeyError as exc:
        raise AlphabetError(f"bad sequence character {exc.args[0]!r}") from None
    return as_ternary(values) if ternary else as_binary(values)


def seq_str(seq: Seq) -> str:
    return "".join(_VALUE_TO_CHAR[v] for v in seq)


def write_text_atomic(path: str, text: str) -> None:
    """Replace the file at `path` by `text` in one step: a reader or a crash
    sees the old file or the new one, never a torn mix."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


@dataclass(frozen=True)
class LagProfile:
    """Non-periodic autocorrelation values at lags 0..len-1.

    Only nonnegative lags are stored; the value at lag -j always equals the
    value at lag j, so the negative side is redundant.
    """

    values: tuple[int, ...]
    source_len: int

    def __getitem__(self, j: int) -> int:
        return self.values[j]

    def __len__(self) -> int:
        return len(self.values)


_INT64_LIMIT = 1 << 63


def _npaf_array(seq: Seq) -> np.ndarray:
    """Autocorrelations of a nonempty integer sequence at lags 0..len-1.

    Each value is a sum of at most len products of two entries, so int64 is
    exact while len * max|entry|**2 < 2**63; beyond that the entries become
    Python ints in an object array, whose sums never wrap.
    """
    peak = max(max(seq), -min(seq))
    if len(seq) * peak * peak < _INT64_LIMIT:
        x = np.array(seq, dtype=np.int64)
    else:
        x = np.array([int(v) for v in seq], dtype=object)
    return np.correlate(x, x, "full")[len(seq) - 1 :]


def npaf_values(seq: Seq) -> tuple[int, ...]:
    """Raw autocorrelation tuple of plain ints; (0,) for the empty sequence."""
    return tuple(_npaf_array(seq).tolist()) if seq else (0,)


def int_to_seq(bits: int, length: int) -> Seq:
    """The binary sequence whose entry i is -1 exactly when bit i is set."""
    return tuple(-1 if (bits >> i) & 1 else 1 for i in range(length))


class ProfileIndex:
    """Every binary sequence of one length, grouped by positive-lag profile.

    `seqs` and `profiles` list the sequences and their profiles in bits order
    (see int_to_seq); `groups` maps each profile to its sequences in the same
    order.  A profile p fixes the squared sum of its sequences,
    sum^2 = length + 2 * sum(p), so `by_square_sum` maps each squared sum to
    the (profile, sequences) groups that have it.
    """

    def __init__(self, length: int):
        self.length = length
        # entry i of seqs[bits] is -1 exactly when bit i is set (int_to_seq)
        self.seqs = [seq[::-1] for seq in product((1, -1), repeat=length)]
        signs = np.array(self.seqs, dtype=np.int8)
        # lag j of every row at once, the sums _npaf_array forms for one
        # sequence; |value| <= length, and np.sum accumulates int8 in int64
        table = np.empty((len(self.seqs), max(length - 1, 0)), dtype=np.int64)
        for j in range(1, length):
            table[:, j - 1] = (signs[:, : length - j] * signs[:, j:]).sum(axis=1)
        # row tuples one at a time, so that only distinct profiles stay allocated
        rows = zip(*table.T.tolist()) if length > 1 else [()] * len(self.seqs)
        shared: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.profiles = [shared.setdefault(row, row) for row in rows]  # equal profiles share one tuple
        self.groups: dict[tuple[int, ...], list[Seq]] = {}
        for seq, profile in zip(self.seqs, self.profiles):
            self.groups.setdefault(profile, []).append(seq)
        self.by_square_sum: dict[int, list[tuple[tuple[int, ...], list[Seq]]]] = {}
        for profile, seqs in self.groups.items():
            square = length + 2 * sum(profile)
            self.by_square_sum.setdefault(square, []).append((profile, seqs))


_PROFILE_INDEXES: dict[int, ProfileIndex] = {}


def profile_index(length: int) -> ProfileIndex:
    """The ProfileIndex of `length`, built on first use and then shared
    (read-only) for the life of the process."""
    index = _PROFILE_INDEXES.get(length)
    if index is None:
        index = _PROFILE_INDEXES[length] = ProfileIndex(length)
    return index


def npaf(seq) -> LagProfile:
    """Non-periodic autocorrelation profile of an integer sequence."""
    seq = tuple(int(v) for v in seq)
    return LagProfile(values=npaf_values(seq), source_len=len(seq))


def sequence_sum(seq: Seq) -> int:
    """Sum of the entries; for a binary sequence, #plus minus #minus."""
    return sum(seq)


@dataclass(frozen=True)
class SumsVector:
    a: int
    b: int
    c: int
    d: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class SeqQuadruple:
    """Quadruple (A;B;C;D): A,B of length m and C,D of length n.

    Construction validates alphabets and paired lengths only; whether the
    quadruple actually belongs to its declared kind is decided separately by
    verify_quadruple.
    """

    a: Seq
    b: Seq
    c: Seq
    d: Seq
    kind: str

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ShapeError(f"unknown kind {self.kind!r}")
        check = as_ternary if self.kind == KIND_T else as_binary
        object.__setattr__(self, "a", check(self.a))
        object.__setattr__(self, "b", check(self.b))
        object.__setattr__(self, "c", check(self.c))
        object.__setattr__(self, "d", check(self.d))
        if len(self.a) != len(self.b):
            raise ShapeError("A and B must have equal length")
        if len(self.c) != len(self.d):
            raise ShapeError("C and D must have equal length")

    @property
    def m(self) -> int:
        return len(self.a)

    @property
    def n(self) -> int:
        return len(self.c)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    def sums(self) -> SumsVector:
        return SumsVector(sum(self.a), sum(self.b), sum(self.c), sum(self.d))

    def seqs(self) -> tuple[Seq, Seq, Seq, Seq]:
        return (self.a, self.b, self.c, self.d)

    def plaintext(self) -> str:
        return ";".join(seq_str(s) for s in self.seqs())


def parse_quad(text: str, kind: str) -> SeqQuadruple:
    """Parse "A;B;C;D" plaintext into a quadruple of the given kind."""
    parts = text.split(";")
    if len(parts) != 4:
        raise ShapeError(f"expected four ';'-separated sequences, got {len(parts)}")
    ternary = kind == KIND_T
    a, b, c, d = (parse_seq(p, ternary=ternary) for p in parts)
    return SeqQuadruple(a, b, c, d, kind)


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.passed


def _fail(msg: str) -> VerificationReport:
    return VerificationReport(passed=False, failure=msg)


_PASS = VerificationReport(passed=True)


def _lag_sum_failure(seqs) -> VerificationReport | None:
    """First positive lag where the four autocorrelations do not cancel."""
    # entries are in {-1, 0, 1}: each sum is at most 4 * max length
    total = np.zeros(max(map(len, seqs)), dtype=np.int64)
    for seq in seqs:
        if seq:
            total[: len(seq)] += _npaf_array(seq)
    bad = np.flatnonzero(total[1:])
    if bad.size:
        j = int(bad[0]) + 1
        return _fail(f"lag {j}: autocorrelation sum = {int(total[j])}, expected 0")
    return None


def verify_quadruple(q: SeqQuadruple) -> VerificationReport:
    """Decide membership of q in its declared kind.

    Raises ShapeError for shapes that make the question meaningless
    (NS/NN need m = n+1, TS needs all four lengths equal); a clean failure
    of the defining equations is reported as a non-passing verdict naming
    the first violated condition.
    """
    if q.kind == KIND_T:
        return _verify_t(q)
    if q.kind in (KIND_NORMAL, KIND_NEAR_NORMAL):
        if q.m != q.n + 1:
            raise ShapeError(
                f"kind {q.kind} needs shape (n+1, n), got ({q.m}, {q.n})"
            )
        for i in range(q.n):
            want = q.a[i] if (q.kind == KIND_NORMAL or i % 2 == 0) else -q.a[i]
            if q.b[i] != want:
                label = "normality" if q.kind == KIND_NORMAL else "near-normality"
                return _fail(f"{label} violated at position {i + 1}")
    bad = _lag_sum_failure(q.seqs())
    if bad is not None:
        return bad
    return _PASS


def _verify_t(q: SeqQuadruple) -> VerificationReport:
    if not (q.m == q.n == len(q.b) == len(q.d)):
        raise ShapeError("T-sequence quadruple needs four sequences of equal length")
    for i in range(q.n):
        nonzero = sum(1 for s in q.seqs() if s[i] != 0)
        if nonzero != 1:
            return _fail(
                f"support at position {i + 1}: {nonzero} nonzero entries, expected 1"
            )
    bad = _lag_sum_failure(q.seqs())
    if bad is not None:
        return bad
    return _PASS


def sum_of_squares_check(m: int, n: int, sums: SumsVector) -> bool:
    """Necessary condition for base-sequence membership: the defining identity
    evaluated at z = 1 forces a^2+b^2+c^2+d^2 = 2(m+n)."""
    a, b, c, d = sums.as_tuple()
    return a * a + b * b + c * c + d * d == 2 * (m + n)


def negate(seq: Seq) -> Seq:
    return tuple(-v for v in seq)


def reverse(seq: Seq) -> Seq:
    return seq[::-1]


def alternate(seq: Seq) -> Seq:
    """Multiply entry i (1-based) by (-1)^i; scales lag-j correlations by (-1)^j."""
    return tuple(-v if i % 2 == 0 else v for i, v in enumerate(seq))
