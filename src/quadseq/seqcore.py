"""Exact sequence algebra: autocorrelation profiles, sums, and quadruple verifiers.

All sequences are tuples of machine integers over {+1,-1} (binary) or
{-1,0,+1} (ternary).  Every function here except read_text and
write_text_atomic is pure and every value immutable, so they are safe to
share between worker processes.

The autocorrelations of a sequence come from one numpy kernel, _npaf_array,
exact for any integer sequence: int64 under an explicit bound, Python ints
beyond it.  row_lags forms the same lag sums for a block of +-1 rows at
once, for ProfileIndex and the search's scan.  ProfileIndex.join is the one
hash join on them, over an array of targets at a time, shared by the search
and golay_search; it looks up only the profiles that pass a
power-spectral-density test.

verify_quadruple is the one verifier for every kind, a Golay pair included
(as the base quadruple BS(g, 0)); VerificationReport.require turns a failing
verdict into the error "<context>: <failure>".
"""

import os
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from itertools import product
from operator import sub

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


def _integral(entries) -> Seq:
    """`entries` as a tuple of plain ints once every entry equals an integer:
    1.0, numpy integers and bools pass, 1.5, inf and '1' do not.  A tuple of
    plain ints is returned as it is."""
    if type(entries) is tuple and _PLAIN_INT.issuperset(map(type, entries)):
        return entries
    entries = tuple(entries)
    for v in entries:
        try:
            if int(v) == v:
                continue
        except (TypeError, ValueError, OverflowError):  # None, '1.5', inf
            pass
        raise AlphabetError(f"entry must be an integer, got {v!r}")
    return tuple(map(int, entries))


def _checked(entries, alphabet: frozenset, what: str) -> Seq:
    """`entries` as plain ints (see _integral) once each is in `alphabet`."""
    entries = _integral(entries)
    if not alphabet.issuperset(entries):
        bad = next(v for v in entries if v not in alphabet)
        raise AlphabetError(f"{what}, got {bad!r}")
    return entries


def as_binary(entries) -> Seq:
    return _checked(entries, _BINARY, "binary entry must be +1 or -1")


def as_ternary(entries) -> Seq:
    return _checked(entries, _TERNARY, "ternary entry must be -1, 0 or +1")


_CHAR_TO_VALUE = {"+": 1, "-": -1, "0": 0}
_VALUE_TO_CHAR = {1: "+", -1: "-", 0: "0"}


# loaded records and checkpoints repeat few distinct sequence texts; a
# refusal raises, so it is never cached
@lru_cache(maxsize=4096)
def parse_seq(text: str, ternary: bool = False) -> Seq:
    """Parse a '+'/'-'/'0' string; whitespace anywhere inside is ignored.
    Equal texts parse to one shared tuple while they stay in the memo."""
    try:
        values = tuple(map(_CHAR_TO_VALUE.__getitem__, "".join(text.split())))
    except KeyError as exc:
        raise AlphabetError(f"bad sequence character {exc.args[0]!r}") from None
    return as_ternary(values) if ternary else as_binary(values)


def _seq_text(seq) -> str:
    return "".join(map(_VALUE_TO_CHAR.__getitem__, seq))


# a search's solutions repeat few distinct sequences: nn 12's 37,376 are 472
_memo_seq_text = lru_cache(maxsize=4096)(_seq_text)


def seq_str(seq: Seq) -> str:
    """The '+'/'-'/'0' text of a sequence; parse_seq reads it back."""
    try:
        return _memo_seq_text(seq)
    except TypeError:  # unhashable, such as a list
        return _seq_text(seq)


def write_text_atomic(path: str, text: str) -> None:
    """Replace the file at `path` by `text` in one step: a reader or a crash
    sees the old file or the new one, never a torn mix."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def read_text(path: str, error: type[QuadseqError]) -> str:
    """The text of the UTF-8 file at `path`; any other file raises error, naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


_INT64_LIMIT = 1 << 63


def _npaf_array(seq: Seq) -> np.ndarray:
    """Autocorrelations of a nonempty tuple of plain ints at lags 0..len-1.

    Each value is a sum of at most len products of two entries, so int64 is
    exact while len * max|entry|**2 < 2**63; beyond that the entries stay
    Python ints in an object array, whose sums never wrap.
    """
    peak = max(max(seq), -min(seq))
    x = np.array(seq, dtype=np.int64 if len(seq) * peak * peak < _INT64_LIMIT else object)
    return np.correlate(x, x, "full")[len(seq) - 1 :]


def npaf_values(seq: Seq) -> tuple[int, ...]:
    """Raw autocorrelation tuple of plain ints; (0,) for the empty sequence.
    A non-integral entry raises AlphabetError (see _integral)."""
    seq = _integral(seq)
    return tuple(_npaf_array(seq).tolist()) if seq else (0,)


def int_to_seq(bits: int, length: int) -> Seq:
    """The binary sequence whose entry i is -1 exactly when bit i is set."""
    return tuple(-1 if (bits >> i) & 1 else 1 for i in range(length))


def row_lags(rows: np.ndarray, count: int) -> np.ndarray:
    """Lags 1..count (none for count <= 0) of the autocorrelation of each +-1
    row of the int8 array `rows`, in int64: _npaf_array's sums, row-wise."""
    width = rows.shape[1]
    lags = np.empty((len(rows), max(count, 0)), dtype=np.int64)
    for j in range(1, count + 1):
        # products stay in {-1, 1}, and np.sum accumulates int8 in int64
        lags[:, j - 1] = (rows[:, : width - j] * rows[:, j:]).sum(axis=1)
    return lags


# Slack of the PSD test in ProfileIndex.join.  The PSDs there are float64
# sums of at most `length` terms 2 * p_j * cos(j * w) with |p_j| <= 2 * length,
# over cosines rounded to float64, so each is within about
# 4 * length^3 * 2^-52 of its exact value: below 1e-11 for every length up to
# search.MAX_ORDER_WITHOUT_OVERRIDE = 20, and below 1e-6 up to length 1000.
# The test is sound (it never drops a true pair) while that error stays
# under this margin.
_PSD_MARGIN = 1e-6


def _psd_cosines(length: int) -> np.ndarray:
    """cos(j * w) at lags j = 1..length-1 (rows) and the 4 * length + 1
    samples w of [0, pi] (columns)."""
    return np.cos(np.outer(np.arange(1, length), np.linspace(0.0, np.pi, 4 * length + 1)))


def _psd(lag0: int, lags, cosines: np.ndarray) -> np.ndarray:
    """lag0 + 2 * sum_j lags_j * cos(j * w) at each sample of `cosines`, in
    float64, for one lag tuple or for each of a list of them: the PSD of
    the sequences of one profile, or of the pairs whose profiles add up to
    a target."""
    return lag0 + 2 * (np.array(lags, dtype=np.float64) @ cosines)


class ProfileIndex:
    """Every binary sequence of one length, grouped by positive-lag profile.

    `groups` maps each profile to its sequences in bits order (see
    int_to_seq), and the profiles themselves come in the bits order of their
    first sequences.  A profile p fixes the squared sum of its sequences,
    sum^2 = length + 2 * sum(p), so `by_square_sum` maps each squared sum to
    the (profile, sequences) groups that have it; its keys are exactly the
    admissible squared sums.  `probes_by_residual` maps each admissible
    c^2 + d^2 to the number of C-profiles whose c^2 leaves an admissible
    d^2.  join() is the one hash join over the index and the only reader of
    this layout; it returns flat (C, D) pairs, whose sums its callers read.

    A profile also fixes the power spectral density of its sequences,
    PSD(w) = |X(e^{iw})|^2 = length + 2 * sum_j p_j * cos(j * w).
    `psd_by_square_sum` holds it at the 4 * length + 1 samples w of [0, pi]
    whose cos(j * w) are the columns of `cosines`: one float64 row per
    profile, in the order of the profile's by_square_sum bucket.  The
    tables are per profile, not per sequence.
    """

    def __init__(self, length: int):
        self.length = length
        # entry i of seqs[bits] is -1 exactly when bit i is set (int_to_seq)
        seqs = [seq[::-1] for seq in product((1, -1), repeat=length)]
        table = row_lags(np.array(seqs, dtype=np.int8), length - 1)
        # row tuples one at a time, so that only distinct profiles stay allocated
        rows = zip(*table.T.tolist()) if length > 1 else [()] * len(seqs)
        self.groups: dict[tuple[int, ...], list[Seq]] = {}
        for seq, profile in zip(seqs, rows):
            self.groups.setdefault(profile, []).append(seq)
        self.by_square_sum: dict[int, list[tuple[tuple[int, ...], list[Seq]]]] = {}
        for profile, group in self.groups.items():
            square = length + 2 * sum(profile)
            self.by_square_sum.setdefault(square, []).append((profile, group))
        squares = self.by_square_sum
        self.probes_by_residual = {
            residual: sum(len(squares[c2]) for c2 in squares if residual - c2 in squares)
            for residual in {c2 + d2 for c2 in squares for d2 in squares}
        }
        self.cosines = _psd_cosines(length)
        self.psd_by_square_sum = {
            square: _psd(length, [p for p, _ in bucket], self.cosines)
            for square, bucket in self.by_square_sum.items()
        }

    def join(self, targets: np.ndarray) -> list[tuple[list, int]]:
        """Every (C, D) whose positive-lag profiles add up to a target, for
        each row of the int64 array `targets` of shape (k, length - 1).

        A target fixes c^2 + d^2 = 2 * length + 2 * sum(target), its
        residual, so only the C-profiles whose c^2 leaves an admissible d^2
        are probed, probes_by_residual[residual] of them.  It also fixes
        PSD_C(w) + PSD_D(w) = R(w) = 2 * length + 2 * sum_j target_j *
        cos(j * w), one product for all the rows, and a PSD is never
        negative: a target with R < 0 at a sample has no pairs, and a
        C-profile with PSD_C > R at a sample has no D.  Of the other
        targets, only the C-profiles that pass are looked up (within
        _PSD_MARGIN), but every probed one is counted, whatever the PSD
        test decides.

        Returns one (pairs, probes) per row, in row order: its (C, D) pairs
        as one flat list, C's by_square_sum buckets in the index's order and
        each bucket's profiles in order, and its C-profiles probed.
        """
        residuals = (2 * self.length + 2 * targets.sum(axis=1)).tolist()
        joined = [([], self.probes_by_residual.get(residual, 0)) for residual in residuals]
        # R + margin, the most PSD_C may be at each sample
        bounds = _psd(2 * self.length, targets, self.cosines) + _PSD_MARGIN
        groups, by_square_sum = self.groups, self.by_square_sum
        for row in np.flatnonzero(bounds.min(axis=1) >= 0).tolist():
            target, residual, bound = tuple(targets[row].tolist()), residuals[row], bounds[row]
            pairs = joined[row][0]
            for c2, c_groups in by_square_sum.items():
                if residual - c2 not in by_square_sum:
                    continue
                fits = (self.psd_by_square_sum[c2] <= bound).all(axis=1)
                for i in np.flatnonzero(fits).tolist():
                    c_profile, c_seqs = c_groups[i]
                    d_seqs = groups.get(tuple(map(sub, target, c_profile)))
                    if d_seqs:
                        pairs.extend(product(c_seqs, d_seqs))
        return joined


@cache
def profile_index(length: int) -> ProfileIndex:
    """The ProfileIndex of `length`, built on first use and then shared
    (read-only) for the life of the process."""
    return ProfileIndex(length)


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

    @classmethod
    def _trusted(cls, a: Seq, b: Seq, c: Seq, d: Seq, kind: str) -> "SeqQuadruple":
        """The quadruple of these fields, built without __post_init__'s
        checks.  Only for callers that already hold tuples of plain ints in
        the alphabet of `kind`, with A, B and C, D of equal lengths."""
        quad = object.__new__(cls)
        # field by field, as __init__ does: one quad.__dict__.update would be
        # faster, but it gives each instance its own dict, twice the memory
        set_field = object.__setattr__
        set_field(quad, "a", a)
        set_field(quad, "b", b)
        set_field(quad, "c", c)
        set_field(quad, "d", d)
        set_field(quad, "kind", kind)
        return quad

    @property
    def m(self) -> int:
        return len(self.a)

    @property
    def n(self) -> int:
        return len(self.c)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    def sums(self) -> tuple[int, int, int, int]:
        return (sum(self.a), sum(self.b), sum(self.c), sum(self.d))

    def seqs(self) -> tuple[Seq, Seq, Seq, Seq]:
        return (self.a, self.b, self.c, self.d)

    def plaintext(self) -> str:
        return join_quad(self.seqs())


def join_quad(seqs) -> str:
    """The "A;B;C;D" plaintext of four sequences; split_quad reads it."""
    return ";".join(map(seq_str, seqs))


def split_quad(text: str, parse: Callable[[str], Seq]) -> tuple[Seq, ...]:
    """The four sequences of "A;B;C;D" plaintext, each read by `parse`."""
    parts = text.split(";")
    if len(parts) != 4:
        raise ShapeError(f"expected four ';'-separated sequences, got {len(parts)}")
    return tuple(map(parse, parts))


def parse_quad(text: str, kind: str) -> SeqQuadruple:
    """Parse "A;B;C;D" plaintext into a quadruple of the given kind."""
    return SeqQuadruple(*split_quad(text, partial(parse_seq, ternary=kind == KIND_T)), kind)


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.passed

    def require(self, error: type[QuadseqError], context: str) -> None:
        """Raise error(f"{context}: {failure}") unless the verdict passed."""
        if not self.passed:
            raise error(f"{context}: {self.failure}")


def _fail(msg: str) -> VerificationReport:
    return VerificationReport(passed=False, failure=msg)


_PASS = VerificationReport(passed=True)


def _lag_sum_verdict(seqs, npaf) -> VerificationReport:
    """Fails at the first positive lag where the four autocorrelations do not
    cancel; npaf(seq) gives a nonempty sequence's autocorrelations."""
    a, b, c, d = seqs if len(seqs[0]) >= len(seqs[2]) else seqs[2:] + seqs[:2]
    if not a:
        return _PASS
    # A, B and C, D have equal lengths (see SeqQuadruple), so each pair adds with +
    total = npaf(a) + npaf(b)
    if c:
        total[: len(c)] += npaf(c) + npaf(d)
    if np.count_nonzero(total[1:]):
        j = int(np.flatnonzero(total[1:])[0]) + 1
        return _fail(f"lag {j}: autocorrelation sum = {int(total[j])}, expected 0")
    return _PASS


@lru_cache(maxsize=4096)
def _memo_npaf(seq: Seq) -> np.ndarray:
    """_npaf_array of `seq`, one read-only array per distinct sequence,
    shared by every caller.  The key is a quadruple's own field, which
    SeqQuadruple holds as a tuple of plain ints (see _integral), so equal
    sequences given as lists or numpy ints share one entry."""
    values = _npaf_array(seq)
    values.flags.writeable = False
    return values


def verify_quadruple(q: SeqQuadruple) -> VerificationReport:
    """Decide membership of q in its declared kind.

    Raises ShapeError for shapes that make the question meaningless
    (NS/NN need m = n+1, TS needs all four lengths equal); a clean failure
    of the defining equations is reported as a non-passing verdict naming
    the first violated condition.

    Each distinct sequence's autocorrelations are computed once while they
    stay in a memo of 4,096 sequences: orbits, archives and checkpoints
    hold many quadruples over few sequences.
    """
    return _verify(q, _memo_npaf)


def _verify(q: SeqQuadruple, npaf) -> VerificationReport:
    """The shape rule of q's kind, then its position rule, then the lag sums."""
    a, b, n = q.a, q.b, q.n
    if q.kind == KIND_T:
        if q.m != n:
            raise ShapeError("T-sequence quadruple needs four sequences of equal length")
        for i, column in enumerate(zip(*q.seqs()), start=1):
            nonzero = 4 - column.count(0)
            if nonzero != 1:
                return _fail(f"support at position {i}: {nonzero} nonzero entries, expected 1")
    elif q.kind != KIND_BASE:
        if q.m != n + 1:
            raise ShapeError(f"kind {q.kind} needs shape (n+1, n), got ({q.m}, {n})")
        # B repeats A at even 0-based positions below n, and at the odd ones
        # repeats it (ns) or negates it (nn)
        odd = a[1:n:2] if q.kind == KIND_NORMAL else negate(a[1:n:2])
        if b[0:n:2] != a[0:n:2] or b[1:n:2] != odd:
            i = next(i for i in range(n) if b[i] != (odd[i // 2] if i % 2 else a[i]))
            label = "normality" if q.kind == KIND_NORMAL else "near-normality"
            return _fail(f"{label} violated at position {i + 1}")
    return _lag_sum_verdict(q.seqs(), npaf)


def sum_of_squares_check(m: int, n: int, sums: tuple[int, int, int, int]) -> bool:
    """Necessary condition for base-sequence membership: the defining identity
    evaluated at z = 1 forces a^2+b^2+c^2+d^2 = 2(m+n)."""
    a, b, c, d = sums
    return a * a + b * b + c * c + d * d == 2 * (m + n)


def negate(seq: Seq) -> Seq:
    return tuple(-v for v in seq)


def reverse(seq: Seq) -> Seq:
    return seq[::-1]


def alternate(seq: Seq) -> Seq:
    """Multiply entry i (1-based) by (-1)^i; scales lag-j correlations by (-1)^j."""
    return tuple(-v if i % 2 == 0 else v for i, v in enumerate(seq))
