"""Exact sequence algebra: autocorrelation profiles, sums, and quadruple verifiers.

All sequences are tuples of machine integers over {+1,-1} (binary) or
{-1,0,+1} (ternary).  Every function here except read_text and
write_text_atomic is pure and every value immutable, so they are safe to
share between the threads of a pooled search.

The autocorrelations of a sequence come from one numpy kernel, _npaf_array,
exact for any integer sequence: int64 under an explicit bound, Python ints
beyond it.  bit_lags, the one batched lag-sum kernel, forms the same sums
in int16 for an array of sequences held as bit patterns, from popcounts of
shifted words, for the search's scan and for ProfileIndex, which groups
every sequence of one length by profile in arrays, as bit patterns;
bit_rows unpacks bit patterns to +-1 rows.  The index's join, shared by
the search and golay_search, drops dead targets by a float
power-spectral-density screen and joins the others by exact integer keys
(the PSD at five roots of unity) and a linear hash, in array passes.

verify_quadruple is the one verifier for every kind, a Golay pair included
(as the base quadruple BS(g, 0)), and the one code that decides and words a
verdict: after the shape rule it reads pass or the first failing rule off
two memos of the quadruple's pairs.  first_failing decides many
quadruples of one shape off the same memos, once per distinct pair, and
leaves the wording of a failure to verify_quadruple.
VerificationReport.require turns a failing verdict into the error
"<context>: <failure>".
"""

import os
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import cache, lru_cache, partial
from itertools import islice, product
from operator import add, neg

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


def bit_rows(bits: np.ndarray, length: int) -> np.ndarray:
    """int_to_seq(b, length) for each b of the integer array `bits`, as int8
    rows: bit i of b, read from its little-endian bytes, is column i."""
    octets = np.asarray(bits).astype("<u8").view(np.uint8).reshape(-1, 8)
    return 1 - 2 * np.unpackbits(octets, axis=1, count=length, bitorder="little").view(np.int8)


def _grouped(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stable argsort of the labels 0, 1, ... and each one's run in it (start, size)."""
    sizes = np.bincount(labels)
    return np.argsort(labels, kind="stable"), np.cumsum(sizes) - sizes, sizes


def _runs(grouped, labels) -> tuple[np.ndarray, np.ndarray]:
    """The runs of `labels` in a _grouped argsort, one after another, and their sizes."""
    members, starts, sizes = grouped
    sizes = sizes[labels]
    ends = np.cumsum(sizes)
    runs = np.repeat(starts[labels] - ends + sizes, sizes)
    return members[runs + np.arange(len(runs))], sizes


def bit_lags(bits: np.ndarray, length: int, count: int) -> np.ndarray:
    """Lags 1..count (none for count <= 0, and 0 from lag `length` on) of
    the autocorrelation of int_to_seq(b, length) for each b of the integer
    array `bits`, as int16 rows: _npaf_array's sums, read off the bits.

    Entries i and i + j differ exactly when bit i of b ^ (b >> j) is set, so
    the lag-j sum is (length - j) - 2 * popcount of that word's low
    length - j bits; bits at or above `length` never count.  A lag-j sum
    has length - j terms, so int16 is exact; a length above 64 is refused,
    as a uint64 holds no more entries."""
    if length > 64:
        raise ValueError(f"a bit pattern holds at most 64 entries, got length {length}")
    bits = np.asarray(bits).astype(np.uint64)
    lags = np.zeros((max(count, 0), len(bits)), dtype=np.int16)  # one row per lag
    for j in range(1, min(count, length - 1) + 1):
        width = length - j
        differ = np.bitwise_count((bits ^ bits >> np.uint64(j)) & np.uint64((1 << width) - 1))
        lags[j - 1] = width - 2 * differ.astype(np.int16)  # in uint8, a negative sum would wrap
    return np.ascontiguousarray(lags.T)


# Slack of the dead-target screen in ProfileIndex.join.  R(w) there is a
# float64 sum of at most `length` terms 2 * t_j * cos(j * w) with
# |t_j| <= 2 * length, over cosines rounded to float64, so it is within about
# 4 * length^3 * 2^-52 of its exact value: below 1e-11 for every length up to
# search.MAX_ORDER_WITHOUT_OVERRIDE = 20, and below 1e-6 up to length 1000.
# The screen is sound (it never drops a target with a pair) while that error
# stays under this margin.
_PSD_MARGIN = 1e-6

# the angles w at which every 2 * cos(j * w) is an integer: 2, 2 * (-1)^j,
# and period-4, -3 and -6 patterns of 0, +-1 and +-2
_KEY_ANGLES = np.pi * np.array([0, 1, 1 / 2, 2 / 3, 1 / 3])

_JOIN_CELLS = 1 << 16  # the most (target, key group) cells ProfileIndex.join tests at once
_BUILD_ROWS = 1 << 16  # the most sequences whose lags ProfileIndex forms at once

_MASK64 = (1 << 64) - 1


def _psd_cosines(length: int) -> np.ndarray:
    """cos(j * w) at lags j = 1..length-1 (rows) and the 4 * length + 1
    samples w of [0, pi] (columns)."""
    return np.cos(np.outer(np.arange(1, length), np.linspace(0.0, np.pi, 4 * length + 1)))


def _psd(lag0: int, lags, cosines: np.ndarray) -> np.ndarray:
    """lag0 + 2 * sum_j lags_j * cos(j * w) at each sample of `cosines`, in
    float64, for one lag tuple or for each row of an array of them: the PSD
    of the sequences of one profile, or of the pairs whose profiles add up
    to a target."""
    return lag0 + 2 * (np.asarray(lags, dtype=np.float64) @ cosines)


def _multipliers(count: int):
    """Vectors of `count` odd uint64 multipliers for ProfileIndex's hash,
    one after another, from a splitmix64 stream with a fixed seed: every
    index of a length draws the same ones, and numpy.random stays unloaded."""
    state = 0
    while True:
        draws = []
        for _ in range(count):
            state = (state + 0x9E3779B97F4A7C15) & _MASK64
            z = ((state ^ state >> 30) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ z >> 27) * 0x94D049BB133111EB) & _MASK64
            draws.append(z ^ z >> 31 | 1)
        yield np.array(draws, dtype=np.uint64)


class ProfileIndex:
    """Every binary sequence of one length, grouped by positive-lag profile,
    in arrays only: no Python object per sequence.

    `profiles` holds the distinct profiles as int8 rows (|p_j| <= length - j)
    in position order: by the squared sum length + 2 * sum(p) of their
    sequences, largest first (the bits order of the sums' first sequences),
    then by the bits (see int_to_seq) of their first sequences.  Each
    profile's sequences are kept as bits, in order.  `probes_by_residual`
    maps each admissible c^2 + d^2 to how many C-profiles leave an admissible d^2.

    At the five _KEY_ANGLES the PSD of a profile's sequences, |X(e^{iw})|^2 =
    length + 2 * sum_j p_j * cos(j * w), is an exact integer, linear in p:
    `keys` holds each profile's key vector K(p) = length + key_matrix @ p (the
    "compression" of Dokovic and Kotsireas).  The profiles are grouped by key
    vector and hashed by h(p) = p . multipliers mod 2^64, odd multipliers
    redrawn until every hash is distinct.  join() is the only reader of this
    layout, and the threads of a pooled search share one index.
    """

    def __init__(self, length: int):
        self.length = length
        width = max(length - 1, 0)
        try:
            lags = np.empty((1 << length, width), dtype=np.int8)  # row b: int_to_seq(b)'s profile
        except ValueError as exc:  # from length 58 on, numpy cannot even shape the table
            raise MemoryError(f"no table of 2^{length} profiles: {exc}") from None
        for lo in range(0, len(lags), _BUILD_ROWS):
            bits = np.arange(lo, min(lo + _BUILD_ROWS, len(lags)))
            lags[lo : lo + _BUILD_ROWS] = bit_lags(bits, length, width)
        rows = lags.view(np.dtype((np.void, width))).ravel() if width else np.zeros(len(lags))
        _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
        squares = length + 2 * lags[first].sum(axis=1)
        order = np.lexsort((first, -squares))  # the profile at each position
        self.profiles = lags[first[order]]
        self._seq_bits = _grouped(np.argsort(order)[inverse])  # each position's sequences
        sizes = Counter(squares.tolist())
        self.probes_by_residual = {c2 + d2: sum(n for s, n in sizes.items() if c2 + d2 - s in sizes)
                                   for c2 in sizes for d2 in sizes}
        self.cosines = _psd_cosines(length)
        angles = np.outer(_KEY_ANGLES, np.arange(1, length))
        self.key_matrix = np.rint(2 * np.cos(angles)).astype(np.int64)
        self.keys = length + self.profiles @ self.key_matrix.T
        # each key coordinate is a PSD, in [0, length^2]: one mixed-radix code per key vector
        self._radix = (length * length + 1) ** np.arange(len(_KEY_ANGLES), dtype=np.int64)
        self._group_codes, group_of = np.unique(self.keys @ self._radix, return_inverse=True)
        self._key_groups = _grouped(group_of)  # each key group's positions
        for multipliers in _multipliers(width):
            self._hashes = self.profiles.astype(np.uint64) @ multipliers
            self._hash_order = np.argsort(self._hashes)
            self._sorted_hashes = self._hashes[self._hash_order]
            if (self._sorted_hashes[1:] != self._sorted_hashes[:-1]).all():
                break
        self.multipliers = multipliers
        # the top bits of a hash pick its bucket, one of 4 to 8 per profile:
        # a run of _sorted_hashes, from _bucket_starts[b] to _bucket_starts[b + 1]
        bits = len(self.profiles).bit_length() + 2
        self._shift = np.uint64(64 - bits)
        self._bucket_starts = np.searchsorted(
            self._sorted_hashes >> self._shift, np.arange((1 << bits) + 1, dtype=np.uint64)
        ).astype(np.int32)

    def join(self, targets: np.ndarray) -> list[tuple[list, int]]:
        """Every (C, D) whose positive-lag profiles add up to a target, for
        each row of the integer array `targets` of shape (k, length - 1).

        A target's residual c^2 + d^2 = 2 * length + 2 * sum(target) leaves
        probes_by_residual[residual] C-profiles to probe, each one counted.
        A target with a pair has R(w) = PSD_C(w) + PSD_D(w) = 2 * length +
        2 * sum_j target_j * cos(j * w) >= 0: one float product screens all
        rows at 4 * length + 1 samples (within _PSD_MARGIN), and the live ones
        go to the exact keyed stage, _JOIN_CELLS (target, key group) cells at
        a time.  Only the sequences of the hits' profiles become tuples.

        Returns one (pairs, probes) per row, in row order: its (C, D) pairs as
        one flat list, by C's position and then by C's and D's bits, and its
        C-profiles probed."""
        residuals = (2 * self.length + 2 * targets.sum(axis=1)).tolist()
        joined = [([], self.probes_by_residual.get(residual, 0)) for residual in residuals]
        # R + margin, at least 0 at every sample for a live target
        bounds = _psd(2 * self.length, targets, self.cosines) + _PSD_MARGIN
        live = np.flatnonzero(bounds.min(axis=1) >= 0)
        step = max(_JOIN_CELLS // len(self._group_codes), 1)
        hits = [np.empty((3, 0), dtype=np.intp)]
        for lo in range(0, len(live), step):
            rows, c, d = self._keyed_hits(targets[live[lo : lo + step]])
            hits.append(np.stack([live[lo + rows], c, d]))
        hits = np.concatenate(hits, axis=1)
        named = list(dict.fromkeys(hits[1:].ravel().tolist()))
        bits, sizes = _runs(self._seq_bits, named)
        seqs = map(tuple, bit_rows(bits, self.length).tolist())
        seqs = {p: list(islice(seqs, size)) for p, size in zip(named, sizes.tolist())}
        for row, c, d in zip(*hits.tolist()):
            joined[row][0].extend(product(seqs[c], seqs[d]))
        return joined

    def _keyed_hits(self, targets: np.ndarray):
        """Every (row, C position, D position) whose profiles add up to a
        row of `targets`, as three arrays sorted by row and then C position.

        K and h are linear: C can only lie in a key group g whose complement
        K(t) - K(g) is a group's key, with K(t) = 2 * length + key_matrix @ t,
        and D's hash is h(t) - h(C) mod 2^64, looked up by _find.  A key code
        or hash that matches by accident only adds a candidate: each hit is
        confirmed exactly, P[C] + P[D] == t."""
        codes = (2 * self.length + targets @ self.key_matrix.T) @ self._radix
        complements = codes[:, None] - self._group_codes
        found = np.searchsorted(self._group_codes, complements)
        found[found == len(self._group_codes)] = 0
        rows, cells = np.nonzero(self._group_codes[found] == complements)
        # the C-profiles of each matched (row, group) cell
        c, sizes = _runs(self._key_groups, cells)
        rows = np.repeat(rows, sizes)
        hashes = (targets.astype(np.uint64) @ self.multipliers)[rows] - self._hashes[c]
        found, d = self._find(hashes)
        rows, c = rows[found], c[found]
        exact = (self.profiles[d] == targets[rows] - self.profiles[c]).all(axis=1)
        rows, c, d = rows[exact], c[exact], d[exact]
        order = np.lexsort((c, rows))
        return rows[order], c[order], d[order]

    def _find(self, hashes: np.ndarray):
        """The indices of the entries of the uint64 array `hashes` that are a
        profile's hash, and those profiles' positions.  Each hash walks its
        bucket's sorted run while the run's hashes are below it."""
        buckets = hashes >> self._shift
        at, ends = self._bucket_starts[buckets], self._bucket_starts[buckets + np.uint64(1)]
        found = np.empty(0, dtype=np.intp)
        walking = np.flatnonzero(at < ends)
        while walking.size:
            probes = self._sorted_hashes[at[walking]]
            found = np.concatenate([found, walking[probes == hashes[walking]]])
            walking = walking[probes < hashes[walking]]
            at[walking] += 1
            walking = walking[at[walking] < ends[walking]]
        return found, self._hash_order[at[found]]


@cache
def profile_index(length: int) -> ProfileIndex:
    """The ProfileIndex of `length`, built on first use and then shared
    (read-only) for the life of the process."""
    return ProfileIndex(length)


@dataclass(frozen=True, slots=True)
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
    def _trusted_all(cls, quads, kind: str) -> list["SeqQuadruple"]:
        """The quadruples of kind `kind` of the (A, B, C, D) tuples `quads`,
        in order, built without __post_init__'s checks: the one trusted
        constructor.  Only for callers that already hold tuples of plain
        ints in the alphabet of `kind`, with A, B and C, D of equal lengths."""
        made = []
        new = object.__new__
        # the slots' own setters: the frozen __setattr__ refuses, and
        # object.__setattr__ would look each name up first
        for a, b, c, d in quads:
            quad = new(cls)
            _set_a(quad, a)
            _set_b(quad, b)
            _set_c(quad, c)
            _set_d(quad, d)
            _set_kind(quad, kind)
            made.append(quad)
        return made

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


_set_a, _set_b, _set_c, _set_d, _set_kind = (
    getattr(SeqQuadruple, field.name).__set__ for field in fields(SeqQuadruple))


def join_quad(seqs) -> str:
    """The "A;B;C;D" plaintext of four sequences; split_quad reads it."""
    return ";".join(map(seq_str, seqs))


def split_quad(text: str, parse: Callable[[str], Seq]) -> tuple[Seq, ...]:
    """The four sequences of "A;B;C;D" plaintext, each read by `parse`."""
    parts = text.split(";")
    if len(parts) != 4:
        raise ShapeError(f"expected four ';'-separated sequences, got {len(parts)}")
    return tuple(map(parse, parts))


def parsed_quadruple(a: Seq, b: Seq, c: Seq, d: Seq, kind: str) -> SeqQuadruple:
    """The quadruple of kind `kind` of four tuples of plain ints in its
    alphabet, such as parse_seq returns for it (and codec.decode_pair).

    Equal lengths and a known kind are then all that the constructor would
    check, so such a quadruple is built without its checks; any other goes
    through the constructor, which refuses it in its own words."""
    if kind in ALL_KINDS and len(a) == len(b) and len(c) == len(d):
        return SeqQuadruple._trusted_all(((a, b, c, d),), kind)[0]
    return SeqQuadruple(a, b, c, d, kind)


_parse_ternary = partial(parse_seq, ternary=True)


def parse_quad(text: str, kind: str) -> SeqQuadruple:
    """Parse "A;B;C;D" plaintext into a quadruple of the given kind."""
    return parsed_quadruple(*split_quad(text, _parse_ternary if kind == KIND_T else parse_seq), kind)


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


def _lag_failure(j: int, total: int) -> VerificationReport:
    return _fail(f"lag {j}: autocorrelation sum = {total}, expected 0")


def _pair_lags(x: Seq, y: Seq) -> tuple[int, ...]:
    """Lags 1..len-1 of the autocorrelations of x plus those of y, two
    tuples of plain ints of equal length, as plain ints: summed after
    _npaf_array's .tolist(), so exact whatever its dtype."""
    if len(x) < 2:
        return ()
    return tuple(map(add, _npaf_array(x)[1:].tolist(), _npaf_array(y)[1:].tolist()))


# The two verdict memos below are keyed on a quadruple's own fields, which
# SeqQuadruple holds as tuples of plain ints (see _integral), so equal pairs
# given as lists or numpy ints share one entry.
@lru_cache(maxsize=4096)
def _long_pair(a: Seq, b: Seq, kind: str, n: int) -> tuple[
        VerificationReport | None, tuple[int, ...], VerificationReport | None]:
    """What a verdict needs of the long pair (A, B) of a quadruple of kind
    `kind` whose short pair has length n <= len(A): its position failure
    (see _position_failure) or None; its lag sums at lags 1..n-1, which the
    short pair's must cancel; and the failure at its first nonzero lag sum
    beyond lag n - 1, where the short pair has none, or None."""
    lags, short = _pair_lags(a, b), max(n - 1, 0)
    beyond = next((_lag_failure(j, total) for j, total in enumerate(lags[short:], start=short + 1)
                   if total), None)
    return _position_failure(a, b, kind, n), lags[:short], beyond


@lru_cache(maxsize=4096)
def _negated_lags(c: Seq, d: Seq) -> tuple[int, ...]:
    """The lag sums of the short pair (C, D), negated: equal to the long
    pair's lags 1..n-1 exactly when the two cancel there."""
    return negate(_pair_lags(c, d))


def verify_quadruple(q: SeqQuadruple) -> VerificationReport:
    """Decide membership of q in its declared kind.

    Raises ShapeError for shapes that make the question meaningless
    (NS/NN need m = n+1, TS needs all four lengths equal); a clean failure
    of the defining equations is reported as a non-passing verdict naming
    the first violated condition: the shape rule's (ts support), then the
    position rule's, then the lowest lag whose four autocorrelations do not
    cancel.

    Each distinct pair is worked out once while it stays in a memo of 4,096
    pairs, since orbits, archives and checkpoints hold many quadruples over
    few pairs: the long pair (A, B), with its kind and n, gives its position
    failure, its lag sums below n and its first failing lag beyond, and the
    short pair (C, D) its lag sums negated.  After the shape rule, every
    verdict is read off those two lookups; a quadruple passes when neither
    failure is there and the two tuples are equal.
    """
    verdict = _shape_verdict(q)
    if verdict is not None:
        return verdict
    a, b, c, d = q.a, q.b, q.c, q.d
    if len(a) < len(c):  # only in a bs quadruple: (C, D) is its long pair
        a, b, c, d = c, d, a, b
    position, lags, beyond = _long_pair(a, b, q.kind, len(c))
    if position is not None:
        return position
    negated = _negated_lags(c, d)
    if lags == negated:
        return _PASS if beyond is None else beyond
    return next(_lag_failure(j, x - y) for j, (x, y) in enumerate(zip(lags, negated), start=1)
                if x != y)


def first_failing(kind: str, long_pairs, short_pairs, long_ids: np.ndarray,
                  short_ids: np.ndarray) -> int | None:
    """The index i of the first quadruple long_pairs[long_ids[i]] +
    short_pairs[short_ids[i]] that verify_quadruple fails, or None when all
    pass: for quadruples of one shape that fits the binary kind `kind`, with
    (A, B) at least as long as (C, D), so that their shape rule passes.

    It decides off verify_quadruple's two memos, each read once per distinct
    pair: a long pair with a position failure or a failure beyond lag n - 1
    fails with every short pair, and any other passes with exactly the short
    pairs whose negated lags equal its lags, so one array comparison of lag
    tuple ids decides every quadruple.  It words no verdict: verify_quadruple
    words the failure of the quadruple at the index returned."""
    n = len(short_pairs[0][0]) if short_pairs else 0
    codes = {}  # each passing long pair's lag tuple -> its id
    long_codes = [codes.setdefault(lags, len(codes)) if position is None and beyond is None else -1
                  for position, lags, beyond in (_long_pair(a, b, kind, n) for a, b in long_pairs)]
    short_codes = [codes.get(_negated_lags(c, d), -2) for c, d in short_pairs]
    passed = np.array(long_codes, np.intp)[long_ids] == np.array(short_codes, np.intp)[short_ids]
    failed = np.flatnonzero(~passed)
    return int(failed[0]) if len(failed) else None


def _shape_verdict(q: SeqQuadruple) -> VerificationReport | None:
    """Raises ShapeError unless q's shape fits its kind; the failing verdict
    of a ts quadruple's first position without exactly one nonzero entry,
    or None."""
    kind, m, n = q.kind, len(q.a), len(q.c)
    if kind == KIND_T:
        if m != n:
            raise ShapeError("T-sequence quadruple needs four sequences of equal length")
        for i, column in enumerate(zip(*q.seqs()), start=1):
            nonzero = 4 - column.count(0)
            if nonzero != 1:
                return _fail(f"support at position {i}: {nonzero} nonzero entries, expected 1")
    elif kind != KIND_BASE and m != n + 1:
        raise ShapeError(f"kind {kind} needs shape (n+1, n), got ({m}, {n})")
    return None


def _position_failure(a: Seq, b: Seq, kind: str, n: int) -> VerificationReport | None:
    """The failing verdict of an ns or nn pair (A, B) at order n, naming
    its first position that breaks the rule, or None: B repeats A at even
    0-based positions below n, and at the odd ones repeats it (ns) or
    negates it (nn).  Other kinds have no position rule on (A, B)."""
    if kind != KIND_NORMAL and kind != KIND_NEAR_NORMAL:
        return None
    odd = 1 if kind == KIND_NORMAL else -1
    for i in range(n):
        if b[i] != (odd * a[i] if i % 2 else a[i]):
            label = "normality" if kind == KIND_NORMAL else "near-normality"
            return _fail(f"{label} violated at position {i + 1}")
    return None


def sum_of_squares_check(m: int, n: int, sums: tuple[int, int, int, int]) -> bool:
    """Necessary condition for base-sequence membership: the defining identity
    evaluated at z = 1 forces a^2+b^2+c^2+d^2 = 2(m+n)."""
    a, b, c, d = sums
    return a * a + b * b + c * c + d * d == 2 * (m + n)


def negate(seq: Seq) -> Seq:
    return tuple(map(neg, seq))


def reverse(seq: Seq) -> Seq:
    return seq[::-1]


def alternate(seq: Seq) -> Seq:
    """Multiply entry i (1-based) by (-1)^i; scales lag-j correlations by (-1)^j."""
    return tuple(-v if i % 2 == 0 else v for i, v in enumerate(seq))
