"""Embedded ground-truth records and existence statuses, plus archive files.

The witness table bundles the published classification rows for near-normal
quadruples of orders 34 and 36 in their compact digit encoding; every record
is decoded and re-verified at load time, so a corrupted table cannot go
unnoticed.  Statuses carry provenance strings so that any future regression
of the tables is traceable to the claim it contradicts.
"""

from dataclasses import dataclass
from functools import cached_property

from . import codec
from .construct import is_golay_number
from .seqcore import (
    KIND_BASE,
    KIND_NEAR_NORMAL,
    KIND_NORMAL,
    QuadseqError,
    SeqQuadruple,
    read_text,
    verify_quadruple,
    write_text_atomic,
)

NON_EMPTY = "NonEmpty"
EMPTY = "Empty"
UNKNOWN = "Unknown"

# Orders n <= 33 with no normal quadruple of shape (n+1, n); the
# classification is exact, so every other order <= 33 is populated.
NS_EMPTY_ORDERS = frozenset({6, 14, 17, 21, 22, 23, 24, 27, 28, 30, 31, 33})

# Orders 34 and 35 were emptied by exhaustive search.
NS_EMPTY_SEARCHED = frozenset({34, 35})

# Near-normal class counts for even orders 2..34, kept as calibration data
# only: they were produced under an equivalence whose exact canonical form is
# not reconstructible here (the group of search.nn_orbit matches them only up
# to order 10).
NN_CLASS_COUNTS = {
    2: 1, 4: 2, 6: 2, 8: 3, 10: 8, 12: 14, 14: 11, 16: 24, 18: 20,
    20: 18, 22: 32, 24: 12, 26: 3, 28: 20, 30: 9, 32: 8, 34: 5,
}

# (n, ab code, cd code, printed sums)
_WITNESS_ROWS = (
    (34, "076417646512321462", "16738541372344337", (7, 7, -2, 6)),
    (34, "076535878535141762", "17677852174231455", (-5, 7, 0, 8)),
    (34, "076782178767646231", "17621532262576812", (-5, 3, 10, -2)),
    (34, "058214353712141461", "11868756376664254", (11, 3, -2, 2)),
    (34, "053765656464871261", "17765746348615187", (1, 1, -6, 10)),
    (36, "0764841234846532153", "165154775335162126", (3, -3, 8, 8)),
)


class CatalogError(QuadseqError):
    """Corrupt embedded data or archive content."""


class RecordFailsVerification(CatalogError):
    """An archive record that parses but is not a member of its kind."""


@dataclass(frozen=True)
class KnownStatus:
    kind: str
    order: int
    status: str
    provenance: str


@dataclass(frozen=True)
class WitnessRecord:
    """A quadruple and where it came from.  Its record codes (None when its
    record line is plaintext) and sums are derived from it on first read."""

    quad: SeqQuadruple
    provenance: str

    @cached_property
    def _codes(self) -> tuple[str | None, str | None]:
        return codec.record_codes(self.quad) or (None, None)

    @property
    def ab_code(self) -> str | None:
        return self._codes[0]

    @property
    def cd_code(self) -> str | None:
        return self._codes[1]

    @cached_property
    def sums(self) -> tuple[int, int, int, int]:
        return self.quad.sums()


def witness_records() -> list[WitnessRecord]:
    """The six bundled near-normal records: five of order 34, one of order 36.

    Each is decoded, verified and checked against its recorded sums on every
    call; a failure here is a build-breaking data error, not a verdict.
    """
    records = []
    for n, ab, cd, sums in _WITNESS_ROWS:
        quad = codec.decode_quadruple(n, ab, cd)
        records.append(record_for_quad(quad, f"near-normal classification row, order {n}"))
        if quad.sums() != sums:
            raise CatalogError(f"embedded record for order {n}: sums {quad.sums()} "
                               f"do not match the recorded column {sums}")
    return records


def status(kind: str, n: int) -> KnownStatus:
    """Strongest supported existence status for the class at order n.

    kind "bs" refers to the shifted shape (n+1, n).  Orders outside the
    covered ranges come back Unknown rather than guessed.
    """
    if n < 0:
        raise CatalogError("order must be nonnegative")
    if kind == KIND_NORMAL:
        if n in NS_EMPTY_SEARCHED:
            return KnownStatus(kind, n, EMPTY, "exhaustive search, orders 34 and 35")
        if n <= 33:
            if n in NS_EMPTY_ORDERS:
                return KnownStatus(kind, n, EMPTY, "exact classification of orders <= 33")
            return KnownStatus(kind, n, NON_EMPTY, "exact classification of orders <= 33")
        if is_golay_number(n):
            return KnownStatus(kind, n, NON_EMPTY, "Golay pair construction")
        return KnownStatus(kind, n, UNKNOWN, "outside classified range")
    if kind == KIND_NEAR_NORMAL:
        if n % 2 == 1:
            if n == 1:
                # (+ +; + -; +; +) is near-normal of shape (2, 1); the parity
                # obstruction only bites at odd orders >= 3.
                return KnownStatus(kind, n, NON_EMPTY, "direct construction at order 1")
            return KnownStatus(kind, n, EMPTY, "parity obstruction, odd orders > 1")
        if n <= 32:
            return KnownStatus(
                kind, n, NON_EMPTY, "classification of even orders <= 32 (no embedded witness)"
            )
        if n in (34, 36):
            return KnownStatus(kind, n, NON_EMPTY, "embedded witness record")
        return KnownStatus(kind, n, UNKNOWN, "beyond classified even orders")
    if kind == KIND_BASE:
        if n <= 36:
            return KnownStatus(kind, n, NON_EMPTY, "shifted-shape conjecture confirmed for n <= 36")
        if is_golay_number(n):
            return KnownStatus(kind, n, NON_EMPTY, "Golay pair construction")
        return KnownStatus(kind, n, UNKNOWN, "outside confirmed range")
    raise CatalogError(f"no status table for kind {kind!r}")


def is_yang_number(n: int):
    """True iff the odd integer n = 2s+1 admits a normal or near-normal
    quadruple at order s; None when the tables cannot decide.

    Derived from the status tables rather than hard-coded, so the published
    characterization for odd n <= 73 is a checked consequence.
    """
    if n < 1 or n % 2 == 0:
        raise CatalogError(f"Yang numbers are odd positive integers, got {n}")
    s = (n - 1) // 2
    statuses = (status(KIND_NORMAL, s).status, status(KIND_NEAR_NORMAL, s).status)
    if NON_EMPTY in statuses:
        return True
    if statuses == (EMPTY, EMPTY):
        return False
    return None


def archive_save(records: list[WitnessRecord], path: str) -> None:
    """Write records to a text archive, one record line each, preceded by a
    '#' provenance comment; the whole file is replaced atomically.

    A provenance that archive_load would not read back unchanged, one
    holding a line break or with whitespace at either end, is refused with
    CatalogError before anything is written."""
    for rec in records:
        text = rec.provenance
        if "\n" in text or "\r" in text or text != text.strip():
            raise CatalogError(f"provenance {text!r} would not read back unchanged: "
                               "it holds a line break or starts or ends with whitespace")
    lines = []
    for rec in records:
        if rec.provenance:
            lines.append(f"# {rec.provenance}")
        lines.append(codec.format_record(rec.quad))
    write_text_atomic(path, "\n".join(lines) + ("\n" if lines else ""))


def archive_load(path: str) -> list[WitnessRecord]:
    """Read an archive, re-verifying every record; corrupt records are
    rejected with their line number and identity, and a file that is not
    UTF-8 is refused."""
    records = []
    provenance = ""
    for lineno, raw in enumerate(read_text(path, CatalogError).split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            provenance = line.lstrip("#").strip()
            continue
        try:
            quad = codec.parse_record(line)
        except QuadseqError as exc:
            raise CatalogError(f"line {lineno}: {exc}") from exc
        verify_quadruple(quad).require(
            RecordFailsVerification,
            f"line {lineno}: record {quad.kind} of shape {quad.shape} fails verification")
        records.append(WitnessRecord(quad, provenance))
        provenance = ""
    return records


def record_for_quad(quad: SeqQuadruple, provenance: str = "") -> WitnessRecord:
    """Wrap a verified quadruple as a record."""
    verify_quadruple(quad).require(CatalogError, "refusing to record a failing quadruple")
    return WitnessRecord(quad, provenance)
