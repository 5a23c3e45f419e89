"""Workbench for complementary sequence quadruples and the matrix
constructions built from them: verification, compact encoding, exhaustive
search, and the chain from quadruples through T-sequences and orthogonal
designs to Hadamard matrices."""

from .seqcore import (
    KIND_BASE,
    KIND_NEAR_NORMAL,
    KIND_NORMAL,
    KIND_T,
    QuadseqError,
    SeqQuadruple,
    VerificationReport,
    parse_quad,
    parse_seq,
    seq_str,
    sum_of_squares_check,
    verify_quadruple,
)
from .codec import decode_pair, encode_pair, parse_record, format_record
from .construct import (
    GolayPair,
    SymbolicMatrix,
    bs_to_ts,
    golay_double,
    golay_pair,
    golay_search,
    golay_to_ns,
    is_golay_number,
    od_substitute,
    ts_to_od,
    verify_od,
)
from .search import (
    SearchSpec,
    SearchResult,
    canonicalize,
    enumerate_cases,
    nn_orbit,
)
from .catalog import (
    KnownStatus,
    WitnessRecord,
    archive_load,
    archive_save,
    is_yang_number,
    status,
    witness_records,
)

__all__ = [name for name in dir() if not name.startswith("_")]
