import copy
import itertools
import pickle
import re
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadseq.codec import parse_record
from quadseq.construct import (
    ConstructionError,
    GolayPair,
    SymbolicMatrix,
    bs_to_ts,
    golay_double,
    golay_pair,
    golay_search,
    golay_to_ns,
    is_golay_number,
    load_golay_seeds,
    matrix_from_text,
    matrix_to_text,
    od_substitute,
    parse_golay_pair,
    pm_matrix_to_text,
    ts_to_od,
    verify_od,
)
from quadseq.seqcore import AlphabetError, SeqQuadruple, parse_quad, verify_quadruple

from naive_oracle import (
    brute_force_golay, design_failure, npaf_double_sum, substitute, substitution_failure,
)
from published import ROW36_RECORD


def test_halving_smallest_case():
    quad = parse_quad("+;+;+;+", "bs")
    tseq = bs_to_ts(quad)
    assert tseq.seqs() == ((1, 0), (0, 0), (0, 1), (0, 0))
    assert verify_quadruple(tseq).passed


def test_halving_golay_derived_case():
    quad = parse_quad("++;+-;++;+-", "bs")
    tseq = bs_to_ts(quad)
    assert tseq.seqs() == (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    )


def test_halving_rejects_non_members():
    with pytest.raises(ConstructionError):
        bs_to_ts(parse_quad("++;++;+;+", "bs"))
    with pytest.raises(ConstructionError):
        bs_to_ts(parse_quad("+0;00;0+;00", "ts"))


def test_halving_all_small_members(small_bs_members):
    for quad in small_bs_members:
        tseq = bs_to_ts(quad)
        assert tseq.n == quad.m + quad.n
        assert verify_quadruple(tseq).passed


def test_halving_published_row_gives_length_73():
    tseq = bs_to_ts(parse_record(ROW36_RECORD))
    assert tseq.n == 73
    assert verify_quadruple(tseq).passed


def quaternion_design():
    return ts_to_od(parse_quad("+;0;0;0", "ts"))


def test_design_from_unit_t_sequence():
    design = quaternion_design()
    assert design.order == 4 and design.signature == (1, 1, 1, 1)
    assert verify_od(design).passed
    assert all(v != 0 for row in design.grid for v in row)


def test_design_from_length_two_t_sequence():
    tseq = bs_to_ts(parse_quad("+;+;+;+", "bs"))
    design = ts_to_od(tseq)
    assert design.order == 8 and design.signature == (2, 2, 2, 2)
    assert verify_od(design).passed


def test_design_verifier_names_failing_cell():
    design = quaternion_design()
    grid = [list(row) for row in design.grid]
    grid[0][1] = -grid[0][1]
    broken = SymbolicMatrix(design.order, design.nvars,
                            tuple(tuple(r) for r in grid), design.signature)
    report = verify_od(broken)
    assert not report.passed
    assert report.failure == "monomial x1*x2 at cell (0, 1): coefficient 2, expected 0"


def test_design_grid_is_one_read_only_array():
    design = quaternion_design()
    assert isinstance(design.grid, np.ndarray) and design.grid.dtype == np.int64
    with pytest.raises(ValueError):
        design.grid[0, 0] = 0
    # the grid passed in is copied, not frozen or aliased
    grid = np.array(design.grid)
    copy = SymbolicMatrix(4, 4, grid, design.signature)
    grid[0, 0] = 0
    assert copy == design and grid.flags.writeable


def test_design_grid_stays_read_only_through_pickle_and_deepcopy():
    design = quaternion_design()
    for again in (pickle.loads(pickle.dumps(design)), copy.deepcopy(design)):
        assert again == design and again.grid.dtype == np.int64
        assert not again.grid.flags.writeable


@pytest.mark.parametrize("grid,message", [
    (((1, 0), (0,)), "does not match declared order"),
    (((1, 0),), "does not match declared order"),
    (((1, 0), (0, 1.5)), "must be integers"),
    (((1, 0), (0, "1")), "must be integers"),
    (((1, 0), (0, 2)), "entry 2 references variable beyond 1"),
    (((1, -(2**63)), (0, 1)), "entry -9223372036854775808 references variable beyond 1"),
])
def test_symbolic_matrix_rejects_bad_grids(grid, message):
    with pytest.raises(ConstructionError, match=message):
        SymbolicMatrix(2, 1, grid, (1,))


# valid designs of orders 2, 4 and 8, as (grid, signature)
_VALID_DESIGNS = [
    (((1, 0), (0, 1)), (1,)),
    (quaternion_design().grid.tolist(), (1, 1, 1, 1)),
    (ts_to_od(bs_to_ts(parse_quad("+;+;+;+", "bs"))).grid.tolist(), (2, 2, 2, 2)),
]


@st.composite
def _signed_grids(draw):
    """A valid design with up to two cells rewritten, or a random grid."""
    if draw(st.booleans()):
        grid, signature = draw(st.sampled_from(_VALID_DESIGNS))
        grid = [list(row) for row in grid]
        for _ in range(draw(st.integers(0, 2))):
            r, c = draw(st.integers(0, len(grid) - 1)), draw(st.integers(0, len(grid) - 1))
            grid[r][c] = draw(st.integers(-len(signature), len(signature)))
        return grid, signature
    n, u = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    entries = st.integers(-u, u)
    grid = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    return grid, tuple(draw(st.lists(st.integers(0, n), min_size=u, max_size=u)))


# value sizes on both sides of the float64 bound N * max|v|^2 < 2^53, N <= 8
_VALUES = st.one_of(st.integers(-3, 3), st.integers(-(2**27), 2**27), st.integers(-(2**70), 2**70))


@settings(max_examples=300, deadline=None)
@given(_signed_grids(), st.data())
def test_design_checks_match_the_python_int_reference(design, data):
    grid, signature = design
    s = SymbolicMatrix(len(grid), len(signature), grid, signature)
    assert verify_od(s).failure == design_failure(grid, signature)
    values = tuple(data.draw(st.lists(_VALUES, min_size=len(signature), max_size=len(signature))))
    h, report = od_substitute(s, values)
    assert h.tolist() == substitute(grid, values)
    assert report.failure == substitution_failure(grid, signature, values)


@pytest.mark.parametrize("side", [0, 1])
def test_substitution_at_the_float64_bound(side):
    # the largest value whose products are exact in float64 at order 4, and
    # one more; flipping one cell makes a failure that names exact values
    peak = isqrt((2**53 - 1) // 4) + side
    design = quaternion_design()
    values = (peak, peak - 1, 3, -peak)
    h, report = od_substitute(design, values)
    assert report.passed
    assert h.tolist() == substitute(design.grid.tolist(), values)
    grid = design.grid.tolist()
    grid[1][2] = -grid[1][2]
    broken = SymbolicMatrix(4, 4, grid, design.signature)
    assert od_substitute(broken, values)[1].failure == substitution_failure(grid, design.signature, values)


@pytest.mark.parametrize("values", [(2**32, 1, 1, 1), (2**27 + 1, 0, 0, 0), (2**70, -(2**64), 1, 0)])
def test_substitution_exact_for_large_values(values):
    # these used to raise OverflowError; 2^54 + 2^28 + 1 has no float64
    h, report = od_substitute(quaternion_design(), values)
    assert report.passed
    expected = sum(v * v for v in values)
    assert (h.astype(object) @ h.T.astype(object)).tolist() == (expected * np.eye(4, dtype=object)).tolist()


def test_order_1284_design_from_golay_pair():
    # Golay pair 160 -> NS(160) -> T-sequences of length 321 -> order 1284;
    # ts_to_od raises unless verify_od passes
    design = ts_to_od(bs_to_ts(golay_to_ns(golay_pair(160))))
    assert design.order == 1284 and design.signature == (321,) * 4
    h, report = od_substitute(design, (1, -1, 1, 1), require_hadamard=True)
    assert report.passed
    hf = h.astype(np.float64)
    assert np.array_equal(hf @ hf.T, 1284 * np.eye(1284))


def test_design_rejects_non_t_input():
    with pytest.raises(ConstructionError):
        ts_to_od(parse_quad("+;+;+;+", "bs"))
    with pytest.raises(ConstructionError):
        ts_to_od(parse_quad("++;00;0+;00", "ts"))
    # length-0 T-sequences pass the verifier but give no design
    with pytest.raises(ConstructionError, match="length 0"):
        ts_to_od(bs_to_ts(parse_quad(";;;", "bs")))


def test_substitution_yields_hadamard():
    design = quaternion_design()
    h, report = od_substitute(design, (1, 1, 1, 1), require_hadamard=True)
    assert report.passed
    assert np.array_equal(h @ h.T, 4 * np.eye(4, dtype=np.int64))
    tseq = bs_to_ts(parse_quad("+;+;+;+", "bs"))
    h8, report8 = od_substitute(ts_to_od(tseq), (1, -1, 1, -1), require_hadamard=True)
    assert report8.passed
    assert np.array_equal(h8 @ h8.T, 8 * np.eye(8, dtype=np.int64))


def test_substitution_all_sign_patterns_small():
    designs = [quaternion_design(), ts_to_od(bs_to_ts(parse_quad("+;+;+;+", "bs")))]
    for design in designs:
        for values in itertools.product((1, -1), repeat=4):
            h, report = od_substitute(design, values, require_hadamard=True)
            assert report.passed
            assert np.array_equal(
                h @ h.T, design.order * np.eye(design.order, dtype=np.int64)
            )


def test_substitution_general_integers():
    h, report = od_substitute(quaternion_design(), (2, 1, 0, 1))
    assert report.passed
    assert np.array_equal(h @ h.T, 6 * np.eye(4, dtype=np.int64))
    with pytest.raises(TypeError):  # an int64 table would truncate 1.5
        od_substitute(quaternion_design(), (1.5, 1, 1, 1))


def test_substitution_zero_support_error():
    diag = SymbolicMatrix(2, 1, ((1, 0), (0, 1)), (1,))
    assert verify_od(diag).passed
    with pytest.raises(ConstructionError, match="zero support"):
        od_substitute(diag, (1,), require_hadamard=True)
    with pytest.raises(ConstructionError):
        od_substitute(diag, (1, 1))


def test_golay_double_examples():
    assert golay_double(GolayPair((1,), (1,))) == GolayPair((1, 1), (1, -1))
    doubled = golay_double(GolayPair((1, 1), (1, -1)))
    assert doubled.length == 4 and doubled.is_valid()
    pair = GolayPair((1,), (1,))
    for _ in range(3):
        pair = golay_double(pair)
    assert pair.length == 8 and pair.is_valid()
    with pytest.raises(ConstructionError):
        golay_double(GolayPair((1, 1), (1, 1)))


@pytest.mark.parametrize("entry", [2, 1.5, "1"])
def test_golay_pair_rejects_non_binary_entries(entry):
    # a non-binary pair used to pass is_valid, and the int64 kernel truncated 1.5
    with pytest.raises(AlphabetError):
        GolayPair((entry,), (entry,))
    with pytest.raises(AlphabetError):
        GolayPair((1, 1), (1, entry))


def test_golay_double_every_small_pair():
    for g in (1, 2, 4, 8, 10):
        for pair in golay_search(g):
            assert golay_double(pair).is_valid()


def test_golay_validity_is_the_npaf_definition_and_golay_search_finds_every_valid_pair():
    # is_valid checks a pair as the base quadruple BS(g, 0); the definition:
    # the two autocorrelations cancel at every positive lag
    for g in range(7):
        seqs = list(itertools.product((1, -1), repeat=g))
        valid = set()
        for a, b in itertools.product(seqs, repeat=2):
            cancels = all(x + y == 0 for x, y in zip(npaf_double_sum(a)[1:], npaf_double_sum(b)[1:]))
            assert GolayPair(a, b).is_valid() == cancels, (a, b)
            if cancels:
                valid.add((a, b))
        assert {(p.a, p.b) for p in golay_search(g)} == valid, g


def test_golay_search_counts():
    assert len(golay_search(2)) == 8
    assert golay_search(3) == []
    assert golay_search(5) == []
    assert golay_search(6) == []
    assert golay_search(7) == []
    assert golay_search(10)
    with pytest.raises(ConstructionError):
        golay_search(13)


@pytest.mark.parametrize("g", [0, 1, 2, 3])
def test_golay_search_matches_brute_force(g):
    got = {(p.a, p.b) for p in golay_search(g)}
    assert got == set(brute_force_golay(g))


@pytest.mark.parametrize("g", [1, 2, 4, 8])
def test_golay_search_order(g):
    # first sequences in bits order (entry i is -1 iff bit i is set), and
    # the partners of each in the same order
    def bits(seq):
        return sum(1 << i for i, v in enumerate(seq) if v < 0)

    got = [(p.a, p.b) for p in golay_search(g)]
    assert got == sorted(brute_force_golay(g), key=lambda pair: (bits(pair[0]), bits(pair[1])))


def test_is_golay_number():
    assert is_golay_number(26)
    assert is_golay_number(20)
    assert is_golay_number(1)
    assert is_golay_number(100)
    assert is_golay_number(640)
    assert not is_golay_number(73)
    assert not is_golay_number(5)
    assert not is_golay_number(50)
    assert not is_golay_number(3)
    with pytest.raises(ConstructionError):
        is_golay_number(0)


def test_golay_pair_via_doubling():
    for g in (1, 2, 4, 8, 16, 10, 20, 40):
        pair = golay_pair(g)
        assert pair.length == g
        assert pair.is_valid()
    with pytest.raises(ConstructionError):
        golay_pair(3)
    with pytest.raises(ConstructionError):
        golay_pair(26)  # needs an external seed
    with pytest.raises(ConstructionError):
        golay_pair(100)  # needs a pair product


def test_golay_pair_prefers_supplied_seed():
    seed = golay_search(10)[3]
    pair = golay_pair(20, seeds=[seed])
    assert pair.is_valid()
    assert pair.a[:10] == seed.a  # doubling concatenates the supplied seed
    # a supplied seed of the right length is verified before use
    fake = GolayPair((1,) * 10, (1,) * 10)
    with pytest.raises(ConstructionError):
        golay_pair(20, seeds=[fake])
    # seeds of other lengths are simply not consulted
    assert golay_pair(20, seeds=[GolayPair((1, 1), (1, 1))]).is_valid()


def test_golay_seed_file(tmp_path):
    path = tmp_path / "seeds.txt"
    path.write_text("# a doubled pair\n++;+-\n")
    [pair] = load_golay_seeds(str(path))
    assert pair == GolayPair((1, 1), (1, -1))
    bad = tmp_path / "bad.txt"
    bad.write_text("++;++\n")
    with pytest.raises(ConstructionError):
        load_golay_seeds(str(bad))


@pytest.mark.parametrize("line,message", [
    ("++;+x", "line 2: bad sequence character 'x'"),
    ("++;+-;+", "line 2: expected two ';'-separated sequences"),
    ("++;+", "line 2: pair sequences must have equal length"),
    ("++;++", "line 2: autocorrelations do not cancel: lag 1: autocorrelation sum = 2, expected 0"),
])
def test_every_seed_file_error_names_its_line(tmp_path, line, message):
    path = tmp_path / "seeds.txt"
    path.write_text(f"# one bad pair\n{line}\n")
    with pytest.raises(ConstructionError, match=re.escape(message)):
        load_golay_seeds(str(path))


def test_a_seed_file_that_is_not_utf8_is_refused(tmp_path):
    path = tmp_path / "seeds.txt"
    path.write_bytes(b"\xff\xfe\x00garbage\n")
    with pytest.raises(ConstructionError, match=re.escape(f"{path} is not UTF-8 text")):
        load_golay_seeds(str(path))


@pytest.mark.parametrize("refuse,pair,context", [
    (golay_double, GolayPair((1, 1), (1, 1)), "input pair's autocorrelations do not cancel"),
    (golay_to_ns, GolayPair((1, 1), (1, 1)), "input pair's autocorrelations do not cancel"),
    (lambda seed: golay_pair(20, [seed]), GolayPair((1,) * 10, (1,) * 10),
     "length-10 seed pair's autocorrelations do not cancel"),
])
def test_golay_refusals_name_the_failing_lag(refuse, pair, context):
    # through VerificationReport.require, on the pair's BS(g, 0) verdict
    with pytest.raises(ConstructionError) as info:
        refuse(pair)
    assert pair.report().failure.startswith("lag 1: ")
    assert str(info.value) == f"{context}: {pair.report().failure}"


def test_golay_pair_lines_parse_back_to_their_pairs():
    pairs = golay_search(10)
    assert pairs and [parse_golay_pair(pair.plaintext()) for pair in pairs] == pairs


def test_golay_to_ns():
    quad = golay_to_ns(GolayPair((1,), (1,)))
    assert quad.seqs() == ((1, 1), (1, -1), (1,), (1,))
    assert verify_quadruple(quad).passed
    quad = golay_to_ns(GolayPair((1, 1), (1, -1)))
    assert quad.kind == "ns" and quad.shape == (3, 2)
    assert verify_quadruple(quad).passed
    quad10 = golay_to_ns(golay_pair(10))
    assert quad10.shape == (11, 10)
    assert verify_quadruple(quad10).passed
    with pytest.raises(ConstructionError):
        golay_to_ns(GolayPair((1, 1), (1, 1)))


def test_matrix_serialization_round_trip():
    design = ts_to_od(bs_to_ts(parse_quad("+;+;+;+", "bs")))
    text = matrix_to_text(design)
    lines = text.splitlines()
    assert lines[0] == "8 4"
    again = matrix_from_text(text)
    assert again == design
    h, _report = od_substitute(design, (1, 1, 1, 1))
    pm = pm_matrix_to_text(h)
    assert set(pm) <= {"+", "-", "\n"} and len(pm.splitlines()) == 8
    # the cell-by-cell reference
    assert pm == "".join("".join("+" if v > 0 else "-" for v in row) + "\n" for row in h)


@pytest.mark.parametrize("text", ["2 1\n1 0\n0\n", "2 1\n1 0\n0 1 0\n", "0 0\n"])
def test_matrix_from_text_rejects_ragged_rows(text):
    with pytest.raises(ConstructionError, match="does not match declared order"):
        matrix_from_text(text)
