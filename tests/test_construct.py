import itertools

import numpy as np
import pytest

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
    pm_matrix_to_text,
    ts_to_od,
    verify_od,
)
from quadseq.seqcore import AlphabetError, SeqQuadruple, parse_quad, verify_quadruple

from naive_oracle import brute_force_golay
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
    assert "cell" in report.failure and "monomial" in report.failure


def test_design_rejects_non_t_input():
    with pytest.raises(ConstructionError):
        ts_to_od(parse_quad("+;+;+;+", "bs"))
    with pytest.raises(ConstructionError):
        ts_to_od(parse_quad("++;00;0+;00", "ts"))


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
