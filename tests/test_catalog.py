import dataclasses

import pytest

from quadseq.catalog import (
    EMPTY,
    NN_CLASS_COUNTS,
    NON_EMPTY,
    NS_EMPTY_ORDERS,
    UNKNOWN,
    CatalogError,
    WitnessRecord,
    archive_load,
    archive_save,
    is_yang_number,
    record_for_quad,
    status,
    witness_records,
)
from quadseq.search import SearchSpec, search
from quadseq.seqcore import parse_quad, verify_quadruple

from published import ROWS


def test_witness_records_decode_verify_and_match_sums():
    records = witness_records()
    assert len(records) == 6
    assert [r.quad.n for r in records] == [34, 34, 34, 34, 34, 36]
    for record, (n, ab, cd, sums) in zip(records, ROWS):
        assert record.ab_code == ab and record.cd_code == cd
        assert record.sums == sums
        assert record.quad.kind == "nn"
        assert verify_quadruple(record.quad).passed
    assert records[0].sums == (7, 7, -2, 6)
    assert records[5].sums == (3, -3, 8, 8)


def test_status_examples():
    assert status("ns", 34).status == EMPTY
    assert status("ns", 35).status == EMPTY
    assert status("ns", 6).status == EMPTY
    assert status("ns", 10).status == NON_EMPTY
    assert status("ns", 36).status == UNKNOWN
    assert status("ns", 40).status == NON_EMPTY  # Golay length
    assert status("ns", 0).status == NON_EMPTY
    assert status("nn", 36).status == NON_EMPTY
    assert status("nn", 38).status == UNKNOWN
    assert status("nn", 3).status == EMPTY
    assert status("nn", 1).status == NON_EMPTY  # the odd exception
    assert status("bs", 36).status == NON_EMPTY
    assert status("bs", 37).status == UNKNOWN
    assert status("bs", 52).status == NON_EMPTY
    with pytest.raises(CatalogError):
        status("ts", 4)
    with pytest.raises(CatalogError):
        status("ns", -1)


def test_status_provenance_strings_present():
    for kind in ("ns", "nn", "bs"):
        for n in range(0, 40):
            assert status(kind, n).provenance


def test_yang_examples():
    assert is_yang_number(73) is True
    assert is_yang_number(71) is False
    assert is_yang_number(1) is True
    assert is_yang_number(35) is False
    assert is_yang_number(69) is True
    assert is_yang_number(75) is None  # both constituents unknown/empty
    assert is_yang_number(81) is True  # order 40 is a Golay length
    with pytest.raises(CatalogError):
        is_yang_number(6)
    with pytest.raises(CatalogError):
        is_yang_number(-3)


def test_yang_characterization_below_74():
    exceptions = {35, 43, 47, 55, 63, 67, 71}
    for n in range(1, 74, 2):
        assert is_yang_number(n) is (n not in exceptions)


def test_yang_agrees_with_search_where_decidable(solutions):
    for s in range(0, 11):
        value = is_yang_number(2 * s + 1)
        if value is None:
            continue
        direct = bool(solutions("ns", s)) or bool(solutions("nn", s))
        assert value == direct


def test_statuses_agree_with_search(solutions):
    for n in range(0, 7):
        known = status("ns", n)
        if known.status != UNKNOWN:
            assert (known.status == NON_EMPTY) == bool(solutions("ns", n))
    for s in range(0, 11):
        known = status("nn", s)
        if known.status != UNKNOWN:
            assert (known.status == NON_EMPTY) == bool(solutions("nn", s))


def test_nonempty_near_normal_statuses_are_witnessed(solutions):
    # orders within search reach: a witness comes out of the engine;
    # orders 34/36: embedded records; even 12..32: marked witnessless
    embedded = {r.quad.n for r in witness_records()}
    for s in range(0, 37):
        known = status("nn", s)
        if known.status != NON_EMPTY:
            continue
        if s <= 10:
            assert solutions("nn", s)
        elif s in embedded:
            assert any(r.quad.n == s for r in witness_records())
        else:
            assert "no embedded witness" in known.provenance


def test_class_count_table_shape():
    assert len(NN_CLASS_COUNTS) == 17
    assert list(NN_CLASS_COUNTS) == list(range(2, 35, 2))
    assert NN_CLASS_COUNTS[34] == 5
    assert len(NS_EMPTY_ORDERS) == 12


def test_archive_round_trip(tmp_path):
    path = str(tmp_path / "records.txt")
    records = witness_records()
    archive_save(records, path)
    loaded = archive_load(path)
    assert [r.quad for r in loaded] == [r.quad for r in records]
    assert [r.ab_code for r in loaded] == [r.ab_code for r in records]
    assert [r.provenance for r in loaded] == [r.provenance for r in records]


def test_archive_rejects_corrupt_record(tmp_path):
    path = str(tmp_path / "bad.txt")
    good = witness_records()[0]
    flipped = good.ab_code[:-1] + ("1" if good.ab_code[-1] != "1" else "2")
    with open(path, "w") as fh:
        fh.write("# tampered row\n")
        fh.write(f"nn 34 {flipped} {good.cd_code}\n")
    with pytest.raises(CatalogError, match="line 2"):
        archive_load(path)


def test_archive_that_is_not_utf8_is_refused(tmp_path):
    path = tmp_path / "garbage.txt"
    path.write_bytes(b"\xff\xfe\x00garbage\n")
    with pytest.raises(CatalogError, match=f"{path} is not UTF-8 text"):
        archive_load(str(path))


def test_archive_line_numbers_count_every_newline_convention(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_bytes(b"# crlf\r\n\r# cr\rnn 34 xyz\n")
    with pytest.raises(CatalogError, match="line 4"):
        archive_load(str(path))


def test_archive_edge_cases(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert archive_load(str(empty)) == []
    comments = tmp_path / "comments.txt"
    comments.write_text("# nothing but chatter\n\n# more\n")
    assert archive_load(str(comments)) == []
    malformed = tmp_path / "malformed.txt"
    malformed.write_text("nn 34 xyz\n")
    with pytest.raises(CatalogError, match="line 1"):
        archive_load(str(malformed))


def test_archive_plaintext_fallback(tmp_path):
    # a search hit whose boundary quad is not '0'-form is stored as plaintext
    quad = search(SearchSpec("nn", 2)).solutions[-1]
    record = record_for_quad(quad, "engine output")
    path = str(tmp_path / "mixed.txt")
    archive_save([record] + witness_records(), path)
    loaded = archive_load(path)
    assert loaded[0].quad == quad
    assert len(loaded) == 7


def test_record_for_quad_rejects_failures():
    with pytest.raises(CatalogError):
        record_for_quad(parse_quad("+++;+--;++;++", "nn"))


def test_a_record_archives_its_own_quadruple(tmp_path):
    # a record is (quad, provenance): its codes and sums come from its
    # quadruple, so a record rebuilt around another one carries nothing stale
    row0, row1 = witness_records()[:2]
    with pytest.raises(TypeError):  # codes and sums are no longer passed in
        WitnessRecord(row0.quad, row1.ab_code, row1.cd_code, row0.sums, "")
    assert (row1.ab_code, row1.cd_code, row1.sums) == ROWS[1][1:]
    stale = dataclasses.replace(row1, quad=row0.quad)
    assert (stale.ab_code, stale.cd_code, stale.sums) == ROWS[0][1:]
    fresh = WitnessRecord(row0.quad, "")
    # order-0 and order-1 records have no codes and are stored as plaintext
    tiny = [record_for_quad(q) for q in (parse_quad("+;-;;", "nn"), parse_quad("++;+-;+;+", "nn"))]
    assert [(r.ab_code, r.cd_code) for r in tiny] == [(None, None)] * 2
    path = str(tmp_path / "records.txt")
    archive_save([stale, fresh] + tiny, path)
    assert [r.quad for r in archive_load(path)] == [row0.quad, row0.quad] + [r.quad for r in tiny]


@pytest.mark.parametrize("provenance", [
    "row one\nnn 2 01 6",  # loaded back, the second line was one more record
    "row one\rnn 2 01 6",
    "  #tagged  ",  # loaded back, its spaces were lost
    "tagged\t",
    " ",
])
def test_archive_save_refuses_a_provenance_it_would_not_read_back(tmp_path, provenance):
    path = tmp_path / "records.txt"
    path.write_text("kept\n")
    row = witness_records()[0]
    with pytest.raises(CatalogError, match="would not read back unchanged"):
        archive_save([row, WitnessRecord(row.quad, provenance)], str(path))
    assert path.read_text() == "kept\n"
    assert not (tmp_path / "records.txt.tmp").exists()


def test_archive_keeps_every_provenance_it_accepts(tmp_path):
    path = str(tmp_path / "records.txt")
    quad = witness_records()[0].quad
    provenances = ["", "#tagged", "# twice", "a  b", "tab\tinside", "##", "row two"]
    archive_save([WitnessRecord(quad, p) for p in provenances], path)
    assert [r.provenance for r in archive_load(path)] == provenances
