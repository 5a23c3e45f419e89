import json
import os
from pathlib import Path

import pytest

from quadseq.cli import main
from quadseq.codec import parse_record
from quadseq.seqcore import verify_quadruple

from published import NN36_A, NN36_B, NN36_C, NN36_D, ROW36_RECORD, ROWS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_published_record(capsys):
    code, out, _ = run(capsys, "verify", "--record", ROW36_RECORD)
    assert code == 0
    assert out.strip() == "pass"


def test_verify_failing_record(capsys):
    code, out, _ = run(capsys, "verify", "--record", "nn 2 01 1")
    assert code == 1
    assert out.startswith("fail:")


def test_verify_quad_with_kind(capsys):
    code, out, _ = run(capsys, "verify", "--quad", "+;+;+;+", "--kind", "bs")
    assert code == 0 and out.strip() == "pass"


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "--record", ROW36_RECORD, "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["pass"] is True
    assert payload["sums"] == [3, -3, 8, 8]


def test_verify_without_input_is_usage_error(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert "error" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "verify", "--kind", "zz", "--quad", "+;+;+;+")
    assert code == 2


def test_decode_matches_published_plaintext(capsys):
    code, out, _ = run(capsys, "decode", "--record", ROW36_RECORD)
    assert code == 0
    assert out.strip() == ";".join((NN36_A, NN36_B, NN36_C, NN36_D))


def test_decode_then_encode_reproduces_every_row(capsys):
    for n, ab, cd, _sums in ROWS:
        record = f"nn {n} {ab} {cd}"
        code, plain, _ = run(capsys, "decode", "--record", record)
        assert code == 0
        code, out, _ = run(capsys, "encode", "--quad", plain.strip(), "--kind", "nn")
        assert code == 0
        assert out.strip() == record


def test_search_empty_count(capsys):
    code, out, _ = run(capsys, "search", "--kind", "ns", "--order", "6", "--mode", "count")
    assert code == 1
    assert out.strip() == "0"


def test_search_emits_verifiable_records(capsys):
    code, out, _ = run(capsys, "search", "--kind", "nn", "--order", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 32
    for line in lines:
        assert verify_quadruple(parse_record(line)).passed


def test_search_json(capsys):
    code, out, _ = run(capsys, "search", "--kind", "nn", "--order", "2",
                       "--mode", "count", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 32
    assert payload["solutions"] == []


def test_search_identical_invocations_identical_output(capsys):
    _, first, _ = run(capsys, "search", "--kind", "nn", "--order", "4")
    _, second, _ = run(capsys, "search", "--kind", "nn", "--order", "4")
    assert first == second


def test_search_budget_and_resume(tmp_path, capsys):
    ckpt = str(tmp_path / "run.ckpt")
    code, _, err = run(capsys, "search", "--kind", "nn", "--order", "4",
                       "--limit", "25", "--checkpoint", ckpt)
    assert code == 2
    assert "checkpoint written" in err
    # resume without a budget finishes the run
    code, out, _ = run(capsys, "search", "--kind", "nn", "--order", "4",
                       "--resume", ckpt)
    assert code == 0
    _, full, _ = run(capsys, "search", "--kind", "nn", "--order", "4")
    assert out == full
    # a checkpoint of the older a-next format is refused, not misread
    with open(ckpt, encoding="utf-8") as fh:
        text = fh.read()
    with open(ckpt, "w", encoding="utf-8") as fh:
        fh.write(text.replace("frame lex-next", "frame a-next"))
    code, out, err = run(capsys, "search", "--kind", "nn", "--order", "4",
                         "--resume", ckpt)
    assert code == 2 and out == "" and "older a-next format" in err


def test_construct_ts(capsys):
    code, out, _ = run(capsys, "construct", "ts", "--from-record", "bs +;+;+;+")
    assert code == 0
    assert out.strip() == "ts +0;00;0+;00"


def test_construct_od(tmp_path, capsys):
    path = str(tmp_path / "od.txt")
    code, out, _ = run(capsys, "construct", "od", "--from-record", "bs +;+;+;+",
                       "--out", path)
    assert code == 0
    assert "pass" in out
    with open(path) as fh:
        header = fh.readline().split()
    assert header == ["8", "4"]


def test_construct_hadamard_small(tmp_path, capsys):
    path = str(tmp_path / "h.txt")
    code, out, _ = run(capsys, "construct", "hadamard",
                       "--from-record", "bs ++;+-;++;+-", "--out", path)
    assert code == 0
    assert out.strip() == "HHᵀ = 16·I: pass"
    rows = Path(path).read_text().splitlines()
    assert len(rows) == 16 and set("".join(rows)) <= {"+", "-"}


def test_construct_hadamard_292(tmp_path, capsys):
    path = str(tmp_path / "h292.txt")
    code, out, _ = run(capsys, "construct", "hadamard",
                       "--from-record", ROW36_RECORD, "--out", path)
    assert code == 0
    assert out.strip() == "HHᵀ = 292·I: pass"
    rows = Path(path).read_text().splitlines()
    assert len(rows) == 292 and all(len(r) == 292 for r in rows)


def test_construct_golay(capsys):
    code, out, _ = run(capsys, "construct", "golay", "--length", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 8
    code, out, _ = run(capsys, "construct", "golay", "--length", "3")
    assert code == 1
    assert out.strip() == ""


def test_construct_ns_from_pair(capsys):
    code, out, _ = run(capsys, "construct", "ns", "--length", "10")
    assert code == 0
    quad = parse_record(out.strip())
    assert quad.kind == "ns" and quad.shape == (11, 10)
    assert verify_quadruple(quad).passed


def test_catalog_records_and_verify_input(tmp_path, capsys):
    path = str(tmp_path / "rows.txt")
    code, _, _ = run(capsys, "catalog", "records", "--out", path)
    assert code == 0
    code, out, _ = run(capsys, "verify", "--input", path)
    assert code == 0
    assert "6 records" in out


@pytest.mark.parametrize("line,code,stream", [
    # a record that does not parse is an input error
    ("nn 34 07641764651232146X 16738541372344337", 2, "err"),
    ("nn 34 xyz", 2, "err"),
    # a record that parses but is not a member is a verdict
    ("nn 34 076417646512321462 16738541372344338", 1, "out"),
])
def test_verify_input_exit_codes(tmp_path, capsys, line, code, stream):
    path = tmp_path / "archive.txt"
    path.write_text(line + "\n")
    got, out, err = run(capsys, "verify", "--input", str(path))
    assert got == code
    if stream == "err":
        assert out == "" and err.startswith("error: line 1:")
    else:
        assert out.startswith("fail: line 1:") and "fails verification" in out


def test_construct_out_replaces_the_file_in_one_step(tmp_path, capsys, monkeypatch):
    path = tmp_path / "h.txt"
    path.write_text("old contents\n")

    def crash(src, dst):
        raise OSError("crash before the rename")

    monkeypatch.setattr(os, "replace", crash)
    code, _, err = run(capsys, "construct", "hadamard", "--from-record", "bs ++;+-;++;+-",
                       "--out", str(path))
    assert code == 2 and err.startswith("error:")
    assert path.read_text() == "old contents\n"


def test_catalog_status_exit_codes(capsys):
    code, out, _ = run(capsys, "catalog", "status", "--kind", "ns", "--order", "34")
    assert code == 1 and out.startswith("Empty")
    code, out, _ = run(capsys, "catalog", "status", "--kind", "nn", "--order", "36")
    assert code == 0 and out.startswith("NonEmpty")
    code, out, _ = run(capsys, "catalog", "status", "--kind", "nn", "--order", "38")
    assert code == 2 and out.startswith("Unknown")


def test_catalog_yang(capsys):
    code, out, _ = run(capsys, "catalog", "yang", "--n", "73")
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run(capsys, "catalog", "yang", "--n", "71")
    assert code == 1 and out.strip() == "no"
    code, out, _ = run(capsys, "catalog", "yang", "--max", "9")
    assert out.splitlines() == ["1 yes", "3 yes", "5 yes", "7 yes", "9 yes"]


def test_catalog_cases(capsys):
    code, out, _ = run(capsys, "catalog", "cases", "--kind", "nn", "--order", "36")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 12
    assert lines[-1].startswith("case 12:") and "merged" in lines[-1]


def test_help_exits_zero(capsys):
    code, _, _ = run(capsys, "--help")
    assert code == 0
