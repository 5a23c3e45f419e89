import hashlib
import json
import os
import re
from pathlib import Path

import pytest

from quadseq import cli, construct, search as search_module
from quadseq.catalog import witness_records
from quadseq.cli import main
from quadseq.codec import parse_record
from quadseq.search import CHECKPOINT_FORMAT, SearchSpec, search
from quadseq.seqcore import verify_quadruple

from old_formats import TEXT_CHECKPOINT
from published import NN36_A, NN36_B, NN36_C, NN36_D, ROW36_RECORD, ROWS

# sha256 of the stdout of `quadseq search --kind nn --order 12`
NN12_STDOUT_SHA256 = "5f0a83a4b179ba878dd06c431693a54d68b786fa3ad482110084ac0f8f675b10"


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


def test_verify_refuses_an_order_field_format_record_never_writes(capsys):
    code, out, err = run(capsys, "verify", "--record", "nn 02 01 1")
    assert code == 2 and out == ""
    assert "bad order field '02'" in err


def test_verify_plaintext_record_of_a_kind(capsys):
    code, out, _ = run(capsys, "verify", "--record", "bs +;+;+;+")
    assert code == 0 and out.strip() == "pass"
    # the kind tag decides the check: this quadruple is base but not near-normal
    code, out, _ = run(capsys, "verify", "--record", "nn +++;+++;++;++")
    assert code == 1 and out.startswith("fail:")


def test_whitespace_inside_a_plaintext_record_is_ignored(capsys):
    for command in ("verify", "decode"):
        spaced = run(capsys, command, "--record", "nn + ++;+\t--; +-;+ -")
        assert spaced == run(capsys, command, "--record", "nn +++;+--;+-;+-")
        assert spaced[0] == 0


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
        code, out, _ = run(capsys, "encode", "--record", f"nn {plain.strip()}")
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
    # a checkpoint in the text format of earlier releases is refused, not misread
    with open(ckpt, "w", encoding="utf-8") as fh:
        fh.write(TEXT_CHECKPOINT)
    code, out, err = run(capsys, "search", "--kind", "nn", "--order", "4",
                         "--mode", "count", "--resume", ckpt)
    assert code == 2 and out == ""
    assert f"not a complete {CHECKPOINT_FORMAT} document" in err


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_search_refuses_a_node_budget_below_one(capsys, limit):
    code, out, err = run(capsys, "search", "--kind", "nn", "--order", "4", "--limit", limit)
    assert code == 2 and out == ""
    assert f"node limit must be at least 1, got {limit}" in err


def test_search_nn12_stdout_is_pinned(capsys):
    code, out, _ = run(capsys, "search", "--kind", "nn", "--order", "12")
    assert code == 0 and out.count("\n") == 9344
    assert hashlib.sha256(out.encode()).hexdigest() == NN12_STDOUT_SHA256


def test_search_resume_refuses_a_tampered_solution(tmp_path, capsys):
    ckpt = tmp_path / "run.ckpt"
    code, _, _ = run(capsys, "search", "--kind", "nn", "--order", "4",
                     "--limit", "25", "--checkpoint", str(ckpt))
    assert code == 2
    document = json.loads(ckpt.read_text(encoding="utf-8"))
    assert document["solutions"]
    document["solutions"][0] = "+++++;+++++;++++;++++"
    ckpt.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run(capsys, "search", "--kind", "nn", "--order", "4",
                         "--resume", str(ckpt))
    assert code == 2 and out == ""
    assert "+++++;+++++;++++;++++ fails verification" in err


@pytest.mark.parametrize("name,value,message", [
    ("case_pos", 3, "case_pos 3 is not a pass of this run"),
    ("lex_next", 1_000_000, "lex_next 1000000 is not a block boundary"),
    ("lex_next", -90, "lex_next -90 is not a block boundary"),
    ("lex_next", 133, "lex_next 133 is not a block boundary"),
    ("nodes", -5, "counters must not be negative"),
])
def test_search_resume_refuses_a_position_or_counter_outside_the_run(
        tmp_path, capsys, name, value, message):
    ckpt = tmp_path / "run.ckpt"
    code, _, _ = run(capsys, "search", "--kind", "nn", "--order", "8",
                     "--limit", "2000", "--checkpoint", str(ckpt))
    assert code == 2
    document = json.loads(ckpt.read_text(encoding="utf-8"))
    document[name] = value
    ckpt.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run(capsys, "search", "--kind", "nn", "--order", "8", "--resume", str(ckpt))
    assert code == 2 and out == ""
    assert f"error: checkpoint {message}" in err


@pytest.mark.parametrize("kind", ["nn", "ns"])
@pytest.mark.parametrize("representatives", [False, True])
def test_every_search_line_parses_back_to_its_quadruple(capsys, kind, representatives):
    flag = ["--representatives"] if representatives else []
    for order in range(9):
        code, out, _ = run(capsys, "search", "--kind", kind, "--order", str(order), *flag)
        want = search(SearchSpec(kind, order, representatives=representatives)).solutions
        assert code == (0 if want else 1)
        assert [parse_record(line) for line in out.splitlines()] == want, order


def test_construct_and_catalog_lines_parse_back_to_their_quadruples(capsys):
    printed = {}
    for argv in (["construct", "ts", "--from-record", "bs ++;+-;++;+-"],
                 ["construct", "ts", "--from-record", ROW36_RECORD],
                 ["construct", "ns", "--length", "2"],
                 ["construct", "ns", "--length", "10"],
                 ["catalog", "records"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        printed[" ".join(argv)] = [parse_record(line) for line in out.splitlines()]
    assert printed == {
        "construct ts --from-record bs ++;+-;++;+-":
            [construct.bs_to_ts(parse_record("bs ++;+-;++;+-"))],
        f"construct ts --from-record {ROW36_RECORD}": [construct.bs_to_ts(parse_record(ROW36_RECORD))],
        "construct ns --length 2": [construct.golay_to_ns(construct.golay_pair(2))],
        "construct ns --length 10": [construct.golay_to_ns(construct.golay_pair(10))],
        "catalog records": [record.quad for record in witness_records()],
    }


@pytest.mark.parametrize("argv", [
    ["search", "--kind", "nn", "--order", "4", "--cases", "3,,4"],
    ["search", "--kind", "nn", "--order", "4", "--cases", "3,x"],
    ["search", "--kind", "nn", "--order", "4", "--cases", "3,3"],
    ["search", "--kind", "nn", "--order", "4", "--workers", "0"],
    ["search", "--kind", "nn", "--order", "4", "--workers", "-2"],
    ["construct", "golay"],
    ["construct", "ns"],
    ["construct", "hadamard", "--from-record", "bs ++;+-;++;+-", "--values", "1,x"],
    ["construct", "hadamard", "--from-record", "bs ++;+-;++;+-", "--values", "1,,1,1"],
    ["encode", "--record", "nn +;+;;"],
    ["encode", "--record", "nn ++;+-;+;+"],
    ["encode", "--record", "ns +++;+-+;++;++"],
    # two inputs
    ["verify", "--record", "nn 2 01 4", "--input", os.devnull],
    ["catalog", "yang", "--n", "73", "--max", "9"],
    # an option the target does not read
    ["construct", "ts", "--from-record", "bs +;+;+;+", "--out", "t.txt"],
    ["construct", "golay", "--length", "2", "--from-record", "bs +;+;+;+"],
    ["construct", "ns", "--length", "2", "--allow-large"],
    ["catalog", "records", "--order", "3"],
    ["catalog", "cases", "--order", "4", "--format", "json"],
    # a removed option
    ["verify", "--record", "nn 2 01 4", "--quad", "+++;+++;++;++", "--kind", "nn"],
    ["decode", "--order", "2", "--ab", "01", "--cd", "1"],
    ["encode", "--quad", "+++;+--;+-;+-", "--kind", "nn"],
    ["construct", "ts", "--quad", "+;+;+;+", "--kind", "bs"],
    # a missing required option, and values the program refuses
    ["catalog", "status", "--kind", "nn"],
    ["catalog", "cases", "--order", "-3"],
    ["verify", "--record", "nn 1 0 1"],
    # the empty base quadruple gives length-0 T-sequences, which give no design
    ["construct", "od", "--from-record", "bs ;;;"],
    ["construct", "hadamard", "--from-record", "bs ;;;"],
    # a Golay length that only a product of two seed pairs reaches
    ["construct", "ns", "--length", "100"],
])
def test_bad_arguments_exit_2_with_an_error_and_no_output(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "error:" in err


@pytest.mark.parametrize("record,message", [
    ("nn +;+;;", "codes exist only for even orders n > 0, got order 0"),
    ("nn ++;+-;+;+", "codes exist only for even orders n > 0, got order 1"),
    ("ns +++;+-+;++;++", "encoded records need kind nn and shape (n+1, n); got ns of shape (3, 2)"),
])
def test_encode_says_why_a_quadruple_has_no_codes(capsys, record, message):
    assert run(capsys, "encode", "--record", record) == (2, "", f"error: {message}\n")


# every command, construct target and catalog action, with the options it reads
OPTIONS = {
    (): set(),
    ("verify",): {"--record", "--input", "--format"},
    ("decode",): {"--record", "--format"},
    ("encode",): {"--record"},
    ("search",): {"--kind", "--order", "--mode", "--cases", "--workers", "--limit",
                  "--checkpoint", "--resume", "--representatives", "--allow-large", "--format"},
    ("construct",): set(),
    ("construct", "ts"): {"--from-record"},
    ("construct", "od"): {"--from-record", "--out"},
    ("construct", "hadamard"): {"--from-record", "--out", "--values"},
    ("construct", "golay"): {"--length", "--allow-large"},
    ("construct", "ns"): {"--length"},
    ("catalog",): set(),
    ("catalog", "records"): {"--out"},
    ("catalog", "status"): {"--kind", "--order", "--format"},
    ("catalog", "yang"): {"--n", "--max"},
    ("catalog", "cases"): {"--kind", "--order"},
}


@pytest.mark.parametrize("path", sorted(OPTIONS), ids=lambda path: " ".join(path) or "quadseq")
def test_help_lists_exactly_the_options_each_command_reads(capsys, path):
    code, out, _ = run(capsys, *path, "--help")
    assert code == 0
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out)) - {"--help"} == OPTIONS[path]
    # the usage line names the subcommands under this one, and the table has each of them
    usage = re.search(r"\{([a-z,]+)\} \.\.\.", out)
    children = {p[-1] for p in OPTIONS if p and p[:-1] == path}
    assert set(usage[1].split(",") if usage else ()) == children


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


# sha256 of the stdout of each construct command; ns at 10, 20, 40 and 160
# doubles the seed table's length-10 pair, which is golay_search(10)[0]
CONSTRUCT_STDOUT_SHA256 = {
    "ns --length 1": "d32890531c1430bcf6b375375791caaebb95dc3779e22016b14648bae309a667",
    "ns --length 2": "92a93a0be1846d3b7d6b72204c78201c75c6ca20b089082cbb3f6a608204a7ad",
    "ns --length 10": "34929e8034021bfa6398c7666fc855cb2e7100a1d4cbdc1fb452928c598f0d2f",
    "ns --length 20": "80af1e73a52e1a3c3f306fe0614f7825d8cd67ee69d67ce38aa2fd359ed2d55b",
    "ns --length 40": "00ea2b94d2050731160933a90f3899883ea229f9699de7a92ca5efa228520053",
    "ns --length 160": "b09f7fdb6ab5129ec82a2010e67be4c29bf8e9184584c392e059fbbbae045576",
    "golay --length 10": "0cc0c60fca860cdbee58558457530a0d906aa78ecbedf6b1c3c6a96dd583fe6a",
}


@pytest.mark.parametrize("command", sorted(CONSTRUCT_STDOUT_SHA256))
def test_construct_stdout_is_pinned(capsys, command):
    code, out, _ = run(capsys, "construct", *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CONSTRUCT_STDOUT_SHA256[command]


@pytest.mark.parametrize("length", [26, 52])
def test_construct_ns_from_the_bundled_length_26_seed(capsys, length):
    code, out, _ = run(capsys, "construct", "ns", "--length", str(length))
    assert code == 0
    assert run(capsys, "verify", "--record", out.strip()) == (0, "pass\n", "")
    assert parse_record(out.strip()).shape == (length + 1, length)


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


@pytest.mark.parametrize("bound", ["0", "-5"])
def test_catalog_yang_refuses_a_bound_below_one(capsys, bound):
    code, out, err = run(capsys, "catalog", "yang", "--max", bound)
    assert code == 2 and out == ""
    assert "Yang numbers are odd positive integers" in err


def test_catalog_cases(capsys):
    code, out, _ = run(capsys, "catalog", "cases", "--kind", "nn", "--order", "36")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 12
    assert lines[-1].startswith("case 12:") and "merged" in lines[-1]


# sha256 of the concatenated stdout of `quadseq catalog cases --kind K --order N`
# for K = nn, then ns, and N = 0..60 in order: merged tables (over 12 sums
# reps) and padded ones (under 12) alike
CATALOG_CASES_SHA256 = "12dac9be366e72d67197e98f10ed2b67a4ad7e48b013efb4e6ed77a60c18bed8"


def test_catalog_cases_are_pinned(capsys):
    outs = []
    for kind in ("nn", "ns"):
        for order in range(61):
            code, out, _ = run(capsys, "catalog", "cases", "--kind", kind, "--order", str(order))
            assert code == 0
            outs.append(out)
    text = "".join(outs)
    assert "merged" in text and "empty padding" in text
    assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_CASES_SHA256


@pytest.mark.parametrize("argv", [
    ["verify", "--input"],
    ["verify", "--format", "json", "--input"],  # the refusal stays one plain line
    ["search", "--kind", "nn", "--order", "4", "--resume"],
])
def test_an_input_file_that_is_not_utf8_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "garbage.txt"
    path.write_bytes(b"\xff\xfe\x00garbage\n")
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {path} is not UTF-8 text: invalid start byte at byte 0"]


@pytest.mark.parametrize("argv", [
    ["search", "--kind", "nn", "--order", "21"],
    ["construct", "golay", "--length", "13"],
])
def test_over_bound_refusals_name_the_flag(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--allow-large" in err


@pytest.mark.parametrize("argv", [
    ["search", "--kind", "ns", "--order", "63", "--allow-large"],
    ["construct", "golay", "--length", "63", "--allow-large"],
])
def test_a_size_refused_before_any_allocation_exits_2(capsys, argv):
    # ns 63's lex indices do not fit int64, and numpy cannot shape golay
    # 63's lag table: each is refused before anything is allocated, with one
    # error line rather than a traceback
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_a_size_this_machine_cannot_hold_exits_2(capsys, monkeypatch):
    def short_of_memory(message):
        def raiser(*_args, **_kwargs):
            raise MemoryError(*message)
        return raiser

    monkeypatch.setattr(cli, "run_search", short_of_memory(["Unable to allocate 39.0 TiB"]))
    assert run(capsys, "search", "--kind", "nn", "--order", "40", "--allow-large") == (
        2, "", "error: out of memory: Unable to allocate 39.0 TiB\n")
    monkeypatch.setattr(construct, "golay_search", short_of_memory([]))
    assert run(capsys, "construct", "golay", "--length", "40", "--allow-large") == (
        2, "", "error: out of memory\n")


def test_an_order_whose_index_cannot_be_held_exits_2_before_a_scan(capsys, monkeypatch):
    # the run builds the join's profile index before its first block, so
    # order 62's index fails before the block's 22.6 GiB of lex indices are
    # asked for; a node budget does not change that, and nothing here allocates
    def no_scan(*_args):
        pytest.fail("scanned before the profile index was built")

    def no_index(length):
        raise MemoryError(f"no table of 2^{length} profiles")

    monkeypatch.setattr(search_module, "_scan_block", no_scan)
    monkeypatch.setattr(search_module, "profile_index", no_index)
    assert run(capsys, "search", "--kind", "nn", "--order", "62", "--allow-large",
               "--limit", "1") == (2, "", "error: out of memory: no table of 2^62 profiles\n")


def test_help_exits_zero(capsys):
    code, _, _ = run(capsys, "--help")
    assert code == 0
