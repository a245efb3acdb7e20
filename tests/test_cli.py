import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mpisym import cli, corpus, engine, lang, oracle, replay, report, solver, state
from mpisym.state import EngineError


@pytest.fixture()
def fig1_path(tmp_path, corpus_entries):
    path = tmp_path / "fig1-motivating.mpisym"
    path.write_text(corpus_entries["fig1-motivating"].source)
    return path


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_deadlock_exit_code(capsys, fig1_path, tmp_path):
    out_dir = tmp_path / "cases"
    code, out, _ = run(capsys, "analyze", str(fig1_path), "--nprocs", "3",
                       "--out", str(out_dir))
    assert code == 2
    assert out.startswith("paths=3 terminated=2 deadlock=1")
    cases = sorted(out_dir.glob("*.testcase"))
    assert len(cases) == 3


def test_analyze_clean_program_exits_zero(capsys, tmp_path, corpus_entries):
    path = tmp_path / "fig4a-blind.mpisym"
    path.write_text(corpus_entries["fig4a-blind"].source)
    code, out, _ = run(capsys, "analyze", str(path), "--nprocs", "3")
    assert code == 0
    assert "deadlock" not in out.splitlines()[0]


def test_analyze_syntax_error_exits_one(capsys, tmp_path):
    path = tmp_path / "broken.mpisym"
    path.write_text("program { x = ; }")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "expected an expression" in err


def test_analyze_validation_failure_exits_one(capsys, tmp_path):
    path = tmp_path / "invalid.mpisym"
    path.write_text("program (nprocs = 2) { send 1 to 7; }")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "rank-range" in err


def test_analyze_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", str(tmp_path / "nope.mpisym"))
    assert code == 1


def test_analyze_nprocs_override(capsys, tmp_path):
    # under 2 processes the send is out of range: validation must gate it
    path = tmp_path / "p.mpisym"
    path.write_text("program (nprocs = 3) {\n"
                    "  if (rank == 0) { send 1 to 2; }\n"
                    "  else { if (rank == 2) { recv m from 0; } }\n"
                    "}\n")
    code, _, _ = run(capsys, "analyze", str(path))
    assert code == 0
    code2, _, err = run(capsys, "analyze", str(path), "--nprocs", "2")
    assert code2 == 1 and "rank-range" in err


def test_analyze_verbose_detail(capsys, fig1_path):
    code, out, _ = run(capsys, "analyze", str(fig1_path), "-v")
    assert code == 2
    assert "pc: [X == 97]" in out
    assert "match 2->1 (any)" in out


def test_replay_round_trip(capsys, fig1_path, tmp_path):
    out_dir = tmp_path / "cases"
    run(capsys, "analyze", str(fig1_path), "--out", str(out_dir))
    for case in sorted(out_dir.glob("*.testcase")):
        code, out, _ = run(capsys, "replay", str(fig1_path), str(case))
        assert code == 0
        assert "reproduced; 0 divergences" in out


def test_replay_edited_program_hash_mismatch(capsys, fig1_path, tmp_path, corpus_entries):
    out_dir = tmp_path / "cases"
    run(capsys, "analyze", str(fig1_path), "--out", str(out_dir))
    case = sorted(out_dir.glob("*.testcase"))[0]
    edited = tmp_path / "edited.mpisym"
    edited.write_text(corpus_entries["fig1-motivating"].source.replace("x = 0", "x = 1"))
    code, _, err = run(capsys, "replay", str(edited), str(case))
    assert code == 1
    assert "hash mismatch" in err


def test_compare_fig6(capsys, tmp_path, corpus_entries):
    path = tmp_path / "fig6.mpisym"
    path.write_text(corpus_entries["fig6-multi-wildcard"].source)
    code, out, _ = run(capsys, "compare", str(path), "--nprocs", "4")
    assert code == 0
    assert "THEOREM-CHECK PASS" in out


def test_compare_set_model(capsys, fig1_path):
    code, out, _ = run(capsys, "compare", str(fig1_path), "--set", "X=97")
    assert code == 0
    assert "THEOREM-CHECK PASS model={X=97}" in out
    code0, out0, _ = run(capsys, "compare", str(fig1_path), "--set", "X=0")
    assert code0 == 0
    assert "engine-deadlocks=0 oracle-deadlocks=0" in out0


def test_compare_enumerate_models_covers_branches(capsys, fig1_path):
    code, out, _ = run(capsys, "compare", str(fig1_path), "--enumerate-models", "4")
    assert code == 0
    assert "model={X=97}" in out  # a path witness, not just 0..3
    assert out.count("THEOREM-CHECK PASS") == 4


def test_compare_bad_set_value(capsys, fig1_path):
    code, _, err = run(capsys, "compare", str(fig1_path), "--set", "Y=1")
    assert code == 1
    assert "undeclared" in err
    for value in ("256", "99999", "-1"):  # X is declared int[0..255]
        code, out, err = run(capsys, "compare", str(fig1_path), "--set", f"X={value}")
        assert code == 1
        assert out == ""
        assert err == f"mpisym: error: --set X={value} outside its domain [0, 255]\n"
    for value in ("abc", "", "0x10"):
        code, out, err = run(capsys, "compare", str(fig1_path), "--set", f"X={value}")
        assert code == 1
        assert out == ""
        assert err == f"mpisym: error: --set X: {value!r} is not an integer\n"
    for second in ("X=97", "X=1_0", " X = 9_7 "):  # a repeated name, whatever its value
        code, out, err = run(capsys, "compare", str(fig1_path), "--set", "X=1_0", "--set", second)
        assert (code, out) == (1, "")
        assert err == "mpisym: error: --set binds 'X' twice\n"
    code, out, _ = run(capsys, "compare", str(fig1_path), "--set", "X= 9_7 ")
    assert code == 0 and "model={X=97}" in out  # the value keeps int()'s syntax


@pytest.mark.parametrize("argv,message", [
    (["--enumerate-models", "0"], "--enumerate-models must be positive"),
    (["--enumerate-models", "-3"], "--enumerate-models must be positive"),
    (["--set", "X=1", "--enumerate-models", "0"], "--enumerate-models must be positive"),
    (["--max-states", "0"], "max_states must be positive"),
    (["--oracle-bound", "0"], "--oracle-bound must be positive"),
    (["--oracle-bound", "-3"], "--oracle-bound must be positive"),
])
def test_compare_rejects_nonpositive_counts(capsys, fig1_path, argv, message):
    code, out, err = run(capsys, "compare", str(fig1_path), *argv)
    assert code == 1
    assert out == ""
    assert err == f"mpisym: error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["--max-states", "0"], "max_states must be positive"),
    (["--max-depth", "-1"], "max_depth must be positive"),
])
def test_corpus_rejects_nonpositive_counts(capsys, argv, message):
    code, out, err = run(capsys, "corpus", *argv)
    assert code == 1
    assert out == ""
    assert err == f"mpisym: error: {message}\n"


@pytest.mark.parametrize("manifest, source, message", [
    (b"bad 0 no no\n", b"program (nprocs = 2) { x = 1; }\n", "manifest line 1: bad nprocs '0'"),
    (b"bad 2 no no caf\xe9\n", b"program (nprocs = 2) { x = 1; }\n",
     "{dir}/manifest is not UTF-8 text"),
    (b"bad 2 no no\n", b"program (nprocs = 2) { x = 1; }\xff\n",
     "{dir}/bad.mpisym is not UTF-8 text"),
    (b"bad 2 no\n", b"program (nprocs = 2) { x = 1; }\n",
     "manifest line 1: expected 'name nprocs deadlock assertfail notes...'"),
    (b"bad 2 maybe no\n", b"program (nprocs = 2) { x = 1; }\n",
     "manifest line 1: deadlock must be yes/no, got 'maybe'"),
    (b"bad 2 no perhaps\n", b"program (nprocs = 2) { x = 1; }\n",
     "manifest line 1: assertfail must be yes/no, got 'perhaps'"),
    (b"ghost 2 no no\n", b"program (nprocs = 2) { x = 1; }\n",
     "missing corpus source ghost.mpisym"),
    (b"bad 2 no no\n", b"program (nprocs = 2) { x = 1 }\n",
     "corpus entry 'bad' does not parse: 1:30: expected ';', found '}}'"),
    (b"bad 2 no no\n", b"program (nprocs = 2) { send 1 to 7; }\n",
     "corpus entry 'bad' fails validation: send destination 7 not in [0, 2)"),
], ids=["zero-nprocs", "manifest-not-utf8", "source-not-utf8", "three-fields",
        "deadlock-flag", "assertfail-flag", "missing-source", "source-does-not-parse",
        "source-fails-validation"])
def test_corpus_rejects_corrupt_bundle(capsys, tmp_path, manifest, source, message):
    (tmp_path / "manifest").write_bytes(manifest)
    (tmp_path / "bad.mpisym").write_bytes(source)
    code, out, err = run(capsys, "corpus", "--dir", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err == f"mpisym: error: {message.format(dir=tmp_path)}\n"


@pytest.mark.parametrize("out, reason", [("taken", "File exists"),
                                         ("taken/cases", "Not a directory")])
def test_analyze_out_not_a_directory(capsys, fig1_path, tmp_path, out, reason):
    (tmp_path / "taken").write_text("")
    code, _, err = run(capsys, "analyze", str(fig1_path), "--out", str(tmp_path / out))
    assert code == 1
    assert err == f"mpisym: error: cannot write test cases to {tmp_path / out}: {reason}\n"


def test_compare_oracle_bound_exit(capsys, tmp_path):
    path = tmp_path / "wide.mpisym"
    path.write_text("program (nprocs = 4) { barrier; barrier; }")
    code, _, err = run(capsys, "compare", str(path), "--oracle-bound", "2")
    assert code == 3
    assert "oracle state bound 2 exceeded" in err


def test_compare_set_engine_bound_exit(capsys, tmp_path):
    """`--max-states` bounds the engine's one search, also under `--set`."""
    path = tmp_path / "wide.mpisym"
    path.write_text("symbolic sym X : int[0..3]; program (nprocs = 4) { barrier; barrier; }")
    code, _, err = run(capsys, "compare", str(path), "--set", "X=1", "--max-states", "2")
    assert (code, err) == (3, "mpisym: engine state bound 2 exceeded\n")
    code, out, _ = run(capsys, "compare", str(path), "--set", "X=1")
    assert code == 0
    assert "THEOREM-CHECK PASS" in out


RECV_FROM_INPUT = """\
symbolic
sym X : int[1..2];
program (nprocs = 3) {
  if (rank == 0) { recv v from X; } else { send rank to 0; }
}
"""


def test_compare_reports_the_analysis_error_analyze_reports(capsys, tmp_path):
    """A receive whose source is an input is an analysis error of the
    symbolic search; `compare` checks that search, so it fails the same way
    under every model, `--set` too."""
    path = tmp_path / "recv-from-input.mpisym"
    path.write_text(RECV_FROM_INPUT)
    message = "L4: rank expression X is not constant under the path condition"
    code, out, _ = run(capsys, "analyze", "-v", str(path))
    assert code == 1 and f"  error: {message}\n" in out
    for argv in ([], ["--set", "X=1"], ["--set", "X=2"]):
        code, out, err = run(capsys, "compare", str(path), *argv)
        assert (code, out, err) == (
            1, "", f"mpisym: error: engine reported an analysis error: {message}\n")


def test_analyze_error_path_writes_no_case_and_exits_one(capsys, tmp_path):
    path = tmp_path / "p.mpisym"
    path.write_text("symbolic\nsym X : int[3..3];\nprogram (nprocs = 2) {\n"
                    "  if (rank == 0) { send 1 to X; }\n}\n")
    out_dir = tmp_path / "cases"
    code, out, err = run(capsys, "analyze", "-v", "--out", str(out_dir), str(path))
    assert code == 1
    assert "  error: L4: rank 3 out of range [0, 2)\n" in out
    assert f"wrote 0 test case(s) to {out_dir}\n" in out
    assert err == ("mpisym: path 1 is an analysis error; no test case written\n"
                   "mpisym: error: some paths could not be analyzed (see report)\n")
    assert list(out_dir.iterdir()) == []


def test_analyze_truncated_line(capsys, fig1_path):
    code, out, _ = run(capsys, "analyze", str(fig1_path), "--max-states", "3")
    assert code == 0
    assert out.splitlines()[:2] == ["paths=0", "truncated: state or depth bound exhausted"]


def test_compare_validation_findings_exit_one(capsys, tmp_path):
    path = tmp_path / "invalid.mpisym"
    path.write_text("program (nprocs = 2) { send 1 to 7; }")
    code, out, err = run(capsys, "compare", str(path))
    assert (code, out, err) == (1, "", "L1: rank-range: send destination 7 not in [0, 2)\n")


@pytest.mark.parametrize("pairs, message", [
    (["X"], "--set needs NAME=VALUE, got 'X'"),
    (["X=1"], "--set must assign every input; missing ['Y']"),
])
def test_compare_set_must_bind_every_input_by_name(capsys, tmp_path, pairs, message):
    path = tmp_path / "two.mpisym"
    path.write_text("symbolic sym X : int[0..3]; sym Y : int[0..3]; program { x = X + Y; }")
    argv = [arg for pair in pairs for arg in ("--set", pair)]
    code, out, err = run(capsys, "compare", str(path), *argv)
    assert (code, out, err) == (1, "", f"mpisym: error: {message}\n")


SIX_COINS = ("symbolic\n" + "".join(f"sym {c} : int[0..1];\n" for c in "ABCDEF")
             + "program {\n" + "".join(f"  if ({c} == 1) {{ x = 1; }}\n" for c in "ABCDEF")
             + "}\n")


def test_compare_max_states_bounds_the_candidate_search(capsys, tmp_path):
    """The search that picks the models (64 paths here) obeys `--max-states`."""
    path = tmp_path / "coins.mpisym"
    path.write_text(SIX_COINS)
    code, out, err = run(capsys, "compare", str(path), "--max-states", "40")
    assert (code, out, err) == (3, "", "mpisym: engine state bound 40 exceeded\n")
    code, out, _ = run(capsys, "compare", str(path), "--max-states", "200")
    assert code == 0 and out.count("THEOREM-CHECK PASS") == 4


def test_compare_oracle_bound_boundary(capsys, tmp_path, corpus_entries):
    """The oracle stops at the first state past the bound: fig6 has 122."""
    path = tmp_path / "fig6.mpisym"
    path.write_text(corpus_entries["fig6-multi-wildcard"].source)
    code, out, _ = run(capsys, "compare", str(path), "--oracle-bound", "122")
    assert code == 0
    assert "oracle-states=122" in out
    code, _, err = run(capsys, "compare", str(path), "--oracle-bound", "121")
    assert code == 3
    assert "oracle state bound 121 exceeded" in err


def test_corpus_command(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    assert "all 14 corpus entries match" in out


def test_corpus_flipped_expectation_fixture(capsys, tmp_path):
    src = corpus.bundled_dir()
    for f in src.iterdir():
        shutil.copy(f, tmp_path / f.name)
    manifest = tmp_path / "manifest"
    flipped = manifest.read_text().replace(
        "fig4a-blind 3 no no", "fig4a-blind 3 yes no")
    manifest.write_text(flipped)
    code, out, _ = run(capsys, "corpus", "--dir", str(tmp_path))
    assert code == 2
    assert "MISMATCH" in out


def test_corpus_has_no_strategy_option(capsys):
    code, _, err = run(capsys, "corpus", "--strategy", "bfs")
    assert code == 1
    assert "unrecognized arguments: --strategy" in err


def test_replay_and_corpus_have_no_verbose_option(capsys, fig1_path, tmp_path):
    run(capsys, "analyze", str(fig1_path), "--out", str(tmp_path / "cases"))
    case = sorted((tmp_path / "cases").glob("*.testcase"))[0]
    for argv in (["replay", str(fig1_path), str(case), "-v"], ["corpus", "-v"]):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "unrecognized arguments: -v" in err


def test_compare_has_no_verbose_option(capsys, fig1_path):
    code, out, err = run(capsys, "compare", str(fig1_path), "--set", "X=0", "-v")
    assert code == 1 and out == ""
    assert "unrecognized arguments: -v" in err


@pytest.mark.parametrize("option", [["--strategy", "bfs"], ["--max-depth", "1"]])
def test_compare_has_no_search_order_or_depth_option(capsys, fig1_path, option):
    code, _, err = run(capsys, "compare", str(fig1_path), *option)
    assert code == 1
    assert f"unrecognized arguments: {' '.join(option)}" in err


def test_corpus_empty_dir(capsys, tmp_path):
    code, _, err = run(capsys, "corpus", "--dir", str(tmp_path))
    assert code == 1


def test_usage_error_exit_code(capsys):
    assert cli.main(["analyze"]) == 1  # missing positional
    assert cli.main(["frobnicate"]) == 1


def test_replay_edited_case_rank_out_of_range(capsys, tmp_path, corpus_entries):
    path = tmp_path / "fig4b-eager.mpisym"
    path.write_text(corpus_entries["fig4b-eager"].source)
    out_dir = tmp_path / "cases"
    run(capsys, "analyze", str(path), "--out", str(out_dir))
    case = next(c for c in sorted(out_dir.glob("*.testcase"))
                if "deadlock" in c.read_text())
    for sender in ("9", "-1"):
        edited = tmp_path / f"edited{sender}.testcase"
        edited.write_text(case.read_text().replace(
            "match sender=2 receiver=0 wildcard=yes",
            f"match sender={sender} receiver=0 wildcard=yes"))
        code, out, err = run(capsys, "replay", str(path), str(edited))
        assert code == 1
        assert f"observed rank {sender}" in out
        assert "Traceback" not in err


def test_replay_input_outside_domain_exits_one(capsys, fig1_path, tmp_path):
    out_dir = tmp_path / "cases"
    run(capsys, "analyze", str(fig1_path), "--out", str(out_dir))
    case = sorted(out_dir.glob("*.testcase"))[0]
    text = case.read_text()
    edited = tmp_path / "edited.testcase"
    edited.write_text(text.replace(next(line for line in text.splitlines()
                                        if line.startswith("X=")), "X=100000"))
    code, out, err = run(capsys, "replay", str(fig1_path), str(edited))
    assert code == 1
    assert "reproduced" not in out
    assert "outside" in err and "Traceback" not in err


@pytest.mark.parametrize("extra,message", [
    ("Z=7", "test case input: model assigns undeclared input 'Z'"),
    ("X=97", "input 'X' bound twice"),
])
def test_replay_input_undeclared_or_repeated_exits_one(capsys, fig1_path, tmp_path,
                                                       extra, message):
    out_dir = tmp_path / "cases"
    run(capsys, "analyze", str(fig1_path), "--out", str(out_dir))
    case = sorted(out_dir.glob("*.testcase"))[0]
    edited = tmp_path / "edited.testcase"
    edited.write_text(case.read_text().replace("INPUT\n", f"INPUT\n{extra}\n"))
    code, out, err = run(capsys, "replay", str(fig1_path), str(edited))
    assert (code, out) == (1, "")
    assert err.startswith("mpisym: error: ") and err.endswith(f"{message}\n")


def test_replay_nprocs_failing_validation_exits_one(capsys, fig1_path, tmp_path):
    """The program hash matches, but at the case's process count the
    program does not validate: fig1's rank 1 receives from rank 2."""
    out_dir = tmp_path / "cases"
    run(capsys, "analyze", str(fig1_path), "--out", str(out_dir))
    case = sorted(out_dir.glob("*.testcase"))[0]
    edited = tmp_path / "edited.testcase"
    edited.write_text(case.read_text().replace("\nnprocs 3\n", "\nnprocs 2\n"))
    code, out, err = run(capsys, "replay", str(fig1_path), str(edited))
    assert (code, out, err) == (
        1, "", "mpisym: error: program fails validation: receive source 2 not in [0, 2)\n")


@pytest.mark.parametrize("line_no,header,message", [
    (2, "program-hash ", "line 2: empty program-hash"),
    (3, "nprocs ", "line 3: bad nprocs ''"),
    (3, "nprocs x", "line 3: bad nprocs 'x'"),
    (2, "program-hash", "missing program-hash/nprocs header"),
])
def test_replay_malformed_header_exits_one(capsys, fig1_path, tmp_path, line_no, header,
                                           message):
    out_dir = tmp_path / "cases"
    run(capsys, "analyze", str(fig1_path), "--out", str(out_dir))
    lines = sorted(out_dir.glob("*.testcase"))[0].read_text().split("\n")
    lines[line_no - 1] = header
    edited = tmp_path / "edited.testcase"
    edited.write_text("\n".join(lines))
    code, out, err = run(capsys, "replay", str(fig1_path), str(edited))
    assert (code, out, err) == (1, "", f"mpisym: error: {message}\n")


@pytest.mark.parametrize("argv", [["analyze"], ["compare"], ["replay", "{case}"]])
def test_program_not_utf8_exits_one(capsys, fig1_path, tmp_path, argv):
    out_dir = tmp_path / "cases"
    run(capsys, "analyze", str(fig1_path), "--out", str(out_dir))
    case = sorted(out_dir.glob("*.testcase"))[0]
    bad = tmp_path / "bad.mpisym"
    bad.write_bytes(fig1_path.read_bytes() + b"\xff")
    code, out, err = run(capsys, argv[0], str(bad),
                         *[a.format(case=case) for a in argv[1:]])
    assert (code, out, err) == (1, "", f"mpisym: error: {bad} is not UTF-8 text\n")


def test_testcase_not_utf8_exits_one(capsys, fig1_path, tmp_path):
    out_dir = tmp_path / "cases"
    run(capsys, "analyze", str(fig1_path), "--out", str(out_dir))
    bad = tmp_path / "bad.testcase"
    bad.write_bytes(sorted(out_dir.glob("*.testcase"))[0].read_bytes() + b"\xff")
    code, out, err = run(capsys, "replay", str(fig1_path), str(bad))
    assert (code, out, err) == (1, "", f"mpisym: error: {bad} is not UTF-8 text\n")


@pytest.mark.parametrize("name, reason", [("nope.testcase", "No such file or directory"),
                                          ("cases", "Is a directory")])
def test_unreadable_testcase_exits_one(capsys, fig1_path, tmp_path, name, reason):
    (tmp_path / "cases").mkdir()
    path = tmp_path / name
    code, out, err = run(capsys, "replay", str(fig1_path), str(path))
    assert (code, out, err) == (1, "", f"mpisym: error: cannot read {path}: {reason}\n")


@pytest.mark.parametrize("argv, where", [
    (["analyze", "{small}", "--nprocs", "1025"], ""),
    (["compare", "{small}", "--nprocs", "1025"], ""),
    (["analyze", "{big}"], ""),
    (["replay", "{small}", "{case}"], ""),
    (["corpus", "--dir", "{dir}"], "manifest line 1: "),
], ids=["analyze-nprocs", "compare-nprocs", "program-header", "testcase-header", "manifest"])
def test_process_count_above_the_limit_exits_one(capsys, tmp_path, monkeypatch, argv, where):
    assert lang.MAX_NPROCS == 1024
    small = tmp_path / "small.mpisym"
    small.write_text("program (nprocs = 2) { x = 1; }\n")
    (tmp_path / "big.mpisym").write_text("program (nprocs = 1025) { x = 1; }\n")
    (tmp_path / "manifest").write_text("big 1025 no no\n")
    case = tmp_path / "small.testcase"
    phash = replay.program_hash(lang.parse_program(small.read_text()))
    case.write_text(f"mpisym-testcase v1\nprogram-hash {phash}\nnprocs 1025\n"
                    "INPUT\nTRACE\nVERDICT\nterminated\n")

    def allocate(*args):
        raise AssertionError("per-rank state allocated before the process count was checked")

    for module, name in ((state, "init_state"), (engine, "init_state"), (oracle, "make_initial")):
        monkeypatch.setattr(module, name, allocate)
    code, out, err = run(capsys, *[a.format(small=small, big=tmp_path / "big.mpisym", case=case,
                                            dir=tmp_path) for a in argv])
    assert (code, out) == (1, "")
    assert err == f"mpisym: error: {where}nprocs 1025 exceeds the limit of 1024\n"


def test_main_reentrant_with_shared_parser(capsys, fig1_path):
    """The process-wide parser gives the outputs of a fresh one whatever
    ran before: `--set` (append) and `-v` (count) never carry over."""
    argvs = [
        ["compare", str(fig1_path), "--set", "X=97"],
        ["compare", str(fig1_path), "--enumerate-models", "2"],
        ["analyze", str(fig1_path), "-v", "-v"],
        ["analyze", str(fig1_path), "--nprocs", "4"],
        ["compare", str(fig1_path), "--set", "X=0", "--nprocs", "3"],
        ["analyze", str(fig1_path)],
        ["compare", str(fig1_path), "--set", "X=97", "--set", "X=0"],
    ]

    def outcome(argv):
        code, out, err = run(capsys, *argv)
        return code, report.strip_volatile(out), err

    shared = [outcome(argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh
    args = cli.build_parser().parse_args(["compare", str(fig1_path)])
    assert args.set == [] and args.nprocs is None
    assert cli.build_parser().parse_args(["analyze", str(fig1_path)]).verbose == 0


def test_non_decimal_digit_is_a_located_parse_error(capsys, tmp_path):
    path = tmp_path / "digit.mpisym"
    path.write_text("program {\n  x = 1²;\n}\n", encoding="utf-8")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert err == "mpisym: error: 2:8: unexpected character '²'\n"


def _nested_parens(n):  # levels: the statement, n pairs, the leaf
    return "x = " + "(" * n + "X" + ")" * n + ";\nassert (x >= 0);"


def _nested_ifs(n):  # levels: n if statements, then the body's leaf
    return "if (X > 0) { " * n + "x = 1;" + " }" * n


def _chain(n):  # levels: the statement, then n terms of a left-nested chain
    return "x = " + " + ".join(["X"] * n) + ";\nassert (x < 5);"


@pytest.mark.parametrize("shape, at_limit", [
    (_nested_parens, lang.MAX_DEPTH - 2),
    (_nested_ifs, lang.MAX_DEPTH - 2),
    (_chain, lang.MAX_DEPTH - 1),
])
def test_nesting_limit(capsys, tmp_path, shape, at_limit):
    """At the depth limit a program runs through analyze and compare; one
    level past it, and far past it, is a parse error with a position."""
    def source(n):
        return f"symbolic\nsym X : int[0..1];\nprogram (nprocs = 2) {{\n{shape(n)}\n}}\n"

    path = tmp_path / "deep.mpisym"
    path.write_text(source(at_limit))
    for command in ("analyze", "compare"):
        code, out, err = run(capsys, command, str(path))
        assert code in (0, 2), (command, err)
        assert out and not err
    for n in (at_limit + 1, 1000):
        path.write_text(source(n))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 1 and not out
        assert re.search(rf"\d+:\d+: nested deeper than {lang.MAX_DEPTH} levels$",
                         err.strip()), err


_DEEP_SOURCE = """symbolic
sym X : int[0..3];
sym Y : int[0..3];

program (nprocs = 2) {{
  acc = 0;
  repeat {count} {{ {step} }}
  if (acc > 5 + Y) {{ recv v from any; }} else {{ barrier; }}
}}
"""


@pytest.mark.parametrize("count, step, report_lines", [
    # `300*X > 5 + Y` as a left-nested sum 300 terms deep
    (300, "acc = acc + X;", ["paths=2 terminated=1 deadlock=1",
                             "path 1: deadlock steps=606 model={X=1, Y=0}",
                             "path 2: terminated steps=606 model={X=0, Y=0}",
                             "states created: 912", "solver queries: 8"]),
    # `X - (X - (... - (X - 0)))`, 250 deep, which is 0 at every point; as
    # Python source it would need more nested parentheses than the
    # tokenizer takes
    (250, "acc = X - acc;", ["paths=1 terminated=1",
                             "path 1: terminated steps=506 model={X=0, Y=0}",
                             "states created: 507", "solver queries: 5"]),
])
def test_deep_terms_are_decided_by_the_box_walk(capsys, tmp_path, monkeypatch,
                                                count, step, report_lines):
    """The interval pre-pass cannot decide the branch, so the box walk
    compiles a bucket check from a term hundreds of levels deep."""
    compile_check = solver._check
    compiled = []
    monkeypatch.setattr(solver, "_check",
                        lambda bucket: compiled.append(bucket) or compile_check(bucket))
    path = tmp_path / "deep.mpisym"
    path.write_text(_DEEP_SOURCE.format(count=count, step=step))
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, err) == (2 if "deadlock" in report_lines[0] else 0, "")
    assert out.splitlines()[:-1] == report_lines  # all but `wall time:`
    assert any(bucket for bucket in compiled)


def test_equal_deep_terms_of_two_ranks_end_in_a_verdict(capsys, tmp_path):
    """Each rank folds its own `acc` chain, 600 terms deep, into its branch
    condition.  The two chains are one node, so the solver's conjunct table
    compares them by identity, not by a recursive walk that overflows."""
    path = tmp_path / "deep.mpisym"
    path.write_text(_DEEP_SOURCE.format(count=600, step="acc = acc + X;"))
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, err) == (2, "")
    assert out.splitlines()[:-1] == ["paths=2 terminated=1 deadlock=1",
                                     "path 1: deadlock steps=1206 model={X=1, Y=0}",
                                     "path 2: terminated steps=1206 model={X=0, Y=0}",
                                     "states created: 1812", "solver queries: 8"]


def test_python_dash_m_runs_the_command_line():
    """`python -m mpisym`, in a child process, with this package first on
    its path."""
    package_root = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    program = corpus.bundled_dir() / "fig1-motivating.mpisym"
    done = subprocess.run([sys.executable, "-m", "mpisym", "analyze", str(program),
                           "--nprocs", "3"], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 2, done.stderr
    assert done.stdout.splitlines()[0] == "paths=3 terminated=2 deadlock=1"


_LONG_CHAIN = """\
symbolic
sym X : int[0..3];

program (nprocs = 2) {
  acc = 0;
  repeat 1200 { acc = acc + X; }
  if (acc > 5) { barrier; }
}
"""


@pytest.mark.parametrize("argv", [["analyze"], ["compare", "--set", "X=1"]])
def test_recursion_error_is_one_line_exit_four(capsys, tmp_path, argv):
    """A sum 1,200 terms deep overflows the recursive term walkers: that is
    an internal error, reported in one line, not a traceback."""
    path = tmp_path / "long.mpisym"
    path.write_text(_LONG_CHAIN)
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == cli.EXIT_INTERNAL == 4
    (line,) = err.splitlines()
    assert line.startswith("mpisym: internal error: RecursionError: maximum recursion depth")
    assert "Traceback" not in out + err


@pytest.mark.parametrize("exc", [EngineError("bad state\nsecond line"),
                                 solver.SolverError("no domain"), KeyError("k")])
def test_uncaught_exception_is_one_line_exit_four(capsys, fig1_path, monkeypatch, exc):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli.engine, "search", broken)
    code, _, err = run(capsys, "analyze", str(fig1_path), "--nprocs", "3")
    assert code == 4
    assert len(err.splitlines()) == 1
    assert err.startswith(f"mpisym: internal error: {type(exc).__name__}: ")


def test_handled_errors_keep_their_exit_codes(capsys, fig1_path, monkeypatch):
    """compare still reports a solver error as a usage error, exit 1."""
    def broken(*args, **kwargs):
        raise solver.SolverError("no domain")

    monkeypatch.setattr(cli.engine, "search", broken)
    code, _, err = run(capsys, "compare", str(fig1_path), "--nprocs", "3")
    assert (code, err) == (1, "mpisym: error: no domain\n")
