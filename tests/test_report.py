from pathlib import Path

from mpisym import engine, lang, oracle, report
from mpisym.oracle import TheoremVerdict
from support import strip_volatile

GOLDEN = Path(__file__).parent / "golden"


def rendered(entry, detail=True):
    rep = engine.search(entry.program(), entry.nprocs)
    return strip_volatile(report.render(rep, detail=detail))


def test_fig1_report_matches_golden(corpus_entries):
    expected = (GOLDEN / "fig1_report.txt").read_text()
    assert rendered(corpus_entries["fig1-motivating"]) == expected


def test_fig4b_report_matches_golden(corpus_entries):
    text = rendered(corpus_entries["fig4b-eager"])
    assert text == (GOLDEN / "fig4b_report.txt").read_text()
    # the deadlock detail names the wildcard sender, rank 2
    assert "match 2->0 (any)" in text


def test_empty_program_report_matches_golden():
    rep = engine.search(lang.parse_program("program {}"), 1)
    text = strip_volatile(report.render(rep))
    assert text == (GOLDEN / "empty_report.txt").read_text()
    assert text.splitlines()[0] == "paths=1 terminated=1"


def test_full_detail_records_every_path(corpus_entries):
    e = corpus_entries["fig4a-blind"]
    rep = engine.search(e.program(), e.nprocs)
    text = strip_volatile(report.render(rep, detail=2))
    assert text == (GOLDEN / "fig4a_full_report.txt").read_text()
    # every path record carries verdict, pc, model, and the full trace
    assert "pc: []" in text and "trace: " in text


def test_summary_line_counts(corpus_entries):
    rep = engine.search(corpus_entries["fig1-motivating"].program(), 3)
    assert report.render(rep).splitlines()[0] == "paths=3 terminated=2 deadlock=1"


def test_rendering_is_deterministic(corpus_entries):
    e = corpus_entries["fig6-multi-wildcard"]
    a = rendered(e)
    b = rendered(e)
    assert a == b


def test_wall_time_line_is_filtered(corpus_entries):
    rep = engine.search(corpus_entries["fig4a-blind"].program(), 3)
    raw = report.render(rep)
    assert any(line.startswith("wall time:") for line in raw.splitlines())
    assert "wall time:" not in strip_volatile(raw)


def test_assertfail_detail_names_location(corpus_entries):
    text = rendered(corpus_entries["assert-payload"])
    assert "assertfail @L" in text
    assert "pc:" in text and "model:" in text


def test_render_compare_pass(corpus_entries):
    e = corpus_entries["fig6-multi-wildcard"]
    verdict = oracle.check_theorem(e.program(), 4, {})
    text = report.render_compare(verdict)
    assert text.startswith("THEOREM-CHECK PASS")


def test_render_compare_fail_fixture():
    fake = TheoremVerdict(
        holds=False, model={"X": 3},
        issues=["deadlocked terminal only reached by the oracle: cursors=(1, 2)"],
        oracle_deadlocks={("k",): frozenset({4})})
    text = report.render_compare(fake)
    assert text.startswith("THEOREM-CHECK FAIL")
    assert "only reached by the oracle" in text
