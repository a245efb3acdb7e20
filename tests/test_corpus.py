import pytest

from mpisym import lang
from mpisym.corpus import CorpusError, load_corpus


REQUIRED = {
    "fig1-motivating", "fig4a-blind", "fig4b-eager", "fig6-multi-wildcard",
    "barrier-deadlock", "head-to-head", "rr-deadlock", "recv-any-deadlock",
    "cond-bcast", "collect-misorder", "waitall-deadlock",
}


def test_bundle_has_required_entries(corpus_entries):
    assert len(corpus_entries) >= 12
    assert REQUIRED <= set(corpus_entries)
    controls = [e for e in corpus_entries.values()
                if not e.deadlock_reachable and not e.assertfail_reachable]
    assert len(controls) >= 2


def test_expectations(corpus_entries):
    assert corpus_entries["fig1-motivating"].deadlock_reachable
    assert not corpus_entries["fig4a-blind"].deadlock_reachable
    assert corpus_entries["head-to-head"].deadlock_reachable
    assert corpus_entries["assert-payload"].assertfail_reachable


def test_every_entry_validates(corpus_entries):
    for e in corpus_entries.values():
        assert lang.validate(e.program(), e.nprocs) == [], e.name


def test_empty_directory_is_corrupt(tmp_path):
    with pytest.raises(CorpusError):
        load_corpus(tmp_path)
    (tmp_path / "manifest").write_text("# nothing\n")
    with pytest.raises(CorpusError):
        load_corpus(tmp_path)


def test_missing_source_is_corrupt(tmp_path):
    (tmp_path / "manifest").write_text("ghost 2 yes no spooky\n")
    with pytest.raises(CorpusError) as err:
        load_corpus(tmp_path)
    assert "ghost" in str(err.value)


def test_invalid_program_is_corrupt(tmp_path):
    (tmp_path / "manifest").write_text("bad 2 no no broken\n")
    (tmp_path / "bad.mpisym").write_text("program (nprocs = 2) { send 1 to 9; }\n")
    with pytest.raises(CorpusError) as err:
        load_corpus(tmp_path)
    assert "validation" in str(err.value)


@pytest.mark.parametrize("manifest, source, message", [
    (b"bad 0 no no\n", b"program (nprocs = 2) { x = 1; }\n", "manifest line 1: bad nprocs '0'"),
    (b"bad -2 no no\n", b"program (nprocs = 2) { x = 1; }\n", "manifest line 1: bad nprocs '-2'"),
    (b"bad 2 no no caf\xe9\n", b"program (nprocs = 2) { x = 1; }\n",
     "{dir}/manifest is not UTF-8 text"),
    (b"bad 2 no no\n", b"program (nprocs = 2) { x = 1; }\xff\n",
     "{dir}/bad.mpisym is not UTF-8 text"),
], ids=["zero-nprocs", "negative-nprocs", "manifest-not-utf8", "source-not-utf8"])
def test_corrupt_bundle_is_a_corpus_error(tmp_path, manifest, source, message):
    (tmp_path / "manifest").write_bytes(manifest)
    (tmp_path / "bad.mpisym").write_bytes(source)
    with pytest.raises(CorpusError) as err:
        load_corpus(tmp_path)
    assert str(err.value) == message.format(dir=tmp_path)
