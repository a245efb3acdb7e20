"""Bundled example programs with expected verdicts; the substrate of the
acceptance suite and of `mpisym corpus`.

Directory layout: one ``<name>.mpisym`` source per entry plus a ``manifest``
whose lines read ``name nprocs deadlock assertfail notes...``.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path
from typing import List, Optional

from . import lang


class CorpusError(Exception):
    pass


class CorpusEntry(lang.Record):
    __slots__ = ("name", "source", "nprocs", "deadlock_reachable", "assertfail_reachable")

    def __init__(self, name: str, source: str, nprocs: int, deadlock_reachable: bool,
                 assertfail_reachable: bool):
        self.name, self.source, self.nprocs = name, source, nprocs
        self.deadlock_reachable = deadlock_reachable
        self.assertfail_reachable = assertfail_reachable

    def program(self) -> lang.Program:
        return lang.parse_program(self.source)


def bundled_dir() -> Path:
    return Path(resources.files("mpisym").joinpath("corpus_data"))


def _parse_flag(token: str, name: str, line_no: int) -> bool:
    if token == "yes":
        return True
    if token == "no":
        return False
    raise CorpusError(f"manifest line {line_no}: {name} must be yes/no, got {token!r}")


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise CorpusError(f"{path} is not UTF-8 text") from None


def load_corpus(directory: Optional[Path] = None) -> List[CorpusEntry]:
    """Load and validate every entry; raises CorpusError on a corrupt bundle."""
    root = Path(directory) if directory is not None else bundled_dir()
    manifest = root / "manifest"
    if not manifest.is_file():
        raise CorpusError(f"no manifest in {root}")
    entries: List[CorpusEntry] = []
    for line_no, raw in enumerate(_read(manifest).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 4)
        if len(parts) < 4:
            raise CorpusError(f"manifest line {line_no}: expected "
                              "'name nprocs deadlock assertfail notes...'")
        name, nprocs_text, deadlock, assertfail = parts[:4]
        try:
            nprocs = int(nprocs_text)
        except ValueError:
            nprocs = 0
        if nprocs < 1:
            raise CorpusError(f"manifest line {line_no}: bad nprocs {nprocs_text!r}")
        source_path = root / f"{name}.mpisym"
        if not source_path.is_file():
            raise CorpusError(f"missing corpus source {source_path.name}")
        source = _read(source_path)
        entry = CorpusEntry(
            name=name,
            source=source,
            nprocs=nprocs,
            deadlock_reachable=_parse_flag(deadlock, "deadlock", line_no),
            assertfail_reachable=_parse_flag(assertfail, "assertfail", line_no),
        )
        try:
            program = entry.program()
        except lang.ParseError as exc:
            raise CorpusError(f"corpus entry {name!r} does not parse: {exc}") from exc
        try:
            findings = lang.validate(program, nprocs)
        except lang.LangError as exc:
            raise CorpusError(f"manifest line {line_no}: {exc}") from None
        if findings:
            raise CorpusError(f"corpus entry {name!r} fails validation: "
                              f"{findings[0].message}")
        entries.append(entry)
    if not entries:
        raise CorpusError(f"corpus at {root} is empty")
    return entries

