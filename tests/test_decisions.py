"""Every decision that the package or its tests cite is readable inside the
repository: each D-number in a source or test file has its own `## D<n>`
heading in DECISIONS.md."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CITED = re.compile(r"\bD(\d+)\b")
HEADING = re.compile(r"^## D(\d+)\b", re.MULTILINE)
TEXT_SUFFIXES = (".py", ".yaml", ".yml", ".md", ".txt")


def _missing(root: Path) -> tuple:
    """The decisions cited under root/src and root/tests with no heading in
    root/DECISIONS.md, each with the files that cite it, and the number of
    files that cite any decision."""
    headings = set(HEADING.findall((root / "DECISIONS.md").read_text(encoding="utf-8")))
    missing, citing = {}, 0
    for path in sorted(p for top in ("src", "tests") for p in (root / top).rglob("*")
                       if p.is_file() and p.suffix in TEXT_SUFFIXES):
        cited = set(CITED.findall(path.read_text(encoding="utf-8")))
        citing += bool(cited)
        for number in cited - headings:
            missing.setdefault(f"D{number}", []).append(path.relative_to(root).as_posix())
    return missing, citing


def test_every_cited_decision_has_a_heading():
    missing, citing = _missing(ROOT)
    assert citing > 0
    assert missing == {}


def test_a_cite_without_heading_is_reported(tmp_path):
    # The numbers are formatted in, so that this file cites no decision.
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "DECISIONS.md").write_text(f"# Decisions\n\n## D{1} - one\n\nSee D{2} below.\n")
    (tmp_path / "src" / "mod.py").write_text(f"# DECISIONS.md D{1} and D{2}\n")
    (tmp_path / "tests" / "test_mod.py").write_text(f"# D{1}, D{10} and DD{3}\n")
    assert _missing(tmp_path) == ({f"D{2}": ["src/mod.py"], f"D{10}": ["tests/test_mod.py"]}, 2)
