"""Every decision that the package or its tests cite is readable inside the
repository: each D-number in a source or test file has its own `## D<n>`
heading in DECISIONS.md; and every test that DECISIONS.md cites exists."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CITED = re.compile(r"\bD(\d+)\b")
HEADING = re.compile(r"^## D(\d+)\b", re.MULTILINE)
TEXT_SUFFIXES = (".py", ".yaml", ".yml", ".md", ".txt")
# A cited test node: tests/<file>.py::<name>[::<name>], or Class::test_name;
# a trailing * stands for any ending of the last name.
NODE = re.compile(r"\b(tests/\w+\.py)::(\w+(?:::\w+)?\*?)|\b(Test\w+::\w+\*?)")


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


def _tests(root: Path) -> dict:
    """{file: {top-level class or function name: its method names}} of the
    test files under root/tests, read with ast, without importing them."""
    tree = {}
    for path in sorted((root / "tests").glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        tree[path.relative_to(root).as_posix()] = {
            node.name: {item.name for item in node.body if isinstance(node, ast.ClassDef)
                        and isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
            for node in body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))}
    return tree


def _stale_nodes(root: Path) -> tuple:
    """The test nodes that root/DECISIONS.md cites and root/tests does not
    hold, in order of first citation, and the number of citations."""
    tree = _tests(root)

    def found(names: dict, parts: list) -> bool:
        # names maps top-level names to their methods; a Class::name cite
        # looks among the methods of Class.
        if len(parts) == 2:
            names = names.get(parts[0], ())
        last = parts[-1]
        if last.endswith("*"):
            return any(name.startswith(last[:-1]) for name in names)
        return last in names

    stale, cited = [], 0
    for match in NODE.finditer((root / "DECISIONS.md").read_text(encoding="utf-8")):
        path, node, bare = match.groups()
        cited += 1
        if path is not None:
            ok = found(tree.get(path, {}), node.split("::"))
        else:
            ok = any(found(names, bare.split("::")) for names in tree.values())
        if not ok and match.group(0) not in stale:
            stale.append(match.group(0))
    return stale, cited


def test_every_cited_test_exists():
    stale, cited = _stale_nodes(ROOT)
    assert cited > 0
    assert stale == []


def test_a_cited_test_that_is_gone_is_reported(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "class TestA:\n    def test_one(self):\n        pass\n\n\n"
        "def test_two():\n    pass\n")
    (tmp_path / "DECISIONS.md").write_text(
        "# Decisions\n\n"
        "- `TestA::test_one`, `tests/test_mod.py::TestA::test_one`, `tests/test_mod.py::TestA`,\n"
        "  `tests/test_mod.py::test_two`, `tests/test_mod.py::test_t*` and `TestA::test_o*`;\n"
        "- `TestA::test_gone`, `TestB::test_one`, `tests/test_mod.py::TestA::test_two`,\n"
        "  `tests/test_mod.py::test_one`, `tests/test_other.py::test_two`,\n"
        "  `tests/test_mod.py::test_x*` and again `TestA::test_gone`.\n")
    assert _stale_nodes(tmp_path) == (
        ["TestA::test_gone", "TestB::test_one", "tests/test_mod.py::TestA::test_two",
         "tests/test_mod.py::test_one", "tests/test_other.py::test_two",
         "tests/test_mod.py::test_x*"], 13)
