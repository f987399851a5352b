"""Every ```python example of README.md runs as written, and every module
attribute its prose names exists, so the documented API stays runnable."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import r13lab

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
EXAMPLES = re.findall(r"^```python\n(.*?)^```", TEXT, re.DOTALL | re.MULTILINE)
MODULES = {info.name for info in pkgutil.iter_modules(r13lab.__path__)}


def test_readme_has_python_examples():
    assert EXAMPLES


@pytest.mark.parametrize("index", range(len(EXAMPLES)))
def test_readme_example_runs(index):
    # pytest captures what the examples print.
    code = compile(EXAMPLES[index], f"README.md python example {index + 1}", "exec")
    exec(code, {"__name__": f"readme_example_{index + 1}"})


def test_readme_names_existing_module_attributes():
    # Every backticked `<module>.<name>` outside the code blocks, with or
    # without the r13lab. prefix, names an attribute of that module.
    prose = re.sub(r"^```.*?^```", "", TEXT, flags=re.DOTALL | re.MULTILINE)
    spans = (re.match(r"(?:r13lab\.)?(\w+)\.(\w+)", span)
             for span in re.findall(r"`([^`\n]+)`", prose))
    names = [match.groups() for match in spans if match and match[1] in MODULES]
    assert names
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(f"r13lab.{module}"), name)]
    assert not missing
