"""Every ```python example of README.md runs as written, so the documented
API stays runnable."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
EXAMPLES = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.DOTALL | re.MULTILINE)


def test_readme_has_python_examples():
    assert EXAMPLES


@pytest.mark.parametrize("index", range(len(EXAMPLES)))
def test_readme_example_runs(index):
    # pytest captures what the examples print.
    code = compile(EXAMPLES[index], f"README.md python example {index + 1}", "exec")
    exec(code, {"__name__": f"readme_example_{index + 1}"})
