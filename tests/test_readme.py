"""The README's Library example runs as written against the top-level package.

It imports from ``degenpoly`` itself, so a name dropped from
``degenpoly/__init__.py`` that the README still uses fails here.
"""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README Library section has no python block"
    return match.group(1)


def test_readme_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    value, at_point = capsys.readouterr().out.splitlines()
    assert value.endswith("+ 3*x^2 - 10*x + 101/12")
    assert at_point == "25/6"
