"""Every Python file of the project parses as Python 3.10, the oldest
version `pyproject.toml` declares. This checks grammar only: a call to a
library function that 3.10 lacks still passes."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for part in ("src", "tests", "perfbench")
               for p in (ROOT / part).rglob("*.py"))


def test_the_project_has_python_files():
    assert any(p.parts[-2] == "disturbsim" for p in FILES)


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
