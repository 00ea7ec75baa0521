"""The README's quick start and the demos import only names that exist."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _sources():
    readme = (ROOT / "README.md").read_text()
    quick_start = readme.split("## Quick start", 1)[1]
    yield "README.md", re.search(r"```python\n(.*?)```", quick_start, re.S).group(1)
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield path.name, path.read_text()


SOURCES = list(_sources())


def _tdalab_imports(source):
    """(module, name) for every ``from tdalab[.module] import name``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tdalab":
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("source", [s for _, s in SOURCES], ids=[n for n, _ in SOURCES])
def test_imported_tdalab_names_exist(source):
    imports = list(_tdalab_imports(source))
    assert imports
    missing = [
        f"{module}.{name}" for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing
