"""The README's quick start and the demos import only names that exist, its
library map names only what its modules define, and the command lines of
its CLI section parse."""

import ast
import importlib
import inspect
import re
import shlex
from pathlib import Path

import pytest

from tdalab import cli

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


def _library_map():
    """(module, backticked names, bare or dotted) for each row of the README
    library map."""
    section = (ROOT / "README.md").read_text().split("## Library map", 1)[1].split("\n## ", 1)[0]
    for line in section.splitlines():
        row = re.match(r"\| `(tdalab\.\w+)` \| (.*) \|$", line)
        if row:
            yield row.group(1), re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`", row.group(2))


LIBRARY_MAP = list(_library_map())


def test_library_map_lists_every_module():
    modules = {f"tdalab.{path.stem}" for path in (ROOT / "src" / "tdalab").glob("*.py")}
    assert {module for module, _ in LIBRARY_MAP} <= modules
    assert len(LIBRARY_MAP) >= 8


def _has_path(obj, attrs) -> bool:
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def _resolves(mod, classes, name) -> bool:
    """Whether a library-map name resolves attribute by attribute from the
    module or from a class it defines; a dotted name rooted in another
    package (``scipy.ndimage.label``) resolves by importing its longest
    module prefix."""
    parts = name.split(".")
    if any(_has_path(root, parts) for root in (mod, *classes)):
        return True
    if len(parts) > 1:
        for end in range(len(parts), 0, -1):
            try:
                package = importlib.import_module(".".join(parts[:end]))
            except ImportError:
                continue
            return _has_path(package, parts[end:])
    return False


@pytest.mark.parametrize("module, names", LIBRARY_MAP, ids=[m for m, _ in LIBRARY_MAP])
def test_library_map_names_exist(module, names):
    mod = importlib.import_module(module)
    classes = [c for c in vars(mod).values() if inspect.isclass(c) and c.__module__ == module]
    missing = [n for n in names if not _resolves(mod, classes, n)]
    assert not missing


def _cli_lines():
    """The ``tdalab`` command lines of the README's CLI block, comments dropped."""
    section = (ROOT / "README.md").read_text().split("## CLI", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("tdalab ")]


CLI_LINES = _cli_lines()


def test_readme_cli_block_has_every_subcommand():
    assert {argv[1] for argv in CLI_LINES} == {"generate", "ph", "run"}


@pytest.mark.parametrize("argv", CLI_LINES, ids=[" ".join(argv[1:3]) for argv in CLI_LINES])
def test_readme_cli_lines_parse(argv):
    try:
        cli.build_parser().parse_args(argv[1:])
    except SystemExit:
        pytest.fail(f"README CLI line does not parse: {' '.join(argv)}")
