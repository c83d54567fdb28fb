"""Checks on the package as a whole: the README's library example runs against
the current public names, and the package imports nothing beyond the standard
library and numpy, its only runtime dependency."""

import ast
import re
import sys
from pathlib import Path

import tdfenc

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE_DIR = Path(tdfenc.__file__).resolve().parent
ALLOWED_THIRD_PARTY = {"numpy", "tdfenc"}


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"^## Library example\n\n```python\n(.*?)^```", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, "README has no single Python block under '## Library example'"
    exec(compile(blocks[0], f"{README}:Library example", "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.strip(), "the example printed nothing"


def _imported_roots(tree: ast.AST):
    """Top-level module name of every absolute import in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources, f"no modules found in {PACKAGE_DIR}"
    foreign = {
        (path.name, root)
        for path in sources
        for root in _imported_roots(ast.parse(path.read_text(), filename=str(path)))
        if root not in sys.stdlib_module_names and root not in ALLOWED_THIRD_PARTY
    }
    assert not foreign, f"imports outside the standard library and numpy: {sorted(foreign)}"
