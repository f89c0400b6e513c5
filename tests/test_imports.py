"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bouquet_dyn"


def absolute_imports(path):
    """The top-level module of every absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_standard_library_only():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5, sources
    allowed = sys.stdlib_module_names | {"bouquet_dyn"}
    outside = {
        (path.name, name)
        for path in sources
        for name in absolute_imports(path)
        if name not in allowed
    }
    assert not outside, sorted(outside)
