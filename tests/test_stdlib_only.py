"""The package stays stdlib-only: every absolute import in src/jointlab and
its subpackages is a standard-library module."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jointlab"


def absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    files = sorted(PACKAGE.rglob("*.py"))
    assert files, PACKAGE
    outside = [
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in files
        for name in absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []
