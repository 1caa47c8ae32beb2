"""The package imports only the standard library, numpy and itself."""

import ast
import sys
from pathlib import Path

import jitterlab

PACKAGE = Path(jitterlab.__file__).parent


def _imported_roots(tree: ast.AST) -> list[tuple[int, str]]:
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append((node.lineno, node.module.split(".")[0]))
    return roots


def test_package_imports_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "jitterlab"}
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    strays = [
        f"{path.name}:{lineno} imports {root}"
        for path in sources
        for lineno, root in _imported_roots(ast.parse(path.read_text(encoding="utf-8")))
        if root not in allowed
    ]
    assert strays == []
