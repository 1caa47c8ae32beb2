"""The package imports only the standard library, numpy and itself, and
keeps every name the benchmark's per-call block and the demos read."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import jitterlab

PACKAGE = Path(jitterlab.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


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


@pytest.mark.parametrize(
    "script",
    [ROOT / "perfbench" / "micro.py", *sorted((ROOT / "demos").glob("*.py"))],
    ids=lambda path: path.stem,
)
def test_micro_benchmark_reads_only_names_the_package_has(script):
    # The benchmark's per-call block and the demos read the package as `jl`;
    # most demos run in no test, so a pruned name would break them unseen.
    tree = ast.parse(script.read_text(encoding="utf-8"))
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "jl"
    }
    assert names
    assert sorted(name for name in names if not hasattr(jitterlab, name)) == []


def test_tracer_finds_every_target_the_package_has():
    # perfbench/tracer.py finds each layer's function by its public name; a
    # target it cannot find reads 0 in the benchmark, not a failure here.
    # minimize_convex is the one target the package no longer has.
    import jitterlab.cli  # noqa: F401  (the tracer searches the loaded modules)

    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        public for _, public, preferred, _ in tracer.TARGETS
        if tracer._resolve(public, preferred) is None
    ]
    assert missing == ["minimize_convex"]
