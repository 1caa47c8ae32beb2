"""The package imports only the standard library, numpy and itself, and
keeps every name and keyword the benchmark's per-call block and the demos use."""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import jitterlab

PACKAGE = Path(jitterlab.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
# The scripts that read the package as `jl`: most demos run in no test, so a
# pruned name or parameter would break them unseen.
SCRIPTS = [ROOT / "perfbench" / "micro.py", *sorted((ROOT / "demos").glob("*.py"))]


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


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.stem)
def test_micro_benchmark_reads_only_names_the_package_has(script):
    tree = ast.parse(script.read_text(encoding="utf-8"))
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "jl"
    }
    assert names
    assert sorted(name for name in names if not hasattr(jitterlab, name)) == []


def _jl_calls(tree: ast.AST) -> list[tuple[str, list[str]]]:
    """(dotted name below jl, keyword names) for each call of jl.<name>[.<attr>...](...)."""
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            parts, func = [], node.func
            while isinstance(func, ast.Attribute):
                parts.insert(0, func.attr)
                func = func.value
            if parts and isinstance(func, ast.Name) and func.id == "jl":
                calls.append((".".join(parts), [kw.arg for kw in node.keywords if kw.arg]))
    return calls


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.stem)
def test_scripts_pass_only_keywords_the_callable_takes(script):
    # A keyword dropped from a public callable fails here, not when the
    # script next runs; a **mapping passed on is not checked.
    calls = _jl_calls(ast.parse(script.read_text(encoding="utf-8")))
    assert calls
    unknown = []
    for dotted, keywords in calls:
        obj = jitterlab
        for part in dotted.split("."):
            obj = getattr(obj, part)
        params = inspect.signature(obj).parameters
        if not any(p.kind is p.VAR_KEYWORD for p in params.values()):
            unknown += [f"jl.{dotted}({kw}=...)" for kw in keywords if kw not in params]
    assert unknown == []


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
