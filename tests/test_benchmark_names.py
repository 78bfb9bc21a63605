"""The package names the benchmark depends on still exist.

The benchmark wraps a list of package names for its per-layer metrics and
calls package functions from its workloads.  A rename there would otherwise
show only on a traced benchmark run, which exits 3.  These tests read the
benchmark's files and change none of them.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_benchmark_{name}", BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_can_be_wrapped():
    """Installing the tracer raises CoverageError for a traced name that is
    gone, as a traced benchmark run does."""
    tracer = _load("tracing").Tracer("t")
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def test_every_package_name_the_workloads_use_exists():
    tree = ast.parse((BENCHMARK / "workloads.py").read_text())
    modules = {}
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "semiinv":
            for alias in node.names:
                if node.module == "semiinv":
                    modules[alias.asname or alias.name] = importlib.import_module(
                        f"semiinv.{alias.name}"
                    )
                elif not hasattr(importlib.import_module(node.module), alias.name):
                    missing.append(f"{node.module}.{alias.name}")
    assert {"cli", "conjinv", "gen", "hwv", "relations"} <= set(modules)
    reads = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ]
    assert reads
    missing += [
        f"{node.value.id}.{node.attr}"
        for node in reads
        if not hasattr(modules[node.value.id], node.attr)
    ]
    assert not missing
