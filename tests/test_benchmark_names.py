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

from semiinv import conjinv, generators as gen, hwv, relations, suites
from semiinv.verify import RunConfig

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


def test_the_traced_layers_of_the_exact_trace_relation_record_calls():
    """The coverage guard predicts calls to these names on the workloads that
    run verify_nakamoto_composed; a refactor that routes around one would
    otherwise show only as exit 3 on a traced benchmark run."""
    tracer = _load("tracing").Tracer("t")
    tracer.install()
    try:
        assert conjinv.verify_nakamoto_composed(RunConfig(mode="exact")).passed
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    for name in (
        "verify.exact_else_modular",
        "verify.run_identity_exact",
        "poly.substitute",
        "conjinv.trace_generators",
    ):
        assert summary[name][0] > 0, name


def test_the_layers_the_product_kernel_serves_still_record_calls():
    """The determinant, Horner's steps and the correction sums add their
    products through Polynomial.sum_of_products, not mul.  The coverage
    guard still predicts calls to these names on certify-default and
    exact-algebra, which build the generator table and certify the derived
    invariants with a cold f-span action."""
    tracer = _load("tracing").Tracer("t")
    tracer.install()
    try:
        gen.generators_of(gen.generic_triple())
        hwv._span_action_verified.cache_clear()
        assert hwv.sl3_certificate_for_f_polynomial(relations.derive_st()[0])
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    for name in (
        "matrix.determinant",
        "poly.mul",
        "poly.substitute",
        "generators.act_on_function",
    ):
        assert summary[name][0] > 0, name


def test_a_cold_verify_all_records_every_certify_default_prediction(cold_builds):
    """certify-default runs verify all in a fresh interpreter.  With cold
    builds under the tracer, every name the coverage guard predicts calls to
    on certify-default records one, every suite included; a check that stops
    reading a build (the correction solves, the f-span action) would
    otherwise show only as exit 3 on a traced benchmark run."""
    tracing = _load("tracing")
    tracer = tracing.Tracer("t")
    tracer.install()
    try:
        results = suites.run_suite("all", RunConfig())
    finally:
        tracer.uninstall()
    assert all(r.passed for r in results)
    summary = tracer.summary()
    predicted = [name for name, _, _, where in tracing.TRACED if tracing.CERTIFY in where]
    predicted += [f"suites.{key}" for key in tracing.SUITE_NAMES]
    assert [name for name in predicted if summary[name][0] == 0] == []
