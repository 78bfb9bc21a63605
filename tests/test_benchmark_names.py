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

import pytest

from semiinv import conjinv, generators as gen, hwv, relations
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


WORKLOADS = _load("workloads")


@pytest.mark.parametrize("workload", list(WORKLOADS.RUNNERS))
def test_every_prediction_of_a_workload_records_a_call(cold_builds, workload):
    """A traced benchmark run builds the generator table under the tracer,
    as its set-up, and then runs the workload; the coverage guard predicts
    calls to every name TRACED lists for the workload (and, on
    certify-default, to every suite).  Run here as benchmark/child.py runs
    it, with cold builds and two sweep points, every prediction records a
    call and every output matches its expected value, so a change that
    stops reading a layer shows here and not only as exit 3 on a traced
    run (matrix.determinant on modular-sweep, say, holds only while the
    set-up builds f1..f10 through PolyMatrix.determinant; h and q are built
    on their first read, which no modular run makes)."""
    tracing = _load("tracing")
    tracer = tracing.Tracer("t")
    tracer.install()
    try:
        gen.generator_table()
        options = {"sweep_trials": 2, "flip_mutant": False}
        _, _, verify_outputs = WORKLOADS.RUNNERS[workload](0, options)
    finally:
        tracer.uninstall()
    ledger = WORKLOADS.Ledger()
    verify_outputs(ledger)
    WORKLOADS.check_pinned_outputs(ledger)
    assert [e["name"] for e in ledger.entries if not e["ok"]] == []
    summary = tracer.summary()
    predicted = [name for name, _, _, where in tracing.TRACED if workload in where]
    if workload == tracing.CERTIFY:
        predicted += [f"suites.{key}" for key in tracing.SUITE_NAMES]
    assert predicted and [name for name in predicted if summary[name][0] == 0] == []
