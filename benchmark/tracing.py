"""Span tracing of the semiinv layers, for the benchmark's per-layer metrics.

The wrappers live in the benchmark, around the package's public names, and are
installed wherever a name is looked up: on the class for a method, and in every
``semiinv`` module that holds a reference for a function (``verify`` imports
``sample_point`` by name, for example).  Spans -- name, start, end, parent and
run id -- stay in memory in flat arrays and are written out when the run ends.
A span's self time is its duration minus the time its child spans cover; an
inclusive time (a metric ending in ``.s``) sums the outermost spans of a name.

The coverage guard fails the run when a wrapped name no longer exists, or when
a wrapped name records no call on a workload where the layer is known to work,
so a rename cannot silently zero a layer.
"""

from __future__ import annotations

import importlib
import sys
from functools import partial
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

CERTIFY, SWEEP, EXACT = "certify-default", "modular-sweep", "exact-algebra"
ALL = frozenset((CERTIFY, SWEEP, EXACT))

# (span name, module, attribute, workloads on which it must record calls)
TRACED = (
    ("poly.mul", "semiinv.poly", "Polynomial.mul", {CERTIFY, EXACT}),
    ("poly.substitute", "semiinv.poly", "Polynomial.substitute", {CERTIFY, EXACT}),
    ("generators.act_on_function", "semiinv.generators", "act_on_function", {CERTIFY, EXACT}),
    ("matrix.determinant", "semiinv.matrix", "PolyMatrix.determinant", ALL),
    ("hwv.solve_hwv_correction", "semiinv.hwv", "solve_hwv_correction", {CERTIFY, EXACT}),
    ("hwv.certificate", "semiinv.hwv", "is_fixed_by_unipotents", {CERTIFY, EXACT}),
    ("hwv.certificate", "semiinv.hwv", "sl3_invariance_certificate", {CERTIFY, EXACT}),
    ("hwv.certificate", "semiinv.hwv", "sl3_certificate_for_f_polynomial", {CERTIFY, EXACT}),
    ("linalg.solve_unique", "semiinv.linalg", "solve_unique", {EXACT}),
    ("evalmod.sample_point", "semiinv.evalmod", "sample_point", {CERTIFY, SWEEP}),
    ("evalmod.poly_eval_mod", "semiinv.evalmod", "poly_eval_mod", {CERTIFY, SWEEP}),
    ("verify.run_identity_modular", "semiinv.verify", "run_identity_modular", {CERTIFY, SWEEP}),
    ("verify.run_identity_exact", "semiinv.verify", "run_identity_exact", {EXACT}),
    ("verify.exact_else_modular", "semiinv.verify", "run_identity_exact_else_modular",
     {CERTIFY, EXACT}),
    ("relations.derive_st", "semiinv.relations", "derive_st", {CERTIFY, EXACT}),
    ("textio.parse_text", "semiinv.textio", "parse_text", {CERTIFY}),
    ("conjinv.trace_generators", "semiinv.conjinv", "trace_generators", {CERTIFY, EXACT}),
    ("conjinv.verify_nakamoto_composed", "semiinv.conjinv", "verify_nakamoto_composed",
     {CERTIFY, EXACT}),
)

# entries of suites.SUITES, each traced inclusively; they run on certify-default
SUITE_NAMES = (
    "generators", "hwv", "main-relation", "theorem1", "special-triples",
    "derive-st", "phi-images", "s-ab", "nakamoto", "nonvanishing",
)


class CoverageError(RuntimeError):
    """A traced name is gone, or recorded no call where work is predicted."""


def _count_rows(tracer, args, kwargs):
    if args:
        rows, args = list(args[0]), args[1:]
    else:
        rows = list(kwargs.pop("rows"))
    tracer.counters["linalg.solve_unique.rows_in"] += len(rows)
    return (rows,) + args, kwargs


def _mul_out(tracer, result):
    key = "poly.mul.max_out_terms"
    tracer.counters[key] = max(tracer.counters[key], len(result))


def _substitute_ring(tracer, result):
    if result.ring.kind == "QQ":
        tracer.counters["poly.substitute.qq_calls"] += 1


def _modular_points(tracer, result):
    tracer.counters["verify.modular_points"] += result.details["evaluations"]


def _fallback(tracer, result):
    if result.mode != "exact":
        tracer.counters["verify.fallbacks"] += 1


BEFORE = {"linalg.solve_unique": _count_rows}
AFTER = {
    "poly.mul": _mul_out,
    "poly.substitute": _substitute_ring,
    "verify.run_identity_modular": _modular_points,
    "verify.exact_else_modular": _fallback,
}


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list = []
        self.kind = array("i")
        self.parent = array("i")
        self.outer = array("b")  # no enclosing span of the same name
        self.start = array("d")
        self.end = array("d")
        self.counters = Counter()
        self._stack: list = []
        self._depth: list = []
        self._restore: list = []

    def wrap(self, name: str, fn, before=None, after=None):
        if name not in self.names:
            self.names.append(name)
            self._depth.append(0)
        nid = self.names.index(name)
        kind, parent, outer = self.kind, self.parent, self.outer
        start, end, stack, depth = self.start, self.end, self._stack, self._depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            i = len(kind)
            kind.append(nid)
            parent.append(stack[-1] if stack else -1)
            outer.append(depth[nid] == 0)
            depth[nid] += 1
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
                depth[nid] -= 1
            if after is not None:
                after(self, result)
            return result

        return traced

    def install(self):
        """Wrap every traced name; raises CoverageError if one is gone."""
        for name, module, attr, _ in TRACED:
            mod = importlib.import_module(module)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, leaf, None)
            if original is None:
                raise CoverageError(f"{module}.{attr} no longer exists")
            traced = self.wrap(name, original, BEFORE.get(name), AFTER.get(name))
            if owner_name:
                self._replace(owner, leaf, traced)
                continue
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").partition(".")[0] != "semiinv":
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._replace(other, key, traced)
        suites = importlib.import_module("semiinv.suites").SUITES
        for key in SUITE_NAMES:
            if key not in suites:
                raise CoverageError(f"semiinv.suites.SUITES[{key!r}] no longer exists")
            self._restore.append((suites.__setitem__, key, suites[key]))
            suites[key] = self.wrap(f"suites.{key}", suites[key])

    def _replace(self, owner, key, value):
        self._restore.append((partial(setattr, owner), key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._restore:
            put, key, original = self._restore.pop()
            put(key, original)

    # -- reading the spans --------------------------------------------------------

    def _arrays(self):
        kind = np.frombuffer(self.kind, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                              minlength=len(kind))
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        return kind, duration, duration - covered, outer

    def summary(self) -> dict:
        """span name -> (calls, self seconds, inclusive seconds)."""
        kind, duration, self_time, outer = self._arrays()
        out = {}
        for nid, name in enumerate(self.names):
            mine = kind == nid
            out[name] = (
                int(mine.sum()),
                float(self_time[mine].sum()),
                float(duration[mine & outer].sum()),
            )
        return out

    def check_coverage(self, workload: str, summary: dict):
        silent = [name for name, _, _, where in TRACED
                  if workload in where and summary[name][0] == 0]
        if workload == CERTIFY:
            silent += [f"suites.{key}" for key in SUITE_NAMES
                       if summary[f"suites.{key}"][0] == 0]
        if silent:
            raise CoverageError(
                f"no calls recorded on {workload} for: {', '.join(sorted(set(silent)))}"
            )

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names),
            kind=np.frombuffer(self.kind, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def layer_metrics(summary: dict, counters: dict) -> dict:
    """The per-layer metrics: name -> value; units are in BENCHMARK.json."""
    def calls(name):
        return summary[name][0]

    def self_s(name):
        return summary[name][1]

    def inclusive_s(name):
        return summary[name][2]

    points = counters.get("verify.modular_points", 0)
    modular_s = inclusive_s("verify.run_identity_modular")
    substitutions = calls("poly.substitute")
    out = {
        "poly.mul.calls": calls("poly.mul"),
        "poly.mul.self_s": self_s("poly.mul"),
        "poly.mul.max_out_terms": counters.get("poly.mul.max_out_terms", 0),
        "poly.substitute.calls": substitutions,
        "poly.substitute.self_s": self_s("poly.substitute"),
        "poly.substitute.qq_share": (
            counters.get("poly.substitute.qq_calls", 0) / substitutions
            if substitutions else 0.0
        ),
        "generators.act_on_function.calls": calls("generators.act_on_function"),
        "generators.act_on_function.self_s": self_s("generators.act_on_function"),
        "matrix.determinant.calls": calls("matrix.determinant"),
        "matrix.determinant.self_s": self_s("matrix.determinant"),
        "hwv.solve_hwv_correction.s": inclusive_s("hwv.solve_hwv_correction"),
        "hwv.certificate.calls": calls("hwv.certificate"),
        "hwv.certificate.s": inclusive_s("hwv.certificate"),
        "linalg.solve_unique.calls": calls("linalg.solve_unique"),
        "linalg.solve_unique.rows_in": counters.get("linalg.solve_unique.rows_in", 0),
        "linalg.solve_unique.self_s": self_s("linalg.solve_unique"),
        "evalmod.sample_point.calls": calls("evalmod.sample_point"),
        "evalmod.sample_point.self_s": self_s("evalmod.sample_point"),
        "evalmod.poly_eval_mod.calls": calls("evalmod.poly_eval_mod"),
        "evalmod.poly_eval_mod.self_s": self_s("evalmod.poly_eval_mod"),
        "verify.run_identity_modular.s": modular_s,
        "verify.modular_points": points,
        "verify.us_per_point": modular_s / points * 1e6 if points else 0.0,
        "verify.run_identity_exact.s": inclusive_s("verify.run_identity_exact"),
        "verify.fallbacks": counters.get("verify.fallbacks", 0),
        "relations.derive_st.s": inclusive_s("relations.derive_st"),
        "textio.parse_text.calls": calls("textio.parse_text"),
        "textio.parse_text.self_s": self_s("textio.parse_text"),
        "conjinv.trace_generators.s": inclusive_s("conjinv.trace_generators"),
        "conjinv.verify_nakamoto_composed.s": inclusive_s("conjinv.verify_nakamoto_composed"),
    }
    for key in SUITE_NAMES:
        out[f"suites.{key}.s"] = inclusive_s(f"suites.{key}")
    return out
