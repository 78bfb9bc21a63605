"""Command-line front end: emit generators and relations, run verification
suites, and produce machine-readable reports.

Exit codes: 0 all checks passed, 1 an identity was violated or a slice
proof's gate failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import conjinv, generators as gen, hwv, relations, textio
from .evalmod import DEFAULT_PRIMES
from .suites import SUITES, run_suite
from .verify import RunConfig, VerifyUsageError, build_report, render_text


def _emissions() -> dict:
    """Registered emission names -> zero-argument polynomial providers."""
    out = {}
    for name in gen.generator_table().by_name():
        out[name] = (lambda n=name: gen.generator_table().by_name()[n])
    out["Stilde"] = lambda: relations.derive_st()[0]
    out["Ttilde"] = lambda: relations.derive_st()[1]
    out["S_cubic"] = lambda: gen.cubic_invariants_from_f_forms(*relations.derive_st())[0]
    out["T_cubic"] = lambda: gen.cubic_invariants_from_f_forms(*relations.derive_st())[1]
    out["A"] = relations.defining_relation
    out["nakamoto"] = conjinv.nakamoto_polynomial
    out["phi_h"] = lambda: conjinv.phi(gen.generator_table().h)
    out["phi_q"] = lambda: conjinv.phi(gen.generator_table().q)
    return out


def emission_names() -> list:
    return sorted(_emissions()) + ["tracegens"]


def cmd_emit(args) -> int:
    name = args.name
    if name == "tracegens":
        gens = conjinv.trace_generators()
        if args.format == "json":
            obj = {
                "generators": {n: textio.to_json_obj(gens[n]) for n in conjinv.TRACE_NAMES}
            }
            print(json.dumps(obj, indent=2, sort_keys=True))
        else:
            for n in conjinv.TRACE_NAMES:
                print(f"{n} = {gens[n].text()}")
        return 0
    table = _emissions()
    if name not in table:
        print(f"unknown emission name {name!r}; known names:", file=sys.stderr)
        print("  " + " ".join(emission_names()), file=sys.stderr)
        return 2
    poly = table[name]()
    if args.format == "json":
        print(json.dumps(textio.to_json_obj(poly), indent=2, sort_keys=True))
    else:
        print(poly.text())
    return 0


def _parse_primes(text: str) -> tuple:
    try:
        return tuple(int(p.strip()) for p in text.split(",") if p.strip())
    except ValueError:
        raise VerifyUsageError(f"bad prime list {text!r}") from None


def _config_from(args) -> RunConfig:
    primes = DEFAULT_PRIMES if args.primes is None else _parse_primes(args.primes)
    return RunConfig(
        mode=args.mode,
        trials=args.trials,
        primes=primes,
        seed=args.seed,
        allow_small_char=args.allow_small_char,
    )


def cmd_verify(args) -> int:
    try:
        cfg = _config_from(args)
        results = run_suite(args.suite, cfg)
    except VerifyUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = build_report(args.suite, results, cfg)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_text(report))
    return 0 if report["passed"] else 1


def cmd_derive_st(args) -> int:
    s4, t6 = relations.derive_st()
    if args.format == "json":
        obj = {"Stilde": textio.to_json_obj(s4), "Ttilde": textio.to_json_obj(t6)}
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(f"Stilde = {s4.text()}")
        print(f"Ttilde = {t6.text()}")
    return 0


def cmd_solve_hwv(args) -> int:
    solved = (
        ("H", gen.H_CORRECTIONS, hwv.solve_h_correction()),
        ("Q", gen.Q_CORRECTIONS, hwv.solve_q_correction()),
    )
    for name, corrections, beta in solved:
        labels = ", ".join(gen.correction_label(keys) for _, keys in corrections)
        print(f"{name} correction on [{labels}]:")
        print("  " + " ".join(str(Fraction(b)) for b in beta))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiinv",
        description="Exact generators, relations, and verification for "
        "semi-invariants of 3x3 matrix triples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_emit = sub.add_parser("emit", help="print a named polynomial")
    p_emit.add_argument("name", help="e.g. f300, f1, h, q, HH, QQ, Stilde, "
                        "Ttilde, S_cubic, T_cubic, A, nakamoto, phi_h, phi_q, tracegens")
    p_emit.add_argument("--format", choices=("text", "json"), default="text")
    p_emit.set_defaults(func=cmd_emit)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p_verify.add_argument("--mode", choices=("exact", "modular"), default="modular")
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument(
        "--primes",
        default=None,
        help="comma-separated odd primes < 2^31 (default: the five largest below 2^31; "
        "the main-relation suite additionally spot-checks 5 and 7)",
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--allow-small-char", action="store_true",
                          help="permit characteristic 3")
    p_verify.set_defaults(func=cmd_verify)

    p_derive = sub.add_parser("derive-st", help="print the derived quartic and sextic f-invariants")
    p_derive.add_argument("--format", choices=("text", "json"), default="text")
    p_derive.set_defaults(func=cmd_derive_st)

    p_solve = sub.add_parser("solve-hwv", help="recompute the highest-weight corrections")
    p_solve.set_defaults(func=cmd_solve_hwv)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
