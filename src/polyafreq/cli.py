"""Command-line front end: gen / check / transform / op / verify.

Polynomials travel as JSON objects {"coeffs": ["p/q", ...]} (inline or as a
file path); rationals on the command line are "p/q" strings.  Note that a
negative rational flag value must be attached with '=', e.g. --t=-1/2,
since a bare "-1/2" token is not recognized as a value by the parser.

Exit codes: 0 passing verdict, 1 failing verdict, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .combinatorics import (
    b_euler_multi,
    b_euler_q,
    e_q_poly,
    eulerian_poly,
    eulerian_t_poly,
    fz_h_poly,
    multisect,
    narayana_poly,
    p_bn_subset,
    p_dn_poly,
    q_eulerian_poly,
    surjection_poly,
    t_stack_poly,
    w2_poly,
)
from .config import RunConfig
from .errors import PolyafreqError, PreconditionError
from .jsonio import (
    load_poly_argument,
    poly_from_dict,
    poly_to_dict,
    poly_to_json,
    rational_from_str,
    rational_to_str,
)
from .operators import (
    BivarOp,
    apply_phi,
    circ_form,
    diamond_product,
    dot_form,
    hadamard_product,
    hermite_poulain,
    schur_product,
    sharp_product,
)
from .pf import is_log_concave, is_pf_finite, is_unimodal, minors_nonneg, toeplitz_window
from .polynomial import NEG_INF, POS_INF, Poly
from .roots import (
    InterlaceRelation,
    check_nonneg_on_reals,
    interlace_relation,
    is_real_rooted,
    is_simple_rooted,
    root_dominance,
    roots_within,
)
from .suites import SUITE_NAMES, run_all, run_suite
from .transforms import (
    MultiplierSeq,
    apply_multiplier,
    e_inverse,
    e_transform,
    is_multiplier_n_sequence,
    reflect,
    w_transform,
)

_GOOD_RELATIONS = {
    InterlaceRelation.INTERLACES,
    InterlaceRelation.INTERLACES_STRICT,
    InterlaceRelation.ALTERNATES_LEFT,
    InterlaceRelation.ALTERNATES_LEFT_STRICT,
}


class UsageError(Exception):
    pass


def _rational(text: str) -> Fraction:
    try:
        return rational_from_str(text)
    except PolyafreqError as exc:
        raise UsageError(str(exc)) from exc


def _rational_list(text: str) -> list[Fraction]:
    return [_rational(part) for part in text.split(",") if part.strip()]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _int_set(text: str) -> set[int]:
    try:
        return {int(part) for part in text.split(",") if part.strip()}
    except ValueError as exc:
        raise UsageError(f"malformed integer set {text!r}") from exc


def _endpoint(text: str):
    lowered = text.strip().lower()
    if lowered in ("-inf", "-infinity"):
        return NEG_INF
    if lowered in ("inf", "+inf", "infinity", "+infinity"):
        return POS_INF
    return _rational(text)


def _emit(data: dict) -> None:
    print(json.dumps(data, sort_keys=True))


# -- gen -------------------------------------------------------------------------


def _require(args, name: str):
    value = getattr(args, name, None)
    if value is None:
        raise UsageError(f"family {args.family!r} requires --{name.replace('_', '-')}")
    return value


def _cmd_gen(args) -> int:
    family = args.family
    n = args.n
    if n is None:
        raise UsageError("gen requires --n")
    if family == "eulerian":
        poly = eulerian_poly(n)
    elif family == "surjection":
        poly = surjection_poly(n)
    elif family == "eulerian_t":
        poly = eulerian_t_poly(n, _require(args, "t"))
    elif family == "q_eulerian":
        poly = q_eulerian_poly(n, _require(args, "q"))
    elif family == "e_q":
        poly = e_q_poly(n, _require(args, "q"))
    elif family == "b_euler":
        poly = b_euler_q(n, _require(args, "q"))
    elif family == "b_euler_multi":
        poly = b_euler_multi(n, _require(args, "qs"))
    elif family == "p_bn_subset":
        poly = p_bn_subset(n, _require(args, "set"))
    elif family == "p_dn":
        poly = p_dn_poly(n)
    elif family == "fz_h":
        poly = fz_h_poly(_require(args, "type"), n)
    elif family == "w2":
        poly = w2_poly(n)
    elif family == "t_stack":
        t = _require(args, "t")
        if t.denominator != 1 or t < 0:
            raise UsageError("t_stack needs a nonnegative integer --t")
        poly = t_stack_poly(n, int(t))
    elif family == "narayana":
        poly = narayana_poly(n)
    else:
        raise UsageError(f"unknown family {family!r}")
    print(poly_to_json(poly))
    return 0


# -- check -----------------------------------------------------------------------


def _poly_inputs(args, count: int) -> list[Poly]:
    sources = list(args.polys or [])
    if args.poly is not None:
        sources.insert(0, args.poly)
    if len(sources) != count:
        raise UsageError(f"check {args.kind!r} needs exactly {count} polynomial argument(s)")
    return [load_poly_argument(s) for s in sources]


def _multiplier_from_flags(args, allow_default: bool = False) -> MultiplierSeq:
    chosen = [
        args.gamma_shift is not None,
        args.factorial_inverse,
        args.binom_negative is not None,
        args.explicit is not None,
        args.all_ones,
    ]
    if sum(chosen) == 0 and allow_default:
        return MultiplierSeq.all_ones()
    if sum(chosen) != 1:
        raise UsageError(
            "choose exactly one of --gamma-shift/--factorial-inverse/"
            "--binom-negative/--explicit/--all-ones"
        )
    if args.gamma_shift is not None:
        return MultiplierSeq.gamma_shift(args.gamma_shift)
    if args.factorial_inverse:
        return MultiplierSeq.factorial_inverse()
    if args.all_ones:
        return MultiplierSeq.all_ones()
    if args.explicit is not None:
        return MultiplierSeq.explicit(args.explicit)
    try:
        n_text, r_text = args.binom_negative.split(",")
        n = int(n_text)
    except ValueError as exc:
        raise UsageError("--binom-negative takes 'n,r' with an integer n") from exc
    return MultiplierSeq.binom_negative(n, _rational(r_text))


def _cmd_check(args) -> int:
    kind = args.kind
    if kind in ("real-rooted", "simple", "pf", "nonneg-on-reals"):
        (f,) = _poly_inputs(args, 1)
        verdict = {
            "real-rooted": is_real_rooted,
            "simple": is_simple_rooted,
            "pf": is_pf_finite,
            "nonneg-on-reals": check_nonneg_on_reals,
        }[kind](f)
        _emit({"kind": kind, "verdict": verdict})
        return 0 if verdict else 1
    if kind in ("log-concave", "unimodal"):
        terms = args.terms if args.terms is not None else _poly_inputs(args, 1)[0].coeffs
        verdict = is_log_concave(terms) if kind == "log-concave" else is_unimodal(terms)
        _emit({"kind": kind, "verdict": verdict})
        return 0 if verdict else 1
    if kind == "interval":
        (f,) = _poly_inputs(args, 1)
        if args.lo is None or args.hi is None:
            raise UsageError("check interval needs --lo and --hi")
        verdict = roots_within(f, args.lo, args.hi)
        _emit({"kind": kind, "verdict": verdict})
        return 0 if verdict else 1
    if kind == "interlace":
        f, g = _poly_inputs(args, 2)
        relation = interlace_relation(f, g)
        _emit({"kind": kind, "relation": relation.value})
        return 0 if relation in _GOOD_RELATIONS else 1
    if kind == "dominance":
        f, g = _poly_inputs(args, 2)
        verdict = root_dominance(f, g)
        _emit({"kind": kind, "verdict": verdict})
        return 0 if verdict else 1
    if kind == "pf-minors":
        if args.terms is not None:
            terms = args.terms
        else:
            (f,) = _poly_inputs(args, 1)
            terms = f.coeffs
        size = args.window if args.window else len(terms) + 2
        order = args.order if args.order else min(4, size)
        report = minors_nonneg(toeplitz_window(terms, size), order)
        payload = {"kind": kind, "verdict": report.nonnegative, "window": size, "order": order}
        if report.witness is not None:
            rows, cols, value = report.witness
            payload["witness"] = {
                "rows": list(rows),
                "cols": list(cols),
                "minor": rational_to_str(value),
            }
        _emit(payload)
        return 0 if report.nonnegative else 1
    if kind == "multiplier-n":
        if args.n is None:
            raise UsageError("check multiplier-n needs --n")
        seq = _multiplier_from_flags(args)
        verdict = is_multiplier_n_sequence(seq, args.n)
        _emit({"kind": kind, "n": args.n, "verdict": verdict})
        return 0 if verdict else 1
    raise UsageError(f"unknown check kind {kind!r}")


# -- transform / op ----------------------------------------------------------------


def _cmd_operate(args) -> int:
    name = args.name
    polys = [load_poly_argument(s) for s in args.polys or []]

    def need(count: int):
        if len(polys) != count:
            raise UsageError(f"{name!r} needs exactly {count} polynomial argument(s)")

    if name == "e":
        need(1)
        out = e_transform(polys[0])
    elif name == "e-inv":
        need(1)
        out = e_inverse(polys[0])
    elif name == "w":
        need(1)
        out = w_transform(polys[0])
    elif name == "reflect":
        need(1)
        out = reflect(polys[0])
    elif name == "multisect":
        need(1)
        if args.step is None:
            raise UsageError("multisect needs --step (and optional --offset)")
        out = multisect(polys[0], args.step, args.offset or 0)
    elif name == "phi":
        need(1)
        if args.F is None:
            raise UsageError("phi needs --F as a JSON list of polynomials")
        try:
            q_list = json.loads(args.F)
        except json.JSONDecodeError as exc:
            raise UsageError(f"malformed --F: {exc}") from exc
        if not isinstance(q_list, list):
            raise UsageError("--F must be a JSON list of polynomial objects")
        out = apply_phi(BivarOp([poly_from_dict(q) for q in q_list]), polys[0])
    elif name == "multiplier-apply":
        need(1)
        out = apply_multiplier(_multiplier_from_flags(args), polys[0])
    elif name == "hermite-poulain":
        need(2)
        out = hermite_poulain(polys[0], polys[1])
    elif name in ("diamond", "sharp", "hadamard", "schur"):
        need(2)
        out = {
            "diamond": diamond_product,
            "sharp": sharp_product,
            "hadamard": hadamard_product,
            "schur": schur_product,
        }[name](polys[0], polys[1])
    elif name == "dot":
        need(2)
        if args.alpha is None or args.beta is None:
            raise UsageError("dot needs --alpha and --beta")
        out = dot_form(polys[0], polys[1], _multiplier_from_flags(args, allow_default=True),
                       args.alpha, args.beta)
    elif name == "circ":
        need(2)
        if args.alpha is None:
            raise UsageError("circ needs --alpha")
        out = circ_form(polys[0], polys[1], _multiplier_from_flags(args, allow_default=True), args.alpha)
    else:
        raise UsageError(f"unknown operation {name!r}")
    print(poly_to_json(out))
    return 0


# -- verify ------------------------------------------------------------------------


def _report_csv(reports) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["suite", "case", "n", "params", "verdict"])
    for report in reports:
        for case in report.cases:
            writer.writerow(
                [
                    report.suite,
                    case.case_id,
                    case.params.get("n", ""),
                    json.dumps(case.params, sort_keys=True),
                    "pass" if case.verdict else "fail",
                ]
            )
    return buffer.getvalue()


def _cmd_verify(args) -> int:
    config = RunConfig(max_n=args.max_n, seed=args.seed, jobs=args.jobs)
    if args.suite == "all":
        reports = run_all(config)
        exit_code = max((r.exit_code for r in reports), default=0)
        if args.csv:
            sys.stdout.write(_report_csv(reports))
        else:
            aggregate = {
                "suite": "all",
                "reports": [r.to_dict() for r in reports],
                "elapsed": sum(r.elapsed for r in reports),
                "exit_code": exit_code,
            }
            print(json.dumps(aggregate, sort_keys=True))
        return exit_code
    report = run_suite(args.suite, config)
    if args.csv:
        sys.stdout.write(_report_csv([report]))
    else:
        print(json.dumps(report.to_dict(), sort_keys=True))
    return report.exit_code


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyafreq",
        description="Exact real-rootedness, interlacing and Polya frequency checks "
        "for combinatorial polynomial families.",
        epilog="Pass negative rationals with '=', e.g. --t=-1/2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a polynomial family member")
    gen.add_argument("family", choices=[
        "eulerian", "surjection", "eulerian_t", "q_eulerian", "e_q", "b_euler",
        "b_euler_multi", "p_bn_subset", "p_dn", "fz_h", "w2", "t_stack", "narayana",
    ])
    gen.add_argument("--n", type=int)
    gen.add_argument("--t", type=_rational)
    gen.add_argument("--q", type=_rational)
    gen.add_argument("--qs", type=_rational_list)
    gen.add_argument("--set", type=_int_set)
    gen.add_argument("--type", choices=["A", "B", "D"])
    gen.set_defaults(func=_cmd_gen)

    check = sub.add_parser("check", help="decide a property, exit 0/1 by verdict")
    check.add_argument("kind", choices=[
        "real-rooted", "simple", "interval", "interlace", "dominance", "pf",
        "pf-minors", "log-concave", "unimodal", "nonneg-on-reals", "multiplier-n",
    ])
    check.add_argument("polys", nargs="*", help="polynomial JSON or file path")
    check.add_argument("--poly", help="inline polynomial JSON")
    check.add_argument("--lo", type=_endpoint)
    check.add_argument("--hi", type=_endpoint)
    check.add_argument("--terms", type=_rational_list, help="sequence terms a0,a1,...")
    check.add_argument("--window", type=_positive_int)
    check.add_argument("--order", type=_positive_int)
    check.add_argument("--n", type=int)
    _add_multiplier_flags(check)
    check.set_defaults(func=_cmd_check)

    operate = sub.add_parser("op", aliases=["transform"],
                             help="apply a transform or bilinear product")
    operate.add_argument("name", choices=[
        "e", "e-inv", "w", "reflect", "multisect", "phi", "diamond", "sharp",
        "hadamard", "schur", "dot", "circ", "hermite-poulain", "multiplier-apply",
    ])
    operate.add_argument("polys", nargs="*", help="polynomial JSON or file path")
    operate.add_argument("--step", type=int)
    operate.add_argument("--offset", type=int)
    operate.add_argument("--F", help="JSON list of polynomial objects")
    operate.add_argument("--alpha", type=_rational)
    operate.add_argument("--beta", type=_rational)
    _add_multiplier_flags(operate)
    operate.set_defaults(func=_cmd_operate)

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("suite", choices=list(SUITE_NAMES))
    verify.add_argument("--max-n", type=_positive_int, dest="max_n")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--jobs", type=_positive_int, default=1)
    verify.add_argument("--csv", action="store_true", help="emit a flat CSV table")
    verify.set_defaults(func=_cmd_verify)

    return parser


def _add_multiplier_flags(parser) -> None:
    parser.add_argument("--gamma-shift", type=_rational, dest="gamma_shift")
    parser.add_argument("--factorial-inverse", action="store_true", dest="factorial_inverse")
    parser.add_argument("--binom-negative", dest="binom_negative", help="'n,r'")
    parser.add_argument("--explicit", type=_rational_list)
    parser.add_argument("--all-ones", action="store_true", dest="all_ones")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except PolyafreqError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
