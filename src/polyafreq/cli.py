"""Command-line front end: gen / check / transform / op / verify.

The verbs gen, check and op (alias transform) each read one table:
`_families`, `_checks` and `_operations` map a name to its callable, the
number of polynomial arguments it takes and the flags it needs.  The parser's
choices are the table keys, and one handler per verb builds its table when it
dispatches, so a new family, check or operation is one entry, and a rebinding
of a module attribute such as `is_real_rooted` reaches the next call.
`main` builds the parser once per process, on its first call, and reuses it.

Polynomials travel as JSON objects {"coeffs": ["p/q", ...]} (inline or as a
file path); rationals on the command line are "p/q" strings.  Note that a
negative rational flag value must be attached with '=', e.g. --t=-1/2,
since a bare "-1/2" token is not recognized as a value by the parser.

Exit codes: 0 passing verdict, 1 failing verdict, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
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
from .errors import NotRealRootedError, PolyafreqError, PreconditionError, ZeroPolynomialError
from .jsonio import (
    load_poly_argument,
    minor_to_dict,
    poly_from_dict,
    poly_to_json,
    rational_from_str,
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
from .pf import is_log_concave, is_pf_finite, is_unimodal, minors_nonneg
from .polynomial import NEG_INF, POS_INF, Poly
from .roots import (
    ALTERNATING_RELATIONS,
    INTERLACING_RELATIONS,
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


class UsageError(Exception):
    pass


def _rational(text: str) -> Fraction:
    try:
        return rational_from_str(text)
    except PolyafreqError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _list_parts(text: str) -> list[str]:
    parts = text.split(",")
    if not all(part.strip() for part in parts):
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list without empty elements, got {text!r}"
        )
    return parts


def _rational_list(text: str) -> list[Fraction]:
    return [_rational(part) for part in _list_parts(text)]


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
        return {int(part) for part in _list_parts(text)}
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"malformed integer set {text!r}") from exc


def _endpoint(text: str):
    lowered = text.strip().lower()
    if lowered in ("-inf", "-infinity"):
        return NEG_INF
    if lowered in ("inf", "+inf", "infinity", "+infinity"):
        return POS_INF
    return _rational(text)


def _emit(data: dict) -> None:
    print(json.dumps(data, sort_keys=True))


# -- tables and their handlers ---------------------------------------------------
#
# An entry is (callable, polynomial arguments, flags).  The callable receives
# the polynomials, then the flag values in the listed order.  A flag is the
# name of a parsed option; "multiplier" stands for the multiplier flag group,
# and a trailing "?" marks a flag that may be absent (None, or the all-ones
# sequence for "multiplier?").  `_TERMS` in place of a count reads --terms, or
# else the coefficients of one polynomial.  A flag, polynomial or --terms
# that the entry does not read is a usage error.

_TERMS = "terms"
_MULTIPLIER_FLAGS = ("gamma_shift", "factorial_inverse", "binom_negative", "explicit", "all_ones")
#: Parsed attributes that are not flags: the verb, the entry's name, the
#: handler and the polynomial arguments.
_NOT_FLAGS = frozenset({"command", "family", "kind", "name", "func", "polys", "poly"})


def _families() -> dict:
    return {
        "eulerian": (eulerian_poly, 0, ("n",)),
        "surjection": (surjection_poly, 0, ("n",)),
        "eulerian_t": (eulerian_t_poly, 0, ("n", "t")),
        "q_eulerian": (q_eulerian_poly, 0, ("n", "q")),
        "e_q": (e_q_poly, 0, ("n", "q")),
        "b_euler": (b_euler_q, 0, ("n", "q")),
        "b_euler_multi": (b_euler_multi, 0, ("n", "qs")),
        "p_bn_subset": (p_bn_subset, 0, ("n", "set")),
        "p_dn": (p_dn_poly, 0, ("n",)),
        "fz_h": (fz_h_poly, 0, ("type", "n")),
        "w2": (w2_poly, 0, ("n",)),
        "t_stack": (_t_stack, 0, ("n", "t")),
        "narayana": (narayana_poly, 0, ("n",)),
    }


def _checks() -> dict:
    """Each check returns its verdict, or (passed, the output fields)."""
    return {
        "real-rooted": (is_real_rooted, 1, ()),
        "simple": (is_simple_rooted, 1, ()),
        "interval": (roots_within, 1, ("lo", "hi")),
        "interlace": (_interlace, 2, ()),
        "dominance": (root_dominance, 2, ()),
        "pf": (is_pf_finite, 1, ()),
        "pf-minors": (_pf_minors, _TERMS, ("window?", "order?")),
        "log-concave": (is_log_concave, _TERMS, ()),
        "unimodal": (is_unimodal, _TERMS, ()),
        "nonneg-on-reals": (check_nonneg_on_reals, 1, ()),
        "multiplier-n": (_multiplier_n, 0, ("n", "multiplier")),
    }


def _operations() -> dict:
    return {
        "e": (e_transform, 1, ()),
        "e-inv": (e_inverse, 1, ()),
        "w": (w_transform, 1, ()),
        "reflect": (reflect, 1, ()),
        "multisect": (lambda f, step, offset: multisect(f, step, offset or 0), 1, ("step", "offset?")),
        "phi": (_phi, 1, ("F",)),
        "diamond": (diamond_product, 2, ()),
        "sharp": (sharp_product, 2, ()),
        "hadamard": (hadamard_product, 2, ()),
        "schur": (schur_product, 2, ()),
        "dot": (dot_form, 2, ("multiplier?", "alpha", "beta")),
        "circ": (circ_form, 2, ("multiplier?", "alpha")),
        "hermite-poulain": (hermite_poulain, 2, ()),
        "multiplier-apply": (lambda f, seq: apply_multiplier(seq, f), 1, ("multiplier",)),
    }


def _arguments(args, what: str, arity, flags) -> list:
    """The polynomials, then the flag values, that the entry's callable takes."""
    read = {flag.rstrip("?") for flag in flags}
    if "multiplier" in read:
        read.update(_MULTIPLIER_FLAGS)
    if arity == _TERMS:
        read.add("terms")
        if args.terms is None:
            inputs = _polys(args, what, 1)
        elif _sources(args):
            raise UsageError(f"{what} takes --terms or one polynomial, not both")
        else:
            inputs = [args.terms]
    else:
        inputs = _polys(args, what, arity)
    unread = [
        "--" + dest.replace("_", "-") for dest, value in vars(args).items()
        if dest not in _NOT_FLAGS and dest not in read and _given(value)
    ]
    if unread:
        raise UsageError(f"{what} does not read {', '.join(unread)}")
    missing = [
        f"--{flag}" for flag in flags
        if flag != "multiplier" and not flag.endswith("?") and getattr(args, flag) is None
    ]
    if missing:
        raise UsageError(f"{what} needs {' and '.join(missing)}")
    for flag in flags:
        name = flag.rstrip("?")
        if name == "multiplier":
            inputs.append(_multiplier_from_flags(args, allow_default=flag != name))
        else:
            inputs.append(getattr(args, name))
    return inputs


def _given(value) -> bool:
    """A flag was given: every flag defaults to None, or False for a switch."""
    return value is not None and value is not False


def _sources(args) -> list[str]:
    """The polynomial arguments: --poly first, then the positional ones."""
    sources = list(getattr(args, "polys", None) or [])
    if getattr(args, "poly", None) is not None:
        sources.insert(0, args.poly)
    return sources


def _polys(args, what: str, count: int) -> list[Poly]:
    sources = _sources(args)
    if len(sources) != count:
        raise UsageError(f"{what} needs exactly {count} polynomial argument(s)")
    return [load_poly_argument(s) for s in sources]


def _cmd_poly(args, what: str, entry) -> int:
    """gen and op: print the polynomial that the entry's callable returns."""
    fn, arity, flags = entry
    print(poly_to_json(fn(*_arguments(args, what, arity, flags))))
    return 0


def _cmd_check(args, what: str, entry) -> int:
    fn, arity, flags = entry
    result = fn(*_arguments(args, what, arity, flags))
    passed, fields = result if isinstance(result, tuple) else (result, {"verdict": result})
    _emit({"kind": args.kind, **fields})
    return 0 if passed else 1


def _t_stack(n: int, t: Fraction) -> Poly:
    if t.denominator != 1 or t < 0:
        raise UsageError("t_stack needs a nonnegative integer --t")
    return t_stack_poly(n, int(t))


def _interlace(f: Poly, g: Poly):
    relation = interlace_relation(f, g)
    ok = relation in INTERLACING_RELATIONS | ALTERNATING_RELATIONS
    return ok, {"relation": relation.value}


def _pf_minors(terms, window: int | None, order: int | None):
    report = minors_nonneg(terms, window, order)
    fields = {"verdict": report.nonnegative, "window": report.window, "order": report.order}
    if report.witness is not None:
        fields["witness"] = minor_to_dict(report.witness)
    return report.nonnegative, fields


def _multiplier_n(n: int, seq: MultiplierSeq):
    if n < 0:
        raise UsageError("check multiplier-n needs a nonnegative integer --n")
    verdict = is_multiplier_n_sequence(seq, n)
    return verdict, {"n": n, "verdict": verdict}


def _phi(f: Poly, text: str) -> Poly:
    try:
        q_list = json.loads(text, parse_float=str, parse_int=str)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed --F: {exc}") from exc
    if not isinstance(q_list, list):
        raise UsageError("--F must be a JSON list of polynomial objects")
    return apply_phi(BivarOp([poly_from_dict(q) for q in q_list]), f)


def _multiplier_from_flags(args, allow_default: bool) -> MultiplierSeq:
    chosen = [dest for dest in _MULTIPLIER_FLAGS if _given(getattr(args, dest))]
    if not chosen and allow_default:
        return MultiplierSeq.all_ones()
    if len(chosen) != 1:
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
    return MultiplierSeq.binom_negative(n, rational_from_str(r_text))


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
    reports = run_all(config) if args.suite == "all" else [run_suite(args.suite, config)]
    exit_code = max(r.exit_code for r in reports)
    if args.csv:
        sys.stdout.write(_report_csv(reports))
    elif args.suite != "all":
        print(json.dumps(reports[0].to_dict(), sort_keys=True))
    else:
        aggregate = {
            "suite": "all",
            "reports": [r.to_dict() for r in reports],
            "elapsed": sum(r.elapsed for r in reports),
            "exit_code": exit_code,
        }
        print(json.dumps(aggregate, sort_keys=True))
    return exit_code


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
    gen.add_argument("family", choices=list(_families()))
    gen.add_argument("--n", type=int)
    gen.add_argument("--t", type=_rational)
    gen.add_argument("--q", type=_rational)
    gen.add_argument("--qs", type=_rational_list)
    gen.add_argument("--set", type=_int_set)
    gen.add_argument("--type", choices=["A", "B", "D"])
    gen.set_defaults(
        func=lambda args: _cmd_poly(args, f"gen {args.family}", _families()[args.family])
    )

    check = sub.add_parser("check", help="decide a property, exit 0/1 by verdict")
    check.add_argument("kind", choices=list(_checks()))
    check.add_argument("polys", nargs="*", help="polynomial JSON or file path")
    check.add_argument("--poly", help="inline polynomial JSON")
    check.add_argument("--lo", type=_endpoint)
    check.add_argument("--hi", type=_endpoint)
    check.add_argument("--terms", type=_rational_list, help="sequence terms a0,a1,...")
    check.add_argument("--window", type=_positive_int)
    check.add_argument("--order", type=_positive_int)
    check.add_argument("--n", type=int)
    _add_multiplier_flags(check)
    check.set_defaults(
        func=lambda args: _cmd_check(args, f"check {args.kind}", _checks()[args.kind])
    )

    operate = sub.add_parser("op", aliases=["transform"],
                             help="apply a transform or bilinear product")
    operate.add_argument("name", choices=list(_operations()))
    operate.add_argument("polys", nargs="*", help="polynomial JSON or file path")
    operate.add_argument("--step", type=int)
    operate.add_argument("--offset", type=int)
    operate.add_argument("--F", help="JSON list of polynomial objects")
    operate.add_argument("--alpha", type=_rational)
    operate.add_argument("--beta", type=_rational)
    _add_multiplier_flags(operate)
    operate.set_defaults(
        func=lambda args: _cmd_poly(args, f"op {args.name}", _operations()[args.name])
    )

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


#: The parser `main` reuses: argparse set-up costs more than a small query.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    try:
        args, rest = parser.parse_known_args(argv)
        # a polynomial after a flag is left over: `polys` was consumed, empty,
        # together with the entry name
        if hasattr(args, "polys"):
            args.polys += [token for token in rest if not token.startswith("-")]
            rest = [token for token in rest if token.startswith("-")]
        if rest:
            parser.error(f"unrecognized arguments: {' '.join(rest)}")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, PreconditionError, ZeroPolynomialError, NotRealRootedError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except PolyafreqError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
