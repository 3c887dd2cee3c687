"""Named verification suites with deterministic, parameter-driven cases.

Each suite is a pair of functions: a generator that expands a RunConfig
into JSON-serializable case parameter dicts (all randomness derives from
the seed), and an evaluator that decides one case from its parameters
alone.  That split keeps reports reproducible byte-for-byte and lets a
worker pool fan out cases without shared state.  An evaluator returns None
when the case passes, else the witness of its first failed check: a dict,
with a `repro` command where a CLI check decides the failure.
`evaluate_case` alone forms the (verdict, witness) pair of a case.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import random
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .combinatorics import (
    b_euler_multi,
    b_euler_q,
    eulerian_oracle,
    eulerian_poly,
    eulerian_t_poly,
    fz_h_poly,
    g_poly,
    multisect,
    narayana_poly,
    p_bn_subset,
    p_dn_poly,
    q_eulerian_oracle,
    q_eulerian_poly,
    signed_descent_poly,
    surjection_poly,
    t_stack_poly,
    w2_poly,
    weyl_combination,
)
from .config import RunConfig, max_enum
from .errors import PolyafreqError, PreconditionError
from .jsonio import (
    minor_to_dict,
    poly_from_dict,
    poly_to_dict,
    poly_to_json,
    rational_from_str,
    rational_to_str,
)
from .operators import (
    BivarOp,
    apply_phi,
    check_maincor,
    circ_form,
    diamond_product,
    dot_form,
    hadamard_product,
    hermite_poulain,
    polya_line_check,
    schur_product,
    sharp_product,
)
from .pf import is_log_concave, is_pf_finite, is_unimodal, minors_nonneg
from .polynomial import (
    NEG_INF,
    ONE,
    X,
    XP1,
    Poly,
    ZERO,
    monomial,
    poly_gcd,
    squarefree_part,
    unitize_with_degree,
)
from .roots import (
    ALTERNATING_RELATIONS,
    INTERLACING_RELATIONS,
    STRICT_RELATIONS,
    InterlaceRelation,
    alternates,
    interlace_relation,
    is_real_rooted,
    is_simple_rooted,
    root_dominance,
    rootedness,
    roots_within,
    simple_roots_within,
)
from .transforms import (
    MultiplierSeq,
    e_multiplicity_at_minus_one,
    e_transform,
    reflect,
    w_transform,
)

IR = InterlaceRelation


@dataclasses.dataclass(frozen=True)
class Case:
    case_id: str
    params: dict
    verdict: bool
    witness: dict | None = None

    def to_dict(self) -> dict:
        out = {
            "id": self.case_id,
            "params": self.params,
            "verdict": "pass" if self.verdict else "fail",
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclasses.dataclass
class SuiteReport:
    suite: str
    cases: list[Case]
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(c.verdict for c in self.cases)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases": [c.to_dict() for c in self.cases],
            "elapsed": self.elapsed,
            "exit_code": self.exit_code,
        }


# -- parameter helpers -----------------------------------------------------------


def _suite_rng(name: str, seed: int) -> random.Random:
    return random.Random((zlib.crc32(name.encode()) << 32) ^ seed)


def _frac(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    return Fraction(rng.randint(lo * den, hi * den), den)


def _from_roots(roots, lead: int = 1) -> Poly:
    """lead * prod (x - r): the product of the integer factors b*x - a for
    r = a/b, over the product of the b."""
    nums, den = [lead], 1
    for r in roots:
        a, b = r.numerator, r.denominator
        nums = [b * p - a * q for p, q in zip([0] + nums, nums + [0])]
        den *= b
    return Poly._from_ints(nums, den)


def _rand_real_rooted(rng: random.Random, max_deg: int) -> Poly:
    d = rng.randint(1, max_deg)
    return _from_roots(_frac(rng, -6, 6, 3) for _ in range(d))


def _repro_check(kind: str, f: Poly, flags: str = "") -> dict:
    """A `polyafreq check` command line that replays the failed check on f."""
    return {"repro": f"polyafreq check {kind} --poly '{poly_to_json(f)}'{flags}"}


# -- exact identity suite (binomial-basis transform laws) --------------------------


def _gen_identities(cfg: RunConfig) -> list[dict]:
    rng = _suite_rng("lemmas-4-3-4-5", cfg.seed)
    top = cfg.max_n or 20
    params = [{"kind": "shift-monomial", "n": n} for n in range(1, top + 1)]
    for i in range(25):
        coeffs = [rational_to_str(_frac(rng, -9, 9, 2)) for _ in range(rng.randint(1, 16))]
        params.append({"kind": "reflect-commutes", "i": i, "coeffs": coeffs})
    for i in range(25):
        k = rng.randint(0, 5)
        staircase = [-j for j in range(1, k + 1)]
        f = _from_roots(staircase + [-_frac(rng, -6, 6, 2) for _ in range(rng.randint(0, 4))])
        params.append({"kind": "w-degree-law", "i": i, "staircase": k, "poly": poly_to_dict(f)})
    return params


def _eval_identities(params: dict) -> dict | None:
    kind = params["kind"]
    if kind == "shift-monomial":
        n = params["n"]
        if XP1 * e_transform(monomial(n)) != X * e_transform(XP1 ** n):
            return {"failed": "(1 + x) E(x^n) = x E((1 + x)^n)"}
        return None
    if kind == "reflect-commutes":
        f = Poly(rational_from_str(c) for c in params["coeffs"])
        if reflect(e_transform(f)) != e_transform(reflect(f)):
            return {"failed": "E commutes with reflection"}
        return None
    f = poly_from_dict(params["poly"])
    mult = e_multiplicity_at_minus_one(f)
    if mult < params["staircase"]:
        return {"mult": mult}
    wdeg = w_transform(f).degree
    return None if wdeg == f.degree - mult else {"w_degree": wdeg, "mult": mult}


# -- nonnegative basis combinations under the binomial transform -------------------


def _gen_e_images(cfg: RunConfig) -> list[dict]:
    rng = _suite_rng("thm-4-2", cfg.seed)
    top = cfg.max_n or 12
    out = []
    for i in range(100):
        d = rng.randint(1, top)
        coeffs = [rng.randint(0, 9) for _ in range(d + 1)]
        if not any(coeffs):
            coeffs[rng.randrange(d + 1)] = 1
        out.append({"i": i, "d": d, "weights": coeffs})
    return out


def _e_image_failure(image: Poly) -> dict | None:
    """The repro of an E-image that is not simple-rooted in [-1, 0], else None."""
    simple, within = simple_roots_within(image, -1, 0)
    if not simple:
        return _repro_check("simple", image)
    if not within:
        return _repro_check("interval", image, " --lo=-1 --hi 0")
    return None


def _eval_e_images(params: dict) -> dict | None:
    d = params["d"]
    # sum_i a_i x^i (1 + x)^(d - i)
    image = e_transform(unitize_with_degree(Poly._from_ints(list(params["weights"])), d))
    failed = _e_image_failure(image)
    if failed:
        return failed
    low, high = e_transform(XP1 ** d), e_transform(monomial(d))
    if interlace_relation(low, image) not in ALTERNATING_RELATIONS:
        return {"failed": "lower alternation"}
    if interlace_relation(image, high) not in ALTERNATING_RELATIONS:
        return {"failed": "upper alternation"}
    return None


# -- dominance is carried to alternation ---------------------------------------------


def _gen_dominance(cfg: RunConfig) -> list[dict]:
    rng = _suite_rng("thm-4-7", cfg.seed)
    top = cfg.max_n or 8
    out = []
    for i in range(60):
        d = rng.randint(1, top)
        alphas = sorted(-Fraction(rng.randint(0, 24), 24) for _ in range(d))
        betas = []
        floor = Fraction(-1)
        for a in alphas:
            lo = max(a, floor)
            b = lo + Fraction(rng.randint(0, 6), 25) * (0 - lo) if lo != 0 else Fraction(0)
            betas.append(b)
            floor = b
        out.append(
            {
                "i": i,
                "alphas": [rational_to_str(a) for a in alphas],
                "betas": [rational_to_str(b) for b in betas],
            }
        )
    return out


def _eval_dominance(params: dict) -> dict | None:
    alphas = [rational_from_str(t) for t in params["alphas"]]
    betas = [rational_from_str(t) for t in params["betas"]]
    f, g = _from_roots(alphas), _from_roots(betas)
    if not root_dominance(f, g):
        return {"failed": "dominance construction"}
    ef, eg = e_transform(f), e_transform(g)
    for image in (ef, eg):
        failed = _e_image_failure(image)
        if failed:
            return failed
    rel = interlace_relation(ef, eg)
    return None if rel in ALTERNATING_RELATIONS else {"relation": rel.value}


# -- two-pass stack sorting counts ----------------------------------------------------


def _gen_two_stack(cfg: RunConfig) -> list[dict]:
    top = cfg.max_n or 12
    params = [{"kind": "pf", "n": n} for n in range(1, top + 1)]
    params += [{"kind": "oracle", "n": n} for n in range(1, min(8, top, max_enum()) + 1)]
    return params


def _eval_two_stack(params: dict) -> dict | None:
    n = params["n"]
    if params["kind"] == "pf":
        w = w2_poly(n)
        if not is_pf_finite(w):
            return _repro_check("pf", w)
        # multiplier pipeline from the closed-form factorization
        odd = multisect(X * XP1 ** (2 * n), 2, 0).exact_divide(X)
        weights = Poly([math.comb(n + k, n - 1) for k in range(n)])
        stage = hadamard_product(odd, weights)
        rev = stage.reversed_coeffs(n - 1)
        final = hadamard_product(rev, weights)
        for step in (odd, stage, rev, final):
            if step.degree > 0 and not is_real_rooted(step):
                return _repro_check("real-rooted", step)
        if final != w.scale(n * n * math.comb(2 * n, n)):
            return {"failed": "pipeline normalization"}
        return None
    return None if w2_poly(n) == t_stack_poly(n, 2) else {"failed": "W_2 closed form = two-stack enumeration"}


# -- deformed descent polynomials ------------------------------------------------------


_T_GRID = ("-3/2", "-1", "-1/2", "0", "3")


def _theorem53_symbol(t: Fraction) -> BivarOp:
    q0 = Poly([1, 6 + t, 6 + t])
    q1 = X * Poly([1, 2]) * XP1 * 3
    q2 = monomial(2) * XP1 ** 2
    return BivarOp([q0, q1, q2])


def _gen_t_deform(cfg: RunConfig) -> list[dict]:
    top = cfg.max_n or 10
    params = []
    for t in _T_GRID:
        params.extend({"kind": "rooted", "n": n, "t": t} for n in range(3, top + 1))
        params.extend({"kind": "interlace", "n": n, "t": t} for n in range(3, top + 1))
        params.append({"kind": "maincor", "t": t, "d": top})
    return params


def _eval_t_deform(params: dict) -> dict | None:
    t = rational_from_str(params["t"])
    if params["kind"] == "maincor":
        F = _theorem53_symbol(t)
        rep = check_maincor(F, params["d"])
        if not rep.all_hold:
            return {"cond_i": rep.cond_i, "cond_ii": rep.cond_ii, "cond_iii": rep.cond_iii}
        disc = F.q(1) * F.q(1) - F.q(0) * F.q(2) * 4
        inner = Poly([2 + t]) + Poly([1, 2]) ** 2 * (3 - t)
        return None if disc == monomial(2) * XP1 ** 2 * inner else {"failed": "discriminant factorization"}
    n = params["n"]
    a = eulerian_t_poly(n, t)
    if params["kind"] == "rooted":
        return None if is_simple_rooted(a) else _repro_check("simple", a)
    shifted = a.exact_divide(X)
    shifted_next = eulerian_t_poly(n + 1, t).exact_divide(X)
    rel = interlace_relation(shifted, shifted_next)
    return None if rel == IR.INTERLACES_STRICT else {"relation": rel.value}


# -- cycle-weighted descent polynomials at negative integer weights ---------------------


def _gen_negative_weights(cfg: RunConfig) -> list[dict]:
    top = cfg.max_n or 10
    return [{"n": n, "m": m} for m in range(0, 6) for n in range(1, top + 1)]


def _eval_negative_weights(params: dict) -> dict | None:
    n, m = params["n"], params["m"]
    a = q_eulerian_poly(n, -m)
    e = unitize_with_degree(a, n)  # E_n(x; -m), as `e_q_poly` builds it
    if m == 0:
        return None if a.is_zero and e.is_zero else {"failed": "weight zero should collapse"}
    if not is_real_rooted(a):
        return _repro_check("real-rooted", a)
    expected = min(n, m)
    if e.degree != expected:
        return {"degree": str(e.degree), "expected": expected}
    return None


# -- interlacing chain for the signed-descent family -------------------------------------


_CHAIN_QT = (("1/2", "2"), ("1", "3"), ("1/4", "1/2"))


def _gen_chain(cfg: RunConfig) -> list[dict]:
    top = cfg.max_n or 8
    params = [
        {"kind": "chain", "n": n, "q": q, "t": t}
        for q, t in _CHAIN_QT
        for n in range(1, top + 1)
    ]
    params += [{"kind": "corollary", "n": n} for n in range(1, top + 1)]
    return params


def _eval_chain(params: dict) -> dict | None:
    n = params["n"]
    if params["kind"] == "corollary":
        rel = interlace_relation(b_euler_q(n, 0), b_euler_q(n, 1))
        return None if rel == IR.INTERLACES_STRICT else {"relation": rel.value}
    q, t = rational_from_str(params["q"]), rational_from_str(params["t"])
    b0, bt, bq = b_euler_q(n, 0), b_euler_q(n, t), b_euler_q(n, q)
    left = interlace_relation(b0, bt)
    if left not in INTERLACING_RELATIONS:
        return {"failed": "left interlacing"}
    # for 0 < q < t the smaller weight alternates left of the larger one
    middle = interlace_relation(bq, bt)
    if middle not in ALTERNATING_RELATIONS:
        return {"failed": "middle alternation"}
    right = interlace_relation(bq, X * b0)
    if right not in ALTERNATING_RELATIONS:
        return {"failed": "right alternation"}
    # a relation is strict exactly when its pair has a constant gcd, and
    # gcd(B_n(q), x B_n(0)) = gcd(B_n(q), B_n(0)) because B_n(q)(0) = 1
    if not {left, middle, right} <= STRICT_RELATIONS:
        return {"failed": "common zero among the first three"}
    return None


# -- subset-restricted signed descent polynomials ------------------------------------------


#: Most subset cases one `cor-6-10` run generates: --max-n 14 is the largest.
MAX_SUBSET_CASES = 1 << 16


def _gen_subsets(cfg: RunConfig) -> list[dict]:
    top = cfg.max_n or 6
    count = 2 ** (top + 2) - 4 - top  # the nonempty subsets of {0, ..., n} for n <= top
    if count > MAX_SUBSET_CASES:
        raise PreconditionError(f"cor-6-10 --max-n {top} needs {count} cases, more than {MAX_SUBSET_CASES}")
    params = []
    for n in range(1, top + 1):
        for mask in range(1, 2 ** (n + 1)):
            subset = [s for s in range(n + 1) if mask >> s & 1]
            params.append({"kind": "rooted", "n": n, "subset": subset})
    params += [{"kind": "oracle", "n": n} for n in range(1, min(5, top) + 1)]
    return params


def _eval_subsets(params: dict) -> dict | None:
    n = params["n"]
    if params["kind"] == "rooted":
        p = p_bn_subset(n, set(params["subset"]))
        return None if is_simple_rooted(p) else _repro_check("simple", p)
    for mask in range(2 ** (n + 1)):
        subset = {s for s in range(n + 1) if mask >> s & 1}
        expected = signed_descent_poly(n, [math.comb(n, j) if j in subset else 0 for j in range(n + 1)])
        if p_bn_subset(n, subset) != expected:
            return {"subset": sorted(subset)}
    return None


# -- multivariate signed-descent identity ----------------------------------------------


def _gen_multivariate(cfg: RunConfig) -> list[dict]:
    rng = _suite_rng("thm-6-5", cfg.seed)
    top = cfg.max_n or 5
    params = []
    for n in range(1, top + 1):
        for i in range(3):
            qs = [rational_to_str(Fraction(rng.randint(0, 12), rng.randint(1, 6))) for _ in range(n)]
            params.append({"n": n, "i": i, "qs": qs})
    return params


def _eval_multivariate(params: dict) -> dict | None:
    n = params["n"]
    qs = [rational_from_str(t) for t in params["qs"]]
    elementary = math.prod((Poly([1, q]) for q in qs), start=ONE).coeffs
    if b_euler_multi(n, qs) != signed_descent_poly(n, elementary):
        return {"failed": "B_n(q_1, ..., q_n) = signed descent sum over e_j(q)"}
    return None


# -- cluster-complex h-polynomial combinations ---------------------------------------------


_WEYL_AB = (("1", "-1"), ("1", "0"), ("0", "1"), ("2", "-3"))


def _gen_weyl(cfg: RunConfig) -> list[dict]:
    top = cfg.max_n or 12
    params = [
        {"kind": "combo", "n": n, "alpha": a, "beta": b}
        for a, b in _WEYL_AB
        for n in range(2, min(top, 10) + 1)
    ]
    params += [{"kind": "dfamily", "n": n} for n in range(2, top + 1)]
    params += [{"kind": "hadamard", "n": n} for n in range(0, top + 1)]
    return params


def _eval_weyl(params: dict) -> dict | None:
    n = params["n"]
    if params["kind"] == "hadamard":
        if fz_h_poly("B", n) != hadamard_product(XP1 ** n, XP1 ** n):
            return {"failed": "h(B_n) = (1 + x)^n * (1 + x)^n"}
        return None
    if params["kind"] == "dfamily":
        h = fz_h_poly("D", n)
        return None if is_simple_rooted(h) else _repro_check("simple", h)
    alpha, beta = rational_from_str(params["alpha"]), rational_from_str(params["beta"])
    F = weyl_combination(n, alpha, beta)
    if not is_simple_rooted(F):
        return _repro_check("simple", F)
    lower = fz_h_poly("B", n - 1)
    rel = interlace_relation(lower, F)
    expected = IR.INTERLACES_STRICT if alpha > 0 else IR.ALTERNATES_LEFT_STRICT
    return None if rel == expected else {"relation": rel.value}


# -- bilinear product rootedness --------------------------------------------------------


# Each entry calls its product by this module's global name, which the benchmark
# tracer and the tests rebind; a stored function object would miss the rebinding.
_PRODUCTS = {
    "hermite-poulain": lambda f, g, p: hermite_poulain(f, g),
    "schur": lambda f, g, p: schur_product(f, g),
    "hadamard": lambda f, g, p: hadamard_product(f, g),
    "sharp": lambda f, g, p: sharp_product(f, g),
    "diamond": lambda f, g, p: diamond_product(f, g),
    "dot": lambda f, g, p: dot_form(f, g, MultiplierSeq(kind=p["seq"]),
                                    rational_from_str(p["alpha"]), rational_from_str(p["beta"])),
    "circ": lambda f, g, p: circ_form(f, g, MultiplierSeq(kind=p["seq"]), rational_from_str(p["alpha"])),
}
_PRODUCT_OPS = tuple(_PRODUCTS)


def _gen_products(cfg: RunConfig) -> list[dict]:
    rng = _suite_rng("products-3", cfg.seed)
    top = cfg.max_n or 10
    params = []
    for op in _PRODUCT_OPS:
        for i in range(200):
            f = _rand_real_rooted(rng, top)
            entry = {"op": op, "i": i, "f": poly_to_dict(f)}
            if op in ("schur", "hadamard"):
                sign = rng.choice((1, -1))
                d = rng.randint(1, top)
                entry["g"] = poly_to_dict(_from_roots(sign * _frac(rng, 0, 5, 2) for _ in range(d)))
            elif op == "sharp":
                # the x^k weight is not symmetric under reflection, so the
                # rootedness conclusion needs nonpositive-rooted g
                d = rng.randint(1, top)
                entry["g"] = poly_to_dict(_from_roots(-_frac(rng, 0, 5, 2) for _ in range(d)))
            elif op == "diamond":
                d = rng.randint(1, top)
                entry["g"] = poly_to_dict(_from_roots(-Fraction(rng.randint(0, 12), 12) for _ in range(d)))
            elif op == "dot":
                alpha = _frac(rng, -4, 0, 2)
                beta = alpha + Fraction(rng.randint(1, 8), 2)
                d = rng.randint(1, top)
                g = _from_roots(alpha + Fraction(rng.randint(0, 16), 16) * (beta - alpha) for _ in range(d))
                entry["g"] = poly_to_dict(g)
                entry["alpha"] = rational_to_str(alpha)
                entry["beta"] = rational_to_str(beta)
                entry["seq"] = rng.choice(("all_ones", "factorial_inverse"))
            elif op == "circ":
                alpha = _frac(rng, -3, 3, 2)
                d = rng.randint(1, top)
                g = _from_roots(alpha - Fraction(rng.randint(0, 12), 3) for _ in range(d))
                entry["g"] = poly_to_dict(g)
                entry["alpha"] = rational_to_str(alpha)
                entry["seq"] = rng.choice(("all_ones", "factorial_inverse"))
            else:
                entry["g"] = poly_to_dict(_rand_real_rooted(rng, top))
            params.append(entry)
    return params


def _eval_products(params: dict) -> dict | None:
    """A simple-rooted product passes: it is real-rooted, with no multiple root
    to inherit and no repeated nonzero root.  Any other product runs the checks
    in turn to name its failure; if real-rooted, its gcd(out, out') is not constant."""
    op = params["op"]
    f, g = poly_from_dict(params["f"]), poly_from_dict(params["g"])
    out = _PRODUCTS[op](f, g, params)
    if out.is_zero:
        return None
    head = out
    if op == "hadamard":  # out = x^k * head with head(0) != 0
        k = next(i for i, c in enumerate(out.nums) if c)
        head = Poly._from_ints(list(out.nums[k:]), out.den)
    real, simple = rootedness(head)  # real-rooted exactly when out is
    if simple:
        return None
    if not real:
        return _repro_check("real-rooted", out)
    if op == "hadamard":
        return {"failed": "repeated nonzero root"}
    if op == "hermite-poulain":
        multiple = poly_gcd(out, out.derivative())
        if poly_gcd(g, g.derivative()) % squarefree_part(multiple) != ZERO:
            return {"failed": "multiple root not inherited"}
    return None


# -- operator hypothesis checks end to end -----------------------------------------------


def _symbol_from_params(params: dict) -> BivarOp:
    if params["symbol"] == "one-plus-z":
        return BivarOp([Poly([1]), Poly([1])])
    return _theorem53_symbol(rational_from_str(params["t"]))


def _gen_operator_checks(cfg: RunConfig) -> list[dict]:
    rng = _suite_rng("maincor-3-6", cfg.seed)
    d = min(cfg.max_n or 8, 8)
    symbols = [{"symbol": "deformed-descent", "t": t} for t in _T_GRID]
    symbols.append({"symbol": "one-plus-z"})
    params = []
    for sym in symbols:
        params.append({"kind": "hypotheses", "d": d, "expect": "proved", **sym})
        for i in range(100):
            f = _rand_real_rooted(rng, d)
            params.append({"kind": "image", "i": i, "f": poly_to_dict(f), **sym})
        for i in range(20):
            d_pair = rng.randint(1, d)
            pool: set[Fraction] = set()
            while len(pool) < 2 * d_pair:
                pool.add(_frac(rng, -8, 8, 6))
            vals = sorted(pool)
            params.append(
                {
                    "kind": "alternating",
                    "i": i,
                    "f": poly_to_dict(_from_roots(vals[0::2])),
                    "g": poly_to_dict(_from_roots(vals[1::2])),
                    **sym,
                }
            )
    params.append({"kind": "hypotheses", "d": d, "expect": "refuted", "symbol": "deformed-descent", "t": "-3"})
    return params


def _eval_operator_checks(params: dict) -> dict | None:
    F = _symbol_from_params(params)
    if params["kind"] == "hypotheses":
        rep = check_maincor(F, params["d"])
        holds = rep.all_hold if params["expect"] == "proved" else not rep.cond_i
        return None if holds else {"cond_i": rep.cond_i}
    if params["kind"] == "image":
        out = apply_phi(F, poly_from_dict(params["f"]))
        return None if is_real_rooted(out) else _repro_check("real-rooted", out)
    f, g = poly_from_dict(params["f"]), poly_from_dict(params["g"])
    if interlace_relation(f, g) != IR.ALTERNATES_LEFT_STRICT:
        return {"failed": "input pair not strictly alternating"}
    img_f, img_g = apply_phi(F, f), apply_phi(F, g)
    return None if alternates(img_f, img_g, strict=True) else {"failed": "strict alternation lost"}


# -- line-intersection count checks --------------------------------------------------------


def _gen_line_checks(cfg: RunConfig) -> list[dict]:
    rng = _suite_rng("polya-line", cfg.seed)
    top = cfg.max_n or 6
    params = []
    for i in range(60):
        f = _rand_real_rooted(rng, top)
        n = f.degree
        b = _from_roots([-Fraction(rng.randint(1, 12), 2) for _ in range(n + rng.randint(0, 2))])
        mode = rng.choice(("generic", "s-zero", "t-zero"))
        s = Fraction(0) if mode == "s-zero" else Fraction(rng.randint(1, 4))
        t = Fraction(0) if mode == "t-zero" else Fraction(rng.randint(1, 4))
        u = _frac(rng, -5, 5, 2)
        params.append(
            {
                "i": i,
                "f": poly_to_dict(f),
                "b": poly_to_dict(b),
                "s": rational_to_str(s),
                "t": rational_to_str(t),
                "u": rational_to_str(u),
            }
        )
    return params


def _eval_line_checks(params: dict) -> dict | None:
    if not polya_line_check(
        poly_from_dict(params["f"]),
        poly_from_dict(params["b"]),
        rational_from_str(params["s"]),
        rational_from_str(params["t"]),
        rational_from_str(params["u"]),
    ):
        return {"failed": "deg f real intersections with the line"}
    return None


# -- Toeplitz window coherence ---------------------------------------------------------------


def _gen_pf_coherence(cfg: RunConfig) -> list[dict]:
    rng = _suite_rng("pf-coherence", cfg.seed)
    top = cfg.max_n or 10
    params = []
    for i in range(100):
        d = rng.randint(1, top)
        f = _from_roots([-rng.randint(0, 9) for _ in range(d)], lead=rng.randint(1, 3))
        params.append({"kind": "window", "i": i, "poly": poly_to_dict(f)})
    params.append({"kind": "counterexample"})
    for i in range(20):
        d = rng.randint(min(2, top), top)
        f = _from_roots([-Fraction(rng.randint(0, 8), 2) for _ in range(d)])
        params.append({"kind": "multisect", "i": i, "poly": poly_to_dict(f), "step": rng.randint(2, 3)})
    return params


def _eval_pf_coherence(params: dict) -> dict | None:
    if params["kind"] == "counterexample":
        report = minors_nonneg((1, 1, 0, 1), 4, 2)
        if report.nonnegative or report.witness[2] != -1:
            return {"failed": "expected witness -1"}
        return None
    f = poly_from_dict(params["poly"])
    if params["kind"] == "multisect":
        step = params["step"]
        for off in range(step):
            part = multisect(f, step, off)
            if not is_pf_finite(part):
                return _repro_check("pf", part)
        return None
    if not is_pf_finite(f):
        return _repro_check("pf", f)
    if not is_log_concave(f) or not is_unimodal(f):
        return {"failed": "log-concavity chain"}
    report = minors_nonneg(f)
    return None if report.nonnegative else minor_to_dict(report.witness)


# -- enumeration oracles against generators -----------------------------------------------------


def _gen_oracles(cfg: RunConfig) -> list[dict]:
    rng = _suite_rng("oracle-coherence", cfg.seed)
    top = min(cfg.max_n or 8, max_enum())
    bn_top = min(cfg.max_n or 8, 6)
    params = [{"kind": "eulerian", "n": n} for n in range(1, top + 1)]
    params += [{"kind": "surjection-identities", "n": n} for n in range(1, 13)]
    params += [
        {"kind": "q-eulerian", "n": n, "q": rational_to_str(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))}
        for n in range(1, min(top, 7) + 1)
    ]
    params += [{"kind": "stack-degenerations", "n": n} for n in range(1, min(top, 7) + 1)]
    params += [{"kind": "b-marginal", "n": n} for n in range(1, bn_top + 1)]
    params += [{"kind": "pdn-palindrome", "n": n} for n in range(2, 9)]
    params += [{"kind": "worpitzky", "n": n} for n in range(1, 9)]
    return params


def _eval_oracles(params: dict) -> dict | None:
    n = params["n"]
    kind = params["kind"]
    if kind == "eulerian":
        return None if eulerian_poly(n) == eulerian_oracle(n) else {"failed": "A_n = S_n enumeration"}
    if kind == "surjection-identities":
        if surjection_poly(n + 1) != X * g_poly(n):
            return {"failed": "surjection E_{n+1} = x G_n"}
        if surjection_poly(n) != e_transform(monomial(n)):
            return {"failed": "surjection E_n = E(x^n)"}
        if unitize_with_degree(eulerian_poly(n), n) != surjection_poly(n):
            return {"failed": "(1 + x)^n A_n(x/(1 + x)) = surjection E_n"}
        return None
    if kind == "q-eulerian":
        q = rational_from_str(params["q"])
        if q_eulerian_poly(n, q) != q_eulerian_oracle(n, q):
            return {"failed": "A_n(x; q) = excedance/cycle enumeration over S_n"}
        return None
    if kind == "stack-degenerations":
        if t_stack_poly(n, 1) != narayana_poly(n):
            return {"failed": "1-stack-sortable descents = N_n"}
        if t_stack_poly(n, n - 1) != eulerian_poly(n).exact_divide(X):
            return {"failed": "(n-1)-stack-sortable descents = A_n / x"}
        return None
    if kind == "b-marginal":
        for q in (0, 1, 2):
            if signed_descent_poly(n, [math.comb(n, j) * q**j for j in range(n + 1)]) != b_euler_q(n, q):
                return {"failed": f"B_n({q}) = signed descent sum over C(n, j) {q}^j"}
        return None
    if kind == "pdn-palindrome":
        p = p_dn_poly(n)
        if p.nums != p.nums[::-1]:
            return {"failed": "D_n descent polynomial is a palindrome"}
        return None if is_real_rooted(p) else _repro_check("real-rooted", p)
    # Worpitzky-style series check: (1 - x)^(n+1) sum_{k<40} k^n x^k = A_n below x^(40-n-2)
    a = eulerian_poly(n)
    series = Poly([k**n for k in range(40)]) * Poly([1, -1]) ** (n + 1)
    wrong = [i for i in range(40 - n - 2) if series.coeff(i) != a.coeff(i)]
    return {"index": wrong[0]} if wrong else None


# -- integer-filled root patterns map to nonpositive spectra --------------------------------------


def _gen_integer_filled(cfg: RunConfig) -> list[dict]:
    rng = _suite_rng("brenti-omega", cfg.seed)
    params = []
    for i in range(60):
        lam = -rng.randint(1, 4)
        top = rng.randint(0, 4)
        extras = [
            rational_to_str(Fraction(rng.randint(4 * lam, 4 * top), 4))
            for _ in range(rng.randint(0, 3))
        ]
        params.append({"i": i, "lam": lam, "top": top, "extras": extras})
    return params


def _eval_integer_filled(params: dict) -> dict | None:
    roots = [*range(params["lam"], params["top"] + 1), *map(rational_from_str, params["extras"])]
    image = e_transform(_from_roots(roots))
    return None if roots_within(image, NEG_INF, 0) else _repro_check("interval", image, " --lo=-inf --hi 0")


# -- registry and runner ---------------------------------------------------------------------------


_SUITES = {
    "lemmas-4-3-4-5": (_gen_identities, _eval_identities),
    "thm-4-2": (_gen_e_images, _eval_e_images),
    "thm-4-7": (_gen_dominance, _eval_dominance),
    "thm-5-2": (_gen_two_stack, _eval_two_stack),
    "thm-5-3": (_gen_t_deform, _eval_t_deform),
    "thm-6-4": (_gen_negative_weights, _eval_negative_weights),
    "chain-6": (_gen_chain, _eval_chain),
    "cor-6-10": (_gen_subsets, _eval_subsets),
    "thm-6-5": (_gen_multivariate, _eval_multivariate),
    "thm-7-1": (_gen_weyl, _eval_weyl),
    "products-3": (_gen_products, _eval_products),
    "maincor-3-6": (_gen_operator_checks, _eval_operator_checks),
    "polya-line": (_gen_line_checks, _eval_line_checks),
    "pf-coherence": (_gen_pf_coherence, _eval_pf_coherence),
    "oracle-coherence": (_gen_oracles, _eval_oracles),
    "brenti-omega": (_gen_integer_filled, _eval_integer_filled),
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def _case_id(suite: str, index: int, params: dict) -> str:
    bits = [suite]
    for key in ("kind", "op", "symbol"):
        if key in params:
            bits.append(str(params[key]))
    for key in ("n", "m", "t", "q", "d"):
        if key in params:
            bits.append(f"{key}={params[key]}")
    if "i" in params:
        bits.append(f"i={params['i']:03d}")
    bits.append(f"c{index:04d}")
    return "/".join(bits)


def evaluate_case(suite: str, params: dict) -> tuple[bool, dict | None]:
    """(verdict, witness) of one case; a `PolyafreqError` fails it with its message."""
    evaluator = _SUITES[suite][1]
    try:
        witness = evaluator(params)
    except PolyafreqError as exc:
        witness = {"error": f"{type(exc).__name__}: {exc}"}
    return witness is None, witness


def run_suite(name: str, config: RunConfig | None = None) -> SuiteReport:
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}")
    config = config or RunConfig()
    max_enum()  # a malformed guard is a usage error, not a failing case
    start = time.perf_counter()
    gen, _ = _SUITES[name]
    param_list = gen(config)
    if config.jobs > 1 and len(param_list) > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(functools.partial(evaluate_case, name), param_list, chunksize=8))
    else:
        results = [evaluate_case(name, p) for p in param_list]
    cases = [
        Case(case_id=_case_id(name, i, p), params=p, verdict=ok, witness=wit)
        for i, (p, (ok, wit)) in enumerate(zip(param_list, results))
    ]
    cases.sort(key=lambda c: c.case_id)
    return SuiteReport(suite=name, cases=cases, elapsed=time.perf_counter() - start)


def run_all(config: RunConfig | None = None) -> list[SuiteReport]:
    return [run_suite(name, config) for name in _SUITES]
