"""Seeded inputs for the benchmark workloads.

A workload is a list of cases.  Each case knows its identity (`key`), how
to run itself against the imported package (`run`), and the output it must
give by construction (`expected`).  Suite cases come from the package's own
seeded generators; CLI queries are built here from integer recurrences and
rational roots, so their verdicts do not depend on the program under test.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random
from fractions import Fraction

#: Suites whose cost is dominated by root questions on degrees up to 12.
SUITES_ROOTS = ("thm-4-2", "thm-4-7", "chain-6", "thm-5-3", "thm-7-1", "thm-6-4")

WORKLOADS = ("suites-roots", "suites-algebra", "cli-highdeg")

#: Suite cases are generated at the `polyafreq verify` default seed.  With
#: seeded suite inputs the median case latency of suites-roots moved by a
#: quarter between seeds, and some seeds draw cases the suites do not pass.
SUITE_SEED = 0


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- suite cases -----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SuiteCase:
    suite: str
    params: dict
    case_id: str

    @property
    def label(self) -> str:
        return self.case_id

    def key(self) -> str:
        return digest({"id": self.case_id, "params": self.params})

    def expected(self) -> dict:
        """Every case passes unless the reference records otherwise."""
        return {"id": self.case_id, "params": self.params, "verdict": "pass"}

    def run(self, pkg) -> tuple[dict, bool]:
        """`Case.to_dict()` of the evaluated case, and whether it errored."""
        suites = pkg.suites
        ok, witness = suites.evaluate_case(self.suite, self.params)
        case = suites.Case(case_id=self.case_id, params=self.params, verdict=ok, witness=witness)
        return case.to_dict(), isinstance(witness, dict) and "error" in witness


def suite_names(workload: str, pkg) -> tuple[str, ...]:
    if workload == "suites-roots":
        return SUITES_ROOTS
    return tuple(n for n in pkg.suites.SUITE_NAMES if n != "all" and n not in SUITES_ROOTS)


def suite_cases(workload: str, seed: int, pkg, span=None) -> list[SuiteCase]:
    """The cases of every suite in the workload at acceptance size, in an
    order shuffled by `seed`.

    The cases themselves are those of `polyafreq verify` at its default
    seed, SUITE_SEED, whatever `seed` is.  `span(name, fn, *args)` runs a
    generator inside a trace span when given.
    """
    suites = pkg.suites
    config = pkg.config.RunConfig(seed=SUITE_SEED, jobs=1)
    out = []
    for name in suite_names(workload, pkg):
        # The registry is the only way to reach a suite's generator without
        # also evaluating it; `run_suite` does both.
        generate = suites._SUITES[name][0]
        params = span("suites.generate", generate, config) if span else generate(config)
        out.extend(
            SuiteCase(suite=name, params=p, case_id=suites._case_id(name, i, p))
            for i, p in enumerate(params)
        )
    random.Random(f"{workload}/{seed}").shuffle(out)
    return out


# -- CLI queries -------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CliQuery:
    argv: tuple[str, ...]
    exit_code: int
    stdout: str
    label: str

    def key(self) -> str:
        return digest({"argv": list(self.argv)})

    def expected(self) -> dict:
        return {"argv": list(self.argv), "exit": self.exit_code, "stdout": self.stdout}

    def run(self, pkg) -> tuple[dict, bool]:
        """Exit code and captured stdout; exit 2 (usage error) counts as an error."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pkg.cli.main(list(self.argv))
        return {"argv": list(self.argv), "exit": code, "stdout": out.getvalue()}, code == 2


def _emitted(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True) + "\n"


def _poly_json(coeffs) -> str:
    return json.dumps({"coeffs": [_rational(c) for c in coeffs]}, separators=(",", ":"))


def _rational(c) -> str:
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _mul(a, b) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _from_roots(roots) -> list:
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = _mul(coeffs, [-r, 1])
    return coeffs


def eulerian(n: int) -> list[int]:
    """A_n = sum over S_n of x^des, by A(n,k) = (k+1)A(n-1,k) + (n-k)A(n-1,k-1)."""
    row = [1]
    for m in range(2, n + 1):
        row = [
            (k + 1) * (row[k] if k < len(row) else 0) + (m - k) * (row[k - 1] if k else 0)
            for k in range(m)
        ]
    return row


def type_b_eulerian(n: int) -> list[int]:
    """B_n(q=1) by B(n,k) = (2k+1)B(n-1,k) + (2n-2k+1)B(n-1,k-1)."""
    row = [1]
    for m in range(1, n + 1):
        row = [
            (2 * k + 1) * (row[k] if k < len(row) else 0)
            + (2 * m - 2 * k + 1) * (row[k - 1] if k else 0)
            for k in range(m + 1)
        ]
    return row


def w2(n: int) -> list[int]:
    """2-stack-sortable permutations of [n] by descents (closed form)."""
    f = math.factorial
    return [
        f(n + k) * f(2 * n - k - 1) // (f(k + 1) * f(n - k) * f(2 * k + 1) * f(2 * n - 2 * k - 1))
        for k in range(n)
    ]


def type_d_h(n: int) -> list[int]:
    """h-vector of the type D_n cluster complex: C(n,k)^2 - n N(n-1, k-1)."""
    def narayana(m: int, j: int) -> int:
        return math.comb(m, j) * math.comb(m, j + 1) // m if 0 <= j < m else 0

    return [math.comb(n, k) ** 2 - n * narayana(n - 1, k - 1) for k in range(n + 1)]


def _real_rooted(label: str, coeffs, verdict: bool) -> CliQuery:
    return CliQuery(
        argv=("check", "real-rooted", "--poly", _poly_json(coeffs)),
        exit_code=0 if verdict else 1,
        stdout=_emitted({"kind": "real-rooted", "verdict": verdict}),
        label=label,
    )


def _interlace(label: str, f, g, relation: str) -> CliQuery:
    return CliQuery(
        argv=("check", "interlace", _poly_json(f), _poly_json(g)),
        exit_code=0,
        stdout=_emitted({"kind": "interlace", "relation": relation}),
        label=label,
    )


#: Root numerators k for roots k/den: distinct, and every root has
#: denominator exactly den, so coefficient sizes vary little between seeds.
_NUMERATORS = {den: [k for k in range(-90, 91) if k % den] for den in (5, 7)}


def cli_queries(seed: int) -> list[CliQuery]:
    """About 120 CLI queries whose exit codes are known by construction.

    Degrees, window sizes and root denominators are the same at every seed,
    so the total work changes little between seeds; the seed picks the root
    numerators and the order in which the queries run.
    """
    rng = random.Random(f"cli-highdeg/{seed}")
    out = [_real_rooted(f"eulerian/n={n}", eulerian(n), True) for n in range(12, 37)]
    degrees = [d for d in range(12, 31) for _ in range(2)]
    for i, d in enumerate(degrees):
        coeffs = _from_roots(Fraction(k, 5) for k in rng.sample(_NUMERATORS[5], d))
        # every third product gets a factor with non-real roots
        complex_pair = i % 3 == 2
        if complex_pair:
            coeffs = _mul(coeffs, [1, 1, 1])
        out.append(_real_rooted(f"product/d={d}/i={i}", coeffs, not complex_pair))
    for n in range(6, 15):
        b0 = eulerian(n)  # B_n(q=0) is A_n
        out.append(_interlace(f"type-b/n={n}", b0, type_b_eulerian(n), "interlaces_strict"))
    for size in range(12, 32):
        vals = sorted(Fraction(k, 7) for k in rng.sample(_NUMERATORS[7], size))
        if size % 2 == 0:
            f, g, relation = vals[0::2], vals[1::2], "alternates_left_strict"
        else:
            f, g, relation = vals[1::2], vals[0::2], "interlaces_strict"
        out.append(_interlace(f"pool/size={size}", _from_roots(f), _from_roots(g), relation))
    for order, ns in ((4, range(6, 12)), (5, range(4, 9))):
        for n in ns:
            terms = w2(n)
            out.append(
                CliQuery(
                    argv=("check", "pf-minors", "--terms", ",".join(map(str, terms)), "--order", str(order)),
                    exit_code=0,
                    stdout=_emitted(
                        {"kind": "pf-minors", "order": order, "verdict": True, "window": len(terms) + 2}
                    ),
                    label=f"pf-minors/w2/n={n}/order={order}",
                )
            )
    for n in range(6, 21):
        out.append(
            CliQuery(
                argv=("check", "pf", "--poly", _poly_json(type_d_h(n))),
                exit_code=0,
                stdout=_emitted({"kind": "pf", "verdict": True}),
                label=f"pf/type-d/n={n}",
            )
        )
    rng.shuffle(out)
    return out
