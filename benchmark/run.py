"""Benchmark of the polyafreq verifier: one workload, one seed, one process.

    python3 benchmark/run.py --workload suites-roots --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout.  With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics of one traced pass (see
README.md).  The last line of standard output is one JSON object; every
line before it names a metric with its unit.  The exit code is 0 only when
every case ran without error and matched the committed reference.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
import types
from fractions import Fraction

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(HERE, "reference")
OUT_DIR = os.path.join(HERE, "out")
PACKAGE = "polyafreq"

#: A run sets up at least SETUP_MIN_REPEATS times and for at least
#: SETUP_MIN_SECONDS; `setup_s` is the median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0

#: The CPU speed of a shared machine drifts by tens of percent from one
#: run to the next.  Every PROBE_INTERVAL_S a run times `speed_probe`, and
#: it scales the times it reports by PROBE_REFERENCE_S over the mean probe
#: time, so they read as on a machine where the probe takes PROBE_REFERENCE_S.
PROBE_INTERVAL_S = 0.15
PROBE_REFERENCE_S = 0.004
PROBES_PER_SETUP = 3

#: In a traced run every OVERHEAD_STRIDE-th case also runs untraced.
OVERHEAD_STRIDE = 4

#: `case_ms_p50` averages the latencies ranked within P50_WINDOW * n of the
#: median rank.  Near the median of suites-roots consecutive ranks differ by
#: 3-5%, so the plain median moved by 10% between runs of the same cases.
P50_WINDOW = 0.025

#: Percentiles `case_ms_tail` may report, highest last.  The value is
#: averaged over TAIL_WINDOW ranks on each side of the percentile's rank: at
#: p99.5 of suites-algebra latencies jump from ~150 to ~250 ms within a few
#: ranks, and the single rank moved by 11% between runs of the same cases.
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
TAIL_MIN_BEYOND = 10
TAIL_WINDOW = TAIL_MIN_BEYOND // 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "case_ms_p50": "ms",
    "case_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

#: Reported function metric -> the span names it sums.
FUNCTIONS = {
    "polynomial.horner": ("polynomial.horner",),
    "polynomial.divmod": ("polynomial.divmod",),
    "polynomial.mul": ("polynomial.mul",),
    "polynomial.scale": ("polynomial.scale",),
    "polynomial.gcd": ("polynomial.poly_gcd",),
    "polynomial.primitive_part": ("polynomial.primitive_part",),
    "polynomial.squarefree": ("polynomial.squarefree_part", "polynomial.squarefree_decomposition"),
    "roots.sturm_chain": ("roots.sturm_chain",),
    "roots.is_real_rooted": ("roots.is_real_rooted",),
    "roots.is_simple_rooted": ("roots.is_simple_rooted",),
    "roots.roots_within": ("roots.roots_within",),
    "roots.interlace_relation": ("roots.interlace_relation",),
    "roots.check_nonneg_on_reals": ("roots.check_nonneg_on_reals",),
    "transforms.e_transform": ("transforms.e_transform",),
    "transforms.e_inverse": ("transforms.e_inverse",),
    "transforms.w_transform": ("transforms.w_transform",),
    "operators.products": tuple(
        f"operators.{n}"
        for n in (
            "hermite_poulain",
            "schur_product",
            "hadamard_product",
            "sharp_product",
            "diamond_product",
            "dot_form",
            "circ_form",
        )
    ),
    "operators.apply_phi": ("operators.apply_phi",),
    "operators.check_maincor": ("operators.check_maincor",),
    "pf.minors_nonneg": ("pf.minors_nonneg",),
    "pf.is_pf_finite": ("pf.is_pf_finite",),
    "combinatorics.oracles": tuple(
        f"combinatorics.{n}"
        for n in (
            "eulerian_oracle",
            "q_eulerian_oracle",
            "t_stack_poly",
            "signed_perm_stats",
            "StatTable.descent_poly",
            "StatTable.restricted_descent_poly",
            "StatTable.weighted_sum",
        )
    ),
    "combinatorics.families": (),  # every other combinatorics span; see members()
    "suites.generate": ("suites.generate",),
    "suites.evaluate": ("suites.evaluate_case",),
}


def members(metric: str, span_names) -> tuple[str, ...]:
    """Span names summed into a function metric."""
    if metric == "combinatorics.families":
        oracles = FUNCTIONS["combinatorics.oracles"]
        return tuple(n for n in span_names if n.startswith("combinatorics.") and n not in oracles)
    return FUNCTIONS[metric]


def per_layer_units() -> dict[str, str]:
    from tracer import LAYERS

    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.total_s": "s", f"{layer}.self_s": "s"})
    for name in FUNCTIONS:
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s"})
    units["roots.sturm_chain.max_bits"] = "bits"
    units["polynomial.horner_per_root_query"] = "ratio"
    units["tracing_overhead"] = "ratio"
    return units


# -- package loading and set-up ------------------------------------------------------


def load_package() -> types.SimpleNamespace:
    """Import the package afresh from the checkout's src/."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    cli = importlib.import_module(PACKAGE + ".cli")
    return types.SimpleNamespace(
        cli=cli,
        suites=sys.modules[PACKAGE + ".suites"],
        config=sys.modules[PACKAGE + ".config"],
    )


def make_cases(workload: str, seed: int, pkg, span=None) -> list:
    if workload == "cli-highdeg":
        return workloads.cli_queries(seed)
    return workloads.suite_cases(workload, seed, pkg, span)


def speed_probe() -> float:
    """Seconds taken by a fixed Sturm sequence and its sign counts.

    The probe does the kind of work the package does most, Fraction
    arithmetic on polynomial coefficients that grow to hundreds of bits,
    and uses none of its code.
    """
    start = time.perf_counter()
    f = [Fraction(1)]
    for root in range(-5, 6):
        f = [Fraction(0)] + f  # multiply by (x - root/3)
        for k in range(len(f) - 1):
            f[k] -= Fraction(root, 3) * f[k + 1]
    f = [c + Fraction(1, 7) for c in f]
    chain = [f, [k * c for k, c in enumerate(f)][1:]]
    while len(chain[-1]) > 1:
        r, d = list(chain[-2]), chain[-1]
        while len(r) >= len(d):
            q = r[-1] / d[-1]
            for j, c in enumerate(d):
                r[len(r) - len(d) + j] -= q * c
            r.pop()
        while r and r[-1] == 0:
            r.pop()
        if not r:
            break
        chain.append([-c for c in r])
    for x in range(-4, 5):
        point = Fraction(x, 4)
        for p in chain:
            acc = Fraction(0)
            for c in reversed(p):
                acc = acc * point + c
    return time.perf_counter() - start


class Speed:
    """Probe samples taken during one phase of a run."""

    def __init__(self):
        self.samples: list[float] = []
        self._due = 0.0

    def tick(self) -> None:
        """Take a sample if PROBE_INTERVAL_S has passed since the last one."""
        if time.perf_counter() >= self._due:
            self.samples.append(speed_probe())
            self._due = time.perf_counter() + PROBE_INTERVAL_S

    @property
    def spent(self) -> float:
        return sum(self.samples)

    @property
    def scale(self) -> float:
        """Factor that turns a time measured in this phase into reference time."""
        return PROBE_REFERENCE_S * len(self.samples) / self.spent


def set_up(workload: str, seed: int, speed: Speed):
    """Import and generate repeatedly; the last set-up is the one used.

    Each set-up is followed by PROBES_PER_SETUP probe samples, since a
    suites-algebra set-up is too long for `Speed.tick` to sample often.
    """
    times: list[float] = []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        start = time.perf_counter()
        pkg = load_package()
        cases = make_cases(workload, seed, pkg)
        times.append(time.perf_counter() - start)
        speed.samples.extend(speed_probe() for _ in range(PROBES_PER_SETUP))
    return pkg, cases, times


# -- reference outputs ------------------------------------------------------------------


def reference_path(workload: str, seed: int) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}-seed{seed}.json")


def load_reference(workload: str) -> dict[str, str]:
    """Merged case-key -> output-digest map over every committed seed."""
    merged: dict[str, str] = {}
    prefix = workload + "-seed"
    if not os.path.isdir(REFERENCE_DIR):
        return merged
    for entry in sorted(os.listdir(REFERENCE_DIR)):
        if entry.startswith(prefix) and entry.endswith(".json"):
            with open(os.path.join(REFERENCE_DIR, entry), encoding="utf-8") as handle:
                merged.update(json.load(handle)["digests"])
    return merged


# -- evaluation ---------------------------------------------------------------------------


def run_case(case, pkg):
    """(payload, errored); an exception escaping the program is an error."""
    try:
        return case.run(pkg)
    except Exception as exc:  # the benchmark must finish and report the failure
        traceback.print_exc(file=sys.stderr)
        return {"exception": f"{type(exc).__name__}: {exc}", "case": case.label}, True


class Checker:
    """Compares each output with the reference, or with the constructed expectation."""

    def __init__(self, reference: dict[str, str]):
        self.reference = reference
        self.attempted = 0
        self.errors = 0
        self.mismatches = 0
        self.failed = 0
        self.first_bad: list[str] = []

    def check(self, case, payload, errored: bool) -> None:
        want = self.reference.get(case.key()) or workloads.digest(case.expected())
        mismatch = workloads.digest(payload) != want
        self.attempted += 1
        self.errors += errored
        self.mismatches += mismatch
        if errored or mismatch:
            self.failed += 1
            if len(self.first_bad) < 5:
                self.first_bad.append(case.label)


def timed_pass(cases, pkg, checker: Checker, times: list[list[float]], speed: Speed) -> float:
    """Evaluate every case once; returns the pass wall time without the probes."""
    clock = time.perf_counter
    outputs = []
    start = clock()
    for i, case in enumerate(cases):
        speed.tick()
        t0 = clock()
        outputs.append(run_case(case, pkg))
        times[i].append(clock() - t0)
    wall = clock() - start - speed.spent
    for case, (payload, errored) in zip(cases, outputs):
        checker.check(case, payload, errored)
    return wall


def tail_percentile(n: int) -> float:
    """Highest grid percentile with at least TAIL_MIN_BEYOND samples above its rank."""
    best = TAIL_GRID[0]
    for p in TAIL_GRID:
        if n - math.ceil(p * n / 100) >= TAIL_MIN_BEYOND:
            best = p
    return best


def rank_mean(sorted_values: list[float], lo: int, hi: int, half: int) -> float:
    """Mean of the ascending values whose 0-based ranks lie in [lo - half, hi + half]."""
    return statistics.fmean(sorted_values[max(0, lo - half) : hi + half + 1])


def smoothed_median(sorted_values: list[float]) -> float:
    n = len(sorted_values)
    return rank_mean(sorted_values, (n - 1) // 2, n // 2, round(P50_WINDOW * n))


def smoothed_percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile, averaged over TAIL_WINDOW ranks on each side."""
    rank = max(1, math.ceil(p * len(sorted_values) / 100)) - 1
    return rank_mean(sorted_values, rank, rank, TAIL_WINDOW)


def untraced_run(workload: str, seed: int, seconds: float, checker: Checker) -> tuple[dict, list[str]]:
    setup_speed = Speed()
    pkg, cases, setup_times = set_up(workload, seed, setup_speed)
    times: list[list[float]] = [[] for _ in cases]
    walls: list[float] = []
    scales: list[float] = []
    begin = time.perf_counter()
    while True:
        speed = Speed()
        walls.append(timed_pass(cases, pkg, checker, times, speed))
        scales.append(speed.scale)
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(walls) > seconds:
            break
    latencies = sorted(
        statistics.median(t * scale for t, scale in zip(case_times, scales)) * 1e3
        for case_times in times
    )
    tail_p = tail_percentile(len(latencies))
    metrics = {
        "setup_s": statistics.median(setup_times) * setup_speed.scale,
        "wall_s": statistics.median(w * scale for w, scale in zip(walls, scales)),
        "case_ms_p50": smoothed_median(latencies),
        "case_ms_tail": smoothed_percentile(latencies, tail_p),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"{len(cases)} cases x {len(walls)} pass(es); set-ups {len(setup_times)}",
        f"case_ms_tail is p{tail_p:g} of {len(latencies)} cases, averaged over {TAIL_WINDOW} ranks on each side",
        "times are scaled to a probe time of "
        f"{PROBE_REFERENCE_S * 1e3:g} ms; scale per pass "
        + ", ".join(f"{x:.4f}" for x in scales)
        + "; measured wall_s per pass "
        + ", ".join(f"{w:.4f}" for w in walls),
    ]
    return metrics, notes


def traced_run(workload: str, seed: int, checker: Checker) -> tuple[dict, list[str]]:
    import tracer as tracing

    pkg = load_package()
    spans = tracing.Tracer(PACKAGE)
    clock = time.perf_counter

    def untraced(case) -> float:
        spans.uninstall()
        t0 = clock()
        payload, errored = run_case(case, pkg)
        took = clock() - t0
        spans.install()
        checker.check(case, payload, errored)
        return took

    sampled_traced = sampled_plain = 0.0
    outputs = []
    with spans:
        cases = make_cases(workload, seed, pkg, span=spans.call)
        for i, case in enumerate(cases):
            sampled = i % OVERHEAD_STRIDE == 0
            # alternate which side of a sampled pair runs first
            plain_first = sampled and (i // OVERHEAD_STRIDE) % 2 == 0
            if plain_first:
                sampled_plain += untraced(case)
            spans.current_case = i
            t0 = clock()
            outputs.append(run_case(case, pkg))
            took = clock() - t0
            spans.current_case = tracing.NO_CASE
            if sampled:
                sampled_traced += took
            if sampled and not plain_first:
                sampled_plain += untraced(case)
    for case, (payload, errored) in zip(cases, outputs):
        checker.check(case, payload, errored)

    by_name, by_layer = tracing.aggregate(spans)
    metrics: dict[str, float] = {}
    for layer in tracing.LAYERS:
        for field in ("calls", "total_s", "self_s"):
            metrics[f"{layer}.{field}"] = by_layer[layer][field]
    for name in FUNCTIONS:
        spans_of = [by_name[m] for m in members(name, by_name) if m in by_name]
        metrics[f"{name}.calls"] = sum(e["calls"] for e in spans_of)
        metrics[f"{name}.self_s"] = sum((e["self_s"] for e in spans_of), 0.0)
    metrics["roots.sturm_chain.max_bits"] = spans.max_chain_bits
    root_queries = by_layer["roots"]["calls"]
    metrics["polynomial.horner_per_root_query"] = (
        metrics["polynomial.horner.calls"] / root_queries if root_queries else 0.0
    )
    metrics["tracing_overhead"] = sampled_traced / sampled_plain - 1 if sampled_plain else 0.0

    os.makedirs(OUT_DIR, exist_ok=True)
    spans.write(os.path.join(OUT_DIR, f"{workload}.spans"))
    with open(os.path.join(OUT_DIR, f"{workload}.layers.json"), "w", encoding="utf-8") as handle:
        json.dump({"seed": seed, "by_layer": by_layer, "by_name": by_name}, handle, indent=1, sort_keys=True)
    top = max(by_name.items(), key=lambda kv: kv[1]["self_s"])[0] if by_name else "-"
    notes = [f"{len(cases)} cases, {len(spans)} spans; largest self time: {top}"]
    return metrics, notes


# -- entry point ----------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, PACKAGE)):
        print(f"no {PACKAGE} package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    checker = Checker(load_reference(args.workload))
    if args.trace:
        metrics, notes = traced_run(args.workload, args.seed, checker)
        units = per_layer_units()
    else:
        metrics, notes = untraced_run(args.workload, args.seed, args.seconds, checker)
        units = END_TO_END

    header = f"workload {args.workload}, seed {args.seed}, trace {args.trace}"
    return report(header, notes, metrics, units, checker)


def report(header: str, notes: list[str], metrics: dict, units: dict, checker: Checker) -> int:
    """Print one line per metric, then the JSON result; returns the exit code."""
    print(header)
    for note in notes:
        print(note)
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]!r:>24} {unit}")
    attempted = max(checker.attempted, 1)
    print(f"{'error_rate':40s} {checker.errors / attempted!r:>24} ratio")
    print(f"{'mismatch_rate':40s} {checker.mismatches / attempted!r:>24} ratio")
    if checker.first_bad:
        print("first failing cases: " + ", ".join(checker.first_bad))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
