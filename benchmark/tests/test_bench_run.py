import json
import os
import statistics

import pytest

import run
import workloads


@pytest.mark.parametrize(
    "count, expected",
    [(5, 50.0), (19, 50.0), (20, 50.0), (40, 75.0), (100, 90.0), (118, 90.0), (199, 90.0),
     (200, 95.0), (397, 95.0), (1000, 99.0), (2779, 99.5), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert run.tail_percentile(count) == expected


def test_tail_value_is_the_nearest_rank_smoothed():
    values = [float(v) for v in range(1, 101)]
    p = run.tail_percentile(len(values))
    # nearest rank of p90 is the 90th value; five ranks on each side
    assert run.smoothed_percentile(values, p) == 90.0
    assert run.smoothed_percentile([float(v) for v in range(1, 398)], 95.0) == 378.0
    jump = values[:92] + [v * 10 for v in values[92:]]
    assert run.smoothed_percentile(jump, p) == statistics.fmean(jump[84:95])


def test_smoothed_median_averages_the_ranks_around_the_middle():
    assert run.smoothed_median([1.0, 2.0, 30.0]) == 2.0
    values = [float(v) for v in range(1, 102)]
    assert run.smoothed_median(values) == 51.0
    # 101 values: a window of 3 ranks on each side of index 50
    skewed = values[:53] + [v * 10 for v in values[53:]]
    assert run.smoothed_median(skewed) == statistics.fmean(skewed[47:54])
    assert run.smoothed_median(skewed) > 51.0
    even = [1.0, 2.0, 4.0, 8.0]
    assert run.smoothed_median(even) == 3.0


def test_speed_scale_maps_the_mean_probe_to_the_reference():
    speed = run.Speed()
    speed.samples = [0.002, 0.009, 0.005]
    assert speed.scale == pytest.approx(run.PROBE_REFERENCE_S * 3 / 0.016)
    assert speed.spent == pytest.approx(0.016)
    fresh = run.Speed()
    fresh.tick()
    fresh.tick()
    assert len(fresh.samples) == 1 and fresh.samples[0] > 0


def test_benchmark_json_lists_what_the_runs_print():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


@pytest.fixture
def pkg():
    return run.load_package()


def test_mismatch_gate_trips_on_a_flipped_verdict(pkg, monkeypatch, capsys):
    cases = [c for c in workloads.suite_cases("suites-roots", 0, pkg) if c.suite == "thm-6-4"][:5]
    evaluate = pkg.suites.evaluate_case
    target = cases[2].params

    def flipped(suite, params):
        ok, witness = evaluate(suite, params)
        return (not ok, witness) if params is target else (ok, witness)

    monkeypatch.setattr(pkg.suites, "evaluate_case", flipped)
    checker = run.Checker(run.load_reference("suites-roots"))
    run.timed_pass(cases, pkg, checker, [[] for _ in cases], run.Speed())

    assert (checker.attempted, checker.mismatches, checker.errors, checker.failed) == (5, 1, 0, 1)
    assert checker.first_bad == [cases[2].label]
    metrics = dict.fromkeys(run.END_TO_END, 1.0)
    assert run.report("test", [], metrics, run.END_TO_END, checker) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 5, 1)


def _reference(workload, seed):
    with open(run.reference_path(workload, seed), encoding="utf-8") as handle:
        return json.load(handle)


def test_reference_fixes_the_known_failing_cases():
    algebra, roots = _reference("suites-algebra", 0), _reference("suites-roots", 0)
    assert sorted(c.split("/")[0] for c in algebra["differs_from_expected"]) == ["cor-6-10"] * 3
    assert sorted(c.split("/")[0] for c in roots["differs_from_expected"]) == ["thm-7-1"] * 5
    for seed in (0, 1):
        assert _reference("cli-highdeg", seed)["differs_from_expected"] == []


def test_suite_cases_are_the_same_at_every_seed_in_another_order(pkg):
    first = workloads.suite_cases("suites-roots", 3, pkg)
    other = workloads.suite_cases("suites-roots", 4, pkg)
    assert [c.key() for c in first] != [c.key() for c in other]
    assert sorted(c.key() for c in first) == sorted(c.key() for c in other)
    assert set(_reference("suites-roots", 0)["digests"]) == {c.key() for c in first}


def test_cli_query_errors_count_exit_two(pkg):
    bad = workloads.CliQuery(argv=("check", "interval", "--poly", '{"coeffs": ["1", "1"]}'),
                             exit_code=0, stdout="", label="missing bounds")
    payload, errored = bad.run(pkg)
    assert payload["exit"] == 2 and errored


def test_cli_inputs_match_the_package_families(pkg):
    from polyafreq import combinatorics as comb

    def ints(p):
        return [int(c) for c in p.coeffs]

    for n in range(6, 15):
        assert workloads.eulerian(n) == ints(comb.b_euler_q(n, 0))
        assert workloads.type_b_eulerian(n) == ints(comb.b_euler_q(n, 1))
        assert [0] + workloads.eulerian(n) == ints(comb.eulerian_poly(n))
    for n in range(4, 12):
        assert workloads.w2(n) == ints(comb.w2_poly(n))
    for n in range(6, 21):
        assert workloads.type_d_h(n) == ints(comb.fz_h_poly("D", n))


def test_cli_queries_are_seeded():
    first, again, other = workloads.cli_queries(3), workloads.cli_queries(3), workloads.cli_queries(4)
    assert first == again
    assert first != other
    assert len(first) >= 100
    assert sum(q.exit_code == 1 for q in first) == 12
