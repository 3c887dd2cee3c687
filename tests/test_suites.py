import ast
import collections
import json
import shlex

import pytest

from polyafreq import cli, roots, suites
from polyafreq.config import RunConfig
from polyafreq.polynomial import Poly
from polyafreq.suites import SUITE_NAMES, run_suite

from boundary_cases import boundary_ids

SMALL = {
    "lemmas-4-3-4-5": 8,
    "thm-4-2": 4,
    "thm-4-7": 4,
    "thm-5-2": 5,
    "thm-5-3": 5,
    "thm-6-4": 5,
    "chain-6": 4,
    "cor-6-10": 3,
    "thm-6-5": 3,
    "thm-7-1": 5,
    "products-3": 4,
    "maincor-3-6": 4,
    "polya-line": 4,
    "pf-coherence": 5,
    "oracle-coherence": 5,
    "brenti-omega": 4,
}

# cor-6-10 and thm-7-1 correctly report counterexamples to their claims at
# the boundary cases of boundary_cases.py: palindromic polynomials with a
# double root at -1, and low-rank cluster combinations.  Every other case of
# every suite passes.


@pytest.mark.parametrize("name", sorted(SMALL))
def test_suite_runs_and_reports(name):
    report = run_suite(name, RunConfig(max_n=SMALL[name], seed=0))
    assert report.cases, name
    fails = [c for c in report.cases if not c.verdict]
    assert [c.case_id for c in fails] == boundary_ids(name, report.cases), name
    ids = [c.case_id for c in report.cases]
    assert ids == sorted(ids)
    payload = report.to_dict()
    json.dumps(payload)  # must be serializable
    assert payload["exit_code"] == (0 if not fails else 1)


def test_determinism_across_runs():
    a = run_suite("products-3", RunConfig(max_n=3, seed=11))
    b = run_suite("products-3", RunConfig(max_n=3, seed=11))
    assert [c.to_dict() for c in a.cases] == [c.to_dict() for c in b.cases]
    c = run_suite("products-3", RunConfig(max_n=3, seed=12))
    assert [x.to_dict() for x in a.cases] != [x.to_dict() for x in c.cases]


def test_jobs_equivalence():
    serial = run_suite("thm-6-4", RunConfig(max_n=4, seed=5, jobs=1))
    parallel = run_suite("thm-6-4", RunConfig(max_n=4, seed=5, jobs=2))
    assert [c.to_dict() for c in serial.cases] == [c.to_dict() for c in parallel.cases]


def test_each_e_image_reads_one_chain(monkeypatch):
    """thm-4-2 and thm-4-7 ask "simple-rooted?" and "roots in [-1, 0]?" of
    each E-image, and build one Sturm chain of it for both."""
    chains, images = [], []
    real_chain, real_e = roots.sturm_chain, suites.e_transform

    def counted_chain(f):
        chains.append(f)
        return real_chain(f)

    def recorded_e(f):
        images.append(real_e(f))
        return images[-1]

    monkeypatch.setattr(roots, "sturm_chain", counted_chain)
    monkeypatch.setattr(suites, "e_transform", recorded_e)
    # the images checked come first: the one of thm-4-2, the two of thm-4-7
    for name, checked in (("thm-4-2", 1), ("thm-4-7", 2)):
        generate, _ = suites._SUITES[name]
        for params in generate(RunConfig(seed=0)):
            chains.clear()
            images.clear()
            assert suites.evaluate_case(name, params) == (True, None), params
            expected = collections.Counter(images[:checked])
            built = collections.Counter(chains)
            assert {p: built[p] for p in expected} == expected, params


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("definitely-not-a-suite")


def test_suite_names_cover_registry():
    assert "all" in SUITE_NAMES
    assert len(SUITE_NAMES) == 17


def emitted_repros() -> set[tuple[str, str]]:
    """(kind, flags) of every `_repro_check` call in the suites' source."""
    tree = ast.parse(open(suites.__file__, encoding="utf-8").read())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_repro_check":
            literals = [node.args[0]] + node.args[2:]
            assert all(isinstance(a, ast.Constant) for a in literals), ast.dump(node)
            kind, *flags = [a.value for a in literals]
            out.add((kind, flags[0] if flags else ""))
    return out


# A polynomial that fails each check the suites emit a repro for.
FAILING = {
    ("simple", ""): Poly([1, 2, 1]),  # (x+1)^2
    ("real-rooted", ""): Poly([1, 0, 1]),  # x^2 + 1
    ("pf", ""): Poly([1, 1, 1]),  # positive coefficients, complex roots
    ("interval", " --lo=-1 --hi 0"): Poly([2, 1]),  # root -2
    ("interval", " --lo=-inf --hi 0"): Poly([-1, 1]),  # root 1
}


def test_every_repro_replays_to_a_failing_verdict(capsys):
    assert emitted_repros() == set(FAILING)
    for (kind, flags), f in FAILING.items():
        argv = shlex.split(suites._repro_check(kind, f, flags)["repro"])
        assert argv[:2] == ["polyafreq", "check"]
        assert cli.main(argv[1:]) == 1, argv
        assert json.loads(capsys.readouterr().out)["verdict"] is False


def test_suite_names_are_cli_table_keys():
    assert {kind for kind, _ in emitted_repros()} <= set(cli._checks())
    assert set(suites._PRODUCT_OPS) <= set(cli._operations())
