import sys

import pytest

import run
import tracer
import workloads


def _span(t: tracer.Tracer, name: str, start: float, end: float, parent: int) -> int:
    idx = len(t)
    t.name.append(t._name_id(name))
    t.parent.append(parent)
    t.case.append(0)
    t.start.append(start)
    t.end.append(end)
    return idx


def test_self_time_on_a_nested_tree():
    t = tracer.Tracer()
    # roots.a [0, 10]
    #   polynomial.b [1, 4]
    #     roots.e [2, 3]
    #   polynomial.c [5, 9]
    #     polynomial.d [6, 7]
    a = _span(t, "roots.a", 0.0, 10.0, tracer.NO_PARENT)
    b = _span(t, "polynomial.b", 1.0, 4.0, a)
    _span(t, "roots.e", 2.0, 3.0, b)
    c = _span(t, "polynomial.c", 5.0, 9.0, a)
    _span(t, "polynomial.d", 6.0, 7.0, c)

    by_name, by_layer = tracer.aggregate(t)

    assert {n: v["self_s"] for n, v in by_name.items()} == {
        "roots.a": 3.0,
        "polynomial.b": 2.0,
        "roots.e": 1.0,
        "polynomial.c": 3.0,
        "polynomial.d": 1.0,
    }
    # a enters from outside, e from polynomial; d is a call inside its layer
    assert by_layer["roots"] == {"calls": 2, "total_s": 11.0, "self_s": 4.0}
    assert by_layer["polynomial"] == {"calls": 2, "total_s": 7.0, "self_s": 6.0}
    assert sum(v["self_s"] for v in by_layer.values()) == 10.0


def _bindings(modules):
    """Identity of every attribute of the modules and of the classes they define."""
    seen = {}
    for module in modules:
        for attr, obj in vars(module).items():
            seen[(module.__name__, attr)] = obj
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                for cattr, cobj in vars(obj).items():
                    seen[(module.__name__, attr, cattr)] = cobj
    return seen


@pytest.fixture
def pkg():
    return run.load_package()


def _small_roots_cases(pkg, count=6):
    cases = workloads.suite_cases("suites-roots", 0, pkg)
    # weight m = 0 returns before any root question
    return [c for c in cases if c.suite == "thm-6-4" and c.params["m"] > 0][:count]


def test_traced_run_restores_every_binding(pkg, monkeypatch, tmp_path):
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "polyafreq"]
    before = _bindings(modules)
    original = pkg.suites.is_real_rooted
    seen_inside = []

    def evaluate(case, pkg_):
        seen_inside.append(pkg.suites.is_real_rooted is not original)
        return case.run(pkg_)

    monkeypatch.setattr(run, "load_package", lambda: pkg)
    monkeypatch.setattr(run, "make_cases", lambda *a, **k: _small_roots_cases(pkg))
    monkeypatch.setattr(run, "run_case", evaluate)
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    checker = run.Checker(run.load_reference("suites-roots"))

    metrics, _ = run.traced_run("suites-roots", 0, checker)

    assert checker.failed == 0
    # the binding imported into suites was wrapped while tracing
    assert any(seen_inside) and not all(seen_inside)
    assert metrics["roots.is_real_rooted.calls"] > 0
    assert metrics["suites.evaluate.calls"] == 6
    after = _bindings(modules)
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert (tmp_path / "suites-roots.spans").stat().st_size > 0


def test_layer_entries_and_self_times_add_up(pkg):
    cases = _small_roots_cases(pkg, 3)
    t = tracer.Tracer()
    with t:
        for case in cases:
            case.run(pkg)
    by_name, by_layer = tracer.aggregate(t)
    roots_total = sum(t.end[i] - t.start[i] for i in range(len(t)) if t.parent[i] == tracer.NO_PARENT)
    assert sum(v["self_s"] for v in by_layer.values()) == pytest.approx(roots_total)
    assert by_name["suites.evaluate_case"]["calls"] == 3
    assert by_name["polynomial.horner"]["calls"] > 0
    assert t.max_chain_bits > 0
