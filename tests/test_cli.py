import json
import os

import pytest

from polyafreq.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_examples(capsys):
    code, out, _ = run_cli(capsys, "gen", "eulerian", "--n", "3")
    assert code == 0 and json.loads(out) == {"coeffs": ["0", "1", "4", "1"]}
    code, out, _ = run_cli(capsys, "gen", "fz_h", "--type", "D", "--n", "2")
    assert code == 0 and json.loads(out) == {"coeffs": ["1", "2", "1"]}
    code, out, _ = run_cli(capsys, "gen", "w2", "--n", "4")
    assert code == 0 and json.loads(out) == {"coeffs": ["1", "10", "10", "1"]}


def test_gen_rational_flags(capsys):
    code, out, _ = run_cli(capsys, "gen", "eulerian_t", "--n", "4", "--t=-1")
    assert code == 0 and json.loads(out) == {"coeffs": ["0", "1", "10", "10", "1"]}
    code, out, _ = run_cli(capsys, "gen", "b_euler", "--n", "2", "--q", "1/2")
    assert code == 0 and json.loads(out) == {"coeffs": ["1", "13/4", "1/4"]}
    code, out, _ = run_cli(capsys, "gen", "b_euler_multi", "--n", "2", "--qs", "1,2")
    assert code == 0 and json.loads(out) == {"coeffs": ["1", "9", "2"]}
    code, out, _ = run_cli(capsys, "gen", "p_bn_subset", "--n", "2", "--set", "0,2")
    assert code == 0 and json.loads(out) == {"coeffs": ["1", "2", "1"]}


def test_gen_usage_errors(capsys):
    code, _, err = run_cli(capsys, "gen", "eulerian")
    assert code == 2
    code, _, _ = run_cli(capsys, "gen", "nope", "--n", "3")
    assert code == 2
    code, _, err = run_cli(capsys, "gen", "eulerian_t", "--n", "4")
    assert code == 2 and "--t" in err
    code, _, _ = run_cli(capsys, "gen", "t_stack", "--n", "3", "--t", "1/2")
    assert code == 2


def test_check_verdicts(capsys):
    code, out, _ = run_cli(
        capsys, "check", "interlace", '{"coeffs":["0","1"]}', '{"coeffs":["-1","0","1"]}'
    )
    assert code == 0 and json.loads(out)["relation"] == "interlaces_strict"
    code, out, _ = run_cli(capsys, "check", "pf", "--poly", '{"coeffs":["1","1","1"]}')
    assert code == 1 and json.loads(out)["verdict"] is False
    code, out, _ = run_cli(capsys, "check", "multiplier-n", "--gamma-shift=-1", "--n", "3")
    assert code == 1 and json.loads(out)["verdict"] is False
    code, out, _ = run_cli(capsys, "check", "multiplier-n", "--gamma-shift", "1", "--n", "5")
    assert code == 0
    code, out, _ = run_cli(
        capsys, "check", "interval", "--poly", '{"coeffs":["0","1","6","6"]}',
        "--lo=-1", "--hi", "0",
    )
    assert code == 0 and json.loads(out)["verdict"] is True
    code, out, _ = run_cli(
        capsys, "check", "interval", "--poly", '{"coeffs":["-1","0","1"]}',
        "--lo", "0", "--hi", "inf",
    )
    assert code == 1
    code, out, _ = run_cli(capsys, "check", "dominance",
                           '{"coeffs":["1","2","1"]}', '{"coeffs":["0","1","1"]}')
    assert code == 0 and json.loads(out)["verdict"] is True


def test_check_pf_minors_witness(capsys):
    code, out, _ = run_cli(
        capsys, "check", "pf-minors", "--terms", "1,1,0,1", "--window", "4", "--order", "2"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["witness"]["minor"] == "-1"
    code, out, _ = run_cli(capsys, "check", "pf-minors", "--terms", "1,2,1")
    assert code == 0


def test_check_sequence_kinds(capsys):
    code, out, _ = run_cli(capsys, "check", "log-concave", "--terms", "1,4,1")
    assert code == 0
    code, out, _ = run_cli(capsys, "check", "unimodal", "--terms", "1,0,1")
    assert code == 1
    code, out, _ = run_cli(capsys, "check", "nonneg-on-reals", "--poly", '{"coeffs":["0","0","1"]}')
    assert code == 0


def test_check_malformed_input(capsys):
    code, _, err = run_cli(capsys, "check", "pf", "--poly", '{"coeffs":["1/0"]}')
    assert code == 2
    code, _, _ = run_cli(capsys, "check", "pf", "--poly", "not json {")
    assert code == 2
    code, _, _ = run_cli(capsys, "check", "real-rooted")
    assert code == 2


def test_transform_and_op(capsys):
    code, out, _ = run_cli(capsys, "transform", "e", '{"coeffs":["0","0","1"]}')
    assert code == 0 and json.loads(out) == {"coeffs": ["0", "1", "2"]}
    code, out, _ = run_cli(capsys, "op", "diamond", '{"coeffs":["0","1"]}', '{"coeffs":["0","1"]}')
    assert code == 0 and json.loads(out) == {"coeffs": ["0", "1", "2"]}
    code, out, _ = run_cli(
        capsys, "op", "hadamard", '{"coeffs":["1","2","1"]}', '{"coeffs":["1","2","1"]}'
    )
    assert code == 0 and json.loads(out) == {"coeffs": ["1", "4", "1"]}
    code, out, _ = run_cli(capsys, "transform", "w", '{"coeffs":["2","3","1"]}')
    assert code == 0 and json.loads(out) == {"coeffs": ["2"]}
    code, out, _ = run_cli(capsys, "transform", "multisect",
                           '{"coeffs":["1","4","6","4","1"]}', "--step", "2", "--offset", "1")
    assert code == 0 and json.loads(out) == {"coeffs": ["4", "4"]}
    code, out, _ = run_cli(
        capsys, "transform", "phi", '{"coeffs":["0","0","1"]}',
        "--F", '[{"coeffs":["1"]},{"coeffs":["1"]}]',
    )
    assert code == 0 and json.loads(out) == {"coeffs": ["0", "2", "1"]}
    code, out, _ = run_cli(
        capsys, "transform", "multiplier-apply", '{"coeffs":["1","2","1"]}',
        "--binom-negative", "2,1",
    )
    assert code == 0 and json.loads(out) == {"coeffs": ["1", "-6", "6"]}


def test_op_from_file(tmp_path, capsys):
    path_f = tmp_path / "f.json"
    path_f.write_text('{"coeffs":["0","1"]}')
    path_g = tmp_path / "g.json"
    path_g.write_text('{"coeffs":["-1","0","1"]}')
    code, out, _ = run_cli(capsys, "check", "interlace", str(path_f), str(path_g))
    assert code == 0 and json.loads(out)["relation"] == "interlaces_strict"


def test_verify_small_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemmas-4-3-4-5", "--max-n", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "lemmas-4-3-4-5"
    assert payload["exit_code"] == 0
    assert all(c["verdict"] == "pass" for c in payload["cases"])
    assert "elapsed" in payload


def test_verify_unknown_suite(capsys):
    code, _, _ = run_cli(capsys, "verify", "not-a-suite")
    assert code == 2


def test_verify_deterministic_reports(capsys):
    code, out1, _ = run_cli(capsys, "verify", "thm-6-5", "--max-n", "3", "--seed", "7")
    code2, out2, _ = run_cli(capsys, "verify", "thm-6-5", "--max-n", "3", "--seed", "7")
    assert code == code2 == 0
    strip = lambda text: {k: v for k, v in json.loads(text).items() if k != "elapsed"}
    assert strip(out1) == strip(out2)
    code, out3, _ = run_cli(capsys, "verify", "thm-6-5", "--max-n", "3", "--seed", "8")
    assert strip(out3)["cases"] != strip(out1)["cases"]


def test_verify_jobs_matches_serial(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "thm-6-4", "--max-n", "5", "--seed", "3")
    code2, out2, _ = run_cli(capsys, "verify", "thm-6-4", "--max-n", "5", "--seed", "3",
                             "--jobs", "2")
    strip = lambda text: {k: v for k, v in json.loads(text).items() if k != "elapsed"}
    assert code1 == code2 == 0
    assert strip(out1) == strip(out2)


def test_verify_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm-6-5", "--max-n", "2", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "suite,case,n,params,verdict"
    assert all(line.endswith("pass") for line in lines[1:])


def test_enum_guard_env(capsys, monkeypatch):
    monkeypatch.setenv("POLYAFREQ_MAX_ENUM", "3")
    code, _, _ = run_cli(capsys, "gen", "t_stack", "--n", "5", "--t", "2")
    assert code == 1
    monkeypatch.setenv("POLYAFREQ_MAX_ENUM", "6")
    code, out, _ = run_cli(capsys, "gen", "t_stack", "--n", "5", "--t", "2")
    assert code == 0 and json.loads(out) == {"coeffs": ["1", "20", "49", "20", "1"]}


def test_bad_flag_values_are_usage_errors(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "op", "multiplier-apply", '{"coeffs":["1","1"]}',
                           "--binom-negative", "x,1")
    assert code == 2 and "Traceback" not in err and "--binom-negative" in err
    monkeypatch.setenv("POLYAFREQ_MAX_ENUM", "abc")
    for argv in (
        ("verify", "oracle-coherence"),
        ("verify", "thm-6-5", "--max-n", "1"),  # only its evaluator reads the guard
        ("gen", "t_stack", "--n", "3", "--t", "1"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "Traceback" not in err and "POLYAFREQ_MAX_ENUM" in err
    monkeypatch.setenv("POLYAFREQ_MAX_ENUM", "0")
    code, _, err = run_cli(capsys, "gen", "t_stack", "--n", "3", "--t", "1")
    assert code == 2 and "POLYAFREQ_MAX_ENUM" in err


@pytest.mark.parametrize("argv", [
    ("verify", "thm-4-2", "--max-n", "-1"),
    ("verify", "cor-6-10", "--max-n", "-2"),
    ("verify", "thm-6-5", "--max-n", "0"),
    ("verify", "thm-6-5", "--max-n", "2", "--jobs", "0"),
    ("verify", "thm-6-5", "--max-n", "two"),
    ("check", "pf-minors", "--terms", "1,3,3,1", "--window", "-2"),
    ("check", "pf-minors", "--terms", "1,3,3,1", "--order", "0"),
])
def test_nonpositive_counts_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "Traceback" not in err and "positive integer" in err
