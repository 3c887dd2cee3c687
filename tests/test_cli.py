import argparse
import json
import os
import sys

import pytest

import cli_oracle
from polyafreq import cli, combinatorics
from polyafreq.cli import main
from polyafreq.polynomial import Poly
from polyafreq.suites import SUITE_NAMES


def run_cli(capsys, *argv, entry=main):
    code = entry(list(argv))
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
    code, out, _ = run_cli(capsys, "check", "multiplier-n", "--gamma-shift", "1", "--n", "0")
    assert code == 0 and json.loads(out) == {"kind": "multiplier-n", "n": 0, "verdict": True}
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


def test_interval_endpoints_stay_exact(capsys):
    # a float conversion of either endpoint would overflow
    huge = "1" + "0" * 400
    for hi in (huge, huge + "/3"):
        code, out, _ = run_cli(
            capsys, "check", "interval", "--poly", '{"coeffs":["2","-3","1"]}', "--lo=-3", "--hi", hi
        )
        assert code == 0 and json.loads(out)["verdict"] is True
    code, out, _ = run_cli(
        capsys, "check", "interval", "--poly", '{"coeffs":["2","-3","1"]}', f"--lo=-{huge}", "--hi", "3/2"
    )
    assert code == 1 and json.loads(out)["verdict"] is False


def test_check_pf_minors_witness(capsys):
    code, out, _ = run_cli(
        capsys, "check", "pf-minors", "--terms", "1,1,0,1", "--window", "4", "--order", "2"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["witness"]["minor"] == "-1"
    code, out, _ = run_cli(capsys, "check", "pf-minors", "--terms", "1,2,1")
    assert code == 0
    # trailing zeros do not widen the default window: both forms get 5 x 5
    for argv in (("--terms", "1,2,1,0"), ("--poly", '{"coeffs":["1","2","1","0"]}')):
        code, out, _ = run_cli(capsys, "check", "pf-minors", *argv)
        assert code == 0 and json.loads(out)["window"] == 5


@pytest.mark.parametrize("argv, code, window, order, witness", [
    (("--terms", "0,1,2,1"), 0, 6, 4, None),
    (("--poly", '{"coeffs":["0","0","0","1","3","3","1"]}'), 0, 9, 4, None),
    (("--terms", "0,0,0,1,1,1", "--window", "5"), 0, 5, 4, None),
    (("--terms", "0,0,1,1,1"), 1, 7, 4, ([3, 4, 5], [0, 1, 2], "-1")),
    (("--terms", "0,0,0,2,1,1"), 1, 8, 4, ([4, 5], [0, 1], "-1")),
    (("--terms", "0,0,2,2,1", "--order", "4"), 1, 7, 4, ([3, 4, 5, 6], [0, 1, 2, 3], "-4")),
    (("--poly", '{"coeffs":["0","2","1","1"]}', "--order", "2"), 1, 6, 2, ([2, 3], [0, 1], "-1")),
    (("--terms", "0,0,0,-1", "--window", "4", "--order", "4"), 1, 4, 4, ([3], [0], "-1")),
])
def test_check_pf_minors_with_leading_zeros(capsys, argv, code, window, order, witness):
    """1 to 3 leading zeros: the window and order are those asked for, and
    the witness rows count the zeros."""
    got, out, err = run_cli(capsys, "check", "pf-minors", *argv)
    assert (got, err) == (code, "")
    payload = json.loads(out)
    assert (payload["verdict"], payload["window"], payload["order"]) == (code == 0, window, order)
    if witness is None:
        assert "witness" not in payload
    else:
        rows, cols, minor = witness
        assert payload["witness"] == {"rows": rows, "cols": cols, "minor": minor}


def _no_minor_evaluated(*args):
    raise AssertionError("a minor was evaluated")


def test_check_pf_minors_at_the_guard_boundary(capsys, monkeypatch):
    """Totally nonnegative windows are accepted by Neville elimination
    before the minor count is taken, so no minor is evaluated and no count
    refuses them: 331,981 admissible minors, just under MAX_MINORS, also
    behind a leading zero, one row more, 1,077,869 of them, and the
    all-ones window of 30 rows, whose count is far above.  The scan's own
    run to order 12 is `tests/test_pf.py::test_scan_reaches_order_12`."""
    import polyafreq.pf as pf

    monkeypatch.setattr(pf, "_first_negative_minor", _no_minor_evaluated)
    for terms, window, order in (
        ("1,3,3,1", 12, 12),
        ("0,1,3,3,1", 13, 12),
        ("1,3,3,1", 13, 12),
        ("0,1,3,3,1", 14, 12),
        (",".join(["1"] * 30), 30, 15),
    ):
        code, out, _ = run_cli(
            capsys, "check", "pf-minors", "--terms", terms, "--window", str(window),
            "--order", str(order),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] is True and payload["window"] == window


def test_check_pf_minors_just_under_the_count(capsys):
    """(1, 3, 4, 3, 1) first fails at order 5.  Its 13 x 13 window has
    547,742 admissible minors up to order 6, so the scan runs and finds the
    witness; up to order 7 it has 1,023,022 and is refused
    (`test_pf_minors_guard`)."""
    code, out, err = run_cli(
        capsys, "check", "pf-minors", "--terms", "1,3,4,3,1", "--window", "13", "--order", "6"
    )
    assert (code, err) == (1, "")
    witness = json.loads(out)["witness"]
    assert len(witness["rows"]) == 5 and witness["cols"] == [0, 1, 2, 3, 4]


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


def test_json_numbers_keep_every_digit(capsys):
    """A JSON number coefficient is read from its text, not rounded to a float:
    1.00000000000000000001 - 2x + x^2 has two roots near 1, not a double one."""
    for coeffs in ('[1.00000000000000000001,-2,1]', '["100000000000000000001/100000000000000000000","-2","1"]'):
        code, out, _ = run_cli(capsys, "check", "real-rooted", "--poly", '{"coeffs":%s}' % coeffs)
        assert code == 1 and json.loads(out)["verdict"] is False
    code, out, _ = run_cli(capsys, "check", "real-rooted", "--poly", '{"coeffs":[0.5,-1.5,1.0]}')
    assert code == 0 and json.loads(out)["verdict"] is True
    # past the digit limit of int(), as a number or as a string: a usage error, no traceback
    for digits in ("1" + "0" * 5000, '"1%s"' % ("0" * 5000)):
        code, out, err = run_cli(capsys, "check", "real-rooted", "--poly", '{"coeffs":[%s,1]}' % digits)
        assert code == 2 and out == "" and "Traceback" not in err


def test_coefficient_digits_are_bounded_by_the_int_limit(capsys):
    """Every coefficient text, plain or with an exponent, string or JSON
    number, may have a numerator and denominator of up to the limit of
    int(), and no more: c - x^2 is real-rooted for c >= 0.  A text past the
    limit, a digit string that int() refuses to read or a value of more
    digits, exits 2 with the one message of the limit, and a message quotes
    at most the first 20 characters of the text."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        inside = ["1" * 4300, '"1%s"' % ("0" * 4299), "1e4299", '"1e-4299"', '"5e-4300"', '"0e999999999"']
        outside = ["1" * 4301, '"1%s"' % ("0" * 4300), "1e4300", '"1e-4300"', '"3e-4300"', "1e400000", '"1e-400000"']
        for texts, expected in ((inside, 0), (outside, 2)):
            for text in texts:
                code, out, err = run_cli(capsys, "check", "real-rooted", "--poly", '{"coeffs":[%s,0,-1]}' % text)
                assert code == expected and "Traceback" not in err, text[:20]
                assert (out == "") == (expected == 2)
                assert expected == 0 or ("has more than 4300 digits\n" in err and len(err) < 100), text[:20]
        code, _, err = run_cli(capsys, "check", "real-rooted", "--poly", '{"coeffs":["1e4300",1]}')
        assert err == "usage error: rational '1e4300' has more than 4300 digits\n"
        code, _, err = run_cli(capsys, "check", "real-rooted", "--poly", '{"coeffs":[%s,1]}' % ("1" * 4301))
        assert err == "usage error: rational '%s'... (4301 characters) has more than 4300 digits\n" % ("1" * 20)
        code, _, err = run_cli(capsys, "check", "real-rooted", "--poly", '{"coeffs":["%s",1]}' % ("x" * 5000))
        assert code == 2 and err == "usage error: malformed rational '%s'... (5000 characters)\n" % ("x" * 20)
    finally:
        sys.set_int_max_str_digits(limit)


def test_phi_numbers_keep_every_digit(capsys):
    code, out, _ = run_cli(
        capsys, "transform", "phi", '{"coeffs":["0","0","1"]}',
        "--F", '[{"coeffs":[1.00000000000000000001]},{"coeffs":[1]}]',
    )
    assert code == 0
    assert json.loads(out) == {"coeffs": ["0", "2", "100000000000000000001/100000000000000000000"]}


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


def test_verify_multivariate_identity_past_the_enumeration_range(capsys):
    # thm-6-5 counts signed descents by descent sets, so no signed
    # enumeration (2^10 10! elements at n = 10) bounds its size
    code, out, _ = run_cli(capsys, "verify", "thm-6-5", "--max-n", "10")
    payload = json.loads(out)
    assert code == 0 and payload["exit_code"] == 0
    assert len(payload["cases"]) == 30
    assert all(c["verdict"] == "pass" for c in payload["cases"])


def test_gen_b_euler_at_weight_minus_one(capsys):
    code, out, _ = run_cli(capsys, "gen", "b_euler", "--n", "3", "--q", "-1")
    assert code == 0 and json.loads(out) == {"coeffs": ["1", "-3", "3", "-1"]}
    code, out, _ = run_cli(capsys, "gen", "b_euler_multi", "--n", "2", "--qs=-1,-1")
    assert code == 0 and json.loads(out) == {"coeffs": ["1", "-2", "1"]}


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


def test_t_stack_with_huge_t_stops_once_sorted(capsys, monkeypatch):
    # n - 1 passes sort any permutation of [n], so t = 10**12 must run the
    # walk with n - 1 stacks; walking more would not finish
    walks = []
    real_walk = combinatorics._descent_walk

    def counted_walk(n, passes):
        walks.append((n, passes))
        return real_walk(n, passes)

    monkeypatch.setattr(combinatorics, "_descent_walk", counted_walk)
    for n, coeffs in ((1, ["1"]), (3, ["1", "4", "1"]), (5, ["1", "26", "66", "26", "1"])):
        walks.clear()
        code, out, _ = run_cli(capsys, "gen", "t_stack", "--n", str(n), "--t", "1000000000000")
        assert code == 0 and json.loads(out) == {"coeffs": coeffs}
        assert walks == [(n, n - 1)]


def test_enum_guard_env(capsys, monkeypatch):
    monkeypatch.setenv("POLYAFREQ_MAX_ENUM", "3")
    code, _, _ = run_cli(capsys, "gen", "t_stack", "--n", "5", "--t", "2")
    assert code == 2
    monkeypatch.setenv("POLYAFREQ_MAX_ENUM", "6")
    code, out, _ = run_cli(capsys, "gen", "t_stack", "--n", "5", "--t", "2")
    assert code == 0 and json.loads(out) == {"coeffs": ["1", "20", "49", "20", "1"]}


def test_enumeration_guard_is_a_usage_error(capsys, monkeypatch):
    """The S_n guard refuses a request as the other resource guards do: exit 2."""
    monkeypatch.delenv("POLYAFREQ_MAX_ENUM", raising=False)
    code, out, err = run_cli(capsys, "gen", "t_stack", "--n", "12", "--t", "1")
    assert (code, out, err) == (2, "", "usage error: S_12 enumeration exceeds guard 9\n")


def test_check_interlace_refuses_bad_input_in_either_order(capsys):
    not_real = "usage error: interlace relation needs real-rooted polynomials\n"
    for f, g, err_expected in (
        # x(x^2+1) and (x-1)(x^2+1): the index of x/(x-1) passes, x^2+1 is not real-rooted
        ('["0","1","0","1"]', '["-1","1","-1","1"]', not_real),
        ('["1","0","1"]', '["0","1"]', not_real),
        ("[]", '["0","1"]', "usage error: interlace relation needs nonzero polynomials\n"),
    ):
        for a, b in ((f, g), (g, f)):
            code, out, err = run_cli(capsys, "check", "interlace", f'{{"coeffs":{a}}}', f'{{"coeffs":{b}}}')
            assert (code, out, err) == (2, "", err_expected), (a, b)


def test_bad_flag_values_are_usage_errors(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "op", "multiplier-apply", '{"coeffs":["1","1"]}',
                           "--binom-negative", "x,1")
    assert code == 2 and "Traceback" not in err and "--binom-negative" in err
    code, out, err = run_cli(capsys, "check", "multiplier-n", "--gamma-shift", "1", "--n", "-3")
    assert code == 2 and out == "" and "Traceback" not in err and "--n" in err
    for argv, message in (
        (("gen", "t_stack", "--n", "0", "--t", "1"), "t_stack_poly needs n >= 1"),
        (("gen", "t_stack", "--n", "-2", "--t", "1"), "t_stack_poly needs n >= 1"),
        (("gen", "b_euler", "--n", "-3", "--q", "1/2"), "b_euler_multi needs n >= 0"),
        (("gen", "e_q", "--n=-1", "--q=-2"), "usage error: e_q_poly needs n >= 0"),
        # ZeroPolynomialError and NotRealRootedError are bad input, not failing verdicts
        (("check", "real-rooted", '{"coeffs":[]}'), "real-rootedness of zero polynomial"),
        (("check", "interlace", '{"coeffs":["1","0","1"]}', '{"coeffs":["1","1"]}'),
         "needs real-rooted polynomials"),
        (("op", "w", '{"coeffs":[]}'), "W-transform of zero polynomial"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "Traceback" not in err and message in err
    poly = '{"coeffs":["1","1"]}'
    for argv, flag in (
        (("gen", "b_euler", "--n", "3", "--q", "x"), "--q"),
        (("gen", "eulerian_t", "--n", "3", "--t", "1/0"), "--t"),
        (("gen", "b_euler_multi", "--n", "2", "--qs", "1,x"), "--qs"),
        (("gen", "p_bn_subset", "--n", "2", "--set", "0,y"), "--set"),
        (("gen", "p_bn_subset", "--n", "2", "--set", "0,1/2"), "--set"),
        (("check", "pf-minors", "--terms", "1,x"), "--terms"),
        (("check", "multiplier-n", "--n", "3", "--gamma-shift", "x"), "--gamma-shift"),
        (("check", "multiplier-n", "--n", "3", "--explicit", "1,x"), "--explicit"),
        (("op", "dot", poly, poly, "--alpha", "x", "--beta", "1"), "--alpha"),
        (("op", "dot", poly, poly, "--alpha", "1", "--beta", "x"), "--beta"),
        (("check", "interval", "--poly", poly, "--lo", "x", "--hi", "1"), "--lo"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "Traceback" not in err and flag in err, argv
    code, _, err = run_cli(capsys, "op", "multiplier-apply", poly, "--binom-negative", "2,x")
    assert code == 2 and "Traceback" not in err and "malformed rational" in err
    monkeypatch.setenv("POLYAFREQ_MAX_ENUM", "abc")
    for argv in (
        ("verify", "oracle-coherence"),
        ("verify", "thm-6-5", "--max-n", "1"),  # none of its cases reads the guard
        ("gen", "t_stack", "--n", "3", "--t", "1"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "Traceback" not in err and "POLYAFREQ_MAX_ENUM" in err
    monkeypatch.setenv("POLYAFREQ_MAX_ENUM", "0")
    code, _, err = run_cli(capsys, "gen", "t_stack", "--n", "3", "--t", "1")
    assert code == 2 and "POLYAFREQ_MAX_ENUM" in err


_P = '{"coeffs":["1","1"]}'


@pytest.mark.parametrize("argv, extra, message", [
    # argv is a valid query; argv + extra adds input that the entry does not read
    (("check", "unimodal", _P), ("--terms", "1,0,1"), "not both"),
    (("check", "pf-minors", "--terms", "1,2,1"), ("--poly", _P), "not both"),
    (("check", "multiplier-n", "--gamma-shift", "1", "--n", "3"), ("--poly", _P), "exactly 0 polynomial"),
    (("check", "real-rooted", _P), ("--lo", "0", "--hi", "1"), "does not read --lo, --hi"),
    (("check", "pf", "--poly", _P), ("--terms", "1,2"), "does not read --terms"),
    (("check", "simple", "--poly", _P), ("--all-ones",), "does not read --all-ones"),
    (("check", "interval", "--poly", _P, "--lo", "0", "--hi", "1"), ("--n", "0"), "does not read --n"),
    (("gen", "eulerian", "--n", "3"), ("--t", "1"), "does not read --t"),
    (("op", "e", _P), ("--offset", "0"), "does not read --offset"),
    (("op", "e", _P), ("--factorial-inverse",), "does not read --factorial-inverse"),
    (("op", "circ", _P, _P, "--alpha", "1"), ("--beta", "1"), "does not read --beta"),
])
def test_unread_input_is_a_usage_error(capsys, argv, extra, message):
    code, _, _ = run_cli(capsys, *argv)
    assert code in (0, 1), argv
    code, out, err = run_cli(capsys, *argv, *extra)
    assert code == 2 and out == "" and "Traceback" not in err and message in err, err
    # a positional polynomial ahead of the flags is read like --poly
    if extra[0] == "--poly":
        code, out, err = run_cli(capsys, *argv[:2], extra[1], *argv[2:])
        assert code == 2 and out == "" and message in err, err


def test_multisect_offset_defaults_to_zero(capsys):
    code, out, _ = run_cli(capsys, "op", "multisect", '{"coeffs":["1","4","6","4","1"]}', "--step", "2")
    assert code == 0 and json.loads(out) == {"coeffs": ["1", "6", "1"]}


_Q = '{"coeffs":["0","-1","1"]}'  # x^2 - x, roots 0 and 1


@pytest.mark.parametrize("argv, moved", [
    # the same query with the polynomials first, then after or between flags
    (("op", "multisect", _Q, "--step", "2"), ("op", "multisect", "--step", "2", _Q)),
    (("check", "interval", _Q, "--lo", "0", "--hi", "1"),
     ("check", "interval", "--lo", "0", "--hi", "1", _Q)),
    (("op", "dot", _P, _Q, "--alpha", "0", "--beta", "1"),
     ("op", "dot", _P, "--alpha", "0", _Q, "--beta", "1")),
    (("op", "dot", _P, _Q, "--alpha", "0", "--beta", "1"),
     ("op", "dot", "--alpha", "0", _P, "--beta", "1", _Q)),
])
def test_polynomial_after_a_flag(capsys, argv, moved):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out
    assert run_cli(capsys, *moved) == (code, out, "")


@pytest.mark.parametrize("argv", [
    ("op", "multisect", "--step", "2", _Q, "--bogus"),
    ("op", "multisect", "--step", "2", _Q, "-1/2"),
    ("gen", "eulerian", "--n", "3", _Q),
    ("verify", "chain-6", _Q),
])
def test_other_leftovers_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "unrecognized arguments" in err


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


@pytest.mark.parametrize("argv", [
    ("check", "pf-minors", "--terms", "1,,2"),
    ("check", "pf-minors", "--terms", "1,2,"),
    ("check", "pf-minors", "--terms", ""),
    ("check", "pf-minors", "--terms", " "),
    ("gen", "b_euler_multi", "--n", "2", "--qs", "1,,2"),
    ("gen", "p_bn_subset", "--n", "2", "--set", "0,,2"),
    ("gen", "p_bn_subset", "--n", "2", "--set", ""),
    ("check", "multiplier-n", "--n", "3", "--explicit", ""),
])
def test_empty_list_elements_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "Traceback" not in err and "without empty elements" in err


def test_pf_minors_guard(capsys, monkeypatch):
    """Windows that Neville elimination refuses and that have more than
    MAX_MINORS admissible minors, and, before the elimination runs, windows
    of more than MAX_ROWS rows from their first nonzero term on."""
    import polyafreq.pf as pf

    monkeypatch.setattr(pf, "_first_negative_minor", _no_minor_evaluated)
    refused = (
        # a_27 a_29 > a_28^2 at the foot of the window
        ("--terms", ",".join(["1"] * 29 + ["2"]), "--window", "30", "--order", "15"),
        # 1,023,022 admissible minors, 22 more than MAX_MINORS
        ("--terms", "1,3,4,3,1", "--window", "13", "--order", "7"),
    )
    for argv in refused:
        code, out, err = run_cli(capsys, "check", "pf-minors", *argv)
        assert code == 2 and out == ""
        assert "Traceback" not in err and "more than 1000000 admissible minors" in err
    # no list of the window's size is built: the elimination and the count
    # never see these windows
    monkeypatch.setattr(pf, "_neville_tn", _no_minor_evaluated)
    monkeypatch.setattr(pf, "_admissible_count", _no_minor_evaluated)
    for argv in (
        ("--terms", "1,1", "--window", "46", "--order", "2"),
        ("--terms", "0,1,1", "--window", "47", "--order", "2"),
        ("--terms", "1,1", "--window", "1000000000", "--order", "2"),
    ):
        code, out, err = run_cli(capsys, "check", "pf-minors", *argv)
        assert code == 2 and out == ""
        assert "Traceback" not in err and "more than 45 rows" in err


def test_cor_6_10_guard(capsys):
    # about 2^42 subset cases: the guard refuses before building any
    code, out, err = run_cli(capsys, "verify", "cor-6-10", "--max-n", "40")
    assert code == 2 and out == ""
    assert "Traceback" not in err and "more than" in err


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_verify_at_small_max_n_exits_with_a_verdict(capsys, suite):
    for k in ("1", "2", "3"):
        code, out, err = run_cli(capsys, "verify", suite, "--max-n", k)
        assert code in (0, 1) and out and "Traceback" not in err, (suite, k)


# -- the parser `main` builds once and reuses ----------------------------------------

_R = '{"coeffs":["2","3","1"]}'  # (1 + x)(2 + x)

#: Usage errors, help, polynomials after flags, and in each verb a good
#: query after a failed one.
_SEQUENCE = (
    ("--help",),
    (),
    ("bogus",),
    ("gen", "--help"),
    ("gen", "nope", "--n", "3"),
    ("gen", "eulerian"),
    ("gen", "eulerian", "--n", "x"),
    ("gen", "eulerian", "--n", "3", _Q),
    ("gen", "eulerian", "--n", "4"),
    ("gen", "t_stack", "--n", "3", "--t", "1/2"),
    ("gen", "eulerian_t", "--n", "4", "--t=-1"),
    ("check", "--help"),
    ("check", "real-rooted"),
    ("check", "real-rooted", _R, "--bogus"),
    ("check", "real-rooted", '{"coeffs":[]}'),
    ("check", "real-rooted", _R),
    ("check", "interval", "--lo", "0", "--hi", "1", _Q),
    ("check", "pf", "--poly", '{"coeffs":["1","1","1"]}'),
    ("check", "pf-minors", "--terms", "1,3,3,1", "--order", "0"),
    ("check", "pf-minors", "--terms", "1,1,0,1", "--window", "4", "--order", "2"),
    ("check", "unimodal", _P, "--terms", "1,0,1"),
    ("check", "unimodal", "--terms", "1,0,1"),
    ("op", "--help"),
    ("op", "multisect", "--step", "2", _Q, "--bogus"),
    ("op", "multisect", "--step", "2", _Q),
    ("op", "dot", "--alpha", "0", _P, "--beta", "1", _Q),
    ("op", "e", _P, "--offset", "0"),
    ("op", "e", _P),
    ("transform", "--help"),
    ("transform", "w", '{"coeffs":[]}'),
    ("transform", "w", _R),
    ("verify", "--help"),
    ("verify", "nope"),
    ("verify", "chain-6", "--max-n", "0"),
    ("verify", "chain-6", _Q),
    ("verify", "thm-6-5", "--max-n", "2", "--csv"),  # a JSON report times itself
    ("verify", "cor-6-10", "--max-n", "2", "--csv"),
)


def test_reused_parser_matches_a_parser_per_call(capsys):
    """Each argv runs through the route that built a parser per call, then
    through `main`; exit code, stdout and stderr agree call by call."""
    codes = set()
    for argv in _SEQUENCE:
        expected = run_cli(capsys, *argv, entry=cli_oracle.main)
        assert run_cli(capsys, *argv) == expected, argv
        codes.add(expected[0])
    assert codes == {0, 1, 2}


def test_main_builds_the_parser_once(capsys, monkeypatch):
    run_cli(capsys, "gen", "eulerian", "--n", "3")
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in (
        ("gen", "eulerian", "--n", "3"),
        ("check", "real-rooted", _R),
        ("op", "e", _P),
        ("verify", "thm-6-5", "--max-n", "2"),
        ("gen", "--help"),
        ("gen", "nope"),
    ):
        run_cli(capsys, *argv)
    assert built == []
    cli.build_parser()
    assert built  # the count sees a parser being built


def test_dispatch_reads_rebound_entries(capsys, monkeypatch):
    """Rebinding a module attribute after the parser is built, as the
    benchmark tracer does, reaches the next query."""
    assert run_cli(capsys, "check", "real-rooted", _R)[0] == 0
    assert run_cli(capsys, "op", "reflect", _P)[0] == 0
    seen = []

    def refuse(f):
        seen.append(f)
        return False

    monkeypatch.setattr(cli, "is_real_rooted", refuse)
    code, out, _ = run_cli(capsys, "check", "real-rooted", _R)
    assert code == 1 and json.loads(out)["verdict"] is False and len(seen) == 1
    monkeypatch.setattr(cli, "e_transform", lambda f: Poly([7]))
    assert run_cli(capsys, "op", "e", _P) == (0, '{"coeffs":["7"]}\n', "")
    operations = cli._operations
    monkeypatch.setattr(cli, "_operations", lambda: {**operations(), "reflect": (lambda f: Poly([5]), 1, ())})
    assert run_cli(capsys, "op", "reflect", _P) == (0, '{"coeffs":["5"]}\n', "")
