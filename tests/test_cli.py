import ast
import dataclasses
import json
import pathlib
import subprocess
import sys
import time

import pytest

from conftest import package_env
from dworkgm import arrangement, syzygy, weyl
from dworkgm.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_json_gamma(capsys):
    code, out, _ = run_cli(capsys, "report", "--weights", "1,1,1,1,1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["gamma"] == "1/3125"
    assert doc["g_block"]["rank"] == 4


def test_weyl_indicial_roots(capsys):
    code, out, _ = run_cli(capsys, "weyl", "indicial", "--op", "D - 1/2",
                           "--place", "zero", "--json")
    assert code == 0
    assert json.loads(out)["roots"] == ["1/2"]


def test_weyl_parse_and_ft(capsys):
    code, out, _ = run_cli(capsys, "weyl", "parse", "--op", "d*t")
    assert code == 0 and out.strip() == "t*d + 1"
    code, out, _ = run_cli(capsys, "weyl", "ft", "--op", "D", "--json")
    assert json.loads(out)["image"] == "-t*d - 1"


def test_hyp_subcommand(capsys):
    code, out, _ = run_cli(capsys, "hyp", "exponents", "--gamma", "1/432",
                           "--alpha", "0,0", "--beta", "1/6,5/6", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["exponents_zero"] == ["1", "1"]
    assert doc["exponents_infinity"] == ["1/6", "5/6"]
    code, out, _ = run_cli(capsys, "hyp", "irreducible", "--gamma", "1",
                           "--alpha", "1/2", "--beta", "3/2", "--json")
    assert json.loads(out)["irreducible"] is False


def test_syzygy_subcommand(capsys):
    code, out, _ = run_cli(capsys, "syzygy", "--weights", "1,1,1",
                           "--bound", "8", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] and doc["generation"]["generated"]


def test_syzygy_subcommand_builds_the_generators_once(capsys, monkeypatch):
    from dworkgm import syzygy
    calls = {"jacobian_generators": 0, "_failing_fields": 0}

    def counting(name):
        real = getattr(syzygy, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(syzygy, name, counting(name))
    code, _, _ = run_cli(capsys, "syzygy", "--weights", "1,1,1", "--bound", "8")
    assert code == 0
    # one packed pass checks the identities and every vector it prints
    assert calls == {"jacobian_generators": 1, "_failing_fields": 1}


def test_syzygy_subcommand_rejects_a_non_syzygy(capsys, monkeypatch):
    from dworkgm import syzygy
    real = syzygy._syzygy_checks

    def broken(weights):
        (first, *rest), identities = real(weights)
        doubled = [{k: 2 * v for k, v in first[0].items()}] + first[1:]
        return [doubled, *rest], identities

    monkeypatch.setattr(syzygy, "_syzygy_checks", broken)
    code, out, err = run_cli(capsys, "syzygy", "--weights", "1,1,1", "--bound", "8")
    assert code == 3 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "InvariantError" and "not syzygies" in error["message"]


def test_numbers_beyond_the_default_int_string_limit(capsys):
    big = "1" + "0" * 4400
    code, out, _ = run_cli(capsys, "weyl", "parse", "--op", f"{big}*d")
    assert code == 0 and out == f"{big}*d\n"
    sevens = "7" * 4400
    code, out, _ = run_cli(capsys, "hyp", "exponents", "--gamma", f"1/{sevens}",
                           "--alpha", "0", "--beta", "1/2", "--json")
    assert code == 0
    assert json.loads(out) == {"hyp": f"Hyp(gamma=1/{sevens}; alpha=[1]; beta=[1/2])",
                               "exponents_zero": ["1"], "exponents_infinity": ["1/2"]}


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no limit on int-to-text conversion")
def test_main_restores_the_digit_limit(capsys):
    # main lifts the limit for its command only, also when argparse exits
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert main(["weyl", "parse", "--op", "d"]) == 0
        assert sys.get_int_max_str_digits() == 5000
        with pytest.raises(SystemExit):
            main(["frobnicate"])
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)
    capsys.readouterr()


def test_arrangement_subcommand(capsys):
    code, out, _ = run_cli(capsys, "arrangement", "--n", "3",
                           "--weights", "1,1,1,1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["projective_arrangement_consistent"] is True
    assert doc["milnor"] == {"-2": 1, "-1": 3, "0": 6}


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_arrangement_refuses_n_below_2(capsys, n):
    code, out, err = run_cli(capsys, "arrangement", "--n", n)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": {
        "type": "ValueError", "message": f"--n must be at least 2, got {n}"}}


@pytest.mark.parametrize("n, weights", [("2", "1,1,1,1"), ("3", "1,1"),
                                        ("3", "1,1,1,1,1")])
def test_arrangement_refuses_weights_of_another_dimension(capsys, n, weights):
    code, out, err = run_cli(capsys, "arrangement", "--n", n, "--weights", weights)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": {
        "type": "ValueError",
        "message": f"--weights must have n + 1 = {int(n) + 1} entries, "
                   f"got {len(weights.split(','))}"}}


def test_check_passes(capsys):
    code, out, _ = run_cli(capsys, "check", "--weights", "1,2,3")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert lines and all(l.startswith("PASS") for l in lines)


def test_check_with_sixty_weights_passes(capsys):
    # the Moebius oracle over all subsets of 60 hyperplanes would never end
    code, out, err = run_cli(capsys, "check", "--weights", ",".join(["1"] * 60))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines and all(line.startswith("PASS ") for line in lines)
    assert "PASS projective_arrangement_oracle" in lines


def test_check_sweep_checks_each_tuple_as_it_is_built(capsys, monkeypatch):
    from dworkgm import dwork
    events = []
    build = dwork.Weights

    def recorded_build(t):
        events.append(("built", t))
        return build(t)

    def recorded_checks(w):
        events.append(("checked", w.w))
        return {"ok": True}

    monkeypatch.setattr(dwork, "Weights", recorded_build)
    monkeypatch.setattr(dwork, "consistency_checks", recorded_checks)
    code, out, _ = run_cli(capsys, "check", "--sweep", "2,2")
    assert code == 0
    tuples = [t for kind, t in events if kind == "checked"]
    assert len(tuples) == 10
    assert events == [(kind, t) for t in tuples for kind in ("built", "checked")]
    assert out.splitlines() == [f"PASS [{','.join(map(str, t))}] ok" for t in tuples]


def test_check_sweep(capsys):
    code, out, _ = run_cli(capsys, "check", "--sweep", "1,2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] and len(doc["sweep"]) == 3


def test_determinism_same_bytes(capsys):
    _, first, _ = run_cli(capsys, "report", "--weights", "2,1,3", "--json")
    _, second, _ = run_cli(capsys, "report", "--weights", "2,1,3", "--json")
    assert first == second
    # permutation of the weights yields the same document
    _, permuted, _ = run_cli(capsys, "report", "--weights", "1,2,3", "--json")
    assert permuted == first


def test_domain_error_exit_code_and_object(capsys):
    code, out, err = run_cli(capsys, "weyl", "parse", "--op", "t +")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "ParseError"
    code, _, err = run_cli(capsys, "report", "--weights", "1,0")
    assert code == 1
    assert "error" in json.loads(err)


def test_syzygy_refuses_an_over_limit_family_before_expanding_it(capsys):
    # d = 2^15: refused before sigma^16384 is built, which would take minutes
    code, out, err = run_cli(capsys, "syzygy", "--weights", "16384,16383,1")
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError"
    assert "32768" in error["message"]


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_syzygy_refuses_checks_past_the_key_limit(capsys, json_flag):
    # d = 2^15 - 1 builds f, but the checks reach degree d + 1 = 2^15.  The
    # weight sum is refused before the bound, byte for byte, whether the
    # bound is the key limit less one, the default d + 4, below d or at the
    # key limit, and also where d itself is past the limit
    cases = [("32766,1", ["--bound", "32767"]), ("32766,1", []),
             ("32766,1", ["--bound", "5"]), ("32766,1", ["--bound", "32768"]),
             ("40000,1", ["--bound", "5"])]
    for weights, bound in cases:
        code, out, err = run_cli(capsys, "syzygy", "--weights", weights,
                                 *bound, *json_flag)
        d = sum(map(int, weights.split(",")))
        assert code == 1
        assert out == ""
        assert err == ('{"error": {"type": "ValueError", "message": "weight '
                       f'sum d = {d}: the syzygy checks reach degree d + 1, '
                       'which must be below 32768"}}\n')


def test_weyl_parse_refuses_deep_nesting(capsys):
    code, out, err = run_cli(capsys, "weyl", "parse", "--op",
                             "(" * 101 + "t" + ")" * 101)
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ParseError"
    assert error["message"] == ("parentheses nested deeper than 100 levels"
                                " (at position 100)")


def test_syzygy_refuses_a_bound_at_the_key_limit(capsys):
    code, out, err = run_cli(capsys, "syzygy", "--weights", "1,1", "--bound",
                             "32768", "--json")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError"
    assert error["message"] == "degree bound 32768 is not below 32768"


def test_invariant_failure_has_its_own_exit_code(capsys, monkeypatch):
    from dworkgm import syzygy

    assert not issubclass(syzygy.InvariantError, (ValueError, ArithmeticError))
    real_l_poly = syzygy.l_poly
    monkeypatch.setattr(syzygy, "l_poly", lambda w, i: real_l_poly(w, i) * 2)
    code, out, err = run_cli(capsys, "syzygy", "--weights", "1,1,1")
    assert code == 3
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "InvariantError"
    assert "Koszul quotient" in error["message"]


@pytest.mark.parametrize("error", [KeyError("g_block"), RecursionError("too deep")])
def test_any_other_exception_is_an_internal_failure(capsys, monkeypatch, error):
    from dworkgm import dwork

    def broken(w):
        raise error

    monkeypatch.setattr(dwork, "full_report", broken)
    code, out, err = run_cli(capsys, "report", "--weights", "1,2,3")
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    doc = json.loads(err)["error"]
    assert doc["type"] == type(error).__name__
    assert doc["message"] == str(error)
    assert doc["traceback"].endswith(f"{type(error).__name__}: {error}\n")
    assert "in broken" in doc["traceback"]


def test_weyl_parse_refuses_a_non_decimal_digit(capsys):
    code, out, err = run_cli(capsys, "weyl", "parse", "--op", "t^²")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": {
        "type": "ParseError", "message": "unexpected character '²' (at position 2)"}}


def test_weyl_parse_refuses_a_power_above_the_limit(capsys):
    start = time.process_time()
    code, out, err = run_cli(capsys, "weyl", "parse", "--op", "d^1000000000")
    assert time.process_time() - start < 0.5
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": {
        "type": "ParseError",
        "message": "exponent 1000000000 is above the limit 4096 (at position 2)"}}


def test_weyl_parse_refuses_a_power_above_the_work_limit(capsys):
    start = time.process_time()
    code, out, err = run_cli(capsys, "weyl", "parse", "--op", "(d+t)^4096")
    assert time.process_time() - start < 0.5
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": {
        "type": "ParseError",
        "message": "exponent 4096 on this base is above the work limit 1000000"
                   " (at position 6)"}}


# -- failure lines, forced by a broken Weyl kernel -----------------------------------

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def leibniz_without_its_last_term(acc, n, a, b, t_shift, d_shift):
    """weyl._leibniz that drops the last term of every expansion with more
    than one: d*t comes out as t*d."""
    terms = a + 1 if b < 0 else min(a, b) + 1
    for j in range(max(terms - 1, 1)):
        row = acc.setdefault(a - j + d_shift, {})
        row[b - j + t_shift] = row.get(b - j + t_shift, 0) + n
        n = n * (a - j) * (b - j) // (j + 1)


def euler_step_off_by_one(r, a, b):
    """weyl._times_euler whose running multiplier is a*(j+1) + b: the Moebius
    map becomes its conjugate by a power of t, still an involution."""
    return ([(a + b) * r[0]]
            + [a * r[j - 1] + (a * (j + 1) + b) * r[j] for j in range(1, len(r))]
            + [a * r[-1]])


def euler_step_with_a_stale_carry(r, a, b):
    """weyl._times_euler whose carried entry stays r_0."""
    return ([b * r[0]] + [a * r[0] + (a * j + b) * r[j] for j in range(1, len(r))]
            + [a * r[-1]])


def rising_sum_with_a_stale_carry(part, c):
    """weyl._rising_sum whose carried entry stays r_0."""
    top = max(part)
    r = [part[top]]
    for i in range(top - 1, -1, -1):
        r = ([(c + i) * r[0] + part.get(i, 0)]
             + [r[0] + (c + i + j) * r[j] for j in range(1, len(r))] + [r[-1]])
    return r


def rising_sum_off_by_one(part, c, rising_sum=weyl._rising_sum):
    """weyl._rising_sum whose multiplier for r_j is c + i + j + 1: the
    rising products start one factor late."""
    return rising_sum(part, c + 1)


def fourier_without_its_inverse(op, direction="forward", forward=weyl.fourier):
    """weyl.fourier that runs the forward map in either direction: still a
    ring map, but no longer inverted by "inverse"."""
    return forward(op)


def test_report_prints_its_failed_checks(capsys, monkeypatch):
    monkeypatch.setattr(weyl, "_rising_sum", rising_sum_with_a_stale_carry)
    code, out, err = run_cli(capsys, "report", "--weights", "1,2,3")
    assert code == 1 and err == ""
    golden = (GOLDEN / "report_weights_1_2_3.txt").read_text().splitlines()
    assert golden[-1] == "checks       : all passed"
    assert out.splitlines() == golden[:-1] + ["checks       : FAILED ['fourier_pair']"]


# P and Q are built by _times_euler and checked by fourier, which runs
# _rising_sum; products run _leibniz, which the Fourier ring map sets
# against _rising_sum.  So each broken kernel fails at least one check.
@pytest.mark.parametrize("kernel, broken, failed", [
    ("_leibniz", leibniz_without_its_last_term,
     ["weyl_ring_laws", "weyl_fourier_ring_map"]),
    ("_times_euler", euler_step_with_a_stale_carry, ["fourier_pair"]),
    ("_times_euler", euler_step_off_by_one,
     ["indicial_zero", "indicial_infinity", "fourier_pair"]),
    ("_rising_sum", rising_sum_with_a_stale_carry,
     ["fourier_pair", "weyl_fourier_ring_map", "weyl_mobius_involution"]),
    ("_rising_sum", rising_sum_off_by_one,
     ["fourier_pair", "weyl_fourier_ring_map", "weyl_mobius_involution"]),
    ("fourier", fourier_without_its_inverse, ["weyl_fourier_ring_map"]),
], ids=["leibniz", "times_euler", "times_euler_off_by_one", "rising_sum",
        "rising_sum_off_by_one", "fourier_inverse"])
def test_check_prints_its_failed_checks(capsys, monkeypatch, kernel, broken, failed):
    monkeypatch.setattr(weyl, kernel, broken)
    code, out, err = run_cli(capsys, "check", "--weights", "1,2,3")
    assert code == 1 and err == ""
    golden = (GOLDEN / "check_weights_1_2_3.txt").read_text().splitlines()
    expected = [f"FAIL {line[5:]}" if line[5:] in failed else line for line in golden]
    assert out.splitlines() == expected + ["some checks FAILED"]
    assert sum(line.startswith("FAIL ") for line in expected) == len(failed)


def rising_sum_broken(monkeypatch):
    monkeypatch.setattr(weyl, "_rising_sum", rising_sum_with_a_stale_carry)


def generation_table_with_a_mismatch(monkeypatch):
    """syzygy._generation_table whose last row counts one generated syzygy
    more than there are syzygies."""
    real = syzygy._generation_table

    def mismatched(w, bound):
        vectors, table = real(w, bound)
        last = table[-1]
        return vectors, table[:-1] + [
            dataclasses.replace(last, generated_dim=last.syzygy_dim + 1)]

    monkeypatch.setattr(syzygy, "_generation_table", mismatched)


def projective_table_off_by_one(monkeypatch):
    real = arrangement.projective_arrangement_dims
    monkeypatch.setattr(arrangement, "projective_arrangement_dims",
                        lambda n: {i: v + 1 for i, v in real(n).items()})


# each subcommand that prints a verdict exits 1 when it is false, in text
# and in JSON, with nothing on stderr: the verdict is no error object
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("argv, force_false, verdict", [
    (["report", "--weights", "1,2,3"], rising_sum_broken,
     lambda doc: all(doc["checks"].values())),
    (["check", "--weights", "1,2,3"], rising_sum_broken,
     lambda doc: doc["passed"]),
    (["syzygy", "--weights", "1,1,1", "--bound", "8"],
     generation_table_with_a_mismatch, lambda doc: doc["generation"]["generated"]),
    (["arrangement", "--n", "3"], projective_table_off_by_one,
     lambda doc: doc["projective_arrangement_consistent"]),
], ids=["report", "check", "syzygy", "arrangement"])
def test_a_false_verdict_exits_1(capsys, monkeypatch, argv, force_false, verdict,
                                 json_flag):
    for forced, expected in [(False, 0), (True, 1)]:
        if forced:
            force_false(monkeypatch)
        code, out, err = run_cli(capsys, *argv, *json_flag)
        assert code == expected and out and err == ""
        if json_flag:
            assert verdict(json.loads(out)) is not forced


def test_every_subcommand_returns_through_emit():
    # _emit is the one place that turns a printed verdict into an exit code
    cli = pathlib.Path(__file__).resolve().parents[1] / "src" / "dworkgm" / "cli.py"
    handlers = [node for node in ast.parse(cli.read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
    assert len(handlers) == 6
    for handler in handlers:
        returns = [node for node in ast.walk(handler) if isinstance(node, ast.Return)]
        assert returns, handler.name
        for node in returns:
            call = node.value
            assert (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == "_emit"), (handler.name, node.lineno)
        prints = [node for node in ast.walk(handler) if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name) and node.func.id == "print"]
        # check streams one PASS/FAIL line per check as each tuple is checked
        assert len(prints) == (1 if handler.name == "_cmd_check" else 0), handler.name


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report"])  # missing --weights
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,error", [
    (["weyl", "parse", "--op=--"], "ParseError"),
    (["report", "--weights=--"], "ValueError"),
    (["syzygy", "--weights=--", "--bound", "3"], "ValueError"),
])
def test_a_dash_dash_value_is_a_domain_error(capsys, argv, error):
    # argparse before Python 3.12 hands --opt=-- over as [] (the '--' is
    # stripped); report and syzygy used to fail on it with exit 3
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == error


def test_check_has_no_seed_option(capsys):
    # the randomized property sweeps of check run at one fixed seed
    with pytest.raises(SystemExit) as exc:
        main(["check", "--weights", "1,2,3", "--seed", "1"])
    assert exc.value.code == 2


def test_check_needs_weights_or_sweep(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith("error: check needs --weights or --sweep")


@pytest.mark.parametrize("sweep", ["a,b", "3", "1,2,3", "0,4", "2,0"])
def test_bad_sweep_is_usage_error(sweep):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--sweep", sweep])
    assert exc.value.code == 2


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "dworkgm.cli", "report", "--weights", "1,2",
         "--json"],
        capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["gamma"] == "4/27"


def test_package_runs_as_a_module():
    ok = subprocess.run(
        [sys.executable, "-m", "dworkgm", "report", "--weights", "1,2", "--json"],
        capture_output=True, text=True, env=package_env())
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["gamma"] == "4/27"
    # the module passes main()'s exit code on: a domain error exits 1
    bad = subprocess.run(
        [sys.executable, "-m", "dworkgm", "report", "--weights", "0,1"],
        capture_output=True, text=True, env=package_env())
    assert bad.returncode == 1 and bad.stdout == ""


# A child Python in which the test extra cannot be imported, the way a plain
# `pip install dworkgm` leaves it; argv follows the script.
_WITHOUT_TEST_EXTRA = """\
import runpy, sys

class RefuseTestExtra:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("sympy", "numpy", "hypothesis"):
            raise ImportError(f"{name} is not a runtime dependency")

sys.meta_path.insert(0, RefuseTestExtra())
sys.argv[0] = "dworkgm"
runpy.run_module("dworkgm", run_name="__main__")
"""


@pytest.mark.parametrize("argv, expected", [
    (["report", "--weights", "2,4,6", "--json"], '"e": 2'),
    # a quartic with no rational root reaches the Zassenhaus factoriser
    (["weyl", "indicial", "--op", "D^4 + 3*D^2 + 2"],
     "irreducible factors: ['s^2 + 1', 's^2 + 2']"),
])
def test_cli_runs_without_the_test_extra(argv, expected, capsys):
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_TEST_EXTRA, *argv],
                          capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
    assert (0, proc.stdout) == run_cli(capsys, *argv)[:2]
