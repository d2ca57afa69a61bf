import json
import subprocess
import sys

import pytest

from conftest import package_env
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
    calls = {"jacobian_generators": 0, "verify_syzygies": 0}

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
    assert calls == {"jacobian_generators": 1, "verify_syzygies": 1}


def test_syzygy_subcommand_rejects_a_non_syzygy(capsys, monkeypatch):
    from dworkgm import syzygy
    real = syzygy.syzygy_generators

    def broken(w, _gens=None):
        first, *rest = real(w, _gens=_gens)
        doubled = (first.components[0] + first.components[0],) + first.components[1:]
        return [syzygy.SyzygyVector(doubled, first.kind)] + rest

    monkeypatch.setattr(syzygy, "syzygy_generators", broken)
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


def test_arrangement_subcommand(capsys):
    code, out, _ = run_cli(capsys, "arrangement", "--n", "3",
                           "--weights", "1,1,1,1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["projective_arrangement_consistent"] is True
    assert doc["milnor"] == {"-2": 1, "-1": 3, "0": 6}


def test_check_passes(capsys):
    code, out, _ = run_cli(capsys, "check", "--weights", "1,2,3")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert lines and all(l.startswith("PASS") for l in lines)


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


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report"])  # missing --weights
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


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
