"""Golden output: every command line of the README "Command line" block,
and the pinned non-primitive commands in ``PINNED``, run in-process, must
reproduce the recorded stdout bytes and exit code.

Regenerate the recordings (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py --write

The stdout of ``dworkgm check --sweep 4,5`` is pinned by its sha256 alone,
in ``golden/check_sweep_4_5.sha256``, which CI checks; re-record it with

    PYTHONPATH=src python -m dworkgm check --sweep 4,5 > check_sweep_4_5.txt
    sha256sum check_sweep_4_5.txt > tests/golden/check_sweep_4_5.sha256

The two largest benchmark ladder reports, ``report --weights 97,53,1 --json``
and ``report --weights 200,1 --json`` (up to half a megabyte), and the ladder's
non-primitive report ``report --weights 60,40,20 --json`` (e = 20), are pinned
the same way, listed in ``SHA256_PINNED`` and checked here in-process and by
CI; re-record one with

    PYTHONPATH=src python -m dworkgm report --weights 200,1 --json > report_weights_200_1_json.txt
    sha256sum report_weights_200_1_json.txt > tests/golden/report_weights_200_1_json.sha256
"""

import contextlib
import hashlib
import io
import pathlib
import re
import shlex
import sys

import pytest

from dworkgm.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.txt"
PINNED_EXIT_CODES = GOLDEN / "pinned_exit_codes.txt"

# No README command has a non-primitive tuple; these pin the path a tuple
# with gcd > 1 takes through the report and the checks.
PINNED = [
    ["report", "--weights", "2,4,6", "--json"],
    ["check", "--weights", "2,4,6"],
    # the first non-primitive tuple with n = 3
    ["report", "--weights", "2,2,4,4", "--json"],
    ["check", "--weights", "2,2,4,4"],
    # every degree of the syzygy table, the zero rows below d - 1 included
    ["syzygy", "--weights", "60,2,1,1", "--bound", "66", "--json"],
    # the one n = 4 tuple the oracle runs at a bound above d
    ["syzygy", "--weights", "6,5,4,3,2", "--bound", "22", "--json"],
    # the widest fields of the packed syzygy checks: binomials of 70
    ["syzygy", "--weights", "70,1,1", "--bound", "74", "--json"],
    ["syzygy", "--weights", "40,1,1,1", "--bound", "45", "--json"],
    # the first n = 5 tuple: monomial codes of four digits
    ["syzygy", "--weights", "2,1,1,1,1,1", "--bound", "9", "--json"],
]

# the ladder rungs of bench/workloads.py that have no digest in
# bench/ladder_digests.json
SHA256_PINNED = [
    ["report", "--weights", "97,53,1", "--json"],
    ["report", "--weights", "200,1", "--json"],
    ["report", "--weights", "60,40,20", "--json"],
]


def readme_commands() -> list[list[str]]:
    """The argv of every `dworkgm` line in the README "Command line" block."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\s+```sh\n(.*?)```", text, re.S).group(1)
    commands = []
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        if argv:
            assert argv[0] == "dworkgm"
            commands.append(argv[1:])
    return commands


def slug(argv: list[str]) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", " ".join(argv)).strip("_")


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def recorded_exit_codes(path: pathlib.Path = EXIT_CODES) -> dict[str, int]:
    pairs = (line.split() for line in path.read_text().splitlines())
    return {name: int(code) for name, code in pairs}


def test_readme_block_has_twelve_commands():
    commands = readme_commands()
    assert len(commands) == 12
    assert set(map(slug, commands)) == set(recorded_exit_codes())


@pytest.mark.parametrize("argv", readme_commands() + PINNED, ids=slug)
def test_golden_output(argv):
    code, out = run(argv)
    expected = (GOLDEN / f"{slug(argv)}.txt").read_bytes()
    assert out.encode() == expected
    codes = {**recorded_exit_codes(), **recorded_exit_codes(PINNED_EXIT_CODES)}
    assert code == codes[slug(argv)]


@pytest.mark.parametrize("argv", SHA256_PINNED, ids=slug)
def test_sha256_pinned_output(argv):
    code, out = run(argv)
    digest, name = (GOLDEN / f"{slug(argv)}.sha256").read_text().split()
    assert name == f"{slug(argv)}.txt"
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def write_goldens() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for commands, path in ((readme_commands(), EXIT_CODES),
                           (PINNED, PINNED_EXIT_CODES)):
        codes = []
        for argv in commands:
            code, out = run(argv)
            (GOLDEN / f"{slug(argv)}.txt").write_bytes(out.encode())
            codes.append(f"{slug(argv)} {code}\n")
        path.write_text("".join(codes))


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    write_goldens()
