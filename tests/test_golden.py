"""Golden output: every command line of the README "Command line" block,
run in-process, must reproduce the recorded stdout bytes and exit code.

Regenerate the recordings (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
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


def recorded_exit_codes() -> dict[str, int]:
    pairs = (line.split() for line in EXIT_CODES.read_text().splitlines())
    return {name: int(code) for name, code in pairs}


def test_readme_block_has_twelve_commands():
    commands = readme_commands()
    assert len(commands) == 12
    assert set(map(slug, commands)) == set(recorded_exit_codes())


@pytest.mark.parametrize("argv", readme_commands(), ids=slug)
def test_golden_output(argv):
    code, out = run(argv)
    expected = (GOLDEN / f"{slug(argv)}.txt").read_bytes()
    assert out.encode() == expected
    assert code == recorded_exit_codes()[slug(argv)]


def write_goldens() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = []
    for argv in readme_commands():
        code, out = run(argv)
        (GOLDEN / f"{slug(argv)}.txt").write_bytes(out.encode())
        codes.append(f"{slug(argv)} {code}\n")
    EXIT_CODES.write_text("".join(codes))


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    write_goldens()
