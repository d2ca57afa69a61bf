"""Property tests of the command line, run in-process through ``cli.main``.

Every input gets an exit code of 0, 1 or 2.  On exit 1 stderr holds exactly
one JSON error object; for ``weyl parse`` it is a ``ParseError``.
"""

import contextlib
import io
import json
import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from dworkgm.cli import main


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def error_object(err):
    lines = err.splitlines()
    assert len(lines) == 1, err
    error = json.loads(lines[0])["error"]
    assert set(error) == {"type", "message"}
    return error


# the grammar's alphabet, a superscript digit (not decimal), an
# ARABIC-INDIC DIGIT THREE (decimal) and a space
ALPHABET = list("0123456789tdD+-*^()/") + ["²", "٣", " "]
# words of the same alphabet, so that many drawn texts parse
WORDS = ["t", "d", "D", "+", "-", "*", "(", ")", " ", "²", "٣", "3", "1/2",
         "^2", "^9", "^-1", "t^-3", "(d+t)", "*D", "/"]
op_texts = st.one_of(
    st.text(ALPHABET, max_size=24),
    st.lists(st.sampled_from(WORDS), max_size=12).map("".join)
    .filter(lambda text: len(text) <= 24))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(["parse", "ft", "indicial", "singular"]),
       op_texts, st.booleans())
def test_weyl_front_end_exit_codes(action, text, as_json):
    # one-digit exponents, and at most one on a parenthesised base:
    # (d+t)^n costs about n^3, and nested powers multiply
    assume(not re.search(r"\^\s*-?\s*[0-9٣]{2}", text))
    assume(len(re.findall(r"\)\s*\^", text)) <= 1)
    code, out, err = run(["weyl", action, f"--op={text}"] + ["--json"] * as_json)
    assert code in (0, 1, 2), (code, err)
    if code == 0:
        assert out and err == ""
    elif code == 1:
        error = error_object(err)
        if action == "parse":
            assert error["type"] == "ParseError", error


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 300), st.booleans())
def test_arrangement_exit_codes(n, as_json):
    code, out, err = run(["arrangement", "--n", str(n)] + ["--json"] * as_json)
    assert code in (0, 1, 2), (code, err)
    if code == 0:
        assert out and err == ""
    elif code == 1:
        assert n == 1  # no hyperplane arrangement in dimension 0
        error_object(err)
