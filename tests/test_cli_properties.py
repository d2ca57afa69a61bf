"""Property tests of the command line, run in-process through ``cli.main``.

Every input gets an exit code of 0, 1 or 2.  On exit 1 stderr holds exactly
one JSON error object; for ``weyl parse`` it is a ``ParseError``, for
``syzygy``, ``report`` and ``check`` a ``ValueError``, and for ``hyp`` a
``ValueError`` or a ``ZeroDivisionError``.
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
        if as_json:
            assert json.loads(out)["projective_arrangement_consistent"] is True
    elif code == 1:
        assert n == 1  # no hyperplane arrangement in dimension 0
        error_object(err)


# weight entries, well formed or not: "٣" is a decimal digit int() reads,
# "²" is not; an empty entry between commas is skipped
WEIGHT_WORDS = ["0", "1", "2", "3", "-1", "٣", "²", "", " ", "x", "1.5", "+2"]
weight_texts = st.one_of(
    st.lists(st.integers(1, 3).map(str), min_size=2, max_size=5).map(",".join),
    st.lists(st.sampled_from(WEIGHT_WORDS), max_size=5).map(",".join))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(weight_texts, st.one_of(st.none(), st.integers(-3, 16)), st.booleans())
def test_syzygy_exit_codes(weights, bound, as_json):
    # small weights and bounds: n <= 4 and w_i <= 3 keep each oracle fast
    argv = ["syzygy", f"--weights={weights}"]
    if bound is not None:
        argv.append(f"--bound={bound}")
    code, out, err = run(argv + ["--json"] * as_json)
    assert code in (0, 1, 2), (code, err)
    if code == 0:
        assert out and err == ""
        if as_json:
            doc = json.loads(out)
            assert doc["verified"] and doc["generation"]["generated"]
    elif code == 1:
        assert out == ""
        assert error_object(err)["type"] == "ValueError"


def assert_exit(code, out, err, error_types):
    """Exit 0 prints and is silent on stderr; exit 1 prints nothing and
    writes exactly one error object of one of error_types."""
    assert code in (0, 1, 2), (code, err)
    if code == 0:
        assert out and err == ""
    elif code == 1:
        assert out == ""
        assert error_object(err)["type"] in error_types, err


# weight strings over digits, commas, signs and spaces: at most 4 entries,
# each a plain value of at most 6, or an optional run of signs and spaces,
# then perhaps a value of at most 6 with perhaps a leading zero, then perhaps
# a space; "--" and the empty string besides
weight_entries = st.one_of(
    st.integers(1, 6).map(str),
    st.builds("".join, st.tuples(
        st.text("+- ", max_size=2),
        st.one_of(st.just(""), st.builds(str.__add__, st.sampled_from(["", "0"]),
                                         st.integers(0, 6).map(str))),
        st.sampled_from(["", " "]))))
signed_weight_texts = st.one_of(
    st.lists(weight_entries, max_size=4).map(",".join),
    st.sampled_from(["--", ""]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(signed_weight_texts, st.booleans())
def test_report_exit_codes(weights, as_json):
    # a report whose checks fail exits 1 without an error object, which
    # assert_exit refuses: every valid tuple must pass them all
    code, out, err = run(["report", f"--weights={weights}"] + ["--json"] * as_json)
    assert_exit(code, out, err, {"ValueError"})
    if code == 0 and as_json:
        assert all(json.loads(out)["checks"].values())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(signed_weight_texts, st.booleans())
def test_check_exit_codes(weights, as_json):
    code, out, err = run(["check", f"--weights={weights}"] + ["--json"] * as_json)
    assert_exit(code, out, err, {"ValueError"})
    if code == 2:
        # the one usage error left: no weights at all (argparse before
        # Python 3.12 reads --weights=-- as no value)
        assert weights in ("", "--") and out == ""
    if code == 0 and as_json:
        assert json.loads(out)["passed"] is True


# fraction texts: free text over the characters Fraction reads (no "e", so
# no exponent can ask for a huge power of ten), and words that mostly parse
FRACTION_WORDS = ["0", "1", "-1", "2", "1/2", "-1/3", "2/3", "1/0", "0/5",
                  "3/7", "1.5", " 1/4 ", "+5/6", "", " ", "1//2", "x"]
fraction_texts = st.one_of(st.text("0123456789/-+. ", max_size=8),
                           st.sampled_from(FRACTION_WORDS))
fraction_lists = st.one_of(
    st.lists(st.sampled_from(FRACTION_WORDS), max_size=4).map(",".join),
    st.lists(fraction_texts, max_size=3).map(",".join))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(["exponents", "operator", "irreducible"]), fraction_texts,
       fraction_lists, fraction_lists, st.booleans(), st.booleans())
def test_hyp_exit_codes(action, gamma, alpha, beta, reduce, as_json):
    argv = ["hyp", action, f"--gamma={gamma}", f"--alpha={alpha}", f"--beta={beta}"]
    code, out, err = run(argv + ["--reduce"] * reduce + ["--json"] * as_json)
    assert_exit(code, out, err, {"ValueError", "ZeroDivisionError"})
