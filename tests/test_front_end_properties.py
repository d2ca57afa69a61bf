"""Property tests of the Weyl front end against the forms it replaced.

``ref_value`` is the ``Fraction`` Horner loop that ``IndicialPolynomial``
evaluated with before it ran in integers; ``RefParser`` is the parser before
it built normal-form terms directly, with every sum and product an operation
on ``WeylOp`` and every power but one of the bare ``t`` raised with ``**``;
``ref_tokenize`` is the tokenizer written as one regular-expression scan,
independent of the character loop of ``_tokenize``, and ``RefParser`` reads
its tokens.  The current forms must give equal values, of type
``Fraction``, equal operators and equal tokens, or the same ``ParseError``
at the same position.
"""

import re
import sys
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dworkgm.weyl import (IndicialPolynomial, LaurentPoly, ParseError, WeylOp,
                          _tokenize, euler_op, parse_op)


# \d is a decimal digit as str.isdecimal has it, and whitespace (\s, as
# str.isspace) matches no group, so the scan skips it
REF_TOKEN = re.compile(r"(?P<num>\d+)|(?P<sym>[tdD])|(?P<op>[-+*^()/])|(?P<bad>\S)")


def ref_tokenize(text):
    tokens = []
    for m in REF_TOKEN.finditer(text):
        kind, value, i = m.lastgroup, m[0], m.start()
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", i)
        tokens.append((value if kind == "op" else kind, value, i))
    return tokens


def ref_value(ind, x):
    acc = Fraction(0)
    for n in reversed(ind.nums):
        acc = acc * x + n
    return acc / ind.nums[-1]


class RefParser:
    """The parser as it was before it built normal-form terms directly: each
    sum, difference and product is an operation on ``WeylOp``, and every
    power but one of the bare ``t`` is raised with ``**``.  Its
    grammar, errors and error positions are the ones ``parse_op`` keeps."""

    def __init__(self, text):
        self.text, self.tokens, self.pos, self.depth = text, ref_tokenize(text), 0, 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        op = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        return op

    def expr(self):
        tok = self.peek()
        if tok is not None and tok[0] in "+-":
            self.next()
        result = self.term()
        if tok is not None and tok[0] == "-":
            result = -result
        while True:
            tok = self.peek()
            if tok is None or tok[0] not in "+-":
                return result
            self.next()
            rhs = self.term()
            result = result + (rhs if tok[0] == "+" else -rhs)

    def term(self):
        result = self.factor()
        while True:
            tok = self.peek()
            if tok is None:
                return result
            if tok[0] == "*":
                self.next()
                result = result * self.factor()
            elif tok[0] == "/":
                raise ParseError("division token outside a rational literal", tok[2])
            else:
                return result

    def factor(self):
        bare_t = (self.peek() or ())[:2] == ("sym", "t")
        base = self.atom()
        tok = self.peek()
        if tok is None or tok[0] != "^":
            return base
        self.next()
        neg = False
        tok = self.peek()
        if tok is not None and tok[0] == "-":
            self.next()
            neg = True
        num = self.expect("num")
        n = int(num[1])
        if bare_t:
            return WeylOp.t(-n if neg else n)
        if neg:
            raise ParseError("negative exponents are allowed only on t", num[2])
        if n > 4096:
            raise ParseError(f"exponent {n} is above the limit 4096", num[2])
        return base ** n

    def atom(self):
        kind, value, pos = self.next()
        if kind == "sym":
            return {"t": WeylOp.t(), "d": WeylOp.d(), "D": euler_op()}[value]
        if kind == "num":
            numerator = int(value)
            nxt = self.peek()
            if nxt is not None and nxt[0] == "/":
                self.next()
                den = self.expect("num")
                if int(den[1]) == 0:
                    raise ParseError("zero denominator in rational literal", den[2])
                return WeylOp.constant(Fraction(numerator, int(den[1])))
            return WeylOp.constant(numerator)
        if kind == "(":
            if self.depth == 100:
                raise ParseError("parentheses nested deeper than 100 levels", pos)
            self.depth += 1
            inner = self.expr()
            self.expect(")")
            self.depth -= 1
            return inner
        if kind == "/":
            raise ParseError("division token outside a rational literal", pos)
        raise ParseError(f"unexpected token {value!r}", pos)


def ref_parse(text):
    return RefParser(text).parse()


# -- indicial evaluation ---------------------------------------------------------

DENOMINATORS = [1, 2, 3, 4, 5, 6, 7, 9, 12, 25]
fractions = st.builds(Fraction, st.integers(-40, 40), st.sampled_from(DENOMINATORS))
points = st.one_of(st.integers(-50, 50), fractions)


@st.composite
def indicial_polynomials(draw):
    """Degree 0-6: a product of 0-3 rational linear factors and a random
    integer polynomial, so that rational roots are common."""
    nums = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=4))
    nums[-1] = nums[-1] or 1
    for r in draw(st.lists(fractions, max_size=3)):
        p, q = r.numerator, r.denominator  # times q*s - p
        nums = ([-p * nums[0]] + [q * nums[i - 1] - p * nums[i]
                                  for i in range(1, len(nums))] + [q * nums[-1]])
    return IndicialPolynomial(nums, draw(st.sampled_from(["zero", "infinity"])))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(indicial_polynomials(), st.lists(points, min_size=1, max_size=4))
def test_indicial_value_matches_fraction_horner(ind, xs):
    assert 0 <= ind.degree <= 6
    roots = [r for r, _ in ind.roots()[0]]
    for x in xs + roots:
        value = ind(x)
        assert type(value) is Fraction
        assert value == ref_value(ind, x)
    assert all(ind(r) == 0 for r in roots)


@pytest.mark.parametrize("x", [0.5, 1.0, "1", "1/2"])
def test_indicial_value_refuses_floats_and_strings(x):
    # the Fraction loop returned the float 1.0 for ind(0.5)
    with pytest.raises(TypeError):
        IndicialPolynomial((-1, 0, 4), "zero")(x)


# -- parser ------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(8))
def test_parsed_powers_match_repeated_products(n):
    t, d = WeylOp.t(), WeylOp.d()
    cases = {
        f"t^{n}": t ** n,
        f"d^{n}": d ** n,
        f"t^-{n}": WeylOp.t(-n),
        f"(t)^{n}": t ** n,
        f"D^{n}": euler_op() ** n,
        f"2^{n}*t": WeylOp.constant(2) ** n * t,
        f"d^{n}*t^{n}": d ** n * t ** n,
        f"(t + d)^{n}": (t + d) ** n,
    }
    for text, expected in cases.items():
        assert parse_op(text) == expected == ref_parse(text), text


@pytest.mark.parametrize("text", ["d^-1", "d^-0", "D^-2", "(t)^-1", "2^-1", "(d)^-3"])
def test_negative_exponent_off_bare_t_is_a_parse_error(text):
    for parse in (parse_op, ref_parse):
        with pytest.raises(ParseError, match="negative exponents"):
            parse(text)


# the shape of ``check --weights`` and the operators workload
MAX_ORDER, MAX_T_EXP, MAX_TERMS, MAX_DEN = 6, 6, 3, 9
workload_terms = st.lists(
    st.tuples(st.integers(0, MAX_ORDER), st.integers(-MAX_T_EXP, MAX_T_EXP),
              st.builds(Fraction, st.integers(-9, 9), st.integers(1, MAX_DEN))),
    min_size=1, max_size=MAX_TERMS)

factors = st.one_of(
    st.integers(-MAX_T_EXP, MAX_T_EXP).map(lambda a: f"t^{a}"),
    st.integers(0, MAX_ORDER).map(lambda b: f"d^{b}"),
    st.integers(0, 3).map(lambda c: f"D^{c}"),
    st.integers(0, 3).map(lambda n: f"(t)^{n}"),
    st.integers(0, 2).map(lambda n: f"(t^-1 + 2*d)^{n}"),
    st.sampled_from(["t", "d", "D", "3", "2/5", "7/4"]),
)
words = st.lists(factors, min_size=1, max_size=5).map("*".join)
sums = st.lists(st.tuples(st.sampled_from([" + ", " - "]), words),
                min_size=1, max_size=4).map(lambda ws: "".join(s + w for s, w in ws))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(workload_terms)
def test_round_trip_of_workload_shaped_operators(terms):
    coeffs = [LaurentPoly() for _ in range(MAX_ORDER + 1)]
    for k, m, c in terms:
        coeffs[k] = coeffs[k] + LaurentPoly.term(c, m)
    op = WeylOp(coeffs)
    text = str(op)
    assert parse_op(text) == op == ref_parse(text)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sums)
def test_products_of_powers_match_reference(text):
    assert parse_op(text) == ref_parse(text), text


# -- parser against the reference, errors included ------------------------------

def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as err:
        return str(err), err.position


# Words in which a t follows a d, a D, a parenthesised base or a power stops
# the parser's monomial; "4/0" is a zero denominator and 5000 an exponent
# above the limit.
grammar_factors = st.one_of(
    st.sampled_from(["t", "d", "D", "0", "3", "2/5", "7/4", "4/0", "(t)", "((d))",
                     "(d*t + 1)", "(t - 2/3*d)", "(D^2 + t^-1)", "(-t + 1/2*D)"]),
    st.tuples(st.sampled_from(["t", "d", "D", "2", "1/3", "(t + d)", "((t)^2 - d)"]),
              st.sampled_from(["^0", "^1", "^2", "^3", "^-1", "^-3", "^5000"]))
    .map("".join),
)
grammar_words = st.lists(grammar_factors, min_size=1, max_size=4).map("*".join)
grammar_sums = st.tuples(
    st.sampled_from(["", "-", "+"]), grammar_words,
    st.lists(st.tuples(st.sampled_from([" + ", " - "]), grammar_words), max_size=3),
).map(lambda s: s[0] + s[1] + "".join(sign + w for sign, w in s[2]))


@st.composite
def mutated(draw, texts):
    """A string of the grammar, maybe with one character of its alphabet
    inserted or one character deleted."""
    text = draw(texts)
    edit = draw(st.sampled_from(["none", "insert", "delete"]))
    i = draw(st.integers(0, len(text)))
    if edit == "insert":
        return text[:i] + draw(st.sampled_from(list("tdD0123+-*^()/ "))) + text[i:]
    if edit == "delete":
        return text[:i] + text[i + 1:]
    return text


@settings(max_examples=500, deadline=None, derandomize=True)
@given(mutated(st.one_of(grammar_sums, grammar_sums.map(lambda s: f"({s})^2"))))
def test_parser_matches_the_reference_on_grammar_strings(text):
    assert outcome(parse_op, text) == outcome(ref_parse, text), text


# Every token spaced apart, so that no two numbers run together into a large
# exponent: mostly parse errors, at every kind of position.
TOKENS = ["t", "d", "D", "0", "1", "2", "3", "5000", "7/2", "4/0",
          "+", "-", "*", "^", "(", ")", "/"]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(TOKENS), max_size=14).map(" ".join))
def test_parser_matches_the_reference_on_token_strings(text):
    assert outcome(parse_op, text) == outcome(ref_parse, text), text


# -- tokenizer against the regular-expression scan --------------------------------

# The grammar's alphabet, other ASCII, whitespace beyond ASCII (no-break,
# em and ideographic spaces, the line and paragraph separators, the
# information separators U+001C..U+001F) and decimal digits of other
# scripts (Arabic-Indic, Devanagari, fullwidth, mathematical bold), which
# int() reads; superscript two and the circled one are digits but not
# decimal, so neither forms a number.
ALPHABET = list("tdDx0123456789+-*^()/.e, \t\n\r\x0b\x0c") + [
    "\u00a0", "\u2003", "\u3000", "\u2028", "\u2029", "\x1c", "\x1f", "\x85",
    "\u0663", "\u0967", "\uff11", "\U0001d7d9", "\u00b2", "\u2460", "\u00e9"]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.one_of(st.text(st.sampled_from(ALPHABET), max_size=20), st.text(max_size=20)))
def test_tokenizer_matches_the_regular_expression_scan(text):
    assert outcome(_tokenize, text) == outcome(ref_tokenize, text), text


@pytest.mark.parametrize("text,tokens", [
    ("\u0663\u0664*t", [("num", "\u0663\u0664", 0), ("*", "*", 2), ("sym", "t", 3)]),
    ("\u3000d\u00a0^ 12", [("sym", "d", 1), ("^", "^", 3), ("num", "12", 5)]),
])
def test_tokenizer_reads_unicode_digits_and_whitespace(text, tokens):
    assert _tokenize(text) == ref_tokenize(text) == tokens


@pytest.mark.parametrize("text,position", [("t + x", 4), ("2\u00b2", 1), ("d\u2460", 1)])
def test_tokenizer_refuses_other_characters_at_their_position(text, position):
    with pytest.raises(ParseError) as err:
        _tokenize(text)
    assert err.value.position == position
    assert str(err.value) == f"unexpected character {text[position]!r} (at position {position})"


def test_digit_and_whitespace_classes_match_str_on_every_code_point():
    # the reference scan's \d and \s stand for str.isdecimal and str.isspace
    text = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\d", text) == [c for c in text if c.isdecimal()]
    assert re.findall(r"\s", text) == [c for c in text if c.isspace()]
