"""Expression language: parsing, typing, evaluation, round trips."""

import functools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intshuffle.errors import ArityMismatch, ExprSyntaxError
from intshuffle.expr import as_element, eval_text, parse, parse_poly
from intshuffle.poly import Q1, Q2, ZERO, LaurentPoly, render, z
from intshuffle.shuffle import ShuffleElement, shuffle_word


def test_word_literal():
    value = eval_text("sh[0,0]")
    assert isinstance(value, ShuffleElement)
    assert value.arity == 2
    assert value.poly == shuffle_word([0, 0]).poly


def test_empty_word_literal():
    value = eval_text("sh[]")
    assert value.arity == 0 and value.poly == LaurentPoly.constant(1)


def test_one_variable_monomials():
    assert eval_text("z^3").poly == z(1) ** 3
    assert eval_text("z^-2").poly == z(1) ** -2
    assert eval_text("z ^ (-2)").poly == z(1) ** -2
    assert eval_text("z^ -2").poly == z(1) ** -2
    assert eval_text("z").poly == z(1)
    assert eval_text("z^0").poly == LaurentPoly.constant(1)


def test_scalars_and_sugar():
    assert eval_text("q") == Q1 * Q2
    assert eval_text("q1^2 q2") == Q1**2 * Q2
    assert eval_text("3/2") == LaurentPoly.constant(Fraction(3, 2))
    assert eval_text("2 - 3") == LaurentPoly.constant(-1)


def test_word_equals_fold_of_shuffles():
    assert eval_text("sh[0] * sh[0]").poly == eval_text("sh[0,0]").poly
    assert eval_text("z^1 * sh[0]").poly == shuffle_word([1, 0]).poly


def test_scalar_juxtaposition():
    value = eval_text("(z1+z2) sh[0,0]")
    assert value.poly == (z(1) + z(2)) * shuffle_word([0, 0]).poly
    value = eval_text("2 sh[1]")
    assert value.poly == 2 * z(1)


def test_module_action_expression_vanishes():
    # the first arity-3 rewrite, as an expression: lhs - rhs = 0
    lhs = eval_text("(z1+z2+z3) sh[0,0,0] - sh[1,0,0] - sh[0,1,0]")
    assert lhs.poly == shuffle_word([0, 0, 1]).poly
    diff = eval_text("(z1+z2+z3) sh[0,0,0] - sh[1,0,0] - sh[0,1,0] - sh[0,0,1]")
    assert not diff.poly


def test_precedence_juxt_tighter_than_star():
    # (2 sh[0]) * sh[0], not 2 (sh[0] * sh[0]) -- same value, different tree
    value = eval_text("2 sh[0] * sh[0]")
    assert value.poly == 2 * shuffle_word([0, 0]).poly
    # shuffle binds tighter than minus
    value = eval_text("sh[0] * sh[0] - sh[0,0]")
    assert not value.poly


def test_scalar_shuffle_coercion():
    value = eval_text("q1 * sh[0]")
    assert value.arity == 1 and value.poly == Q1


def test_parse_errors_carry_positions():
    with pytest.raises(ExprSyntaxError) as err:
        parse("sh[0,0] +")
    assert err.value.position == 9
    with pytest.raises(ExprSyntaxError) as err:
        parse("sh[0 0]")
    assert err.value.position == 5
    with pytest.raises(ExprSyntaxError) as err:
        parse("foo")
    assert err.value.position == 0
    with pytest.raises(ExprSyntaxError) as err:
        parse("z1 $ z2")
    assert err.value.position == 3
    # only ASCII digits and letters: a superscript or Arabic-Indic digit is
    # neither an integer nor silently read as one
    for text in ("z1^\u00b2", "sh[\u0663,0]"):
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert err.value.position == 3, text


def test_arity_mismatch_is_parse_time():
    with pytest.raises(ArityMismatch):
        parse("sh[0,0] + sh[0]")
    with pytest.raises(ArityMismatch):
        parse("sh[0,0] + q1")
    with pytest.raises(ArityMismatch):
        parse("z1 * sh[0]")  # z-dependent scalar is not an element
    with pytest.raises(ArityMismatch):
        parse("(z1+z2+z3) sh[0,0]")  # scalar overruns the element arity
    with pytest.raises(ArityMismatch):
        parse("sh[0] sh[0]")  # juxtaposition of two elements
    with pytest.raises(ArityMismatch):
        parse("sh[0,0]^2")


def test_asymmetric_scaling_rejected_at_eval():
    with pytest.raises(ArityMismatch) as err:
        eval_text("z1 sh[0,0]")
    assert err.value.position == 3
    assert "scalar factor must be symmetric in z1..z2" in str(err.value)


_OUTCOMES = [
    # a syntax error anywhere wins over a type error met before it
    ("sh[0,0] + sh[0] +", ExprSyntaxError, 17, "expected a value"),
    # a type error wins over an evaluation error met before it
    ("z1 sh[0,0] + sh[0]", ArityMismatch, 11, "cannot add elements of arity 2 and 1"),
    ("(q1+q2)^-1 + sh[0]", ArityMismatch, 11, "cannot add a scalar and a shuffle element"),
    # a power sits at its '^', a product of several factors at its last factor
    ("z1^2 * sh[0]", ArityMismatch, 2, "a z-dependent scalar is not a shuffle element"),
    ("q1 z1 * sh[0]", ArityMismatch, 3, "a z-dependent scalar is not a shuffle element"),
    # a written z-index counts even when its exponent or the value is 0
    ("z3^0 sh[0,0]", ArityMismatch, 5, "scalar factor uses z3 but the element has arity 2"),
    ("(z3 - z3) sh[0,0]", ArityMismatch, 10, "scalar factor uses z3 but the element has arity 2"),
    ("0^-1 q1", ArityMismatch, 1, "negative powers need an invertible monomial base"),
    # each factor after an element scales it on its own
    ("sh[0,0] z1 z2", ArityMismatch, 8, "scalar factor must be symmetric in z1..z2"),
    # where a whole-factor token ends or fails
    ("z1^", ExprSyntaxError, 3, "expected an integer"),
    ("z1^x", ExprSyntaxError, 3, "expected an integer"),
    ("q1^-", ExprSyntaxError, 4, "expected an integer"),
    ("q1^(-2", ExprSyntaxError, 6, "expected ')'"),
    ("3/0 z1", ExprSyntaxError, 2, "zero denominator"),
    ("3 / 0", ExprSyntaxError, 4, "zero denominator"),
    # a factor read again keeps its own position
    ("z1^2 + z1^2 * sh[0]", ArityMismatch, 9, "a z-dependent scalar is not a shuffle element"),
    ("6/2/3", ExprSyntaxError, 3, "unexpected '/'"),
    ("q1^2^3", ExprSyntaxError, 4, "unexpected '^'"),
    ("z1abc", ExprSyntaxError, 0, "unknown name 'z1abc'"),
    ("z01^2", ExprSyntaxError, 0, "unknown name 'z01'"),
    # a character that starts no token wins over an earlier syntax error
    ("1_", ExprSyntaxError, 1, "unexpected character '_'"),
    ("_q1", ExprSyntaxError, 0, "unexpected character '_'"),
    ("sh[0 0] $", ExprSyntaxError, 8, "unexpected character '$'"),
    ("(q1 $", ExprSyntaxError, 4, "unexpected character '$'"),
    ("q1_x", ExprSyntaxError, 2, "unexpected character '_'"),
    # only bare `z` takes a power: any other element's power is a type error
    ("(z^3)^2", ArityMismatch, 5, "cannot exponentiate a shuffle element"),
    ("(z)^2", ArityMismatch, 3, "cannot exponentiate a shuffle element"),
    # a missing denominator, exponent or ')' is reported where it was expected
    ("3 /", ExprSyntaxError, 3, "expected an integer denominator"),
    ("q1^()", ExprSyntaxError, 4, "expected an integer"),
    ("q1 ^ (2", ExprSyntaxError, 7, "expected ')'"),
]


@pytest.mark.parametrize("text, error, position, message", _OUTCOMES)
def test_expression_error_outcomes(text, error, position, message):
    with pytest.raises(error) as err:
        eval_text(text)
    assert type(err.value) is error
    assert err.value.position == position
    assert str(err.value) == f"at position {position}: {message}"


def test_scalar_prefix_scales_the_element():
    value = eval_text("z1 z2 sh[0,0]")
    assert value.arity == 2 and value.poly == z(1) * z(2) * shuffle_word([0, 0]).poly
    value = eval_text("2 (q1 + q2) 3/2 sh[0] q")
    assert value.arity == 1 and value.poly == 3 * (Q1 + Q2) * Q1 * Q2
    assert str(value) == "3 q1^2 q2 + 3 q1 q2^2"


def test_as_element_symmetry_guard():
    assert as_element(eval_text("z1 + z2")).arity == 2
    with pytest.raises(ValueError):
        as_element(eval_text("z1 z2^2"))


def test_render_parse_round_trip_random():
    rng = random.Random(13)
    for _ in range(25):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            mono = tuple(rng.randint(-2, 2) for _ in range(4))
            coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            terms[mono] = coeff
        p = LaurentPoly(terms)
        assert parse_poly(render(p)) == p
    # a sum far longer than the interpreter's recursion limit
    p = LaurentPoly({(0, 0, e): (-1) ** e * (e + 1) for e in range(-600, 600)})
    assert parse_poly(render(p)) == p


def test_parse_poly_rejects_elements():
    with pytest.raises(ArityMismatch):
        parse_poly("sh[0,0]")


def test_golden_round_trip():
    text = render(shuffle_word([0, 0]).poly)
    assert parse_poly(text) == shuffle_word([0, 0]).poly


def test_juxtaposed_products_longer_than_the_recursion_limit():
    # a product is one flat node: typing and evaluation walk it in a loop
    n = 1500
    assert parse_poly(" ".join(["z1"] * n)) == z(1, n)
    value = eval_text(" ".join(["q1"] * n) + " sh[0]")
    assert value.arity == 1 and value.poly == Q1**n
    value = eval_text("sh[0,0] " + " ".join(["q2"] * n))
    assert value.poly == Q2**n * shuffle_word([0, 0]).poly


_NAMES = ["q", "q1", "q2"] + [f"z{i}" for i in range(1, 7)]


@st.composite
def _factor(draw):
    """(text, value) of a number, a variable or a power of one, the value
    built as its own LaurentPoly."""
    if draw(st.booleans()):
        text = draw(st.sampled_from(_NAMES))
        base = Q1 * Q2 if text == "q" else LaurentPoly.variable(text)
    else:
        num, den = draw(st.integers(0, 9)), draw(st.integers(1, 4))
        text = str(num) if den == 1 else f"{num}/{den}"
        base = LaurentPoly.constant(Fraction(num, den))
    e = draw(st.integers(-3, 3))
    if e == 1 or (e < 0 and not base):  # the zero base has no negative power
        return text, base
    return (f"({text})^{e}" if "/" in text else f"{text}^{e}"), base**e


@given(st.lists(_factor(), min_size=1, max_size=8))
@example([("q", Q1 * Q2), ("q^-2", (Q1 * Q2) ** -2)])
@example([("z1", z(1)), ("z1^-1", z(1, -1))])
@example([("0", ZERO), ("z2", z(2))])
@example([("3/4", LaurentPoly.constant(Fraction(3, 4))), ("z6", z(6))])
@example([("2/3", LaurentPoly.constant(Fraction(2, 3))), ("3/2", LaurentPoly.constant(Fraction(3, 2)))])
@settings(max_examples=150, deadline=None)
def test_juxtaposed_product_matches_per_factor_product(factors):
    text = " ".join(t for t, _ in factors)
    got = parse_poly(text)
    assert got == functools.reduce(operator.mul, (p for _, p in factors)), text
    # the one term keeps an integral coefficient as an int
    assert not any(isinstance(c, Fraction) and c.denominator == 1 for c in got.terms.values())


@st.composite
def _spelled_factor(draw):
    """A `_factor` with spaces drawn around its '^' and '/' and, at times, its
    exponent in parentheses: spellings that the whole-factor token reads too."""
    text, value = draw(_factor())
    if "^" in text:
        base, e = text.split("^")
        if draw(st.booleans()):
            e = f"({e})"
        text = base + draw(st.sampled_from(["^", " ^ ", "^ ", " ^"])) + e
    return text.replace("/", draw(st.sampled_from(["/", " / ", "/ ", " /"]))), value


_summands = st.lists(
    st.tuples(st.sampled_from([1, -1]), st.lists(_spelled_factor(), min_size=1, max_size=4)),
    min_size=1,
    max_size=6,
)


def _signed_sum_text(summands) -> str:
    text = ""
    for sign, factors in summands:
        op = "-" if sign < 0 else ("+" if text else "")
        text += f" {op} " + " ".join(t for t, _ in factors)
    return text


@given(_summands)
@example([(1, [("0", ZERO), ("q1", Q1)]), (1, [("q1", Q1)])])
@example([(1, [("q1", Q1), ("z2", z(2))]), (-1, [("z2", z(2)), ("q1", Q1)])])
@example([(1, [("4/2", LaurentPoly.constant(2)), ("z1", z(1))])])
@example([(1, [("1/2", LaurentPoly.constant(Fraction(1, 2))), ("z1", z(1))])] * 2)
@example([(-1, [("q1 ^ -2", Q1**-2), ("q1^(-2)", Q1**-2)]),
          (1, [("3 / 4", LaurentPoly.constant(Fraction(3, 4)))])])
@example([(1, [("z3", z(3)), ("z3^-1", z(3, -1))]), (-1, [("1", LaurentPoly.constant(1))])])
@settings(max_examples=150, deadline=None)
def test_signed_sum_matches_laurent_arithmetic(summands):
    # monomial summands are folded into one term dict as they are read
    text = _signed_sum_text(summands)
    expected = ZERO
    for sign, factors in summands:
        product = functools.reduce(operator.mul, (p for _, p in factors))
        expected = expected + product if sign > 0 else expected - product
    got = parse_poly(text)
    assert got.terms == expected.terms, text
    assert not any(isinstance(c, Fraction) and c.denominator == 1 for c in got.terms.values())
