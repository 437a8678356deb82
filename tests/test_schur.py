"""Alternant (Schur) coefficients and their monomial expansion, against
exact division by the Vandermonde."""

import copy
import itertools
import random
from fractions import Fraction
from functools import lru_cache
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intshuffle._terms_py import add_into, mul_terms
from intshuffle.poly import Q1, Q2, LaurentPoly, is_symmetric, z
from intshuffle.schur import (
    _MAX_DIGITS,
    _tables,
    alternant,
    from_alternant,
    group_by_z,
    monomial_coefficients,
    straighten,
    straighten_sum,
)
from intshuffle.shuffle import (
    _divide_vandermonde,
    _vandermonde,
    _word_alternant,
    one_variable,
    shuffle,
    shuffle_word,
    sym,
)


def _schur_row(shape):
    """content -> K(shape, content) for s_shape in len(shape) variables,
    read off its monomial expansion; an absent content has K = 0."""
    n = len(shape)
    alpha = tuple(part + n - 1 - i for i, part in enumerate(shape))
    return {
        content: row[()] for content, row in monomial_coefficients({alpha: {(): 1}}, n).items()
    }


@pytest.mark.parametrize(
    "shape, content, count",
    [
        ((2, 1, 0), (1, 1, 1), 2),
        ((3, 1, 0), (2, 1, 1), 2),
        ((2, 2, 0), (1, 1, 1, 1), 2),
        ((3, 2, 1), (1, 1, 1, 1, 1, 1), 16),
        ((2, 2, 0), (3, 1, 0), 0),
        ((4, 0, 0), (2, 1, 1), 1),
    ],
)
def test_kostka_numbers(shape, content, count):
    row = _schur_row(shape + (0,) * (len(content) - len(shape)))
    assert row.get(content, 0) == count


@lru_cache(maxsize=None)
def _reference_kostka(shape, content):
    """Kostka numbers by removing the largest entry's horizontal strip, each
    strip found by a fresh recursion over the rows."""
    rows = len(content)
    if any(shape[rows:]):
        return 0
    if not rows:
        return 1
    return sum(
        _reference_kostka(inner, content[:-1])
        for inner in _reference_strips(shape, content[-1], 0)
    )


def _reference_strips(shape, size, i):
    if i == len(shape):
        if not size:
            yield ()
        return
    floor = shape[i + 1] if i + 1 < len(shape) else 0
    for take in range(min(size, shape[i] - floor) + 1):
        for rest in _reference_strips(shape, size - take, i + 1):
            yield (shape[i] - take,) + rest


def _partitions(size, parts, largest):
    """Partitions of `size` into exactly `parts` parts (zeros allowed), each at most `largest`."""
    if not parts:
        if not size:
            yield ()
        return
    for first in range(min(size, largest), -1, -1):
        for rest in _partitions(size - first, parts - 1, first):
            yield (first,) + rest


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_schur_rows_match_reference_kostka(n):
    # every shape with at most 5 parts and at most 10 boxes
    for size in range(11):
        partitions = list(_partitions(size, n, size))
        for shape in partitions:
            row = _schur_row(shape)
            assert set(row) <= set(partitions)
            for content in partitions:
                assert row.get(content, 0) == _reference_kostka(shape, content)


def _random_symmetric(rng, n):
    """A symmetric Laurent polynomial in z1..zn with q1, q2 in its coefficients."""
    out = LaurentPoly.zero()
    for _ in range(rng.randint(1, 4)):
        term = rng.choice([-3, -1, 1, 2]) * Q1 ** rng.randint(-1, 2) * Q2 ** rng.randint(0, 1)
        for i in range(1, n + 1):
            term = term * z(i, rng.randint(-3, 3))
        out = out + sym(term, n)
    return out


def _decreasing_terms(p, n):
    """The terms of p with strictly decreasing z-exponents, as alternant coefficients."""
    return {
        alpha: row
        for alpha, row in group_by_z(p.terms, n).items()
        if all(alpha[i] > alpha[i + 1] for i in range(n - 1))
    }


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_divide_vandermonde_inverts_the_product(n):
    # the alternant coefficients of f, expanded back, give the quotient of
    # f * V by V: f itself, as binomial division by V finds it too
    rng = random.Random(40 + n)
    for _ in range(6):
        f = _random_symmetric(rng, n)
        numerator = f * _vandermonde(n)
        coeffs = alternant(f, n)
        assert coeffs == _decreasing_terms(numerator, n)
        quotient = from_alternant(coeffs, n)
        assert quotient == f
        assert quotient == _divide_vandermonde(numerator, n)
        assert is_symmetric(quotient, n)


def test_conversion_leaves_the_cached_word_alone():
    # the word cache hands its rows to every caller, and the fold hands them
    # on uncopied to the next letter; converting to monomials or to text, or
    # multiplying on, must not write into them
    word = (1, 0, 2, -1)
    coeffs = _word_alternant(word)
    before = copy.deepcopy(coeffs)
    monomial_coefficients(coeffs, len(word))
    from_alternant(coeffs, len(word))
    str(shuffle_word(word))
    shuffle_word(word + (3,))
    shuffle(shuffle_word(word), one_variable(0))
    assert _word_alternant(word) is coeffs
    assert coeffs == before


def test_divide_vandermonde_of_alternants_gives_schur_polynomials():
    # a_(4,1,0) / V_3 = s_(2,0,0) = h_2(z1, z2, z3)
    alternant_410 = LaurentPoly.zero()
    for perm in itertools.permutations(range(3)):
        sign = 1
        for i, j in itertools.combinations(range(3), 2):
            if perm[i] > perm[j]:
                sign = -sign
        exps = (4, 1, 0)
        term = LaurentPoly.constant(sign)
        for slot, p in enumerate(perm, 1):
            term = term * z(slot, exps[p])
        alternant_410 = alternant_410 + term
    h2 = sum((z(i) * z(j) for i in range(1, 4) for j in range(i, 4)), LaurentPoly.zero())
    assert _decreasing_terms(alternant_410, 3) == {(4, 1, 0): {(): 1}}
    assert from_alternant({(4, 1, 0): {(): 1}}, 3) == h2
    assert _divide_vandermonde(alternant_410, 3) == h2
    assert alternant(h2, 3) == {(4, 1, 0): {(): 1}}


@pytest.mark.parametrize(
    "gamma, expected",
    [
        ((3, 1, 0), (1, (3, 1, 0))),
        ((0, 1, 3), (-1, (3, 1, 0))),
        ((1, 3, 0), (-1, (3, 1, 0))),
        ((1, 0, 3), (1, (3, 1, 0))),
        ((2, -1, 2), None),
        ((-1, 4, 0, 2), (1, (4, 2, 0, -1))),
    ],
)
def test_straighten(gamma, expected):
    assert straighten(gamma) == expected


# -- packed q-rows against the dict loop they replaced --------------------------


def _reference_straighten_sum(base, shifts):
    """straighten_sum on term dicts: each (alpha, gamma) pair's q-rows are
    summed with add_into and multiplied with mul_terms."""
    out = {}
    for alpha, c in base.items():
        by_gamma = {}
        for t, row in shifts:
            got = straighten(tuple(map(add, alpha, t)))
            if got is not None:
                sign, gamma = got
                add_into(by_gamma.setdefault(gamma, {}), row, sign)
        for gamma, row in by_gamma.items():
            add_into(out.setdefault(gamma, {}), mul_terms(c, row))
    return {gamma: row for gamma, row in out.items() if row}


@st.composite
def _qpart(draw):
    """A trimmed q-part with Laurent exponents."""
    e1, e2 = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    return (e1, e2) if e2 else (e1,) if e1 else ()


_nonzero = st.integers(-4, 4).filter(bool)
# plain ints, integral Fractions (no `__index__`, so no array slot takes
# them) and proper Fractions
_coefficients = st.one_of(
    _nonzero,
    _nonzero.map(lambda k: Fraction(k, 1)),
    st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool),
)
# the digit width grows by a byte each time the bound M passes 2^(8i - 1):
# an array reads 1, 2, 4 and 8 bytes, 3 and 5-7 bytes are spread into its
# wider slots, and 9 bytes and more are read one digit at a time
_edge_magnitudes = st.builds(
    lambda k, d: 2**k + d,
    st.sampled_from([7, 15, 23, 31, 39, 47, 55, 63, 100]),
    st.integers(-2, 2),
)


@st.composite
def _straighten_inputs(draw):
    n = draw(st.integers(0, 3))
    exponents = st.tuples(*[st.integers(-2, 2)] * n)
    if draw(st.booleans()):
        # one term against one: the output coefficient is M itself
        c = draw(st.sampled_from([1, -1])) * draw(_edge_magnitudes)
        c = Fraction(c, draw(st.sampled_from([1, 3])))
        base = {draw(exponents): {draw(_qpart()): c}}
        shifts = [(draw(exponents), {draw(_qpart()): draw(st.sampled_from([1, -1]))})]
        return base, shifts
    rows = st.dictionaries(_qpart(), _coefficients, min_size=1, max_size=4)
    base = draw(st.dictionaries(exponents, rows, max_size=4))
    shifts = draw(st.lists(st.tuples(exponents, rows), max_size=4))
    return base, shifts


@given(_straighten_inputs())
@example(({(): {(): 2**15}}, [((), {(): 1})]))
@example(({(): {(-1, 2): 2**63}}, [((), {(3, -3): -1})]))
@settings(max_examples=300, deadline=None)
def test_straighten_sum_matches_dict_reference(inputs):
    base, shifts = inputs
    got = straighten_sum(base, shifts)
    assert got == _reference_straighten_sum(base, shifts)
    for row in got.values():
        assert row
        for c in row.values():
            # integral values come back as int, never as Fraction(k, 1)
            assert c and (type(c) is int or c.denominator > 1)


def test_straighten_sum_drops_rows_that_cancel():
    # (2,0) + (0,1) = (2,1), and (2,0) + (-1,2) = (1,2), which straightens
    # to -a_(2,1): the two rows are subtracted
    row = {(1, -1): 3, (): Fraction(1, 2)}
    assert straighten_sum({(2, 0): {(): 1}}, [((0, 1), row), ((-1, 2), row)]) == {}
    other = {(1, -1): 3, (2,): 5}
    got = straighten_sum({(2, 0): {(): 1}}, [((0, 1), row), ((-1, 2), other)])
    assert got == {(2, 1): {(): Fraction(1, 2), (2,): -5}}
    assert straighten_sum({}, [((0, 1), row)]) == {}
    assert straighten_sum({(2, 0): row}, []) == {}


def test_straighten_sum_packs_a_sparse_row_up_to_the_digit_cap():
    # a packed row holds every point of the output's q-exponent box, so two
    # far-apart terms fill a 256 x 256 box: the most it may hold.  One more
    # q1 step is refused rather than packed.  Tables this large are built
    # for the call and not kept.
    assert _MAX_DIGITS == 256 * 256
    base = {(1, 0): {(): 1, (-1, 2): Fraction(1, 2)}}
    corners = {(-128, 2): 3, (126, 253): -1}
    shifts = [((0, 0), corners), ((2, -1), {(): 1})]
    kept = _tables.cache_info().currsize
    got = straighten_sum(base, shifts)
    assert _tables.cache_info().currsize == kept
    assert got == _reference_straighten_sum(base, shifts)
    assert got[(1, 0)][(125, 255)] == Fraction(-1, 2)
    wider = [((0, 0), {**corners, (127, 253): 1})] + shifts[1:]
    with pytest.raises(ValueError, match="257 x 256"):
        straighten_sum(base, wider)
