"""Vandermonde quotients through Schur functions, against exact division."""

import itertools
import random

import pytest

from intshuffle.poly import Q1, Q2, LaurentPoly, is_symmetric, z
from intshuffle.schur import _kostka, divide_vandermonde
from intshuffle.shuffle import _divide_vandermonde, _vandermonde, sym


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
    assert _kostka(shape + (0,) * (len(content) - len(shape)), content) == count


def _random_symmetric(rng, n):
    """A symmetric Laurent polynomial in z1..zn with q1, q2 in its coefficients."""
    out = LaurentPoly.zero()
    for _ in range(rng.randint(1, 4)):
        term = rng.choice([-3, -1, 1, 2]) * Q1 ** rng.randint(-1, 2) * Q2 ** rng.randint(0, 1)
        for i in range(1, n + 1):
            term = term * z(i, rng.randint(-3, 3))
        out = out + sym(term, n)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_divide_vandermonde_inverts_the_product(n):
    rng = random.Random(40 + n)
    for _ in range(6):
        f = _random_symmetric(rng, n)
        numerator = f * _vandermonde(n)
        quotient = divide_vandermonde(numerator, n)
        assert quotient == f
        assert quotient == _divide_vandermonde(numerator, n)
        assert is_symmetric(quotient, n)


def test_divide_vandermonde_of_alternants_gives_schur_polynomials():
    # a_(4,1,0) / V_3 = s_(2,0,0) = h_2(z1, z2, z3)
    alternant = LaurentPoly.zero()
    for perm in itertools.permutations(range(3)):
        sign = 1
        for i, j in itertools.combinations(range(3), 2):
            if perm[i] > perm[j]:
                sign = -sign
        exps = (4, 1, 0)
        term = LaurentPoly.constant(sign)
        for slot, p in enumerate(perm, 1):
            term = term * z(slot, exps[p])
        alternant = alternant + term
    h2 = sum((z(i) * z(j) for i in range(1, 4) for j in range(i, 4)), LaurentPoly.zero())
    assert divide_vandermonde(alternant, 3) == h2
