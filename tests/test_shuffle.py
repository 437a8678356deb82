"""Shuffle product: kernel, symmetrization, goldens, and structural laws."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intshuffle.errors import NotSymmetric
from intshuffle.poly import Q1, Q2, LaurentPoly, is_symmetric, substitute, z
from intshuffle.shuffle import (
    ShuffleElement,
    _word_alternant,
    omega_numerator,
    one_variable,
    scalar,
    shuffle,
    shuffle_full_sym,
    shuffle_word,
    sym,
)

Q = Q1 * Q2


def test_omega_numerator_expansion():
    n = omega_numerator(1, 2)
    assert n == (z(1) - Q * z(2)) * (z(2) - Q1 * z(1)) * (z(2) - Q2 * z(1))


def test_omega_specialized_at_unit_parameters():
    # at q1 = q2 = 1 the numerator is (z1-z2)(z2-z1)^2 = (z1-z2)^3, so the
    # kernel collapses to +(z1-z2)^2 (CAS-checked)
    from intshuffle.poly import exact_div

    n = substitute(omega_numerator(1, 2), {"q1": 1, "q2": 1})
    assert n == (z(1) - z(2)) ** 3
    assert exact_div(n, z(1) - z(2)) == (z(1) - z(2)) ** 2


def test_omega_index_swap():
    swapped = substitute(omega_numerator(1, 2), {"z1": z(2), "z2": z(1)})
    assert swapped == omega_numerator(2, 1)


def test_sym_examples():
    assert sym(z(1), 2) == z(1) + z(2)
    p = z(1) * z(2) + Q1
    assert sym(p, 2) == 2 * p
    expected = (
        z(1) ** 2 * z(2)
        + z(1) ** 2 * z(3)
        + z(2) ** 2 * z(1)
        + z(2) ** 2 * z(3)
        + z(3) ** 2 * z(1)
        + z(3) ** 2 * z(2)
    )
    assert sym(z(1) ** 2 * z(2), 3) == expected


GOLDEN_11 = (
    2 * Q * z(1) ** 2
    - (1 + Q1 + Q2 - 2 * Q + Q1 * Q + Q2 * Q + Q * Q) * z(1) * z(2)
    + 2 * Q * z(2) ** 2
)

GOLDEN_Z1 = (
    Q * z(1) ** 3
    + (-Q1 - Q2 + 2 * Q - Q * Q) * (z(1) + z(2)) * z(1) * z(2)
    + Q * z(2) ** 3
)


def test_unit_times_unit_golden():
    assert shuffle(one_variable(0), one_variable(0)).poly == GOLDEN_11
    assert shuffle_word([0, 0]).poly == GOLDEN_11


def test_letter_times_unit_golden():
    assert shuffle(one_variable(1), one_variable(0)).poly == GOLDEN_Z1
    assert shuffle_word([1, 0]).poly == GOLDEN_Z1


def test_shuffle_with_scalar():
    e = shuffle(one_variable(3), scalar(1))
    assert e.arity == 1 and e.poly == z(1) ** 3
    e = shuffle(scalar(Q1 + 2), shuffle_word([0, 0]))
    assert e.poly == (Q1 + 2) * GOLDEN_11


def test_empty_word_is_scalar_one():
    e = shuffle_word([])
    assert e.arity == 0 and e.poly == LaurentPoly.constant(1)


def test_single_letter_words():
    assert shuffle_word([5]).poly == z(1) ** 5
    assert shuffle_word([-2]).poly == z(1) ** -2


def test_product_power_relation():
    assert shuffle_word([1, 1]).poly == z(1) * z(2) * shuffle_word([0, 0]).poly


def test_noncommutative():
    assert shuffle_word([1, 0]).poly != shuffle_word([0, 1]).poly


def test_output_symmetry():
    rng = random.Random(11)
    for _ in range(5):
        word = [rng.randint(-2, 2) for _ in range(3)]
        e = shuffle_word(word)
        assert is_symmetric(e.poly, e.arity)


def test_associativity_sample():
    for a, b, c in ((1, 0, -1), (2, -2, 1), (0, 0, 0)):
        za, zb, zc = one_variable(a), one_variable(b), one_variable(c)
        assert shuffle(shuffle(za, zb), zc).poly == shuffle(za, shuffle(zb, zc)).poly


def test_bilinearity():
    c = Q1**2 - 3
    p = shuffle_word([1, 0])
    p2 = shuffle_word([0, 0])
    q = one_variable(2)
    left = shuffle(p.scaled(c) + p2, q)
    right = shuffle(p, q).scaled(c) + shuffle(p2, q)
    assert left.poly == right.poly


def test_homogeneity_degree():
    # z-homogeneous degrees add, plus 2*k*l from the kernel product
    p = shuffle_word([1, 1])  # arity 2, z-degree 2 + 2 + ... check directly
    (dp,) = p.poly.total_z_degrees()
    q = one_variable(3)
    result = shuffle(p, q)
    (dr,) = result.poly.total_z_degrees()
    assert dr == dp + 3 + 2 * 2 * 1


def test_multi_block_product_matches_word_fold():
    # associativity across a (2,2) split: sh[1,0] * sh[0,1] == sh[1,0,0,1]
    left = shuffle(shuffle_word([1, 0]), shuffle_word([0, 1]))
    assert left.poly == shuffle_word([1, 0, 0, 1]).poly


def test_coset_matches_full_sym():
    rng = random.Random(3)
    for _ in range(3):
        p = shuffle_word([rng.randint(-1, 2), rng.randint(-1, 2)])
        q = shuffle_word([rng.randint(-1, 2)])
        assert shuffle(p, q).poly == shuffle_full_sym(p, q).poly
    p = shuffle_word([1, 0])
    q = shuffle_word([0, 2])
    assert shuffle(p, q).poly == shuffle_full_sym(p, q).poly


@st.composite
def _symmetric_scalar(draw, k):
    """A random symmetric scalar of V_k: a signed q-monomial times a
    symmetrized z-monomial, negative exponents allowed."""
    small = st.integers(min_value=-1, max_value=1)
    powers = st.integers(min_value=-2, max_value=2)
    mono = draw(st.sampled_from([-2, -1, 1, 3])) * Q1 ** draw(powers) * Q2 ** draw(powers)
    for i in range(1, k + 1):
        mono = mono * z(i, draw(small))
    return sym(mono, k)


@st.composite
def _scaled_word(draw, k):
    """A word of arity k (letters in [-1, 1]) times a random symmetric scalar."""
    small = st.integers(min_value=-1, max_value=1)
    word = shuffle_word([draw(small) for _ in range(k)])
    return word.scaled(draw(_symmetric_scalar(k)))


# Fraction-scaled operands: their rows go through straighten_sum's clearing
# and `ratio` decode, which the drawn scalars (coefficients -2, -1, 1, 3) never reach
_HALF_SWAP = shuffle_word([1, 0]).scaled(Fraction(1, 2) * Q1**-1 * sym(z(1) * z(2, -1), 2))
_TWO_THIRDS = one_variable(0).scaled(Fraction(-2, 3) * Q2)
_THREE_QUARTERS = shuffle_word([0, 1]).scaled(Fraction(3, 4))


@given(
    st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)]).flatmap(
        lambda split: st.tuples(_scaled_word(split[0]), _scaled_word(split[1]))
    )
)
@example((_HALF_SWAP, _TWO_THIRDS))
@example((_TWO_THIRDS, _THREE_QUARTERS))
# the reference forms one product and sums its n! signed images: an arity-4
# example costs it 1-4 s
@settings(max_examples=8, deadline=None)
def test_shuffle_matches_full_sym_reference(operands):
    left, right = operands
    assert shuffle(left, right).poly == shuffle_full_sym(left, right).poly


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_element_operations_match_monomials(data):
    # every operation on stored alternant coefficients, read back as
    # monomials, equals the same operation on the monomials of its operands
    k = data.draw(st.integers(min_value=0, max_value=4), label="arity")
    a = data.draw(_scaled_word(k), label="a")
    b = data.draw(st.one_of(st.just(a), _scaled_word(k)), label="b")
    f = data.draw(_symmetric_scalar(k), label="f")
    assert (a + b).poly == a.poly + b.poly
    assert (a - b).poly == a.poly - b.poly
    assert (-a).poly == -a.poly
    assert a.scaled(f).poly == a.poly * f
    assert (a == b) == (a.poly == b.poly)
    assert a == ShuffleElement(k, a.poly)
    # arity 0: the scalar times the element, on either side
    c = data.draw(_scaled_word(0), label="c")
    assert shuffle(c, a).poly == c.poly * a.poly == shuffle(a, c).poly
    assert shuffle(scalar(Q1 - 2), a).poly == (Q1 - 2) * a.poly
    l = data.draw(st.integers(min_value=0, max_value=max(0, 3 - k)), label="l")
    e = data.draw(_scaled_word(l), label="e")
    if k + l <= 3:
        assert shuffle(a, e).poly == shuffle_full_sym(a, e).poly
        assert shuffle(e, a).poly == shuffle_full_sym(e, a).poly


def test_shuffle_element_validation():
    with pytest.raises(NotSymmetric):
        ShuffleElement(2, z(1))
    with pytest.raises(NotSymmetric):
        ShuffleElement(2, LaurentPoly.constant(1)).scaled(z(1))
    with pytest.raises(ValueError):
        ShuffleElement(1, z(2))  # z-index above arity
    with pytest.raises(ValueError):
        ShuffleElement(-1, LaurentPoly.constant(1))


def test_non_integer_exponents_refused():
    # a non-integer letter would make alternants such as (2.5, 2), which the
    # conversion to monomials never finishes reducing
    calls = (
        lambda: shuffle_word((1.5, 0)),
        lambda: one_variable(0.5),
        lambda: LaurentPoly({(0, 0, 1.5): 1}),
        lambda: LaurentPoly.variable("z1", 0.5),
        lambda: z(1, 0.5),
    )
    for call in calls:
        with pytest.raises(TypeError):
            call()


def test_mixed_arity_addition_rejected():
    with pytest.raises(ValueError):
        shuffle_word([0, 0]) + shuffle_word([0])


def test_arity_six_word_alternants_pinned():
    # the fold at arity 6, as derived before its q-rows were packed: the 247
    # alternants of [0,0,0,0,0,0] with their rows sorted
    coeffs = _word_alternant((0,) * 6)
    text = repr(sorted((alpha, sorted(row.items())) for alpha, row in coeffs.items()))
    assert len(coeffs) == 247
    assert hashlib.md5(text.encode()).hexdigest() == "987d25566c9c785860a08a0cc67fe81b"


def test_scaling_back_stores_int_coefficients():
    word = shuffle_word([0, 0, 1])
    half = word.scaled(Fraction(1, 2))
    assert any(type(c) is Fraction for row in half.coeffs.values() for c in row.values())
    back = half.scaled(2)
    assert back == word
    assert all(type(c) is int for row in back.coeffs.values() for c in row.values())
