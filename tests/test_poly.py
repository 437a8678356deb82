"""Laurent-polynomial arithmetic: examples, errors, and algebraic laws."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intshuffle import poly
from intshuffle._terms_py import div_binomial
from intshuffle.errors import NonInvertibleImage, NotDivisible
from intshuffle.expr import parse_poly
from intshuffle.poly import (
    MAX_Z_INDEX,
    Q1,
    Q2,
    LaurentPoly,
    exact_div,
    is_symmetric,
    permute_z,
    relabel_z,
    render,
    signed_sum,
    substitute,
    z,
)
from intshuffle.shuffle import ShuffleElement, element_sum, shuffle_word, sym

Q = Q1 * Q2


def test_additive_inverse():
    assert z(1) + (-z(1)) == LaurentPoly.zero()
    assert not (z(1) - z(1))


def test_additive_identity():
    p = Q1 * z(1) ** 2 - 3 * z(2)
    assert p + LaurentPoly.zero() == p


def test_like_term_merge():
    assert Q1 * z(1) + Q2 * z(1) == (Q1 + Q2) * z(1)


def test_difference_of_squares():
    assert (z(1) - z(2)) * (z(1) + z(2)) == z(1) ** 2 - z(2) ** 2


def test_mul_identity():
    p = 5 * Q2 * z(3) ** -2 + z(1)
    assert p * LaurentPoly.constant(1) == p


def test_second_ideal_generator_expansion():
    # expansion cross-checked with an independent CAS: twelve monomials
    g2 = (1 - Q1) * (1 - Q2) * (1 - Q) * (z(1) + z(2))
    expected = LaurentPoly.zero()
    for zz in (z(1), z(2)):
        expected = expected + (
            zz
            - Q1 * zz
            - Q2 * zz
            + Q1**2 * Q2 * zz
            + Q1 * Q2**2 * zz
            - Q1**2 * Q2**2 * zz
        )
    assert g2 == expected
    assert len(g2.terms) == 12


def test_exact_div_basic():
    assert exact_div(z(1) ** 2 - z(2) ** 2, z(1) - z(2)) == z(1) + z(2)


def test_exact_div_not_divisible():
    with pytest.raises(NotDivisible):
        exact_div(z(1) + z(2), z(1) - z(2))
    with pytest.raises(NotDivisible):
        exact_div(z(1) ** 2 + 1, z(1) + Q1)


def test_not_divisible_names_the_divisor_not_the_dividend():
    # one stray term on the 5,763 monomials of sh[0,0,0,0]; both division
    # paths must fail without writing the dividend into the message
    p = shuffle_word((0, 0, 0, 0)).poly + z(1) ** 7
    for d in ((1 + Q1) * (1 + z(2)), z(1) - z(2)):
        with pytest.raises(NotDivisible) as info:
            exact_div(p, d)
        message = str(info.value)
        assert render(d) in message and len(message) < 200, message


_KERNEL_DIVISORS = ["z1 - z2", "3 z3 - 3 z1", "q1 - z2", "q1 - q2"]
_LOOP_DIVISORS = ["z1 + z2", "2 z1 - z2", "z1^2 - z2", "z1 - z2^-1", "z1 z2 - 1", "z1 - 1"]


@pytest.mark.parametrize("text", _KERNEL_DIVISORS + _LOOP_DIVISORS)
def test_binomial_kernel_takes_c_times_a_difference_of_variables(monkeypatch, text):
    d = parse_poly(text)
    p = parse_poly("z1^2 z3 - 1/2 q1 z2^-1 + 3 q2^2 z1 z2 + 1")
    calls = []

    def counted(*args):
        calls.append(args)
        return div_binomial(*args)

    monkeypatch.setattr(poly, "div_binomial", counted)
    quotient = exact_div(p * d, d)
    assert len(calls) == (text in _KERNEL_DIVISORS)
    monkeypatch.setattr(poly, "_binomial_slots", lambda terms: None)
    assert exact_div(p * d, d) == quotient == p


def test_exact_div_zero_dividend():
    assert exact_div(LaurentPoly.zero(), z(1) - z(2)) == LaurentPoly.zero()


def test_exact_div_laurent_shift():
    p = z(1) ** -2 - z(2) ** -2
    d = z(1) ** -1 - z(2) ** -1
    assert exact_div(p, d) == z(1) ** -1 + z(2) ** -1


def test_substitute_monomial_image():
    assert substitute(z(1) * z(2), {"z1": Q1 * z(2)}) == Q1 * z(2) ** 2


@pytest.mark.parametrize("name", ["z\u0661", "z\u0662", "z\u00b2", "z01", "z007"])
def test_variable_names_take_ascii_digits_only(name):
    # Arabic-Indic one and two, a superscript two, and leading zeros
    with pytest.raises(ValueError, match="unknown variable name"):
        LaurentPoly.variable(name)
    with pytest.raises(ValueError, match="unknown variable name"):
        substitute(z(1) * z(2), {name: Q1})


def test_z_index_is_bounded():
    assert LaurentPoly.variable(f"z{MAX_Z_INDEX}").terms == {(0,) * (MAX_Z_INDEX + 1) + (1,): 1}
    for name in (f"z{MAX_Z_INDEX + 1}", "z99999999999999"):
        with pytest.raises(ValueError, match="unknown variable name"):
            LaurentPoly.variable(name)
        with pytest.raises(ValueError, match="unknown variable name"):
            LaurentPoly.variable(name, 0)


def test_substitute_negative_exponent_needs_monomial():
    with pytest.raises(NonInvertibleImage):
        substitute(z(1) ** -1, {"z1": z(1) + z(2)})


def test_substitute_generator_corollary_image():
    g1 = (
        2 * Q * z(1) ** 2
        - (1 + Q1 + Q2 - 2 * Q + Q1 * Q + Q2 * Q + Q * Q) * z(1) * z(2)
        + 2 * Q * z(2) ** 2
    )
    image = substitute(g1, {"z2": -z(1)})
    assert image == z(1) ** 2 * (1 + Q1) * (1 + Q2) * (1 + Q)


def test_permute_swap():
    assert permute_z(z(1) ** 2 * z(2), {1: 2, 2: 1}) == z(2) ** 2 * z(1)


def test_permute_identity():
    p = Q1 * z(1) ** -3 + z(2) * z(3)
    assert permute_z(p, {1: 1, 2: 2, 3: 3}) == p


def test_permute_orbit_sum():
    # all six permutations of S_3 applied to z1: each variable appears twice
    import itertools

    total = LaurentPoly.zero()
    for perm in itertools.permutations((1, 2, 3)):
        total = total + permute_z(z(1), perm)
    assert total == 2 * (z(1) + z(2) + z(3))


def test_permute_action_composition():
    p = z(1) ** 2 * z(2) - Q2 * z(3) ** -1
    s = {1: 2, 2: 3, 3: 1}
    t = {1: 3, 2: 1, 3: 2}
    ts = {i: t[s[i]] for i in (1, 2, 3)}
    assert permute_z(permute_z(p, s), t) == permute_z(p, ts)


def test_is_symmetric():
    assert is_symmetric(z(1) + z(2), 2)
    assert not is_symmetric(z(1), 2)
    assert is_symmetric(LaurentPoly.constant(7), 4)


def test_canonical_rendering():
    p = 2 * Q * z(1) ** 2 - z(1) * z(2) + LaurentPoly.constant(Fraction(1, 2))
    assert render(p) == "2 q1 q2 z1^2 - z1 z2 + 1/2"
    assert render(LaurentPoly.zero()) == "0"
    assert render(z(1) ** -2) == "z1^-2"
    assert render(-z(1)) == "-z1"


def test_negative_power_requires_monomial():
    assert (2 * z(1)) ** -2 == LaurentPoly.constant(Fraction(1, 4)) * z(1) ** -2
    with pytest.raises(ValueError):
        (z(1) + z(2)) ** -1


# -- randomized algebraic laws -------------------------------------------------

_coeffs = st.integers(min_value=-4, max_value=4)


@st.composite
def _polys(draw, nvars: int = 3, max_terms: int = 5):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n):
        mono = tuple(
            draw(st.integers(min_value=-2, max_value=2)) for _ in range(2 + nvars)
        )
        terms[mono] = draw(_coeffs)
    return LaurentPoly(terms)


@given(_polys(), _polys(), _polys())
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@st.composite
def _binomials(draw):
    """c*(v_a - v_b), the divisor shape exact_div hands to its binomial path."""
    a, b = draw(st.lists(st.sampled_from(["q1", "q2", "z1", "z2", "z3"]),
                         min_size=2, max_size=2, unique=True))
    c = draw(_coeffs.filter(bool))
    return c * (LaurentPoly.variable(a) - LaurentPoly.variable(b))


@given(_polys(), st.one_of(_polys(), _binomials()))
@example(z(1) - Q1 * z(2) ** -1, Fraction(3, 4) * Q2**-1 * z(3) ** -2)
@example(Fraction(1, 3) * z(2) + Q1**-2, LaurentPoly.constant(Fraction(-2, 5)))
@settings(max_examples=60, deadline=None)
def test_exact_div_round_trip(p, d):
    if not d:
        return
    assert exact_div(p * d, d) == p


@st.composite
def _single_terms(draw):
    mono = tuple(draw(st.integers(min_value=-2, max_value=2)) for _ in range(5))
    c = draw(st.one_of(_coeffs.filter(bool), st.fractions(-4, 4).filter(bool)))
    return LaurentPoly({mono: c})


@given(_polys(), st.one_of(_polys(), _binomials()).filter(lambda d: len(d.terms) >= 2),
       _single_terms())
@settings(max_examples=60, deadline=None)
def test_exact_div_rejects_a_stray_term(p, d, m):
    # m + p*d = t*d would make the monomial m a multiple of d by t - p, and a
    # nonzero multiple of a divisor with two or more terms has two or more terms
    with pytest.raises(NotDivisible):
        exact_div(p * d + m, d)


@given(_polys(), _polys())
@settings(max_examples=40, deadline=None)
def test_substitute_is_ring_hom(a, b):
    images = {"z1": z(2) + Q1, "z2": 2 * z(3), "q1": Q2 * z(1)}
    try:
        sa = substitute(a, images)
        sb = substitute(b, images)
        sab = substitute(a * b, images)
        s_sum = substitute(a + b, images)
    except NonInvertibleImage:
        return  # negative exponent hit a non-monomial image
    assert sab == sa * sb
    assert s_sum == sa + sb


def _relabel_per_term(p, mapping):
    """Reference relabelling: rebuild each monomial from renamed z factors."""
    out = LaurentPoly.zero()
    for mono, c in p.terms.items():
        term = LaurentPoly({mono[:2]: c})
        for i, e in enumerate(mono[2:], 1):
            term = term * z(mapping.get(i, i), e)
        out = out + term
    return out


@given(_polys(), st.dictionaries(st.integers(1, 6), st.integers(1, 7), max_size=6))
@example(z(1) * z(2), {1: 2})
@settings(max_examples=200, deadline=None)
def test_relabel_z_matches_per_term_reference(p, mapping):
    # keys 4..6 lie above the span of p, targets 4..7 are fresh indices
    used = [mapping.get(i, i) for i in range(1, p.z_span() + 1)]
    if len(set(used)) == len(used):
        assert relabel_z(p, mapping) == _relabel_per_term(p, mapping)
    else:
        with pytest.raises(ValueError):
            relabel_z(p, mapping)


_SLOT_NAMES = ("q1", "q2", "z1", "z2", "z3")  # the five slots of _polys()


def _substitute_per_term(p, images):
    """Reference substitution: rebuild each term from the images of its factors."""
    out = LaurentPoly.zero()
    for mono, c in p.terms.items():
        term = LaurentPoly.constant(c)
        for name, e in zip(_SLOT_NAMES, mono):
            base = images.get(name, LaurentPoly.variable(name))
            if e < 0 and len(base.terms) != 1:
                raise NonInvertibleImage(name)
            term = term * base**e
        out = out + term
    return out


# monomial images with coefficient -1 or negative exponents, images that merge
# two variables, polynomial images and the zero image
_images = st.dictionaries(
    st.sampled_from(_SLOT_NAMES),
    st.sampled_from([-z(1), Q * z(3), z(1), z(2), -3 * Q2**-1 * z(3) ** -2,
                     z(2) + Q1, 1 - z(1) * z(3), LaurentPoly.zero()]),
    max_size=3,
)


@given(_polys(), _images)
@example(z(1) * z(2) ** -1 + z(2), {"z2": -z(1)})
@example(z(1) ** -1 * z(3) + Q1, {"z1": Q * z(3), "z3": z(1)})
@example(z(2) ** -1 + z(1), {"z2": z(1) + z(2)})
@example(z(1) ** 2 * z(2) + z(1) * z(2) ** 2, {"z1": Q * z(3), "z2": 1 - z(1) * z(3)})
@settings(max_examples=200, deadline=None)
def test_substitute_matches_per_term_reference(p, images):
    try:
        expected = _substitute_per_term(p, images)
    except NonInvertibleImage:
        with pytest.raises(NonInvertibleImage):
            substitute(p, images)
        return
    assert substitute(p, images) == expected


@given(_polys(), _polys())
@settings(max_examples=40, deadline=None)
def test_homogeneous_mul_adds_degree(a, b):
    if len(a.total_z_degrees()) != 1 or len(b.total_z_degrees()) != 1:
        return
    (da,) = a.total_z_degrees()
    (db,) = b.total_z_degrees()
    product = a * b
    if product:
        assert product.total_z_degrees() == {da + db}


def test_canonical_uniqueness():
    a = LaurentPoly({(0, 0, 1): 1, (0, 0, 0, 1): 1})
    b = z(2) + z(1)
    assert a.terms == b.terms
    assert hash(a) == hash(b)


@pytest.mark.parametrize("c", [0, 5, -2, Fraction(3, 4)])
def test_constant_hashes_as_its_coefficient(c):
    p = LaurentPoly.constant(c)
    assert p == c
    assert hash(p) == hash(c)
    assert {p: 1}[c] == 1
    assert {c: 1}[p] == 1


def _mul_per_term(a, b):
    """Reference product: add exponent vectors one pair of terms at a time."""
    out = LaurentPoly.zero()
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            width = max(len(ma), len(mb))
            ma_, mb_ = ma + (0,) * (width - len(ma)), mb + (0,) * (width - len(mb))
            out = out + LaurentPoly({tuple(x + y for x, y in zip(ma_, mb_)): ca * cb})
    return out


# exponents at the edges of the 2-, 4- and 8-byte packed slots of mul_terms
_wide_exponents = st.one_of(
    st.integers(min_value=-2, max_value=2),
    st.sampled_from([2**15 - 2, -(2**15) + 1, 2**31 - 2, -(2**31) + 1, 2**40]),
)


@st.composite
def _wide_polys(draw):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        mono = tuple(draw(_wide_exponents) for _ in range(draw(st.integers(0, 5))))
        terms[mono] = draw(_coeffs)
    return LaurentPoly(terms)


@given(_wide_polys(), _wide_polys())
@example(LaurentPoly({(2**15 - 1,): 1, (): 1}), LaurentPoly({(1,): 1, (0, 1): 1}))
@settings(max_examples=200, deadline=None)
def test_mul_matches_per_term_reference(a, b):
    assert a * b == _mul_per_term(a, b)


def test_mul_rejects_exponents_past_packing():
    big = LaurentPoly({(2**62,): 1, (0, 1): 1})
    with pytest.raises(ValueError):
        big * big


# -- canonical text against a sort of the whole term map ------------------------


def _reference_render(p):
    """The canonical text by sorting every term on its padded exponents."""
    if not p.terms:
        return "0"
    width = max(len(m) for m in p.terms)

    def key(item):
        mono = item[0]
        return (sum(mono), mono + (0,) * (width - len(mono)))

    pieces = []
    for mono, coeff in sorted(p.terms.items(), key=key, reverse=True):
        factors = [
            (f"z{slot - 1}" if slot > 1 else f"q{slot + 1}") + (f"^{e}" if e != 1 else "")
            for slot, e in enumerate(mono)
            if e
        ]
        negative = coeff < 0
        mag = -coeff if negative else coeff
        mag_text = str(mag) if isinstance(mag, Fraction) else str(int(mag))
        if not factors:
            body = mag_text
        elif mag == 1:
            body = " ".join(factors)
        else:
            body = mag_text + " " + " ".join(factors)
        if not pieces:
            pieces.append("-" + body if negative else body)
        else:
            pieces.append(("- " if negative else "+ ") + body)
    return " ".join(pieces)


_fraction_coeffs = st.one_of(_coeffs, st.fractions(min_value=-3, max_value=3, max_denominator=5))


@st.composite
def _mixed_polys(draw):
    """Negative exponents, fractions, constant terms and keys of mixed width."""
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        mono = tuple(draw(st.integers(-3, 3)) for _ in range(draw(st.integers(0, 6))))
        terms[mono] = draw(_fraction_coeffs)
    return LaurentPoly(terms)


def _assert_normal(p):
    """No coefficient is stored as a Fraction with denominator 1."""
    assert not [c for c in p.terms.values() if isinstance(c, Fraction) and c.denominator == 1]


_HALF = LaurentPoly.constant(Fraction(1, 2))


def _pair(a, b):
    """z1^a z2^b + z1^b z2^a, symmetric in z1, z2."""
    return z(1) ** a * z(2) ** b + z(1) ** b * z(2) ** a


@given(_mixed_polys(), _mixed_polys(), _fraction_coeffs)
# products and sums of halves that are integers, and must be stored as ints
@example(_HALF * z(1), LaurentPoly.zero(), 2)
@example(_HALF * z(1), _HALF * z(1), 0)
@example(_HALF * z(1), 2 * z(2), 0)
@example(_HALF * z(1), _HALF * z(1) + Q1, 0)
# a term without z-factors between two with them, under a q-part and not;
# the constants -1 and 1; a Fraction; negative leading terms
@example(-2 * Q1**2 * Q2**3 - 4 * Q1**2 * Q2**3 * _pair(1, -1), _HALF, 0)
@example(z(1) * z(2) ** -1 - 1 + _HALF * z(1) ** -1 * z(2) - Q2, _HALF, 0)
@example(1 - z(1), _HALF, 0)
@settings(max_examples=300, deadline=None)
def test_render_matches_sorted_reference(p, r, c):
    assert render(p) == _reference_render(p)
    # every operation keeps coefficients in normal form
    for value in (p, p + r, p - r, p * r, p * c, c * p, signed_sum([(1, p), (-1, r)]), p**2,
                  substitute(p, {"z1": 2 * z(3), "z2": Fraction(1, 2) * Q1})):
        _assert_normal(value)
    if len(p.terms) == 1:
        _assert_normal(p**-1)
    if r:
        _assert_normal(exact_div(p * r, r))
    if c:
        binomial = c * (z(1) - z(2))
        _assert_normal(exact_div(p * binomial, binomial))
    # the parser folds a sum of monomials, and adds a parenthesised sum to it
    parsed = parse_poly(f"{render(p)} + ({render(r)})")
    assert parsed == p + r
    _assert_normal(parsed)


@st.composite
def _elements(draw):
    """Sums of words of one arity 0-4, each scaled by c q1^a q2^b or by a
    symmetric z-polynomial; the sums need not be homogeneous."""
    k = draw(st.integers(min_value=0, max_value=4))
    out = element_sum(k, ())
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        word = shuffle_word(draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k)))
        if draw(st.booleans()):
            c = draw(_fraction_coeffs.filter(bool))
            scalar = c * Q1 ** draw(st.integers(-2, 2)) * Q2 ** draw(st.integers(-2, 2))
        else:
            # an elementary symmetric polynomial times a power of z1...zk
            shift = draw(st.integers(-1, 0))
            mono = LaurentPoly.constant(draw(_fraction_coeffs.filter(bool)))
            for i in range(1, k + 1):
                mono = mono * z(i, shift + draw(st.integers(0, 1)))
            scalar = sym(mono, k)
        out = out + word.scaled(scalar)
    return out


@given(_elements())
# the zero content shares the degree-0 line with (1, -1) and (2, -2): under
# a q-part, with a negative leading term; without one, beside a Fraction and
# a coefficient of magnitude 1; as the constant -1 in a two-content group
@example(ShuffleElement(2, -2 * Q1**2 * Q2**3 - 4 * Q1**2 * Q2**3 * _pair(1, -1)))
@example(ShuffleElement(2, 3 + _pair(1, -1) - Fraction(1, 2) * _pair(2, -2)))
@example(ShuffleElement(2, -1 + Fraction(3, 4) * _pair(1, -1) + Q1 * _pair(1, -1)))
# arity 0 and arity 1
@example(ShuffleElement(0, -Q1 + Fraction(3, 4) + Q2**-2))
@example(ShuffleElement(1, z(1) ** -1 - Q2 * z(1) + 1))
@settings(max_examples=40, deadline=None)
def test_element_text_matches_sorted_reference(element):
    assert str(element) == _reference_render(element.poly)
