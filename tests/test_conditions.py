"""Wheel conditions, kernel decomposition, ideal and divisibility certificates."""

import importlib
import itertools
import random
from fractions import Fraction

import pytest

from intshuffle import conditions
from intshuffle.conditions import (
    IdealCertificate,
    corollary_check,
    ideal_certificate,
    ideal_generators,
    ideal_wheel_check,
    omega_decomposition,
    verify_ideal_certificate,
    wheel_check,
)
from intshuffle.errors import ArityTooSmall, NotDivisible
from intshuffle.expr import parse_poly
from intshuffle.generators import GeneratorWord
from intshuffle.poly import Q1, Q2, LaurentPoly, exact_div, render, substitute, z
from intshuffle.shuffle import ShuffleElement, omega_numerator, shuffle, shuffle_word, sym

Q = Q1 * Q2
# the module itself: `import intshuffle.shuffle as m` binds the function
# `shuffle` that the package re-exports
_shuffle_module = importlib.import_module("intshuffle.shuffle")


def test_ideal_generators_match_products():
    gens = ideal_generators()
    assert gens.g1 == shuffle_word([0, 0]).poly
    assert z(1) * z(2) * gens.g2 == 2 * shuffle_word([1, 0]).poly - (
        z(1) + z(2)
    ) * gens.g1


def test_wheel_check_on_words():
    assert wheel_check(shuffle_word([0, 0, 0]))
    assert wheel_check(shuffle_word([2, 1, 0]))
    assert wheel_check(shuffle_word([1, 0, 2, 1]))


def test_wheel_check_vacuous_below_arity_three():
    assert wheel_check(shuffle_word([1, 0]))
    assert wheel_check(ShuffleElement(0, LaurentPoly.constant(3)))


def test_wheel_check_rejects_constants():
    assert not wheel_check(ShuffleElement(3, LaurentPoly.constant(1)))


_WHEEL_POINTS = ({"z1": Q * z(3), "z2": Q2 * z(3)}, {"z1": Q * z(3), "z2": Q1 * z(3)})


def _wheel_by_substitution(p: LaurentPoly) -> bool:
    """The reference verdict: both assignments substituted into the monomials."""
    return all(not substitute(p, point) for point in _WHEEL_POINTS)


def _one_assignment_elements() -> list:
    """(g, [vanishes at each point]) for an arity-3 g that vanishes under
    (q t, q2 t, t) only and its q1 <-> q2 swap, under (q t, q1 t, t) only."""
    g = LaurentPoly.constant(1)
    for a, b, c in itertools.permutations((1, 2, 3)):
        g = g * (z(a) - Q1 * z(b) + z(b) - Q2 * z(c))
    swapped = substitute(g, {"q1": Q2, "q2": Q1})
    return [(ShuffleElement(3, g), [True, False]), (ShuffleElement(3, swapped), [False, True])]


def test_wheel_check_needs_both_assignments():
    for element, vanishes in _one_assignment_elements():
        assert [not substitute(element.poly, point) for point in _WHEEL_POINTS] == vanishes
        assert not wheel_check(element)


def test_wheel_check_matches_substitution():
    # kinds: 0 a word, 2 e1 times a word minus one of its lemma-(b) summands,
    # 4 a third of a q-shifted word and 5 a word times 3^40 + 1, above the
    # 2^53 a float holds exactly (members); 1 a word plus e1, 3 a
    # symmetrized monomial and 6 a half of a q-shifted word plus 3^40 + 1
    # times a q-shifted e1 (non-members).  Arity 5 leaves out kind 2, whose
    # monomials cost 2 s.
    rng = random.Random(23)
    cases = [(3, kind) for kind in range(7) for _ in range(3)]
    cases += [(4, kind) for kind in range(7) for _ in range(2)]
    cases += [(5, 0), (5, 1), (5, 3)]
    big = 3 ** 40 + 1
    elements = []  # (label, element)
    for k, kind in cases:
        word = [rng.randint(-2, 2) for _ in range(k)] if k < 5 else [0] * k
        e1 = sum((z(i) for i in range(1, k + 1)), LaurentPoly.zero())
        element = shuffle_word(word)
        if kind == 1:
            element = element + ShuffleElement(k, e1)
        elif kind == 2:
            element = element.scaled(e1) - shuffle_word([word[0] + 1] + word[1:])
        elif kind == 3:
            element = _random_symmetric(rng, k)
        elif kind == 4:
            element = element.scaled(Fraction(1, 3) * Q1 ** -1 * Q2 ** 2)
        elif kind == 5:
            element = element.scaled(big)
        elif kind == 6:
            element = element.scaled(Fraction(1, 2) * Q2 ** -1) + ShuffleElement(k, big * Q1 * e1)
        elements.append(((k, kind, word), element))
    # arity 4: the product with z1^0 keeps vanishing under one assignment only
    for element, vanishes in _one_assignment_elements():
        element = shuffle(element, shuffle_word([0]))
        assert [not substitute(element.poly, point) for point in _WHEEL_POINTS] == vanishes
        elements.append(((4, "vanishes", vanishes), element))
    verdicts: dict = {}
    for label, element in elements:
        verdict = wheel_check(element)
        assert verdict == _wheel_by_substitution(element.poly), label
        verdicts.setdefault(element.arity, set()).add(verdict)
    assert all(seen == {True, False} for seen in verdicts.values())


def test_wheel_check_builds_no_monomials(monkeypatch):
    # nor the monomial symmetric basis, whose contents outnumber the
    # alternants with large letters: sh[0,0,1000] has 17 alternants and
    # 84,838 contents
    def refuse(*args):
        raise AssertionError("the wheel verdict read the monomial symmetric basis")

    def refuse_poly(*args):
        raise AssertionError("the wheel verdict read the monomials")

    monkeypatch.setattr(conditions, "monomial_coefficients", refuse)
    monkeypatch.setattr(_shuffle_module, "from_alternant", refuse_poly)
    for word in ([1, 0, 2, 1], [0, 0, 1000]):
        assert wheel_check(shuffle_word(word))


def test_ideal_wheel_check_examples():
    assert ideal_wheel_check(shuffle_word([1, 0, 0]))
    assert not ideal_wheel_check(ShuffleElement(3, LaurentPoly.constant(2)))
    with pytest.raises(ArityTooSmall):
        ideal_wheel_check(shuffle_word([0, 0]))


def _random_symmetric(rng: random.Random, k: int) -> ShuffleElement:
    mono = LaurentPoly.constant(rng.randint(1, 3))
    for i in range(1, k + 1):
        mono = mono * z(i, rng.randint(-1, 2))
    if rng.random() < 0.5:
        mono = mono * Q1 ** rng.randint(0, 2) * Q2 ** rng.randint(0, 1)
    return ShuffleElement(k, sym(mono, k))


def test_wheel_formulations_agree():
    rng = random.Random(20)
    agree = 0
    for trial in range(50):
        if trial % 2 == 0:
            word = [rng.randint(0, 2) for _ in range(3)]
            element = shuffle_word(word)  # member: both formulations true
        else:
            element = _random_symmetric(rng, 3)  # generic: usually not
        assert wheel_check(element) == ideal_wheel_check(element)
        agree += 1
    assert agree == 50


def test_omega_decomposition_identity():
    record = omega_decomposition()
    assert record.holds()
    lhs = 2 * omega_numerator(1, 2)
    rhs = (z(1) - z(2)) * record.g1 + z(1) * z(2) * record.g2
    assert lhs == rhs


def test_omega_decomposition_at_unit_parameters():
    # g2 vanishes at q1 = q2 = 1, leaving 2*omega_num = (z1 - z2) g1
    record = omega_decomposition()
    at_unit = {"q1": 1, "q2": 1}
    assert not substitute(record.g2, at_unit)
    assert substitute(2 * record.omega_num, at_unit) == substitute(
        (z(1) - z(2)) * record.g1, at_unit
    )


def test_omega_decomposition_swapped_orientation():
    record = omega_decomposition()
    swapped = substitute(record.omega_num, {"z1": z(2), "z2": z(1)})
    assert 2 * swapped == (z(2) - z(1)) * record.g1 + z(1) * z(2) * record.g2


def test_ideal_certificate_unit_word():
    cert = ideal_certificate([0, 0])
    assert cert.A == LaurentPoly.constant(1)
    assert cert.B == LaurentPoly.zero()
    assert verify_ideal_certificate(cert)


def test_ideal_certificate_letter_word():
    cert = ideal_certificate([1, 0])
    assert cert.A == Fraction(1, 2) * (z(1) + z(2))
    assert cert.B == Fraction(1, 2) * z(1) * z(2)
    assert verify_ideal_certificate(cert)


def test_ideal_certificate_arity_two_closed_form():
    # at arity 2 the placement loop reduces to A = (m + m_swap)/2 and
    # B = z1 z2 (m - m_swap) / (2 (z1 - z2)) with m = z1^d1 z2^d2
    for d1, d2 in itertools.product(range(-3, 5), repeat=2):
        m, m_swap = z(1, d1) * z(2, d2), z(1, d2) * z(2, d1)
        cert = ideal_certificate([d1, d2])
        assert cert.A == Fraction(1, 2) * (m + m_swap), (d1, d2)
        assert cert.B == Fraction(1, 2) * z(1) * z(2) * exact_div(m - m_swap, z(1) - z(2)), (d1, d2)


def test_ideal_cofactors_keep_integral_coefficients_as_int():
    # the criterion-11 grid and one arity-4 word, built and read back
    words = [w for arity in (2, 3) for w in itertools.product(range(-1, 3), repeat=arity)]
    for word in words + [(1, 0, 2, 0)]:
        cert = ideal_certificate(word)
        for p in (cert.A, cert.B, parse_poly(render(cert.A)), parse_poly(render(cert.B))):
            assert not any(
                isinstance(c, Fraction) and c.denominator == 1 for c in p.terms.values()
            ), word


def test_ideal_certificate_arity_three():
    cert = ideal_certificate([0, 0, 0])
    assert verify_ideal_certificate(cert)
    cert = ideal_certificate([2, -1, 1])
    assert verify_ideal_certificate(cert)


def test_ideal_certificate_arity_error():
    with pytest.raises(ArityTooSmall):
        ideal_certificate([3])


def test_verify_rejects_zero_cofactors():
    cert = IdealCertificate(
        GeneratorWord((1, 0)), LaurentPoly.zero(), LaurentPoly.zero()
    )
    assert not verify_ideal_certificate(cert)


def test_ideal_certificate_json_round_trip():
    cert = ideal_certificate([1, 0, 1])
    back = IdealCertificate.from_json(cert.to_json())
    assert back.target == cert.target
    assert back.A == cert.A and back.B == cert.B
    assert verify_ideal_certificate(back)


def test_ideal_certificate_polynomial_target():
    # a target given as a canonical polynomial instead of a word
    gens = ideal_generators()
    cert = IdealCertificate(
        ShuffleElement(2, gens.g1), LaurentPoly.constant(1), LaurentPoly.zero()
    )
    assert verify_ideal_certificate(cert)
    back = IdealCertificate.from_json(cert.to_json())
    assert isinstance(back.target, ShuffleElement)
    assert verify_ideal_certificate(back)
    wrong = IdealCertificate(
        ShuffleElement(2, gens.g2), LaurentPoly.constant(1), LaurentPoly.zero()
    )
    assert not verify_ideal_certificate(wrong)


_COROLLARY_DIVISOR = (1 + Q1) * (1 + Q2) * (1 + Q)


def _corollary_by_substitution(p: LaurentPoly):
    """The reference: the z2 := -z1 image of the monomials, divided by D exactly."""
    try:
        return (True, exact_div(substitute(p, {"z2": -z(1)}), _COROLLARY_DIVISOR))
    except NotDivisible:
        return (False, None)


def test_corollary_matches_substitution():
    # kinds: 0 a word and 1 a third of a word (members); 2 a word plus e1,
    # 3 half a word plus a third of e1 and 4 a symmetrized monomial
    # (usually non-members).  Arity 5 runs sh[0,0,0,0,0] as kinds 0, 3 and
    # 4 only: a wider word's monomials take 5-6 s to substitute.
    rng = random.Random(24)
    gens = ideal_generators()
    third = Fraction(1, 3)
    elements = [ShuffleElement(2, gens.g1), ShuffleElement(2, gens.g2),
                ShuffleElement(2, third * gens.g1), ShuffleElement(3, LaurentPoly.zero())]
    cases = [(k, kind) for k in (2, 3) for kind in range(5) for _ in range(3)]
    cases += [(4, kind) for kind in range(5)]
    cases += [(5, 0), (5, 3), (5, 4)]
    for k, kind in cases:
        word = [rng.randint(-2, 2) for _ in range(k)] if k < 5 else [0] * k
        e1 = sum((z(i) for i in range(1, k + 1)), LaurentPoly.zero())
        element = shuffle_word(word)
        if kind == 1:
            element = element.scaled(third)
        elif kind == 2:
            element = element + ShuffleElement(k, e1)
        elif kind == 3:
            element = element.scaled(Fraction(1, 2)) + ShuffleElement(k, third * e1)
        elif kind == 4:
            element = _random_symmetric(rng, k)
        elements.append(element)
    verdicts: dict = {}
    for element in elements:
        got = corollary_check(element)
        assert got == _corollary_by_substitution(element.poly), element
        verdicts.setdefault(element.arity, set()).add(got[0])
    assert all(seen == {True, False} for seen in verdicts.values()), verdicts


def test_corollary_check_builds_no_monomials(monkeypatch):
    def refuse(*args):
        raise AssertionError("the corollary verdict read the monomials")

    monkeypatch.setattr(_shuffle_module, "from_alternant", refuse)
    assert corollary_check(shuffle_word([1, 0, 2, 1]))[0]


def test_corollary_on_generators():
    gens = ideal_generators()
    ok, cofactor = corollary_check(ShuffleElement(2, gens.g1))
    assert ok and cofactor == z(1) ** 2
    ok, cofactor = corollary_check(ShuffleElement(2, gens.g2))
    assert ok and cofactor == LaurentPoly.zero()


def test_corollary_on_words():
    ok, cofactor = corollary_check(shuffle_word([2, 1, 0]))
    assert ok and cofactor is not None
    divisor = (1 + Q1) * (1 + Q2) * (1 + Q)
    image = substitute(shuffle_word([2, 1, 0]).poly, {"z2": -z(1)})
    assert cofactor * divisor == image


def test_corollary_rejects_nonmembers():
    ok, cofactor = corollary_check(ShuffleElement(2, z(1) * z(2)))
    assert not ok and cofactor is None


def test_corollary_arity_error():
    with pytest.raises(ArityTooSmall):
        corollary_check(shuffle_word([4]))


def test_corollary_consistent_with_ideal_certificate():
    # substituting z2 := -z1 into A g1 + B g2 kills the g2 part, so the
    # divisibility cofactor is the substituted A times z1^2
    for word in ((1, 0), (2, 1), (0, -1)):
        cert = ideal_certificate(word)
        ok, cofactor = corollary_check(shuffle_word(word))
        assert ok
        assert cofactor == substitute(cert.A, {"z2": -z(1)}) * z(1) ** 2
