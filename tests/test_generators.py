"""Generator words, module actions, and reduction certificates."""

import collections
import hashlib
import itertools
import json
import random
import sys
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intshuffle.errors import ArityTooSmall
from intshuffle.generators import (
    _RULES,
    BASIS2,
    BASIS3,
    GeneratorWord,
    ModuleCertificate,
    _product_power_poly,
    act_power_sum,
    act_product_power,
    range4,
    reduce2,
    reduce3,
    residue_class,
    verify_certificate,
    verify_lemma,
)
from intshuffle.cli import main
from intshuffle.conditions import ideal_certificate
from intshuffle.poly import ONE, LaurentPoly, z
from intshuffle.shuffle import shuffle_word


def test_act_product_power():
    assert act_product_power([0, 0], 1).exponents == (1, 1)
    assert act_product_power([2, 1, 0], -1).exponents == (1, 0, -1)
    w = GeneratorWord((4, -1))
    assert act_product_power(w, 0) == w


def test_act_product_power_semantics():
    lhs = z(1) * z(2) * shuffle_word([0, 0]).poly
    assert lhs == shuffle_word([1, 1]).poly
    lhs = (z(1) * z(2) * z(3)) ** -1 * shuffle_word([2, 1, 0]).poly
    assert lhs == shuffle_word([1, 0, -1]).poly


def test_act_power_sum():
    words = [w.exponents for w in act_power_sum([0, 0, 0], 1)]
    assert words == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert [w.exponents for w in act_power_sum([5], 3)] == [(8,)]
    assert [w.exponents for w in act_power_sum([1, 0], -1)] == [(0, 0), (1, -1)]


def test_act_power_sum_semantics():
    lhs = (z(1) + z(2) + z(3)) * shuffle_word([0, 0, 0]).poly
    rhs = LaurentPoly.zero()
    for w in act_power_sum([0, 0, 0], 1):
        rhs = rhs + shuffle_word(w.exponents).poly
    assert lhs == rhs


def test_verify_lemma_examples():
    assert verify_lemma([0, 0], 1, "a")
    assert verify_lemma([3], -4, "b")  # single letter, trivially
    assert verify_lemma([2, 0, 1], -2, "b")
    assert verify_lemma([1, -1], 2, "a")
    with pytest.raises(ValueError):
        verify_lemma([0, 0], 1, "c")


def test_checks_never_expand_to_monomials(monkeypatch, capsys):
    # the module actions, certificates and associativity are compared on
    # stored alternant coefficients, so no monomial view is ever built
    def refuse(coeffs, n):
        raise AssertionError("expanded to monomials")

    monkeypatch.setattr(sys.modules["intshuffle.shuffle"], "from_alternant", refuse)
    assert verify_lemma([1, 0, -1, 2], 1, "b")
    assert verify_lemma([2, 0, 1], -2, "a")
    assert verify_certificate(reduce3([3, -1, 2]))
    assert verify_certificate(reduce2([-1, 3]))
    assert main(["assoc", "1", "0", "-1"]) == 0
    assert capsys.readouterr().out == "true\n"


def test_bases():
    assert tuple(w.exponents for w in BASIS2) == ((0, 0), (1, 0))
    assert len(BASIS3) == 6
    assert {w.exponents for w in BASIS3} == {
        (0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0), (2, 1, 0)
    }


def test_reduce2_examples():
    cert = reduce2([0, 1])
    combo = {w.exponents: c for c, w in cert.combination}
    assert combo == {(0, 0): z(1) + z(2), (1, 0): LaurentPoly.constant(-1)}
    assert verify_certificate(cert)

    cert = reduce2([1, 1])
    combo = {w.exponents: c for c, w in cert.combination}
    assert combo == {(0, 0): z(1) * z(2)}
    assert verify_certificate(cert)

    cert = reduce2([0, 0])
    combo = {w.exponents: c for c, w in cert.combination}
    assert combo == {(0, 0): LaurentPoly.constant(1)}


def test_reduce3_first_base_identity():
    cert = reduce3([0, 0, 1])
    combo = {w.exponents: c for c, w in cert.combination}
    assert combo == {
        (0, 0, 0): z(1) + z(2) + z(3),
        (1, 0, 0): LaurentPoly.constant(-1),
        (0, 1, 0): LaurentPoly.constant(-1),
    }
    assert verify_certificate(cert)


def test_reduce3_trivial_for_basis_words():
    for basis_word in BASIS3:
        cert = reduce3(basis_word)
        combo = {w.exponents: c for c, w in cert.combination}
        assert combo == {basis_word.exponents: LaurentPoly.constant(1)}


def test_reduce3_larger_word():
    cert = reduce3([3, 1, 0])
    assert verify_certificate(cert)
    used = {w.exponents for _, w in cert.combination}
    assert used <= {w.exponents for w in BASIS3}


def test_reduce3_negative_entries():
    cert = reduce3([-2, 0, 3])
    assert verify_certificate(cert)


def test_certificate_cofactors_symmetric():
    from intshuffle.poly import is_symmetric

    cert = reduce3([2, 2, 2])
    for cofactor, _ in cert.combination:
        assert is_symmetric(cofactor, 3)


def test_perturbed_certificate_fails():
    cert = reduce3([0, 0, 1])
    bad = ModuleCertificate(
        cert.target,
        tuple(
            (cofactor + 1 if i == 0 else cofactor, word)
            for i, (cofactor, word) in enumerate(cert.combination)
        ),
    )
    assert not verify_certificate(bad)


def test_words_refuse_non_integer_letters():
    # int() would truncate these to sh[1,0], sh[0,0] and sh[2,0]
    with pytest.raises(TypeError):
        reduce2([1.5, 0])
    with pytest.raises(TypeError):
        ideal_certificate([0.9, 0])
    with pytest.raises(TypeError):
        GeneratorWord(("2", 0))


def test_reduce_arity_errors():
    with pytest.raises(ArityTooSmall):
        reduce2([1, 2, 3])
    with pytest.raises(ArityTooSmall):
        reduce3([1, 2])


def test_certificate_json_round_trip():
    cert = reduce3([1, 0, 2])
    text = cert.to_json()
    parsed = json.loads(text)
    assert parsed["schema"] == 1
    back = ModuleCertificate.from_json(text)
    assert back.target == cert.target
    assert back.combination == cert.combination
    # deterministic ordering by word
    words = [w for _, w in parsed["combination"]]
    assert words == sorted(words)


def test_certificate_bytes_pinned():
    # MD5 of the concatenated certificate JSON, in itertools.product order
    module = hashlib.md5()
    for word in itertools.product(range(-2, 5), repeat=3):
        module.update(reduce3(word).to_json().encode())
    for word in itertools.product(range(-2, 5), repeat=2):
        module.update(reduce2(word).to_json().encode())
    assert module.hexdigest() == "0249944fc3c0909450a8262939da5f72"
    ideal = hashlib.md5()
    for arity in (2, 3):
        for word in itertools.product(range(-1, 3), repeat=arity):
            ideal.update(ideal_certificate(word).to_json().encode())
    assert ideal.hexdigest() == "de120ba02e4e83bf6fb51906ec00caaf"


def test_wide_certificate_bytes_pinned():
    # a spread of 30 passes each word's share through hundreds of rewrites
    text = reduce3([0, 0, 30]).to_json()
    assert hashlib.md5(text.encode()).hexdigest() == "0d26eedac27e78bd0637ac4470f5a830"


def test_arity_four_ideal_certificate_bytes_pinned():
    # arity 4 is the first arity whose b >= 3 placements read a repaired
    # arity-3 pair, not only an arity-2 one
    text = ideal_certificate([0, 0, 0, 0]).to_json()
    assert len(text) == 586036
    assert hashlib.md5(text.encode()).hexdigest() == "094c3f3155d94b6b1f689c30aec19f28"


@lru_cache(maxsize=1024)
def _reference_reduce(word):
    """`word` as (basis word, cofactor) pairs sorted by word, by recursion
    into every word of its rewrite: the reduction the one pass replaced."""
    shift = min(word)
    basis, rewrite, _ = _RULES[len(word)]
    if shift:
        steps = ((_product_power_poly(len(word), shift), tuple(d - shift for d in word)),)
    elif word in basis:
        return ((word, ONE),)
    else:
        steps = rewrite(word)
    combo = {}
    for scalar_, sub in steps:
        for basis_word, cofactor in _reference_reduce(sub):
            term = scalar_ * cofactor
            prev = combo.get(basis_word)
            combo[basis_word] = term if prev is None else prev + term
    return tuple(sorted((w, c) for w, c in combo.items() if c))


@given(st.one_of(st.lists(st.integers(-3, 12), min_size=2, max_size=2),
                 st.lists(st.integers(-2, 8), min_size=3, max_size=3)))
@example([0, 0, 1])  # every key of _BASE3
@example([1, 0, 1])
@example([0, 1, 1])
@example([2, 0, 1])
@example([2, 2, 0])
@example([0, 2, 0])
@example([1, 2, 0])
@example([0, 2, 1])
@example([0, 2, 2])
@example([2, 0, 2])
@example([0, 0, 2])
@example([1, 0, 2])
@example([0, 1, 2])
@example([3, 1, 0])  # induction with d2 < n
@example([0, 3, 2])  # induction with d2 >= n
@settings(max_examples=150, deadline=None)
def test_reduction_matches_recursive_reference(word):
    cert = (reduce3 if len(word) == 3 else reduce2)(word)
    expected = _reference_reduce(tuple(word))
    assert cert.combination == tuple((c, GeneratorWord(b)) for b, c in expected)


@pytest.mark.parametrize("word", [(0, 0, 20), (13, 0, 7), (0, 100), (-5, 40)])
def test_each_word_is_rewritten_once(monkeypatch, word):
    # the pop order hands a word all of its shares before its rewrite
    basis, rewrite, bound = _RULES[len(word)]
    rewritten = collections.Counter()

    def counting(w):
        rewritten[w] += 1
        return rewrite(w)

    monkeypatch.setitem(_RULES, len(word), (basis, counting, bound))
    (reduce3 if len(word) == 3 else reduce2)(word)
    assert rewritten and max(rewritten.values()) == 1


def test_range4():
    assert range4([2, 1, 0, 0]) == 3
    assert range4([7, 7, 7, 7]) == 0
    assert range4([1, -1, 2, 0, 9]) == 4  # only the first four letters count
    with pytest.raises(ArityTooSmall):
        range4([1, 2, 3])


def test_range4_shift_invariance():
    rng = random.Random(5)
    for _ in range(20):
        word = [rng.randint(-3, 3) for _ in range(4)]
        n = rng.randint(-3, 3)
        assert range4(word) == range4(act_product_power(word, n))


def test_residue_class():
    assert residue_class([0, 0, 1]) == 1
    assert residue_class([1, 1, 1]) == 0
    assert residue_class([-1, 0]) == 1
    with pytest.raises(ArityTooSmall):
        residue_class([])


def test_residue_class_shift_invariance():
    rng = random.Random(6)
    for _ in range(20):
        k = rng.randint(1, 5)
        word = [rng.randint(-4, 4) for _ in range(k)]
        n = rng.randint(-3, 3)
        assert residue_class(word) == residue_class(act_product_power(word, n))
