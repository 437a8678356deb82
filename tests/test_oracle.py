"""Words checked against the independent oracle, where the reference cannot reach.

`perfbench/oracle.py` imports nothing from `intshuffle`: it evaluates a word
from its defining symmetrized formula, and a printed polynomial through its
own term reader, at random points modulo a prime; a product of two elements
is evaluated here from the same formula over the oracle's kernel.  The reference
`shuffle_full_sym` is too slow for Tier-1 beyond arity 4; these checks reach
arity 6.
"""

import functools
import importlib.util
import itertools
import random
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from intshuffle.cli import main
from intshuffle.conditions import corollary_check, wheel_check
from intshuffle.poly import LaurentPoly, render, z
from intshuffle.shuffle import ShuffleElement, shuffle, shuffle_word

_spec = importlib.util.spec_from_file_location(
    "oracle", Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)
P = oracle.P


def _det(rows: list) -> int:
    """Determinant mod P, by elimination."""
    rows = [list(r) for r in rows]
    det = 1
    for i in range(len(rows)):
        pivot = next((r for r in range(i, len(rows)) if rows[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            rows[i], rows[pivot] = rows[pivot], rows[i]
            det = -det
        det = det * rows[i][i] % P
        inv = oracle.inv(rows[i][i])
        for r in range(i + 1, len(rows)):
            f = rows[r][i] * inv % P
            if f:
                rows[r] = [(x - f * y) % P for x, y in zip(rows[r], rows[i])]
    return det % P


def _alternant_value(coeffs: dict, k: int, point: dict) -> int:
    """sum_alpha c_alpha(q1, q2) det(z_i^alpha_j) / V at `point`, V = prod_{i<j}(z_i - z_j)."""
    zs = oracle.z_values(point, k)
    inv = functools.cache(oracle.inv)
    weights: dict = {}  # q-part -> its value at the point, as the rows share q-parts
    total = 0
    for alpha, row in coeffs.items():
        c = 0
        for qpart, coeff in row.items():
            weight = weights.get(qpart)
            if weight is None:
                a, b = (tuple(qpart) + (0, 0))[:2]
                weight = weights[qpart] = pow(point["q1"], a, P) * pow(point["q2"], b, P) % P
            c += weight * coeff.numerator % P * inv(coeff.denominator % P)
        total += c % P * _det([[pow(z, e, P) for e in alpha] for z in zs])
    vandermonde = 1
    for i in range(k):
        for j in range(i + 1, k):
            vandermonde = vandermonde * (zs[i] - zs[j]) % P
    return total % P * oracle.inv(vandermonde) % P


def test_words_match_the_defining_formula():
    rng = random.Random(2020)
    words = [tuple(rng.randint(-2, 2) for _ in range(5)) for _ in range(5)]
    for word in words + [(0,) * 6]:
        point = oracle.random_point(rng, len(word))
        got = _alternant_value(shuffle_word(word).coeffs, len(word), point)
        assert got == oracle.word_value(word, point), word


def _words(k: int, letters=st.integers(-2, 2)):
    return st.lists(letters, min_size=k, max_size=k).map(tuple)


def _operands(k: int):
    """Sums of one or two arity-k words, each scaled by c q1^a q2^b, times e1
    when the flag is set: (c, a, b, flag) for each word.  Letters stay in
    [-1, 1] and sums short, as the product's cost grows with the alternants
    of both operands."""
    scalars = st.tuples(st.fractions(-3, 3, max_denominator=4), st.integers(-1, 2),
                        st.integers(-1, 2), st.booleans())
    return st.lists(st.tuples(scalars, _words(k, st.integers(-1, 1))), min_size=1, max_size=2)


def _operand_element(operand: list, k: int) -> ShuffleElement:
    e1 = sum((z(i) for i in range(1, k + 1)), LaurentPoly.zero())
    total = ShuffleElement(k, LaurentPoly.zero())
    for (c, a, b, with_e1), word in operand:
        scalar = LaurentPoly({(a, b): c})
        total = total + shuffle_word(word).scaled(scalar * e1 if with_e1 else scalar)
    return total


def _operand_value(operand: list, q1: int, q2: int, zs: tuple) -> int:
    point = {"q1": q1, "q2": q2, **{f"z{i + 1}": v for i, v in enumerate(zs)}}
    total = 0
    for (c, a, b, with_e1), word in operand:
        v = c.numerator * oracle.inv(c.denominator) * pow(q1, a, P) % P * pow(q2, b, P) % P
        if with_e1:
            v = v * sum(zs) % P
        total += v * oracle.word_value(word, point)
    return total % P


def _product_value(left: list, right: list, point: dict) -> int:
    """1/(2! 3!) Sym[F(z1, z2) G(z3, z4, z5) prod_{a<=2<b} omega(z_a, z_b)]."""
    q1, q2 = point["q1"], point["q2"]
    total = 0
    for perm in itertools.permutations(oracle.z_values(point, 5)):
        v = _operand_value(left, q1, q2, perm[:2]) * _operand_value(right, q1, q2, perm[2:]) % P
        for a in perm[:2]:
            for b in perm[2:]:
                v = v * oracle.omega(a, b, q1, q2) % P
        total += v
    return total * oracle.inv(2 * 6) % P


@settings(max_examples=6, deadline=None)
@given(case=st.one_of(_words(5), st.tuples(_operands(2), _operands(3))),
       seed=st.integers(0, 2**32 - 1))
# F = (z1 + z2) sh[1,0] - sh[0,0] and G = sh[0,1,2] + 1/2 sh[0,0,0]
@example(case=([((Fraction(1), 0, 0, True), (1, 0)), ((Fraction(-1), 0, 0, False), (0, 0))],
               [((Fraction(1), 0, 0, False), (0, 1, 2)),
                ((Fraction(1, 2), 0, 0, False), (0, 0, 0))]),
         seed=25)
def test_random_operands_match_the_defining_formula(case, seed):
    # a word of arity 5, folded letter by letter, or the product F * G of an
    # arity-2 and an arity-3 operand
    if isinstance(case[0], int):
        coeffs = shuffle_word(case).coeffs

        def value(p):
            return oracle.word_value(case, p)
    else:
        left, right = case
        coeffs = shuffle(_operand_element(left, 2), _operand_element(right, 3)).coeffs

        def value(p):
            return _product_value(left, right, p)
    rng = random.Random(seed)
    point = oracle.random_point(rng, 5)
    for p in (point, oracle.permuted(point, rng)):
        assert _alternant_value(coeffs, 5, p) == value(p)


def test_expand_text_of_arity_five_matches_the_defining_formula(capsys):
    # the printed text is otherwise pinned only by an MD5 of the program's own output
    assert main(["expand", "sh[0,0,0,0,0]"]) == 0
    text = capsys.readouterr().out
    point = oracle.random_point(random.Random(5), 5)
    assert oracle.evaluate(text, point) == oracle.word_value((0,) * 5, point)


def _wheel_points(rng: random.Random, arity: int) -> list:
    """(z1, z2, z3) = (q t, q2 t, t) and (q t, q1 t, t), q = q1 q2, with t
    and the other z's random."""
    points = []
    for second in ("q2", "q1"):
        point = oracle.random_point(rng, arity)
        t = point["z3"]
        point["z1"] = point["q1"] * point["q2"] % P * t % P
        point["z2"] = point[second] * t % P
        points.append(point)
    return points


def test_wheel_verdicts_of_arity_five_match_the_defining_formula():
    rng = random.Random(23)
    for word in ((1, 0, 0, 0, 0), (0, 2, -1, 0, 1)):
        assert wheel_check(shuffle_word(word)), word
        assert all(oracle.word_value(word, p) == 0 for p in _wheel_points(rng, 5)), word
    # sh[0,0,0,0,0] + e1 fails, and the formula is nonzero at a wheel point
    e1 = sum((z(i) for i in range(1, 6)), LaurentPoly.zero())
    assert not wheel_check(shuffle_word((0,) * 5) + ShuffleElement(5, e1))
    assert any((oracle.word_value((0,) * 5, p) + sum(oracle.z_values(p, 5))) % P
               for p in _wheel_points(rng, 5))


def _corollary_points(rng: random.Random, arity: int) -> list:
    """z2 = -z1 on each of q1 = -1, q2 = -1 and q1 q2 = -1, the other values random."""
    points = []
    for which in ("q1", "q2", "q"):
        point = oracle.random_point(rng, arity)
        point["z2"] = -point["z1"] % P
        if which == "q":
            point["q2"] = (P - 1) * oracle.inv(point["q1"]) % P
        else:
            point[which] = P - 1
        points.append(point)
    return points


def _corollary_agrees(element: ShuffleElement, value, rng: random.Random) -> bool:
    """Whether corollary_check's verdict and cofactor agree with `value`, the
    element's value at a point: divisible exactly when the value vanishes at
    every corollary point, and then the cofactor times (1+q1)(1+q2)(1+q) is
    the value at a random point with z2 = -z1."""
    holds, cofactor = corollary_check(element)
    if holds != all(value(p) == 0 for p in _corollary_points(rng, element.arity)):
        return False
    if not holds:
        return cofactor is None
    point = oracle.random_point(rng, element.arity)
    point["z2"] = -point["z1"] % P
    image = value(point)
    del point["z2"]  # the cofactor must not mention z2
    q1, q2 = point["q1"], point["q2"]
    divisor = (1 + q1) * (1 + q2) % P * (1 + q1 * q2) % P
    return oracle.evaluate(render(cofactor), point) * divisor % P == image


def test_corollary_of_arity_five_matches_the_defining_formula():
    rng = random.Random(24)
    for word in ((0, 0, 0, 0, 0), (1, 0, 2, 0, -1), (0, 1, -1, 2, 0)):
        assert _corollary_agrees(shuffle_word(word),
                                 lambda p, w=word: oracle.word_value(w, p), rng), word
    # sh[0,0,0,0,0] + e1 is not divisible, and the formula says so too
    e1 = sum((z(i) for i in range(1, 6)), LaurentPoly.zero())
    element = shuffle_word((0,) * 5) + ShuffleElement(5, e1)
    assert not corollary_check(element)[0]
    assert _corollary_agrees(
        element, lambda p: (oracle.word_value((0,) * 5, p) + sum(oracle.z_values(p, 5))) % P, rng)
