"""Words checked against the independent oracle, where the reference cannot reach.

`perfbench/oracle.py` imports nothing from `intshuffle`: it evaluates a word
from its defining symmetrized formula, and a printed polynomial through its
own term reader, at random points modulo a prime; a product of two elements
is evaluated here from the same formula over the oracle's kernel.  The reference
`shuffle_full_sym` is too slow for Tier-1 beyond arity 4; these checks reach
arity 6.
"""

import importlib.util
import itertools
import random
from fractions import Fraction
from pathlib import Path

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
    total = 0
    for alpha, row in coeffs.items():
        c = 0
        for qpart, coeff in row.items():
            a, b = (tuple(qpart) + (0, 0))[:2]
            term = pow(point["q1"], a, P) * pow(point["q2"], b, P) % P
            c += term * (coeff.numerator * oracle.inv(coeff.denominator % P)) % P
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


def test_products_of_arity_five_match_the_defining_formula():
    # F = (z1 + z2) sh[1,0] - sh[0,0] and G = sh[0,1,2] + 1/2 sh[0,0,0]; the
    # product is 1/(2! 3!) Sym[F(z1, z2) G(z3, z4, z5) prod_{a<=2<b} omega(z_a, z_b)]
    left = shuffle_word((1, 0)).scaled(z(1) + z(2)) - shuffle_word((0, 0))
    right = shuffle_word((0, 1, 2)) + shuffle_word((0, 0, 0)).scaled(Fraction(1, 2))

    def left_value(p):
        return ((p["z1"] + p["z2"]) * oracle.word_value((1, 0), p)
                - oracle.word_value((0, 0), p)) % P

    def right_value(p):
        return (oracle.word_value((0, 1, 2), p)
                + oracle.inv(2) * oracle.word_value((0, 0, 0), p)) % P

    def product_value(point):
        q1, q2 = point["q1"], point["q2"]
        zs = oracle.z_values(point, 5)
        total = 0
        for perm in itertools.permutations(zs):
            v = left_value({"q1": q1, "q2": q2, "z1": perm[0], "z2": perm[1]})
            v = v * right_value({"q1": q1, "q2": q2, "z1": perm[2], "z2": perm[3],
                                 "z3": perm[4]}) % P
            for a in perm[:2]:
                for b in perm[2:]:
                    v = v * oracle.omega(a, b, q1, q2) % P
            total += v
        return total * oracle.inv(2 * 6) % P

    coeffs = shuffle(left, right).coeffs
    rng = random.Random(25)
    point = oracle.random_point(rng, 5)
    for p in (point, oracle.permuted(point, rng)):
        assert _alternant_value(coeffs, 5, p) == product_value(p)


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
