"""Acceptance criteria, one test per criterion.

Every check is exact (symbolic equality); each test also enforces its stated
wall-clock budget and prints one PASS line.  Run with `pytest -s` to see the
per-criterion report.
"""

import itertools
import random
import time

from intshuffle.cli import main as cli_main
from intshuffle.conditions import (
    corollary_check,
    ideal_certificate,
    ideal_generators,
    ideal_wheel_check,
    omega_decomposition,
    verify_ideal_certificate,
    wheel_check,
)
from intshuffle.generators import (
    BASIS3,
    reduce2,
    reduce3,
    verify_certificate,
    verify_lemma,
)
from intshuffle.poly import Q1, Q2, LaurentPoly, is_symmetric, z
from intshuffle.shuffle import (
    ShuffleElement,
    one_variable,
    scalar,
    shuffle,
    shuffle_full_sym,
    shuffle_word,
    sym,
)

Q = Q1 * Q2

GOLDEN_00 = (
    "-q1^2 q2^2 z1 z2 - q1^2 q2 z1 z2 - q1 q2^2 z1 z2 + 2 q1 q2 z1^2"
    " + 2 q1 q2 z1 z2 + 2 q1 q2 z2^2 - q1 z1 z2 - q2 z1 z2 - z1 z2"
)
GOLDEN_10 = (
    "-q1^2 q2^2 z1^2 z2 - q1^2 q2^2 z1 z2^2 + q1 q2 z1^3 + 2 q1 q2 z1^2 z2"
    " + 2 q1 q2 z1 z2^2 + q1 q2 z2^3 - q1 z1^2 z2 - q1 z1 z2^2"
    " - q2 z1^2 z2 - q2 z1 z2^2"
)


class _Clock:
    def __init__(self, number, description, budget_s):
        self.number = number
        self.description = description
        self.budget = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:>2} {status} ({elapsed:7.2f}s)"
              f"  {self.description}")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget"
            )
        return False


def _cli_stdout(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_01_golden_expansion_unit(capsys):
    with _Clock(1, "golden expansion of sh[0,0]", 1.0):
        code, out = _cli_stdout(capsys, "expand", "sh[0,0]")
        assert code == 0
        assert out == GOLDEN_00 + "\n"
        expected = (
            2 * Q * z(1) ** 2
            - (1 + Q1 + Q2 - 2 * Q + Q1 * Q + Q2 * Q + Q * Q) * z(1) * z(2)
            + 2 * Q * z(2) ** 2
        )
        assert shuffle_word([0, 0]).poly == expected


def test_criterion_02_golden_expansion_letter(capsys):
    with _Clock(2, "golden expansion of sh[1,0]", 1.0):
        code, out = _cli_stdout(capsys, "expand", "sh[1,0]")
        assert code == 0
        assert out == GOLDEN_10 + "\n"
        expected = (
            Q * z(1) ** 3
            + (-Q1 - Q2 + 2 * Q - Q * Q) * (z(1) + z(2)) * z(1) * z(2)
            + Q * z(2) ** 3
        )
        assert shuffle_word([1, 0]).poly == expected


def test_reference_reproduces_golden_expansions():
    # the reference on its own, not against `shuffle`: criteria 1 and 2, and
    # its arity-0 edges, where one Vandermonde is 1 and the shift map is empty
    assert str(shuffle_full_sym(one_variable(0), one_variable(0))) == GOLDEN_00
    assert str(shuffle_full_sym(one_variable(1), one_variable(0))) == GOLDEN_10
    x = shuffle_word([1, 0])
    assert shuffle_full_sym(scalar(2), x) == x.scaled(2)
    assert shuffle_full_sym(x, scalar(2)) == x.scaled(2)
    assert shuffle_full_sym(scalar(2), scalar(3)) == scalar(6)


def test_criterion_03_simplified_generator_identity():
    with _Clock(3, "2 sh[1,0] - (z1+z2) sh[0,0] = z1 z2 g2", 1.0):
        lhs = 2 * shuffle_word([1, 0]).poly - (z(1) + z(2)) * shuffle_word([0, 0]).poly
        rhs = z(1) * z(2) * (1 - Q1) * (1 - Q2) * (1 - Q) * (z(1) + z(2))
        assert lhs == rhs


def test_criterion_04_associativity_cube():
    with _Clock(4, "associativity over [-2,2]^3 (125 cases)", 30.0):
        for a, b, c in itertools.product(range(-2, 3), repeat=3):
            za, zb, zc = one_variable(a), one_variable(b), one_variable(c)
            left = shuffle(shuffle(za, zb), zc)
            right = shuffle(za, shuffle(zb, zc))
            assert left.poly == right.poly, (a, b, c)


def test_criterion_05_wheel_conditions():
    with _Clock(5, "wheel conditions for arity-3 grid + 10 random arity-4", 120.0):
        for word in itertools.product(range(3), repeat=3):
            assert wheel_check(shuffle_word(word)), word
        rng = random.Random(505)
        for _ in range(10):
            word = tuple(rng.randint(0, 2) for _ in range(4))
            assert wheel_check(shuffle_word(word)), word


def test_criterion_06_lemma_verifier():
    with _Clock(6, "module actions for k in {2,3,4}, n in [-2,2]", 300.0):
        rng = random.Random(606)
        for which in ("a", "b"):
            for k in (2, 3, 4):
                for n in range(-2, 3):
                    for _ in range(5):
                        word = tuple(rng.randint(-3, 3) for _ in range(k))
                        assert verify_lemma(word, n, which), (which, k, n, word)


_BASE_IDENTITIES = [
    # target, combination asserting expand(target) == sum coeff*expand(word)
    ((0, 0, 1), (("e1", (0, 0, 0)), (-1, (1, 0, 0)), (-1, (0, 1, 0)))),
    ((1, 0, 1), (("e1", (1, 0, 0)), (-1, (2, 0, 0)), (-1, (1, 1, 0)))),
    ((0, 1, 1), (("e2", (0, 0, 0)), (-1, (1, 0, 1)), (-1, (1, 1, 0)))),
    ((2, 0, 1), (("e2", (1, 0, 0)), (-1, (2, 1, 0)), ("-e3", (0, 0, 0)))),
    ((2, 2, 0), (("e2", (1, 1, 0)), ("-e3", (1, 0, 0)), ("-e3", (0, 1, 0)))),
    ((0, 2, 0), (("e1", (0, 1, 0)), (-1, (1, 1, 0)), (-1, (0, 1, 1)))),
    ((1, 2, 0), (("e1", (1, 1, 0)), (-1, (2, 1, 0)), ("-e3", (0, 0, 0)))),
    ((0, 2, 1), (("e2", (0, 1, 0)), (-1, (1, 2, 0)), ("-e3", (0, 0, 0)))),
    ((0, 2, 2), (("e2", (0, 1, 1)), ("-e3", (0, 0, 1)), ("-e3", (0, 1, 0)))),
]

_SCALARS = {
    "e1": z(1) + z(2) + z(3),
    "e2": z(1) * z(2) + z(1) * z(3) + z(2) * z(3),
    "-e3": -(z(1) * z(2) * z(3)),
}


def _check_identity(target, combination):
    total = LaurentPoly.zero()
    for coeff, word in combination:
        scalar_poly = _SCALARS[coeff] if isinstance(coeff, str) else LaurentPoly.constant(coeff)
        total = total + scalar_poly * shuffle_word(word).poly
    assert total == shuffle_word(target).poly, target


def _swap23(word):
    return (word[0], word[2], word[1])


def test_criterion_07_base_case_identities():
    with _Clock(7, "nine base-case identities and their letter swaps", 60.0):
        for target, combination in _BASE_IDENTITIES:
            _check_identity(target, combination)
            swapped = tuple(
                (coeff, _swap23(word)) for coeff, word in combination
            )
            _check_identity(_swap23(target), swapped)


def test_criterion_08_reduce3_certificates():
    with _Clock(8, "reduce3 certificates over [-1,3]^3 (125 words)", 600.0):
        basis = {w.exponents for w in BASIS3}
        for word in itertools.product(range(-1, 4), repeat=3):
            cert = reduce3(word)
            assert {w.exponents for _, w in cert.combination} <= basis
            for cofactor, _ in cert.combination:
                assert is_symmetric(cofactor, 3), word
            assert verify_certificate(cert), word


def test_criterion_09_reduce2_certificates():
    with _Clock(9, "reduce2 certificates over [-2,3]^2 (36 words)", 60.0):
        for word in itertools.product(range(-2, 4), repeat=2):
            cert = reduce2(word)
            for cofactor, _ in cert.combination:
                assert is_symmetric(cofactor, 2), word
            assert verify_certificate(cert), word


def test_criterion_10_omega_decomposition():
    with _Clock(10, "kernel decomposition 2 w = (z1-z2) g1 + z1 z2 g2", 1.0):
        record = omega_decomposition()
        assert record.holds()
        assert 2 * record.omega_num == (z(1) - z(2)) * record.g1 + z(1) * z(
            2
        ) * record.g2


def test_criterion_11_ideal_certificates():
    with _Clock(11, "ideal certificates, arities 2 and 3, exps in [-1,2]", 300.0):
        for word in itertools.product(range(-1, 3), repeat=2):
            assert verify_ideal_certificate(ideal_certificate(word)), word
        for word in itertools.product(range(-1, 3), repeat=3):
            assert verify_ideal_certificate(ideal_certificate(word)), word


def test_criterion_12_corollary_divisibility():
    with _Clock(12, "divisibility of the z2:=-z1 image, exps in [0,2]", 120.0):
        gens = ideal_generators()
        ok, cofactor = corollary_check(ShuffleElement(2, gens.g1))
        assert ok and cofactor == z(1) ** 2
        for arity in (2, 3):
            for word in itertools.product(range(3), repeat=arity):
                ok, cofactor = corollary_check(shuffle_word(word))
                assert ok and cofactor is not None, word


def test_criterion_13_wheel_formulations_agree():
    with _Clock(13, "wheel vs ideal formulation on 50 arity-3 inputs", 60.0):
        rng = random.Random(1313)
        members = non_members = 0
        for trial in range(50):
            if trial % 2 == 0:
                word = tuple(rng.randint(0, 2) for _ in range(3))
                element = shuffle_word(word)
            else:
                mono = LaurentPoly.constant(rng.randint(1, 3))
                for i in (1, 2, 3):
                    mono = mono * z(i, rng.randint(-1, 2))
                element = ShuffleElement(3, sym(mono, 3))
            direct = wheel_check(element)
            via_ideal = ideal_wheel_check(element)
            assert direct == via_ideal
            members += direct
            non_members += not direct
        assert members and non_members  # the sample includes both kinds
