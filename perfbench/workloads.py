"""The three op lists.  Each op is one CLI command and the oracle check of
its exit code and output.

The seed picks the instances, never the make-up.  In `expand` and `checks`
every op slot names a letter multiset (up to a common shift), and the seed
picks the order of the letters, the shift and the oracle's evaluation
points.  Reordering and shifting letters keeps the size of a word's
expansion about the same, so a pass does about the same work on every seed
while the inputs differ.  `certify` runs fixed words in seeded order.  Each
workload also has one fixed largest operation that no seed changes.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

from oracle import (
    P,
    evaluate,
    ideal_certificate_holds,
    module_certificate_holds,
    permuted,
    power_sum,
    product_power,
    random_point,
    sym_monomial_value,
    word_value,
)

Check = Callable[[int, str], Optional[str]]


@dataclass
class Op:
    argv: list
    check: Check  # (exit code, stdout) -> None when correct, else the reason
    save: Optional[str] = None  # write stdout here after the op (read back next)
    largest: bool = False


@dataclass
class Workload:
    ops: list
    warm: bool  # caches cleared once per pass instead of before every op


def word_arg(word) -> str:
    return "[" + ",".join(str(d) for d in word) + "]"


def seeded_word(rng: random.Random, multiset, lo: int, hi: int) -> tuple:
    """The letters of `multiset` in seeded order, shifted to lie in [lo, hi]."""
    letters = list(multiset)
    rng.shuffle(letters)
    shift = rng.randint(lo - min(letters), hi - max(letters))
    return tuple(d + shift for d in letters)


def _verdict(expected: bool, rc: int, out: str, yes: str = "true", no: str = "false"):
    want = (0, yes) if expected else (1, no)
    if (rc, out.strip()) != want:
        return f"got exit {rc} {out.strip()[:40]!r}, oracle says {want}"
    return None


# A cold workload runs its largest op twice per pass: one op's time varies by
# about 6% from run to run even at nominal speed, and a run fits only two to
# four passes.
LARGEST_REPEATS = 2

# -- expand --------------------------------------------------------------------

EXPAND_RANGE = (-3, 3)
# Letter multisets of the seeded ops (0.35 s to 0.8 s each at nominal
# speed).  Three words share the middle multiset {0,0,1,1}, whose six letter
# orders all cost within about 10% of each other; two ops cost less and
# three (with the largest) more, so the median op lies inside that class and
# costs about the same whatever the seed.
EXPAND_CLASSES = [(0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 1, 1), (0, 0, 1, 1), (0, 0, 1, 1),
                  (0, 0, 1, 2)]
EXPAND_LARGEST = (-3, 3, -3, 3)  # 81,407 output terms, about 2.8 s


def _expand_op(word, rng: random.Random, largest: bool = False) -> Op:
    point = random_point(rng, len(word))
    moved = permuted(point, rng)
    expected = word_value(word, point)

    def check(rc: int, out: str):
        if rc != 0:
            return f"exit {rc}"
        if evaluate(out, point) != expected:
            return "expansion differs from the defining formula"
        if evaluate(out, moved) != expected:
            return "expansion is not symmetric"
        return None

    return Op(["expand", "sh" + word_arg(word)], check, largest=largest)


def expand_ops(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = [_expand_op(seeded_word(rng, ms, *EXPAND_RANGE), rng) for ms in EXPAND_CLASSES]
    ops += [_expand_op(EXPAND_LARGEST, rng, largest=True) for _ in range(LARGEST_REPEATS)]
    rng.shuffle(ops)
    return Workload(ops, warm=False)


# -- checks -------------------------------------------------------------------------


def _wheel_points(rng: random.Random, arity: int) -> list:
    """(z1, z2, z3) = (q t, q2 t, t) and (q t, q1 t, t), other z's random."""
    points = []
    for second in ("q2", "q1"):
        point = random_point(rng, arity)
        t = point["z3"]
        q = point["q1"] * point["q2"] % P
        point["z1"] = q * t % P
        point["z2"] = point[second] * t % P
        points.append(point)
    return points


def _corollary_points(rng: random.Random, arity: int) -> list:
    """z2 = -z1 on each of q1 = -1, q2 = -1 and q1 q2 = -1."""
    points = []
    for which in ("q1", "q2", "q"):
        point = random_point(rng, arity)
        point["z2"] = -point["z1"] % P
        if which == "q":
            point["q2"] = (P - 1) * pow(point["q1"], P - 2, P) % P
        else:
            point[which] = P - 1
        points.append(point)
    return points


def _wheel_op(argv_expr: str, value, arity: int, rng: random.Random) -> Op:
    holds = all(value(p) == 0 for p in _wheel_points(rng, arity))
    return Op(["wheel", argv_expr], lambda rc, out: _verdict(holds, rc, out))


def _corollary_op(argv_expr: str, value, arity: int, rng: random.Random) -> Op:
    holds = all(value(p) == 0 for p in _corollary_points(rng, arity))
    point = random_point(rng, arity)
    point["z2"] = -point["z1"] % P
    image = value(point)
    del point["z2"]  # the cofactor must not mention z2
    q1, q2 = point["q1"], point["q2"]
    divisor = (1 + q1) * (1 + q2) % P * (1 + q1 * q2) % P

    def check(rc: int, out: str):
        if not holds:
            return _verdict(False, rc, out, no="not divisible")
        if rc != 0:
            return f"got exit {rc}, oracle says divisible"
        if evaluate(out, point) * divisor % P != image:
            return "cofactor times (1+q1)(1+q2)(1+q) is not the z2 = -z1 image"
        return None

    return Op(["corollary", argv_expr], check)


def _lemma_op(which: str, word, n: int, rng: random.Random, largest: bool = False) -> Op:
    k = len(word)
    point = random_point(rng, k)
    if which == "a":
        lhs = product_power(point, k, n) * word_value(word, point)
        rhs = word_value(tuple(d + n for d in word), point)
    else:
        lhs = power_sum(point, k, n) * word_value(word, point)
        rhs = sum(word_value(word[:i] + (word[i] + n,) + word[i + 1:], point)
                  for i in range(k))
    holds = (lhs - rhs) % P == 0
    return Op(["lemma", which, word_arg(word), str(n)],
              lambda rc, out: _verdict(holds, rc, out), largest=largest)


def _sym_monomial(rng: random.Random) -> tuple:
    while True:
        exps = tuple(rng.randint(-1, 2) for _ in range(3))
        if any(exps):
            break
    coeff = rng.randint(1, 3)
    terms = []
    for perm in itertools.permutations(range(3)):
        factors = [f"z{perm[i] + 1}" + (f"^{e}" if e != 1 else "")
                   for i, e in enumerate(exps) if e]
        terms.append(" ".join([str(coeff)] + factors))
    return exps, coeff, " + ".join(terms)


CHECKS_RANGE3 = (-1, 3)
CHECKS_RANGE4 = (-2, 2)
# (command, letter multiset, n) slots; n=None means a seeded n in [-2, 2] \ {0}.
# The 24 arity-3 corollary, wheel and action (a) ops all cost 5-15 ms at
# nominal speed.  Four symmetrized monomials cost less and seven ops more,
# so the median op lies near the middle of that cluster whatever the seed.
CHECKS_ARITY3 = 2 * [
    ("corollary", (0, 1, 2), None), ("corollary", (0, 0, 1), None),
    ("corollary", (0, 1, 1), None),
    ("wheel", (0, 1, 2), None), ("wheel", (0, 0, 1), None), ("wheel", (0, 1, 1), None),
] + 3 * [
    ("a", (0, 1, 2), None), ("a", (0, 0, 1), None), ("a", (0, 1, 1), None),
    ("a", (0, 0, 2), None),
] + [("b", (0, 1, 2), 1), ("b", (0, 0, 2), -2)]
CHECKS_ARITY4 = [
    ("wheel", (0, 0, 0, 1), None), ("corollary", (0, 0, 1, 1), None),
    ("corollary", (0, 0, 0, 0), None), ("a", (0, 0, 0, 0), 1),
]
CHECKS_LARGEST = ("b", (1, 0, 0, 1), 1)


def checks_ops(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    for _ in range(2):
        exps, coeff, text = _sym_monomial(rng)
        value = lambda p, e=exps, c=coeff: sym_monomial_value(e, c, p)  # noqa: E731
        ops.append(_wheel_op(text, value, 3, rng))
        ops.append(_corollary_op(text, value, 3, rng))
    for slots, letters in ((CHECKS_ARITY3, CHECKS_RANGE3), (CHECKS_ARITY4, CHECKS_RANGE4)):
        for command, multiset, n in slots:
            word = seeded_word(rng, multiset, *letters)
            value = lambda p, w=word: word_value(w, p)  # noqa: E731
            if command == "wheel":
                ops.append(_wheel_op("sh" + word_arg(word), value, len(word), rng))
            elif command == "corollary":
                ops.append(_corollary_op("sh" + word_arg(word), value, len(word), rng))
            else:
                if n is None:
                    n = rng.choice((-2, -1, 1, 2))
                ops.append(_lemma_op(command, word, n, rng))
    which, word, n = CHECKS_LARGEST
    ops += [_lemma_op(which, word, n, rng, largest=True) for _ in range(LARGEST_REPEATS)]
    rng.shuffle(ops)
    return Workload(ops, warm=False)


# -- certify --------------------------------------------------------------------------

REDUCE3_GRID = list(itertools.product(range(-1, 4), repeat=3))  # criterion 8
REDUCE2_GRID = list(itertools.product(range(-2, 4), repeat=2))  # criterion 9
IDEAL2_GRID = list(itertools.product(range(-1, 4), repeat=2))
# One arity-3 word per letter multiset with letters in [-1, 3].  These words
# are fixed like the grids: an ideal certificate's size changes with the
# order and the shift of the letters, and a seeded choice moved the pass
# time by 6% from seed to seed.  The seed orders the ops and picks the
# oracle's points.
IDEAL3_WORDS = [(b - (b == 4), a - (b == 4), -(b == 4)) for a in range(5) for b in range(a, 5)]
CERTIFY_LARGEST = (1, -1, 3)


def _cert_pair(kind: str, word, rng: random.Random, path: str,
               largest: bool = False) -> list:
    """A certificate op and the op that reads the certificate back from a file."""
    point = random_point(rng, len(word))
    moved = permuted(point, rng)
    holds_fn = module_certificate_holds if kind != "ideal-cert" else ideal_certificate_holds

    def judge(text: str):
        payload = json.loads(text)
        if payload.get("schema") != 1 or tuple(payload.get("target", ())) != tuple(word):
            return None
        return holds_fn(payload, point, moved)

    def check_cert(rc: int, out: str):
        if rc != 0:
            return f"exit {rc}"
        holds = judge(out)
        if holds is None:
            return "certificate has the wrong schema or target"
        if not holds:
            return "certificate does not hold at the oracle's point"
        if json.loads(out).get("verified") is not True:
            return "the program's --verify disagrees with the oracle"
        return None

    def check_read_back(rc: int, out: str):
        with open(path, encoding="utf-8") as handle:
            holds = judge(handle.read())
        return _verdict(bool(holds), rc, out)

    verify = "verify-ideal-cert" if kind == "ideal-cert" else "verify-cert"
    return [Op([kind, word_arg(word), "--verify", "--json"], check_cert, save=path,
               largest=largest),
            Op([verify, path], check_read_back)]


def certify_ops(seed: int, path: str) -> Workload:
    rng = random.Random(seed)
    pairs = [_cert_pair("reduce3", w, rng, path) for w in REDUCE3_GRID]
    pairs += [_cert_pair("reduce2", w, rng, path) for w in REDUCE2_GRID]
    pairs += [_cert_pair("ideal-cert", w, rng, path) for w in IDEAL2_GRID]
    pairs += [_cert_pair("ideal-cert", w, rng, path) for w in IDEAL3_WORDS]
    rng.shuffle(pairs)
    # the largest op runs first in each pass, right after the caches are
    # cleared, so it meets the same cache state on every pass and seed
    first = _cert_pair("ideal-cert", CERTIFY_LARGEST, rng, path, largest=True)
    return Workload([op for pair in [first] + pairs for op in pair], warm=True)


def build(name: str, seed: int, cert_path: str) -> Workload:
    if name == "expand":
        return expand_ops(seed)
    if name == "checks":
        return checks_ops(seed)
    if name == "certify":
        return certify_ops(seed, cert_path)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("expand", "checks", "certify")
