"""Independent oracle: checks the program's answers by evaluation at points.

Nothing here imports `intshuffle`.  Every quantity is evaluated at random
points modulo the prime P = 2^61 - 1:

* a word sh[d1..dk] from its defining formula
      Sym_k[ prod_i z_i^{d_i} prod_{i<j} omega(z_i, z_j) ],
      omega(a, b) = (a - q b)(b - q1 a)(b - q2 a) / (a - b),   q = q1 q2,
  summed over all k! orderings of the variables;
* the ideal generators g1, g2 from their closed forms;
* the program's printed polynomials through this module's own term reader,
  which accepts only the canonical rendering (`coef q1^a q2^b z1^c ...`
  terms joined by ` + ` / ` - `).

Two Laurent polynomials that differ give different values at a random point
except with probability (total degree) / P, so each check is exact up to a
chance of about 1e-16.
"""

from __future__ import annotations

import itertools
import json
import random
import re

P = (1 << 61) - 1

_COEFF = re.compile(r"[0-9]+(/[0-9]+)?")
_FACTOR = re.compile(r"(q1|q2|z[1-9][0-9]*)(\^-?[1-9][0-9]*)?")


class OracleError(ValueError):
    """The program's output is malformed or disagrees with the oracle."""


def inv(x: int) -> int:
    return pow(x, P - 2, P)


# -- points -------------------------------------------------------------------


def random_point(rng: random.Random, arity: int) -> dict:
    """Random residues for q1, q2, z1..z_arity, avoiding every degenerate value.

    q1, q2 and q = q1 q2 stay away from 0 and +-1, and the z's are nonzero and
    pairwise distinct, so omega never divides by zero and negative powers exist.
    """
    while True:
        q1 = rng.randrange(2, P - 1)
        q2 = rng.randrange(2, P - 1)
        zs = [rng.randrange(1, P) for _ in range(arity)]
        q = q1 * q2 % P
        if q in (0, 1, P - 1) or len(set(zs)) != arity:
            continue
        point = {"q1": q1, "q2": q2}
        point.update({f"z{i + 1}": v for i, v in enumerate(zs)})
        return point


def permuted(point: dict, rng: random.Random) -> dict:
    """The same point with its z values moved by a random non-identity permutation."""
    names = sorted((n for n in point if n.startswith("z")), key=lambda n: int(n[1:]))
    values = [point[n] for n in names]
    order = list(range(len(values)))
    while len(order) > 1 and order == sorted(order):
        rng.shuffle(order)
    out = dict(point)
    out.update({n: values[j] for n, j in zip(names, order)})
    return out


def z_values(point: dict, arity: int) -> list:
    return [point[f"z{i + 1}"] for i in range(arity)]


# -- the defining formula ----------------------------------------------------------


def omega(a: int, b: int, q1: int, q2: int) -> int:
    q = q1 * q2 % P
    num = (a - q * b) * (b - q1 * a) % P * (b - q2 * a) % P
    return num * inv((a - b) % P) % P


def word_value(word, point: dict) -> int:
    """sh[word] at `point`, straight from the symmetrized product formula."""
    k = len(word)
    if k == 0:
        return 1
    zs = z_values(point, k)
    q1, q2 = point["q1"], point["q2"]
    w = [[omega(a, b, q1, q2) if a != b else 0 for b in zs] for a in zs]
    total = 0
    for perm in itertools.permutations(range(k)):
        v = 1
        for i, d in enumerate(word):
            v = v * pow(zs[perm[i]], d, P) % P
        for i in range(k):
            for j in range(i + 1, k):
                v = v * w[perm[i]][perm[j]] % P
        total += v
    return total % P


def sym_monomial_value(exponents, coeff: int, point: dict) -> int:
    """coeff * sum over all orderings sigma of prod_i z_sigma(i)^{e_i}."""
    zs = z_values(point, len(exponents))
    total = 0
    for perm in itertools.permutations(range(len(exponents))):
        v = coeff
        for i, e in enumerate(exponents):
            v = v * pow(zs[perm[i]], e, P) % P
        total += v
    return total % P


def generators_value(point: dict) -> tuple:
    """The ideal generators g1, g2 in z1, z2 from their closed forms."""
    q1, q2, z1, z2 = point["q1"], point["q2"], point["z1"], point["z2"]
    q = q1 * q2 % P
    mid = (1 + q1 + q2 - 2 * q + q1 * q + q2 * q + q * q) % P
    g1 = (2 * q * z1 * z1 - mid * z1 * z2 + 2 * q * z2 * z2) % P
    g2 = (1 - q1) * (1 - q2) % P * (1 - q) % P * (z1 + z2) % P
    return g1, g2


def power_sum(point: dict, k: int, n: int) -> int:
    return sum(pow(v, n, P) for v in z_values(point, k)) % P


def product_power(point: dict, k: int, n: int) -> int:
    v = 1
    for x in z_values(point, k):
        v = v * pow(x, n, P) % P
    return v


# -- the term reader -----------------------------------------------------------------


def _token_value(token: str, point: dict) -> int:
    if _COEFF.fullmatch(token):
        num, _, den = token.partition("/")
        if den and int(den) == 0:
            raise OracleError(f"zero denominator in {token!r}")
        return int(num) * (inv(int(den) % P) if den else 1) % P
    m = _FACTOR.fullmatch(token)
    if m is None:
        raise OracleError(f"not a canonical factor: {token!r}")
    name = m.group(1)
    if name not in point:
        raise OracleError(f"variable {name} is outside the arity")
    exponent = int(m.group(2)[1:]) if m.group(2) else 1
    return pow(point[name], exponent, P)


def evaluate(text: str, point: dict) -> int:
    """Value at `point` of a polynomial printed in the canonical text form."""
    text = text.strip()
    if text == "0":
        return 0
    if not text:
        raise OracleError("empty polynomial text")
    pieces = re.split(r" ([+-]) ", text)
    cache: dict = {}
    total = 0
    for index in range(0, len(pieces), 2):
        term = pieces[index]
        sign = 1 if index == 0 or pieces[index - 1] == "+" else -1
        if index == 0 and term.startswith("-"):
            sign, term = -1, term[1:]
        tokens = term.split(" ")
        if not tokens[0]:
            raise OracleError("empty term")
        v = sign
        for token in tokens:
            got = cache.get(token)
            if got is None:
                got = cache[token] = _token_value(token, point)
            v = v * got % P
        total += v
    return total % P


# -- certificate checks ---------------------------------------------------------------

BASIS = {
    2: {(0, 0), (1, 0)},
    3: {(d1, d2, 0) for d1 in range(3) for d2 in range(2)},
}


def module_certificate_holds(payload: dict, point: dict, moved: dict) -> bool:
    """sum cofactor * sh[word] == sh[target] over the finite basis, with
    symmetric cofactors (checked at a permuted point)."""
    target = tuple(payload["target"])
    basis = BASIS.get(len(target))
    total = 0
    for cofactor, word in payload["combination"]:
        word = tuple(word)
        if basis is None or word not in basis:
            return False
        c = evaluate(cofactor, point)
        if evaluate(cofactor, moved) != c:
            return False
        total += c * word_value(word, point)
    return total % P == word_value(target, point)


def ideal_certificate_holds(payload: dict, point: dict, moved: dict) -> bool:
    """A g1 + B g2 == sh[target], at the point and at a permuted point."""
    target = tuple(payload["target"])
    expected = word_value(target, point)
    for at in (point, moved):
        g1, g2 = generators_value(at)
        value = (evaluate(payload["A"], at) * g1 + evaluate(payload["B"], at) * g2) % P
        if value != expected:
            return False
    return True


# -- self-test -----------------------------------------------------------------------

# Hand-written expansions of sh[0,0] and sh[1,0] (the paper's base cases).
GOLDEN_00 = (
    "-q1^2 q2^2 z1 z2 - q1^2 q2 z1 z2 - q1 q2^2 z1 z2 + 2 q1 q2 z1^2"
    " + 2 q1 q2 z1 z2 + 2 q1 q2 z2^2 - q1 z1 z2 - q2 z1 z2 - z1 z2"
)
GOLDEN_10 = (
    "-q1^2 q2^2 z1^2 z2 - q1^2 q2^2 z1 z2^2 + q1 q2 z1^3 + 2 q1 q2 z1^2 z2"
    " + 2 q1 q2 z1 z2^2 + q1 q2 z2^3 - q1 z1^2 z2 - q1 z1 z2^2"
    " - q2 z1^2 z2 - q2 z1 z2^2"
)
# sh[2,0] = (z1 + z2) sh[1,0] - z1 z2 sh[0,0]
MODULE_CERT = {"schema": 1, "target": [2, 0],
               "combination": [["-z1 z2", [0, 0]], ["z1 + z2", [1, 0]]]}
# sh[1,0] = (z1 + z2)/2 g1 + z1 z2/2 g2
IDEAL_CERT = {"schema": 1, "target": [1, 0], "A": "1/2 z1 + 1/2 z2", "B": "1/2 z1 z2"}


def self_test(rng: random.Random) -> list:
    """Return a list of failures; empty when the oracle behaves."""
    failures = []
    point = random_point(rng, 2)
    moved = permuted(point, rng)
    for word, text in (((0, 0), GOLDEN_00), ((1, 0), GOLDEN_10)):
        if evaluate(text, point) != word_value(word, point):
            failures.append(f"rejects the hand-written sh{list(word)}")
        if evaluate(text, moved) != word_value(word, point):
            failures.append(f"sh{list(word)} is not symmetric at a permuted point")
    altered = GOLDEN_00.replace("+ 2 q1 q2 z1^2", "+ 3 q1 q2 z1^2", 1)
    if altered == GOLDEN_00 or evaluate(altered, point) == word_value((0, 0), point):
        failures.append("accepts sh[0,0] with one coefficient altered")
    if not module_certificate_holds(MODULE_CERT, point, moved):
        failures.append("rejects the hand-written module certificate for sh[2,0]")
    bad = json.loads(json.dumps(MODULE_CERT))
    bad["combination"][0][0] = "-2 z1 z2"
    if module_certificate_holds(bad, point, moved):
        failures.append("accepts a module certificate with one coefficient altered")
    if not ideal_certificate_holds(IDEAL_CERT, point, moved):
        failures.append("rejects the hand-written ideal certificate for sh[1,0]")
    bad = dict(IDEAL_CERT, B="1/3 z1 z2")
    if ideal_certificate_holds(bad, point, moved):
        failures.append("accepts an ideal certificate with one coefficient altered")
    for text in ("z1 +", "2 x1", "z1^", "1/0 z1"):
        try:
            evaluate(text, point)
            failures.append(f"term reader accepts malformed text {text!r}")
        except OracleError:
            pass
    return failures
