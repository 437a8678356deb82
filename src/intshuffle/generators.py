"""Generator words and constructive module-generation certificates.

A generator word [d1,...,dk] stands for the iterated product
z1^{d1} * z1^{d2} * ... * z1^{dk}.  Two module actions drive everything:

  (a)  (z1...zk)^n . [d1,...,dk]      = [d1+n,...,dk+n]
  (b)  (z1^n+...+zk^n) . [d1,...,dk]  = sum_i [d1,...,di+n,...,dk]

`reduce2` and `reduce3` rewrite an arbitrary word of arity 2 or 3 as an
explicit combination of the finite generating sets

  arity 2:  [0,0], [1,0]
  arity 3:  [d1,d2,0] with 0 <= d1 <= 2, 0 <= d2 <= 1

with symmetric-polynomial cofactors, returning a ModuleCertificate that
`verify_certificate` checks exactly.  Each word outside the basis has one
rewrite, a sum of scalar * word terms: action (a) shifts it to minimum 0,
or else its arity's rule applies (arity 2: two action-(b) rewrites; arity
3: base identities inside [0,2]^3, also with the last two letters swapped,
and two action-(b) rewrites above them).  `_reduce_word` makes one pass and
pops words largest letter first, then largest letter sum, then smallest
word, each handing its share down its rewrite.  A word whose letters spread
over more than 2000 (arity 2) or 100 (arity 3) is refused.
"""

from __future__ import annotations

import heapq
import json
import operator
from dataclasses import dataclass
from typing import Sequence

from .errors import ArityTooSmall, NotSymmetric
from .expr import parse_poly
from .poly import ONE, LaurentPoly, render, z
from .shuffle import element_sum, shuffle_word

WordLike = Sequence[int]


@dataclass(frozen=True)
class GeneratorWord:
    """An integer word [d1,...,dk] naming an iterated shuffle product."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        # operator.index refuses floats and strings instead of truncating them
        object.__setattr__(self, "exponents", tuple(operator.index(d) for d in self.exponents))

    @property
    def arity(self) -> int:
        return len(self.exponents)

    def __iter__(self):
        return iter(self.exponents)

    def __len__(self) -> int:
        return len(self.exponents)

    def __str__(self) -> str:
        return "sh[" + ",".join(str(d) for d in self.exponents) + "]"


def as_word(word: WordLike | GeneratorWord) -> GeneratorWord:
    if isinstance(word, GeneratorWord):
        return word
    return GeneratorWord(tuple(word))


BASIS2 = (GeneratorWord((0, 0)), GeneratorWord((1, 0)))
BASIS3 = tuple(
    GeneratorWord((d1, d2, 0)) for d1 in range(3) for d2 in range(2)
)


def act_product_power(word: WordLike | GeneratorWord, n: int) -> GeneratorWord:
    """Action (a): multiplying by (z1...zk)^n shifts every letter by n."""
    return GeneratorWord(tuple(d + n for d in as_word(word)))


def act_power_sum(word: WordLike | GeneratorWord, n: int) -> list[GeneratorWord]:
    """Action (b): multiplying by z1^n+...+zk^n bumps one letter at a time."""
    w = as_word(word).exponents
    return [
        GeneratorWord(w[:i] + (w[i] + n,) + w[i + 1 :]) for i in range(len(w))
    ]


def _power_sum_poly(k: int, n: int) -> LaurentPoly:
    total = LaurentPoly.zero()
    for i in range(1, k + 1):
        total = total + z(i, n)
    return total


def _product_power_poly(k: int, n: int) -> LaurentPoly:
    out = ONE
    for i in range(1, k + 1):
        out = out * z(i, n)
    return out


def verify_lemma(word: WordLike | GeneratorWord, n: int, which: str) -> bool:
    """Compare both sides of action (a) or (b) exactly."""
    w = as_word(word)
    k = w.arity
    element = shuffle_word(w.exponents)
    if which == "a":
        lhs = element.scaled(_product_power_poly(k, n))
        rhs = shuffle_word(act_product_power(w, n).exponents)
    elif which == "b":
        lhs = element.scaled(_power_sum_poly(k, n))
        rhs = element_sum(k, ((1, shuffle_word(piece.exponents)) for piece in act_power_sum(w, n)))
    else:
        raise ValueError("which must be 'a' or 'b'")
    return lhs == rhs


def _certificate_payload(text: str, *keys: str) -> dict:
    """The JSON object of a certificate file; ValueError unless it has
    schema 1 and every field in `keys`."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("a certificate must be a JSON object")
    schema = payload.get("schema")
    if type(schema) is not int or schema != 1:
        raise ValueError("unsupported certificate schema")
    for key in keys:
        if key not in payload:
            raise ValueError(f"certificate has no {key!r} field")
    return payload


def _json_word(raw, field: str) -> GeneratorWord:
    """The word in certificate field `field`: a list of int letters (no bools)."""
    if not isinstance(raw, list) or any(type(d) is not int for d in raw):
        raise ValueError(f"{field} must be a list of integer letters, got {raw!r}")
    return GeneratorWord(tuple(raw))


def _json_poly(raw, field: str) -> LaurentPoly:
    """The scalar in certificate field `field`: a polynomial written as a string."""
    if not isinstance(raw, str):
        raise ValueError(f"{field} must be a string, not {type(raw).__name__}")
    return parse_poly(raw)


@dataclass(frozen=True)
class ModuleCertificate:
    """Asserts expand(target) == sum of cofactor * expand(word) pairs, which
    are kept sorted by word."""

    target: GeneratorWord
    combination: tuple[tuple[LaurentPoly, GeneratorWord], ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.combination, key=lambda pair: pair[1].exponents))
        object.__setattr__(self, "combination", ordered)

    def __str__(self) -> str:
        lines = [f"target: {self.target}"]
        lines += [f"  ({render(cofactor)}) * {word}" for cofactor, word in self.combination]
        return "\n".join(lines)

    def payload(self) -> dict:
        """The JSON object of the certificate, as `to_json` writes it."""
        return {
            "schema": 1,
            "target": list(self.target.exponents),
            "combination": [
                [render(cofactor), list(word.exponents)]
                for cofactor, word in self.combination
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ModuleCertificate":
        payload = _certificate_payload(text, "target", "combination")
        target = _json_word(payload["target"], "target")
        pairs = payload["combination"]
        if not isinstance(pairs, list):
            raise ValueError(f"combination must be a list, not {type(pairs).__name__}")
        combination = []
        for i, pair in enumerate(pairs):
            field = f"combination[{i}]"
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValueError(f"{field} must be a [cofactor, word] pair")
            combination.append(
                (_json_poly(pair[0], field + "[0]"), _json_word(pair[1], field + "[1]"))
            )
        return cls(target, tuple(combination))


def verify_certificate(cert: ModuleCertificate) -> bool:
    """Compare both sides exactly; also requires every cofactor symmetric."""
    k = cert.target.arity
    terms = []
    for cofactor, word in cert.combination:
        if word.arity != k:
            return False
        try:
            terms.append((1, shuffle_word(word.exponents).scaled(cofactor)))
        except NotSymmetric:
            return False
    return element_sum(k, terms) == shuffle_word(cert.target.exponents)


# -- reduction ----------------------------------------------------------------

_E1_2 = z(1) + z(2)
_E2_2 = z(1) * z(2)
_E1_3 = z(1) + z(2) + z(3)
_E2_3 = z(1) * z(2) + z(1) * z(3) + z(2) * z(3)
_E3_3 = z(1) * z(2) * z(3)

_Rewrite = tuple[tuple[LaurentPoly, tuple[int, ...]], ...]


def _rewrite2(word: tuple[int, ...]) -> _Rewrite:
    """One action-(b) step for a min-0 arity-2 word outside BASIS2."""
    a, b = word
    if b == 0:
        # [n+1,0] = (z1+z2).[n,0] - (z1 z2).[n-1,0]
        return ((_E1_2, (a - 1, 0)), (-_E2_2, (a - 2, 0)))
    # [0,b] = (z1^b+z2^b).[0,0] - [b,0]
    return ((_power_sum_poly(2, b), (0, 0)), (-ONE, (b, 0)))


# Base-case rewrites inside [0,2]^3 after min-shift: target word ->
# (scalar, word) summands.  The first nine are the listed identities; the
# rest are their variants under swapping the last two letters.
_BASE3: dict[tuple[int, ...], _Rewrite] = {
    (0, 0, 1): ((_E1_3, (0, 0, 0)), (-ONE, (1, 0, 0)), (-ONE, (0, 1, 0))),
    (1, 0, 1): ((_E1_3, (1, 0, 0)), (-ONE, (2, 0, 0)), (-ONE, (1, 1, 0))),
    (0, 1, 1): ((_E2_3, (0, 0, 0)), (-ONE, (1, 0, 1)), (-ONE, (1, 1, 0))),
    (2, 0, 1): ((_E2_3, (1, 0, 0)), (-ONE, (2, 1, 0)), (-_E3_3, (0, 0, 0))),
    (2, 2, 0): ((_E2_3, (1, 1, 0)), (-_E3_3, (1, 0, 0)), (-_E3_3, (0, 1, 0))),
    (0, 2, 0): ((_E1_3, (0, 1, 0)), (-ONE, (1, 1, 0)), (-ONE, (0, 1, 1))),
    (1, 2, 0): ((_E1_3, (1, 1, 0)), (-ONE, (2, 1, 0)), (-_E3_3, (0, 0, 0))),
    (0, 2, 1): ((_E2_3, (0, 1, 0)), (-ONE, (1, 2, 0)), (-_E3_3, (0, 0, 0))),
    (0, 2, 2): ((_E2_3, (0, 1, 1)), (-_E3_3, (0, 0, 1)), (-_E3_3, (0, 1, 0))),
    # swapped variants (positions 2 and 3 exchanged in every word)
    (2, 0, 2): ((_E2_3, (1, 0, 1)), (-_E3_3, (1, 0, 0)), (-_E3_3, (0, 0, 1))),
    (0, 0, 2): ((_E1_3, (0, 0, 1)), (-ONE, (1, 0, 1)), (-ONE, (0, 1, 1))),
    (1, 0, 2): ((_E1_3, (1, 0, 1)), (-ONE, (2, 0, 1)), (-_E3_3, (0, 0, 0))),
    (0, 1, 2): ((_E2_3, (0, 0, 1)), (-ONE, (1, 0, 2)), (-_E3_3, (0, 0, 0))),
}


def _rewrite3(word: tuple[int, ...]) -> _Rewrite:
    """A base identity or one induction step for a min-0 arity-3 word
    outside BASIS3."""
    if max(word) <= 2:
        return _BASE3[word]
    # Induction step: some letter equals max(word) = n+1 >= 3, some letter is 0.
    n = max(word) - 1
    p = word.index(n + 1)
    q = next(i for i in range(3) if word[i] == 0 and i != p)
    r = next(i for i in range(3) if i not in (p, q))
    d2 = word[r]

    def build(p_val: int, r_val: int, q_val: int) -> tuple[int, ...]:
        out = [0, 0, 0]
        out[p], out[r], out[q] = p_val, r_val, q_val
        return tuple(out)

    if d2 < n:
        # [n+1,d2,0] = (z1+z2+z3).[n,d2,0] - [n,d2+1,0] - [n,d2,1]
        return ((_E1_3, build(n, d2, 0)), (-ONE, build(n, d2 + 1, 0)), (-ONE, build(n, d2, 1)))
    # d2 > 1 holds because n >= 2, so the second rewrite applies:
    # [n+1,d2,0] = e2.[n,d2-1,0] - e3.[n,d2-2,0] - e3.[n-1,d2-1,0]
    return ((_E2_3, build(n, d2 - 1, 0)), (-_E3_3, build(n, d2 - 2, 0)),
            (-_E3_3, build(n - 1, d2 - 1, 0)))


# arity -> (basis words, rewrite of a min-0 word outside the basis, largest
# letter spread accepted: the work grows about as the spread's fourth power)
_RULES = {
    2: ({w.exponents for w in BASIS2}, _rewrite2, 2000),
    3: ({w.exponents for w in BASIS3}, _rewrite3, 100),
}


def _reduce_word(word: WordLike | GeneratorWord, arity: int) -> ModuleCertificate:
    """`word` over the arity's basis.  A rewrite lowers (largest letter, sum) or
    keeps it and gives a larger word, so no share reaches a word after its pop."""
    w = as_word(word)
    if w.arity != arity:
        raise ArityTooSmall(f"reduce{arity} requires an arity-{arity} word")
    basis, rewrite, max_spread = _RULES[arity]
    spread = max(w) - min(w)
    if spread > max_spread:
        raise ValueError(f"the letters of {w} spread over {spread}; "
                         f"reduce{arity} accepts at most {max_spread}")
    shares = {w.exponents: ONE}
    heap = [] if w.exponents in basis else [(-max(w), -sum(w), w.exponents)]
    while heap:
        current = heapq.heappop(heap)[2]
        share = shares.pop(current)
        shift = min(current)
        steps = rewrite(current) if not shift else (
            (_product_power_poly(arity, shift), tuple(d - shift for d in current)),)
        for scalar_, sub in steps:
            term = scalar_ * share
            if sub not in shares and sub not in basis:
                heapq.heappush(heap, (-max(sub), -sum(sub), sub))
            shares[sub] = shares[sub] + term if sub in shares else term
    return ModuleCertificate(w, tuple((c, GeneratorWord(b)) for b, c in shares.items() if c))


def reduce2(word: WordLike | GeneratorWord) -> ModuleCertificate:
    """Certificate writing an arity-2 word over the basis {[0,0],[1,0]}."""
    return _reduce_word(word, 2)


def reduce3(word: WordLike | GeneratorWord) -> ModuleCertificate:
    """Certificate writing an arity-3 word over the six-word basis BASIS3."""
    return _reduce_word(word, 3)


# -- obstruction utilities ----------------------------------------------------


def range4(word: WordLike | GeneratorWord) -> int:
    """Spread of the first four letters: largest two minus smallest two."""
    w = as_word(word)
    if w.arity < 4:
        raise ArityTooSmall("range is defined for arity >= 4")
    first = sorted(w.exponents[:4])
    return first[2] + first[3] - first[0] - first[1]


def residue_class(word: WordLike | GeneratorWord) -> int:
    """Letter-sum residue modulo the arity; invariant under action (a)."""
    w = as_word(word)
    if w.arity < 1:
        raise ArityTooSmall("residue class needs at least one letter")
    return sum(w.exponents) % w.arity
