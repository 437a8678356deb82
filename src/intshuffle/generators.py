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
`verify_certificate` checks exactly.  The reduction normalizes the
minimum exponent to 0 with action (a), applies a fixed table of base-case
identities inside [0,2]^3 (including the variants obtained by swapping the
last two letters), and recurses with two action-(b) rewrites for larger
exponents, memoized per word.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

from .errors import ArityTooSmall
from .poly import ONE, LaurentPoly, is_symmetric, render, z
from .shuffle import ShuffleElement, element_sum, shuffle_word

WordLike = Sequence[int]


@dataclass(frozen=True)
class GeneratorWord:
    """An integer word [d1,...,dk] naming an iterated shuffle product."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(int(d) for d in self.exponents))

    @property
    def arity(self) -> int:
        return len(self.exponents)

    def __iter__(self):
        return iter(self.exponents)

    def __len__(self) -> int:
        return len(self.exponents)

    def __str__(self) -> str:
        return "sh[" + ",".join(str(d) for d in self.exponents) + "]"

    def expand(self) -> ShuffleElement:
        return shuffle_word(self.exponents)


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
    from .expr import parse_poly

    if not isinstance(raw, str):
        raise ValueError(f"{field} must be a string, not {type(raw).__name__}")
    return parse_poly(raw)


@dataclass(frozen=True)
class ModuleCertificate:
    """Asserts expand(target) == sum of cofactor * expand(word) pairs."""

    target: GeneratorWord
    combination: tuple[tuple[LaurentPoly, GeneratorWord], ...]

    def sorted(self) -> "ModuleCertificate":
        ordered = tuple(
            sorted(self.combination, key=lambda pair: pair[1].exponents)
        )
        return ModuleCertificate(self.target, ordered)

    def to_json(self) -> str:
        cert = self.sorted()
        payload = {
            "schema": 1,
            "target": list(cert.target.exponents),
            "combination": [
                [render(cofactor), list(word.exponents)]
                for cofactor, word in cert.combination
            ],
        }
        return json.dumps(payload, indent=2)

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
        if not is_symmetric(cofactor, k):
            return False
        terms.append((1, shuffle_word(word.exponents).scaled(cofactor)))
    return element_sum(k, terms) == shuffle_word(cert.target.exponents)


# -- arity-2 reduction --------------------------------------------------------

_E1_2 = z(1) + z(2)
_E2_2 = z(1) * z(2)


@lru_cache(maxsize=64)
def _reduce2_shifted(word: tuple[int, int]) -> tuple[tuple[tuple[int, int], LaurentPoly], ...]:
    """Reduction of a min-0 arity-2 word to combinations over BASIS2."""
    a, b = word
    if word in ((0, 0), (1, 0)):
        return ((word, ONE),)
    if b == 0:
        # [n+1,0] = (z1+z2).[n,0] - (z1 z2).[n-1,0]
        n = a - 1
        combo = _combo_scale(_reduce2_dict((n, 0)), _E1_2)
        combo = _combo_sub(combo, _combo_scale(_reduce2_dict((n - 1, 0)), _E2_2))
        return _combo_freeze(combo)
    # [0,b] = (z1^b+z2^b).[0,0] - [b,0]
    combo = _combo_scale(_reduce2_dict((0, 0)), _power_sum_poly(2, b))
    combo = _combo_sub(combo, _reduce2_dict((b, 0)))
    return _combo_freeze(combo)


def _reduce2_dict(word: tuple[int, int]) -> dict:
    return dict(_reduce2_shifted(word))


def reduce2(word: WordLike | GeneratorWord) -> ModuleCertificate:
    """Certificate writing an arity-2 word over the basis {[0,0],[1,0]}."""
    w = as_word(word)
    if w.arity != 2:
        raise ArityTooSmall("reduce2 requires an arity-2 word")
    shift = min(w.exponents)
    shifted = tuple(d - shift for d in w.exponents)
    combo = _reduce2_dict(shifted)  # type: ignore[arg-type]
    if shift:
        combo = _combo_scale(combo, _product_power_poly(2, shift))
    return _certificate(w, combo)


# -- arity-3 reduction --------------------------------------------------------

_E1_3 = z(1) + z(2) + z(3)
_E2_3 = z(1) * z(2) + z(1) * z(3) + z(2) * z(3)
_E3_3 = z(1) * z(2) * z(3)

# Base-case rewrites inside [0,2]^3 after min-shift: target word ->
# (scalar, word) summands.  The first nine are the listed identities; the
# rest are their variants under swapping the last two letters.
_BASE3: dict[tuple[int, int, int], tuple[tuple[LaurentPoly, tuple[int, int, int]], ...]] = {
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

_BASIS3_SET = {w.exponents for w in BASIS3}


@lru_cache(maxsize=512)
def _reduce3_cached(word: tuple[int, int, int]) -> tuple[tuple[tuple[int, int, int], LaurentPoly], ...]:
    """Reduction of an arity-3 word to combinations over BASIS3."""
    shift = min(word)
    if shift:
        combo = _combo_scale(
            _reduce3_dict(tuple(d - shift for d in word)),
            _product_power_poly(3, shift),
        )
        return _combo_freeze(combo)
    if word in _BASIS3_SET:
        return ((word, ONE),)
    if max(word) <= 2:
        combo: dict = {}
        for scalar_, sub in _BASE3[word]:
            combo = _combo_add(combo, _combo_scale(_reduce3_dict(sub), scalar_))
        return _combo_freeze(combo)

    # Induction step: some letter equals max(word) = n+1 >= 3, some letter is 0.
    n = max(word) - 1
    p = word.index(n + 1)
    q = next(i for i in range(3) if word[i] == 0 and i != p)
    r = next(i for i in range(3) if i not in (p, q))
    d2 = word[r]

    def build(p_val: int, r_val: int, q_val: int) -> tuple[int, int, int]:
        out = [0, 0, 0]
        out[p], out[r], out[q] = p_val, r_val, q_val
        return tuple(out)  # type: ignore[return-value]

    if 0 <= d2 < n:
        # [n+1,d2,0] = (z1+z2+z3).[n,d2,0] - [n,d2+1,0] - [n,d2,1]
        combo = _combo_scale(_reduce3_dict(build(n, d2, 0)), _E1_3)
        combo = _combo_sub(combo, _reduce3_dict(build(n, d2 + 1, 0)))
        combo = _combo_sub(combo, _reduce3_dict(build(n, d2, 1)))
    else:
        # d2 > 1 holds because n >= 2, so the second rewrite applies:
        # [n+1,d2,0] = e2.[n,d2-1,0] - e3.[n,d2-2,0] - e3.[n-1,d2-1,0]
        assert d2 > 1, "induction rewrites must cover all residual words"
        combo = _combo_scale(_reduce3_dict(build(n, d2 - 1, 0)), _E2_3)
        combo = _combo_sub(
            combo, _combo_scale(_reduce3_dict(build(n, d2 - 2, 0)), _E3_3)
        )
        combo = _combo_sub(
            combo, _combo_scale(_reduce3_dict(build(n - 1, d2 - 1, 0)), _E3_3)
        )
    return _combo_freeze(combo)


def _reduce3_dict(word: tuple[int, int, int]) -> dict:
    return dict(_reduce3_cached(word))


def reduce3(word: WordLike | GeneratorWord) -> ModuleCertificate:
    """Certificate writing an arity-3 word over the six-word basis BASIS3."""
    w = as_word(word)
    if w.arity != 3:
        raise ArityTooSmall("reduce3 requires an arity-3 word")
    return _certificate(w, _reduce3_dict(w.exponents))  # type: ignore[arg-type]


# -- combination helpers ------------------------------------------------------


def _combo_add(a: Mapping, b: Mapping) -> dict:
    out = dict(a)
    for word, cofactor in b.items():
        prev = out.get(word)
        total = cofactor if prev is None else prev + cofactor
        if total:
            out[word] = total
        else:
            out.pop(word, None)
    return out


def _combo_sub(a: Mapping, b: Mapping) -> dict:
    return _combo_add(a, {w: -c for w, c in b.items()})


def _combo_scale(a: Mapping, scalar_: LaurentPoly) -> dict:
    return {w: c * scalar_ for w, c in a.items()}


def _combo_freeze(combo: Mapping) -> tuple:
    return tuple(sorted(combo.items()))


def _certificate(target: GeneratorWord, combo: Mapping) -> ModuleCertificate:
    combination = tuple(
        (cofactor, GeneratorWord(word)) for word, cofactor in sorted(combo.items())
    )
    return ModuleCertificate(target, combination)


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
