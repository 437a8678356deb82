"""The shuffle product on symmetric Laurent polynomials.

For P in k variables and Q in l variables,

    (P * Q)(z_1..z_{k+l}) = 1/(k! l!) * Sym[ P(z_1..z_k) Q(z_{k+1}..z_{k+l})
                              prod_{i<=k<j} omega(z_i, z_j) ],

with the kernel omega(zi, zj) = (zi - q zj)(zj - q1 zi)(zj - q2 zi)/(zi - zj)
and q = q1 q2.  Because P, Q and the omega product are invariant under
permutations within the two blocks, the full symmetric sum equals k!.l!
times the sum over the C(k+l, k) block-shuffle coset representatives; the
implementation sums over those representatives and drops the 1/(k!.l!)
factor, which keeps all arithmetic exact.  Every coset term is placed over
the common denominator prod_{i<j}(z_i - z_j); the sum is antisymmetric, and
its quotient by that Vandermonde is read off through Schur functions
(`schur.divide_vandermonde`), so results are honest Laurent polynomials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Sequence

from .poly import (
    ONE,
    Q1,
    Q2,
    LaurentPoly,
    exact_div,
    is_symmetric,
    permute_z,
    relabel_z,
    signed_sum,
    z,
)
from .schur import divide_vandermonde


@dataclass(frozen=True)
class ShuffleElement:
    """A symmetric Laurent polynomial together with its arity k (an element of V_k)."""

    arity: int
    poly: LaurentPoly

    def __post_init__(self):
        if self.arity < 0:
            raise ValueError("arity must be nonnegative")
        if self.poly.z_span() > self.arity:
            raise ValueError(
                f"polynomial uses z{self.poly.z_span()} but arity is {self.arity}"
            )
        if not is_symmetric(self.poly, self.arity):
            raise ValueError("shuffle elements must be symmetric in z1..zk")

    def __add__(self, other: "ShuffleElement") -> "ShuffleElement":
        if not isinstance(other, ShuffleElement):
            return NotImplemented
        if other.arity != self.arity:
            raise ValueError("cannot add shuffle elements of different arities")
        return ShuffleElement(self.arity, self.poly + other.poly)

    def __sub__(self, other: "ShuffleElement") -> "ShuffleElement":
        if not isinstance(other, ShuffleElement):
            return NotImplemented
        if other.arity != self.arity:
            raise ValueError("cannot subtract shuffle elements of different arities")
        return ShuffleElement(self.arity, self.poly - other.poly)

    def __neg__(self) -> "ShuffleElement":
        return ShuffleElement(self.arity, -self.poly)

    def scaled(self, c) -> "ShuffleElement":
        """Multiply by a scalar of V_k (rational, q-only, or symmetric in z1..zk)."""
        return ShuffleElement(self.arity, self.poly * c)

    def __mul__(self, c):
        if isinstance(c, (int, Fraction, LaurentPoly)):
            return self.scaled(c)
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        return str(self.poly)


@lru_cache(maxsize=None)
def omega_numerator(i: int, j: int) -> LaurentPoly:
    """(z_i - q z_j)(z_j - q1 z_i)(z_j - q2 z_i) with q = q1 q2, expanded."""
    zi, zj = z(i), z(j)
    return (zi - Q1 * Q2 * zj) * (zj - Q1 * zi) * (zj - Q2 * zi)


def sym(p: LaurentPoly, k: int) -> LaurentPoly:
    """Full symmetric-group orbit sum over z_1..z_k."""
    if p.z_span() > k:
        raise ValueError(f"polynomial uses z-index above arity {k}")
    return signed_sum(
        (1, permute_z(p, perm)) for perm in itertools.permutations(range(1, k + 1))
    )


@lru_cache(maxsize=None)
def _binomial(i: int, j: int) -> LaurentPoly:
    return z(i) - z(j)


@lru_cache(maxsize=None)
def _vandermonde(n: int) -> LaurentPoly:
    out = ONE
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out = out * _binomial(i, j)
    return out


def _divide_vandermonde(p: LaurentPoly, n: int) -> LaurentPoly:
    """Exact division by prod_{i<j<=n}(z_i - z_j), one binomial at a time.

    Slower than `schur.divide_vandermonde` and independent of it; the
    reference `shuffle_full_sym` divides with this.
    """
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            p = exact_div(p, _binomial(i, j))
    return p


@lru_cache(maxsize=None)
def _coset_numerator(n: int, block: tuple[int, ...]) -> LaurentPoly:
    """Numerator contribution of one coset over the common denominator.

    For the coset assigning the first block to the variable set `block`
    (and the second block to its complement in {1..n}), this is
    prod_cross omega_num(z_a, z_b) times V_n / prod_cross (z_a - z_b),
    where the correction quotient is the signed product of the within-block
    Vandermonde factors.
    """
    comp = [b for b in range(1, n + 1) if b not in block]
    out = _vandermonde(n)
    for a in block:
        for b in comp:
            out = exact_div(out, _binomial(a, b))
            out = out * omega_numerator(a, b)
    return out


def shuffle(left: ShuffleElement, right: ShuffleElement) -> ShuffleElement:
    """The shuffle product; arity adds, and the result is again symmetric.

    Only the coset placing the first block on z_1..z_k is multiplied out;
    every other coset term is a signed relabelling of it.  The block-order-
    preserving permutation carrying the base coset to another one maps the
    kernel product and the block factors along, while the Vandermonde
    correction picks up the permutation sign, which equals the parity of
    the number of cross pairs written in descending order.
    """
    k, l = left.arity, right.arity
    if k == 0:
        return ShuffleElement(l, left.poly * right.poly)
    if l == 0:
        return ShuffleElement(k, left.poly * right.poly)
    n = k + l
    base = left.poly * _coset_numerator(n, tuple(range(1, k + 1)))
    if right.poly != ONE:
        base = base * relabel_z(right.poly, {j: k + j for j in range(1, l + 1)})
    blocks = itertools.combinations(range(1, n + 1), k)
    numerator = signed_sum(_coset_image(base, block, n) for block in blocks)
    return ShuffleElement(n, divide_vandermonde(numerator, n))


def _coset_image(base: LaurentPoly, block: tuple, n: int) -> tuple[int, LaurentPoly]:
    """(sign, image) of the base coset term relabelled onto `block`."""
    comp = [b for b in range(1, n + 1) if b not in block]
    inversions = sum(1 for a in block for b in comp if a > b)
    mapping = {i + 1: a for i, a in enumerate(block + tuple(comp))}
    return (-1 if inversions % 2 else 1, relabel_z(base, mapping))


def shuffle_full_sym(left: ShuffleElement, right: ShuffleElement) -> ShuffleElement:
    """Reference evaluation straight from the defining formula.

    Sums all (k+l)! permutations and multiplies by 1/(k!.l!).  Exponentially
    slower than `shuffle`; kept as an independent cross-check.
    """
    k, l = left.arity, right.arity
    if k == 0 or l == 0:
        return shuffle(left, right)
    n = k + l
    numerator = LaurentPoly.zero()
    vandermonde = _vandermonde(n)
    for perm in itertools.permutations(range(1, n + 1)):
        p_rel = relabel_z(left.poly, {i + 1: perm[i] for i in range(k)})
        q_rel = relabel_z(right.poly, {j + 1: perm[k + j] for j in range(l)})
        term = p_rel * q_rel
        correction = vandermonde
        for a in perm[:k]:
            for b in perm[k:]:
                correction = exact_div(correction, _binomial(a, b))
                term = term * omega_numerator(a, b)
        numerator = numerator + term * correction
    scale = Fraction(1, _factorial(k) * _factorial(l))
    return ShuffleElement(n, _divide_vandermonde(numerator, n) * scale)


def _factorial(n: int) -> int:
    return reduce(lambda a, b: a * b, range(1, n + 1), 1)


def one_variable(exponent: int) -> ShuffleElement:
    """The arity-1 element z1^d."""
    return ShuffleElement(1, z(1, exponent) if exponent else ONE)


def scalar(value) -> ShuffleElement:
    """An arity-0 element (a coefficient of the base ring)."""
    p = value if isinstance(value, LaurentPoly) else LaurentPoly.constant(value)
    return ShuffleElement(0, p)


@lru_cache(maxsize=None)
def _shuffle_word_cached(exponents: tuple[int, ...]) -> ShuffleElement:
    if not exponents:
        return scalar(1)
    head = _shuffle_word_cached(exponents[:-1])
    return shuffle(head, one_variable(exponents[-1]))


def shuffle_word(word: Sequence[int] | Iterable[int]) -> ShuffleElement:
    """Left-fold expansion of z1^{d1} * z1^{d2} * ... * z1^{dk}.

    The empty word gives the arity-0 scalar 1.  Association order does not
    matter: the product is associative.
    """
    return _shuffle_word_cached(tuple(word))
