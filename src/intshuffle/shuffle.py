"""The shuffle product on symmetric Laurent polynomials.

For P in k variables and Q in l variables,

    (P * Q)(z_1..z_{k+l}) = 1/(k! l!) * Sym[ P(z_1..z_k) Q(z_{k+1}..z_{k+l})
                              prod_{i<=k<j} omega(z_i, z_j) ],

with the kernel omega(zi, zj) = (zi - q zj)(zj - q1 zi)(zj - q2 zi)/(zi - zj)
and q = q1 q2.  Over the common denominator V = prod_{i<j}(z_i - z_j) the
numerator (P * Q) V is antisymmetric, so it is fixed by its alternant
(Schur) coefficients (`schur`).  With A = P V_k = sum c_mu a_mu and
B = Q V_l = sum d_nu a_nu, and K the product of the kernel numerators
over the cross pairs i <= k < j,

    (P * Q) V = sum c_mu d_nu sum_{t in K} coeff_t a_{(mu || nu) + t},

because the symmetrization of a_mu(z_1..z_k) a_nu(z_{k+1}..z_{k+l}) K is
k!.l! times that of z^(mu || nu) K; the 1/(k!.l!) cancels exactly.  Each
a_gamma is straightened to 0 or a signed a_alpha with alpha strictly
decreasing, and the symmetric result is expanded into monomials once,
through Kostka numbers.  No numerator is multiplied out and nothing is
divided, so all arithmetic stays exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import add
from typing import Iterable, Sequence

from ._terms_py import add_into, mul_terms
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
from .schur import alternant, from_alternant, group_by_z, straighten


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

    @classmethod
    def _symmetric(cls, arity: int, poly: LaurentPoly) -> "ShuffleElement":
        """Wrap a polynomial that is symmetric by construction, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "poly", poly)
        return self

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

    Independent of the Schur expansion in `shuffle`; the reference
    `shuffle_full_sym` divides with this.
    """
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            p = exact_div(p, _binomial(i, j))
    return p


@lru_cache(maxsize=16)
def _cross_kernel(k: int, l: int) -> tuple:
    """prod_{a<=k<b<=k+l} omega_num(z_a, z_b) as (z-exponents, {q-part: c}) pairs."""
    out = ONE
    for a in range(1, k + 1):
        for b in range(k + 1, k + l + 1):
            out = out * omega_numerator(a, b)
    return tuple(group_by_z(out.terms, k + l).items())


def _alternant_product(left: dict, right: dict, k: int, l: int) -> dict:
    """Alternant coefficients of (P * Q) V_{k+l} from those of P V_k (`left`)
    and Q V_l (`right`): the sum of c_mu d_nu coeff_t a_{(mu || nu) + t} over
    the terms t of the cross kernel, each a_gamma straightened.
    """
    kernel = _cross_kernel(k, l)
    out: dict = {}
    for mu, c_mu in left.items():
        for nu, d_nu in right.items():
            pair = mu + nu
            # the kernel terms landing on each alpha, summed before multiplying
            by_alpha: dict = {}
            for t, coeff in kernel:
                got = straighten(tuple(map(add, pair, t)))
                if got is not None:
                    sign, alpha = got
                    add_into(by_alpha.setdefault(alpha, {}), coeff, sign)
            c = mul_terms(c_mu, d_nu)
            for alpha, coeff in by_alpha.items():
                add_into(out.setdefault(alpha, {}), mul_terms(c, coeff))
    return {alpha: row for alpha, row in out.items() if row}


def shuffle(left: ShuffleElement, right: ShuffleElement) -> ShuffleElement:
    """The shuffle product; arity adds, and the result is again symmetric.

    The alternant coefficients of the product come from those of the
    operands by straightening (`_alternant_product`), and the product is
    expanded into monomials once, at the end.
    """
    k, l = left.arity, right.arity
    if k == 0 or l == 0:
        return ShuffleElement(k + l, left.poly * right.poly)
    coeffs = _alternant_product(alternant(left.poly, k), alternant(right.poly, l), k, l)
    return ShuffleElement._symmetric(k + l, from_alternant(coeffs, k + l))


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


def _fold_word(exponents: tuple[int, ...]) -> dict:
    """Alternant coefficients of a nonempty word, folded letter by letter.

    Prefixes come from the bounded cache `_prefix_alternant`.
    """
    if len(exponents) == 1:
        return {exponents: {(): 1}}
    head = _prefix_alternant(exponents[:-1])
    return _alternant_product(head, {exponents[-1:]: {(): 1}}, len(exponents) - 1, 1)


_prefix_alternant = lru_cache(maxsize=256)(_fold_word)


@lru_cache(maxsize=None)
def _shuffle_word_cached(exponents: tuple[int, ...]) -> ShuffleElement:
    if not exponents:
        return scalar(1)
    n = len(exponents)
    return ShuffleElement._symmetric(n, from_alternant(_fold_word(exponents), n))


def shuffle_word(word: Sequence[int] | Iterable[int]) -> ShuffleElement:
    """Left-fold expansion of z1^{d1} * z1^{d2} * ... * z1^{dk}.

    The empty word gives the arity-0 scalar 1.  Association order does not
    matter: the product is associative.
    """
    return _shuffle_word_cached(tuple(word))
