"""The shuffle product on symmetric Laurent polynomials.

For P in k variables and Q in l variables,

    (P * Q)(z_1..z_{k+l}) = 1/(k! l!) * Sym[ P(z_1..z_k) Q(z_{k+1}..z_{k+l})
                              prod_{i<=k<j} omega(z_i, z_j) ],

with the kernel omega(zi, zj) = (zi - q zj)(zj - q1 zi)(zj - q2 zi)/(zi - zj)
and q = q1 q2.  Over the common denominator V = prod_{i<j}(z_i - z_j) the
numerator (P * Q) V is antisymmetric, so it is fixed by its alternant
(Schur) coefficients (`schur`), and a `ShuffleElement` stores only these.
With P V_k = sum c_mu a_mu and Q V_l = sum d_nu a_nu, and K the product of
the kernel numerators over the cross pairs i <= k < j (K = 1 when k = 0),

    (P * Q) V = sum c_mu d_nu sum_{t in K} coeff_t a_{(mu || nu) + t},

because the symmetrization of a_mu(z_1..z_k) a_nu(z_{k+1}..z_{k+l}) K is
k!.l! times that of z^(mu || nu) K; the 1/(k!.l!) cancels exactly.  Each
a_gamma is straightened to 0 or a signed a_alpha with alpha strictly
decreasing.  A word z1^{d1} * ... * z1^{dk} is folded letter by letter:
z1^d is a_(d) (V_1 = 1), so each step appends d to the alternants of the
cached prefix, of arity j, and straightens their rows, uncopied, against
the K of arities j and 1.
Sums, scaling and equality act on the coefficients too, and monomials are
built only where they are read.  No numerator is multiplied out and nothing
is divided, so all arithmetic stays exact.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from ._terms_py import add_into, mul_terms, ratio
from .errors import NotSymmetric
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
from .schur import alternant, from_alternant, group_by_z, render_alternant, straighten_sum


class ShuffleElement:
    """An element of V_k: a symmetric Laurent polynomial f in z1..zk.

    It is stored as `arity` and `coeffs`, the alternant coefficients of
    f V_k (see `schur`); `poly`, the monomials of f, is built on first read.
    Treat it as immutable: `coeffs` may be shared with the word cache.
    """

    __slots__ = ("arity", "coeffs", "_poly")

    def __init__(self, arity: int, poly: LaurentPoly):
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        if not is_symmetric(poly, arity):
            raise NotSymmetric(f"polynomial is not symmetric in z1..z{arity}")
        self.arity, self.coeffs, self._poly = arity, alternant(poly, arity), poly

    @classmethod
    def _of(cls, arity: int, coeffs: dict) -> "ShuffleElement":
        """The element with alternant coefficients `coeffs`, symmetric by form."""
        self = object.__new__(cls)
        self.arity, self.coeffs, self._poly = arity, coeffs, None
        return self

    @property
    def poly(self) -> LaurentPoly:
        if self._poly is None:
            self._poly = from_alternant(self.coeffs, self.arity)
        return self._poly

    def __eq__(self, other) -> bool:
        if not isinstance(other, ShuffleElement):
            return NotImplemented
        return self.arity == other.arity and self.coeffs == other.coeffs

    def __add__(self, other: "ShuffleElement") -> "ShuffleElement":
        if not isinstance(other, ShuffleElement):
            return NotImplemented
        return element_sum(self.arity, ((1, self), (1, other)))

    def __sub__(self, other: "ShuffleElement") -> "ShuffleElement":
        if not isinstance(other, ShuffleElement):
            return NotImplemented
        return element_sum(self.arity, ((1, self), (-1, other)))

    def __neg__(self) -> "ShuffleElement":
        return self.scaled(-1)

    def scaled(self, c) -> "ShuffleElement":
        """Multiply by a scalar of V_k (rational, q-only, or symmetric in z1..zk)."""
        if not isinstance(c, LaurentPoly):
            c = LaurentPoly.constant(c)
        if not is_symmetric(c, self.arity):
            raise NotSymmetric(f"scalar factor must be symmetric in z1..z{self.arity}")
        return ShuffleElement._of(self.arity, alternant(c, self.arity, self.coeffs))

    def __mul__(self, c):
        if isinstance(c, (int, Fraction, LaurentPoly)):
            return self.scaled(c)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"ShuffleElement(arity={self.arity}, poly=LaurentPoly({str(self)!r}))"

    def __str__(self) -> str:
        return render_alternant(self.coeffs, self.arity)


def element_sum(arity: int, terms: Iterable[tuple[int, ShuffleElement]]) -> ShuffleElement:
    """Sum of sign*e over (sign, e) pairs of arity-`arity` elements, sign 1 or -1."""
    out: dict = {}
    for sign, element in terms:
        if element.arity != arity:
            raise ValueError(f"cannot add shuffle elements of arities {arity} and {element.arity}")
        for alpha, row in element.coeffs.items():
            add_into(out.setdefault(alpha, {}), row, sign)
    return ShuffleElement._of(arity, {alpha: row for alpha, row in out.items() if row})


@lru_cache(maxsize=256)
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


@lru_cache(maxsize=16)
def _vandermonde(n: int) -> LaurentPoly:
    out = ONE
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out = out * (z(i) - z(j))
    return out


def _divide_vandermonde(p: LaurentPoly, n: int) -> LaurentPoly:
    """Exact division by prod_{i<j<=n}(z_i - z_j), one binomial at a time.

    Independent of the Schur expansion in `shuffle`; the reference
    `shuffle_full_sym` divides with this.
    """
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            p = exact_div(p, z(i) - z(j))
    return p


@lru_cache(maxsize=16)
def _cross_kernel(k: int, l: int) -> tuple:
    """prod_{a<=k<b<=k+l} omega_num(z_a, z_b) as (z-exponents, {q-part: c}) pairs."""
    out = ONE
    for a in range(1, k + 1):
        for b in range(k + 1, k + l + 1):
            out = out * omega_numerator(a, b)
    return tuple(group_by_z(out.terms, k + l).items())


def shuffle(left: ShuffleElement, right: ShuffleElement) -> ShuffleElement:
    """The shuffle product; arity adds, and the result is again symmetric.

    Each pair c_mu d_nu of alternant coefficients lands on a_{mu || nu},
    shifted by the terms of K and straightened (see above); no monomial is built.
    """
    k, l = left.arity, right.arity
    pairs = {mu + nu: mul_terms(c, d)
             for mu, c in left.coeffs.items() for nu, d in right.coeffs.items()}
    return ShuffleElement._of(k + l, straighten_sum(pairs, _cross_kernel(k, l)))


def shuffle_full_sym(left: ShuffleElement, right: ShuffleElement) -> ShuffleElement:
    """Reference evaluation straight from the defining formula.

    As prod_{i<=k<j}(z_i - z_j) = V / (V_k V'), V' the Vandermonde of z_{k+1}..z_n,
    Sym[F] is the sum over all n! sigma of sign(sigma) sigma(G), divided by V, for the
    one product G = P V_k . Q V' . prod_{i<=k<j} omega_num(z_i, z_j); then 1/(k!.l!).
    Exponentially slower than `shuffle`; kept as an independent cross-check.
    """
    k, l = left.arity, right.arity
    n = k + l
    g = left.poly * _vandermonde(k) * relabel_z(
        right.poly * _vandermonde(l), {j: k + j for j in range(1, l + 1)})
    for a in range(1, k + 1):
        for b in range(k + 1, n + 1):
            g = g * omega_numerator(a, b)
    numerator = signed_sum(
        ((-1) ** sum(i > j for i, j in itertools.combinations(perm, 2)), permute_z(g, perm))
        for perm in itertools.permutations(range(1, n + 1)))
    scale = ratio(1, math.factorial(k) * math.factorial(l))
    return ShuffleElement(n, _divide_vandermonde(numerator, n) * scale)


def one_variable(exponent: int) -> ShuffleElement:
    """The arity-1 element z1^d."""
    return shuffle_word((exponent,))


def scalar(value) -> ShuffleElement:
    """An arity-0 element (a coefficient of the base ring)."""
    return shuffle_word(()).scaled(value)


@lru_cache(maxsize=256)
def _word_alternant(exponents: tuple[int, ...]) -> dict:
    """Alternant coefficients of a word, folded letter by letter (see
    above); the prefixes come from this cache too."""
    if len(exponents) <= 1:
        return {exponents: {(): 1}}
    last = exponents[-1:]
    rows = {mu + last: row for mu, row in _word_alternant(exponents[:-1]).items()}
    return straighten_sum(rows, _cross_kernel(len(exponents) - 1, 1))


def shuffle_word(word: Sequence[int] | Iterable[int]) -> ShuffleElement:
    """Left-fold expansion of z1^{d1} * z1^{d2} * ... * z1^{dk}.

    The empty word gives the arity-0 scalar 1.  Association order does not
    matter: the product is associative.
    """
    exponents = tuple(word)
    return ShuffleElement._of(len(exponents), _word_alternant(exponents))
