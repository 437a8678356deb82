"""Necessary-condition checkers and ideal-membership certificates.

Every expanded product of one-variable elements lies in the ideal generated
by the two arity-2 products

    g1 = 2q z1^2 - (1 + q1 + q2 - 2q + q1 q + q2 q + q^2) z1 z2 + 2q z2^2
    g2 = (1 - q1)(1 - q2)(1 - q)(z1 + z2),          q = q1 q2,

inside the full Laurent ring in z1..zk.  The key identity is the kernel
decomposition

    2 * omega_num(zm, zn) = (zm - zn) g1(zm, zn) + zm zn g2(zm, zn),

which routes any cross-block kernel factor through (g1, g2).

`ideal_certificate` builds explicit cofactors (A, B) with
expand(word) = A g1 + B g2, for every arity k >= 2, from a loop over the
placements z_b of the last letter with everything held over the common
denominator V = prod_{i<j}(z_i - z_j).  Placement b carries the product
z_b^d * M_b * prod_{a not in {b, 3-b}} omega_num(z_a, z_b), where
M_b = V / prod_{a!=b}(z_a - z_b) is (-1)^(k-b) times the Vandermonde of the
other k-1 variables, so no division is needed.  A placement at z1 or z2
multiplies in the relabelled prefix word and splits through the kernel
decomposition of the one omega(z_c, z_b), c = 3 - b, left out of the
product; any other placement multiplies in the relabelled certificate of
the prefix word (which keeps z1, z2 in place).  The resulting cofactors
have denominator V, so a repair pass walks the linear factors f of V and
shifts (A, B) by a multiple of (g2, -g1) until both are divisible by f,
then divides f out; solvability at each step follows from g1 and g2 being
coprime modulo every z_i - z_j.  The placement loop and the repair pass run
once per prefix length j = 2..k, bottom-up: level j's placements b >= 3
read the repaired pair of level j - 1, the only state kept, so there is no
recursion and no cache.  The levels build the scaled pair (2A, 2B): the
placements at z1 and z2 split 2 omega rather than omega, and the placements
b >= 3 take the prefix's scaled pair, so every product runs on integer
coefficients and `ideal_certificate` halves once at the end.
`verify_ideal_certificate` is the authority on the result; it clears the
cofactors' denominators before multiplying, so it too works on integers.

Wheel conditions: an element of arity >= 3 must vanish whenever
{z1/z2, z2/z3, z3/z1} = {q1, q2, 1/q}.  `wheel_check` decides this from
the stored alternant coefficients alone, by a Laplace expansion of each
alternant along its first three rows (the argument is in its docstring),
and builds no monomial.  `ideal_wheel_check`, the two-ideal reduction form,
substitutes into the monomials: the independent check that both agree.

Corollary divisibility: the z2 := -z1 image of an element of arity >= 2
must be divisible by D = (1 + q1)(1 + q2)(1 + q).  `corollary_check` reads
the image off f on the monomial symmetric basis, one q-row per power of z1
and monomial symmetric function of z3..zk, divides each row by D, and
expands the cofactor from the quotient rows (the argument is in its
docstring).  It builds no monomial of f and substitutes nothing.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache

from ._terms_py import add_into, cleared, mul_terms, ratio, trimmed
from .errors import ArityTooSmall, IdentityViolated, NotDivisible
from .expr import as_element
from .generators import (
    GeneratorWord,
    WordLike,
    _certificate_payload,
    _json_poly,
    _json_word,
    as_word,
)
from .poly import (
    Q,
    Q1,
    Q2,
    LaurentPoly,
    exact_div,
    relabel_z,
    render,
    substitute,
    z,
)
from .schur import from_monomial_basis, monomial_coefficients
from .shuffle import ShuffleElement, _vandermonde, omega_numerator, shuffle_word


@dataclass(frozen=True)
class IdealGenerators:
    g1: LaurentPoly
    g2: LaurentPoly


@lru_cache(maxsize=1)
def ideal_generators() -> IdealGenerators:
    g1 = (
        2 * Q * z(1) ** 2
        - (1 + Q1 + Q2 - 2 * Q + Q1 * Q + Q2 * Q + Q * Q) * z(1) * z(2)
        + 2 * Q * z(2) ** 2
    )
    g2 = (1 - Q1) * (1 - Q2) * (1 - Q) * (z(1) + z(2))
    return IdealGenerators(g1, g2)


# -- wheel conditions ---------------------------------------------------------


def wheel_check(element: ShuffleElement) -> bool:
    """Vanishing under both ratio assignments; vacuous below arity 3.

    By symmetry it is enough to pin the first three variables: f must vanish
    at (z1, z2, z3) = (q t, q2 t, t) and at (q t, q1 t, t), q = q1 q2, for a
    free t.  The verdict is read off the stored coefficients of
    f V = N = sum_alpha c_alpha a_alpha; no monomial is built.

    * At (q t, q2 t, t) every factor z_i - z_j of V stays nonzero, so V is a
      nonzero Laurent polynomial there.  The ring is a domain, so f vanishes
      exactly when N does.
    * Laplace along rows 1-3 (Macdonald, I.3) gives
      N(q t, q2 t, t, z4..zn) = sum_{alpha, S} eps_S c_alpha det3(alpha_S)
      a_{alpha - S}(z4..zn).  S runs over the 3-column subsets, alpha_S =
      (a, b, c) holds alpha's entries at S and alpha - S the rest, and
      eps_S = (-1)^(s1+s2+s3) for 1-based columns.  det3 is
      t^(a+b+c) sum_sigma sign(sigma) q1^e1 q2^(e1+e2), summed over the six
      arrangements (e1, e2, e3) of (a, b, c).
    * The a_beta over distinct strictly decreasing beta are linearly
      independent, and t^(a+b+c) separates degrees.  So N vanishes exactly
      when every q-row keyed by (beta, a+b+c) sums to zero.

    The rows are summed exactly with the term kernel, in two passes, and
    only tested for zero.  The first pass expands along rows 1-2: with
    (a, b) alpha's entries at columns j < k and s = a + b, the minor is
    t^s q2^s (q1^a - q1^b).  So the row shifted by q1^a is made once per
    entry of alpha, and the minors of equal (alpha - {j, k}, s) are summed
    before one shift by q2^s.  The second pass expands what is left along
    row 3, where z3 = t brings only a sign and a power of t.  The second
    assignment swaps q1 and q2.
    """
    n = element.arity
    if n < 3:
        return True
    pairs = [((-1) ** (j + k + 1), j, k, [i for i in range(n) if i not in (j, k)])
             for j, k in itertools.combinations(range(n), 2)]
    for swap in (False, True):
        def q(lone: int, pair: int) -> tuple:
            """q1^lone q2^pair, or q2^lone q1^pair under the second assignment."""
            return trimmed((pair, lone) if swap else (lone, pair))

        minors: dict = {}
        for alpha, row in element.coeffs.items():
            shifted = [mul_terms(row, {q(e, 0): 1}) for e in alpha]
            for sign, j, k, rest in pairs:
                key = (tuple(alpha[i] for i in rest), alpha[j] + alpha[k])
                minor = minors.setdefault(key, {})
                add_into(minor, shifted[j], sign)
                add_into(minor, shifted[k], -sign)
        rows: dict = {}
        for (gamma, s), minor in minors.items():
            minor = mul_terms(minor, {q(0, s): 1})
            for m, e in enumerate(gamma):
                key = (gamma[:m] + gamma[m + 1:], s + e)
                add_into(rows.setdefault(key, {}), minor, (-1) ** m)
        if any(rows.values()):
            return False
    return True


def ideal_wheel_check(element: ShuffleElement) -> bool:
    """Membership in both wheel ideals, by reduction along the generators.

    Reduces modulo (q1 z1 - z2, q2 z2 - z3) via z2 := q1 z1, z3 := q2 z2 and
    modulo (q2 z1 - z2, q1 z2 - z3) via z2 := q2 z1, z3 := q1 z2.  It
    substitutes into the monomials, independently of `wheel_check`, and
    agrees with it on every input.
    """
    if element.arity < 3:
        raise ArityTooSmall("the wheel ideals live in arity >= 3")
    return all(not substitute(element.poly, assignment)
               for assignment in ({"z2": Q1 * z(1), "z3": Q * z(1)},
                                  {"z2": Q2 * z(1), "z3": Q * z(1)}))


# -- kernel decomposition -------------------------------------------------------


@dataclass(frozen=True)
class OmegaDecomposition:
    """The cleared identity 2*omega_num = (z1 - z2) g1 + z1 z2 g2."""

    omega_num: LaurentPoly
    g1: LaurentPoly
    g2: LaurentPoly

    def holds(self) -> bool:
        lhs = 2 * self.omega_num
        rhs = (z(1) - z(2)) * self.g1 + z(1) * z(2) * self.g2
        return lhs == rhs


def omega_decomposition() -> OmegaDecomposition:
    gens = ideal_generators()
    record = OmegaDecomposition(omega_numerator(1, 2), gens.g1, gens.g2)
    if not record.holds():
        raise IdentityViolated("kernel decomposition failed to verify")
    return record


# -- ideal certificates ---------------------------------------------------------


@dataclass(frozen=True)
class IdealCertificate:
    """Asserts expand(target) == A*g1 + B*g2 over the full Laurent ring.

    The target is either a generator word (expanded on demand) or an
    explicit shuffle element.
    """

    target: GeneratorWord | ShuffleElement
    A: LaurentPoly
    B: LaurentPoly

    def target_poly(self) -> LaurentPoly:
        if isinstance(self.target, GeneratorWord):
            return shuffle_word(self.target.exponents).poly
        return self.target.poly

    def __str__(self) -> str:
        return f"target: {self.target}\nA: {render(self.A)}\nB: {render(self.B)}"

    def payload(self) -> dict:
        """The JSON object of the certificate, as `to_json` writes it."""
        if isinstance(self.target, GeneratorWord):
            target = list(self.target.exponents)
        else:
            target = str(self.target)
        return {"schema": 1, "target": target, "A": render(self.A), "B": render(self.B)}

    def to_json(self) -> str:
        return json.dumps(self.payload(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "IdealCertificate":
        payload = _certificate_payload(text, "target", "A", "B")
        raw = payload["target"]
        if isinstance(raw, str):
            target: GeneratorWord | ShuffleElement = as_element(_json_poly(raw, "target"))
        else:
            target = _json_word(raw, "target")
        return cls(target, _json_poly(payload["A"], "A"), _json_poly(payload["B"], "B"))


def verify_ideal_certificate(cert: IdealCertificate) -> bool:
    """Whether A g1 + B g2 == target, checked as L A g1 + L B g2 == L target
    with L the lcm of the cofactors' denominators, so the products run on
    integer coefficients (g1 and g2 are integral)."""
    gens = ideal_generators()
    den, (a, b) = cleared([cert.A.terms, cert.B.terms])
    return (LaurentPoly._raw(a) * gens.g1 + LaurentPoly._raw(b) * gens.g2
            == den * cert.target_poly())


def ideal_certificate(word: WordLike | GeneratorWord) -> IdealCertificate:
    """Cofactors (A, B) with expand(word) == A*g1 + B*g2, arity >= 2."""
    w = as_word(word)
    if w.arity < 2:
        raise ArityTooSmall("ideal membership needs arity >= 2")
    gens = ideal_generators()
    a_hat = b_hat = LaurentPoly.zero()
    for k in range(2, w.arity + 1):
        prefix = w.exponents[:k - 1]
        sub_a, sub_b = a_hat, b_hat  # the prefix's scaled pair; unread when k == 2
        a_hat = b_hat = LaurentPoly.zero()
        prefix_poly = shuffle_word(prefix).poly

        for b_var in range(1, k + 1):
            others = [i for i in range(1, k + 1) if i != b_var]
            mapping = dict(enumerate(others, 1))
            # V_k / prod_{a != b}(z_a - z_b) is the Vandermonde of the others, up to sign
            m_b = (-1) ** (k - b_var) * relabel_z(_vandermonde(k - 1), mapping)
            carried = z(b_var, w.exponents[k - 1]) * m_b
            c_var = 3 - b_var  # the other special variable; out of range when b_var > 2
            for a_var in others:
                if a_var != c_var:
                    carried = carried * omega_numerator(a_var, b_var)
            if b_var <= 2:
                # 2 omega(z_c, z_b) = (z_c - z_b) g1 + z1 z2 g2 splits the placement
                carried = carried * relabel_z(prefix_poly, mapping)
                a_hat = a_hat + carried * (z(c_var) - z(b_var))
                b_hat = b_hat + z(1) * z(2) * carried
            else:
                a_hat = a_hat + relabel_z(sub_a, mapping) * carried
                b_hat = b_hat + relabel_z(sub_b, mapping) * carried

        # Repair pass: make both cofactors divisible by each linear factor of
        # the common denominator, then divide it out.
        for i, j in itertools.combinations(range(1, k + 1), 2):
            f = z(i) - z(j)
            merge = {f"z{j}": z(i)}
            a_mod = substitute(a_hat, merge)
            g2_mod = substitute(gens.g2, merge)
            h = exact_div(a_mod, g2_mod)
            a_hat = exact_div(a_hat - h * gens.g2, f)
            b_hat = exact_div(b_hat + h * gens.g1, f)
    return IdealCertificate(w, _halved(a_hat), _halved(b_hat))


def _halved(p: LaurentPoly) -> LaurentPoly:
    """p / 2, with every integral coefficient an int."""
    return LaurentPoly._raw({m: ratio(c, 2) for m, c in p.terms.items()})


# -- corollary divisibility ------------------------------------------------------


def corollary_check(element: ShuffleElement) -> tuple[bool, LaurentPoly | None]:
    """Divisibility of the z2 := -z1 image by D = (1 + q1)(1 + q2)(1 + q).

    Returns (True, cofactor) on success and (False, None) otherwise.  The
    image is read off f on the monomial symmetric basis, f = sum_mu r_mu m_mu
    (`schur.monomial_coefficients`); no monomial of f is built and nothing
    is substituted.

    * A rearrangement of the content mu that puts the values x, y at z1, z2
      puts a rearrangement of mu - {x, y} at z3..zk.  So m_mu(z1, -z1,
      z3..zk) = sum (-1)^y z1^(x+y) m_{mu - {x, y}}(z3..zk) over the ordered
      value pairs (x, y) drawn from mu.
    * For values a < b the orders (a, b) and (b, a) add up to
      ((-1)^a + (-1)^b) z1^(a+b): 2 (-1)^a when a and b have the same
      parity, 0 when they do not.  A value a that occurs at least twice in
      mu is drawn as (a, a) once, with weight (-1)^a.
    * The terms z1^s m_nu(z3..zk) of distinct (s, nu) share no monomial, so
      the image is sum R_(s,nu) z1^s m_nu with one q-row R per (s, nu).  D
      is free of z, so it divides the image exactly when it divides every R.
    * The cofactor sum (R / D) z1^s m_nu is expanded over the orbits of nu
      by `schur.from_monomial_basis`, which `from_alternant` also uses: its
      work grows with the output, not with f.
    """
    k = element.arity
    if k < 2:
        raise ArityTooSmall("the divisibility condition needs arity >= 2")
    rows: dict = {}
    for mu, row in monomial_coefficients(element.coeffs, k).items():
        for a, b in itertools.combinations_with_replacement(sorted(set(mu)), 2):
            if (b - a) & 1 or (a == b and mu.count(a) < 2):
                continue
            rest = list(mu)
            rest.remove(a)
            rest.remove(b)
            target = rows.setdefault((a + b, tuple(rest)), {})
            sign = -1 if a & 1 else 1
            add_into(target, row, sign)
            if a != b:  # the weight is 2 (-1)^a
                add_into(target, row, sign)
    divisor = (1 + Q1) * (1 + Q2) * (1 + Q)
    try:
        quotients = {(s, 0) + nu: exact_div(LaurentPoly._raw(row), divisor).terms
                     for (s, nu), row in rows.items() if row}
    except NotDivisible:
        return (False, None)
    return (True, from_monomial_basis(quotients, fixed=2))
