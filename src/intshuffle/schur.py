"""Symmetric Laurent polynomials through their alternant (Schur) coefficients.

A polynomial p antisymmetric in z1..zn is a sum of alternants,
p = sum_alpha c_alpha a_alpha over strictly decreasing exponent vectors
alpha, where a_alpha = sum_sigma sign(sigma) z^sigma(alpha) and c_alpha is
the coefficient of z^alpha in p (the q-exponents ride along in c_alpha).
With V = prod_{i<j}(z_i - z_j) = a_delta, delta = (n-1, ..., 1, 0), a
symmetric f is fixed by the alternant coefficients of f*V: by the
bialternant formula f = sum_alpha c_alpha s_{alpha - delta}, with
s_lambda = a_{lambda + delta} / V the Schur polynomial.  Exponents may be
negative throughout; for n = 0, f is the coefficient of a_().

Alternant coefficients are kept as a dict alpha -> {q-part: c}, where the
q-part is a trimmed exponent tuple over q1, q2 and no row is empty: the
stored form of a shuffle element.  Multiplying by a symmetric f shifts and
straightens: f a_alpha = sum_beta f_beta a_{alpha + beta} over the
monomials beta of f, and a_gamma is 0 when gamma repeats an entry, else the
permutation sign times a_{sorted gamma} (`alternant`).  With the factor
V = a_delta this reads the coefficients of f off its monomials.

Going back, `monomial_coefficients` gives f on the monomial symmetric basis,
content mu -> {q-part: c}, by inverting the same map: m_mu V straightens to
a_{mu + delta} plus alternants below it in lex order, so the largest
alternant left names the next content (back-substitution).
`from_alternant` expands each content's orbit (its distinct rearrangements)
into monomials, and `render_alternant` writes the canonical text of f
straight from these (content, q-part) representatives: the monomials are
never built.
"""

from __future__ import annotations

import heapq
import itertools
from functools import lru_cache
from operator import add, sub

from ._terms_py import add_into, mul_terms, trimmed
from .poly import LaurentPoly, _render_groups


@lru_cache(maxsize=1 << 16)
def straighten(gamma: tuple):
    """(sign, alpha) with a_gamma = sign * a_alpha and alpha strictly
    decreasing, or None when gamma repeats an entry (a_gamma = 0)."""
    n = len(gamma)
    if len(set(gamma)) < n:
        return None
    inversions = sum(
        1 for i in range(n - 1) for j in range(i + 1, n) if gamma[i] < gamma[j]
    )
    return (-1 if inversions & 1 else 1, tuple(sorted(gamma, reverse=True)))


def group_by_z(terms: dict, n: int) -> dict:
    """A term map as z-exponents (padded to n) -> {q-part: c}; no z-index above n."""
    pad = (0,) * (n + 2)
    out: dict = {}
    for mono, c in terms.items():
        mono = mono + pad[len(mono):]
        qpart = mono[:2] if mono[1] else mono[:1] if mono[0] else ()
        out.setdefault(mono[2:], {})[qpart] = c
    return out


def straighten_sum(base: dict, shifts) -> dict:
    """Alternant coefficients of sum c_alpha r a_{alpha + t}, over the
    coefficients alpha -> c_alpha of `base` and the (z-exponents t, q-row r)
    pairs of `shifts` (a collection: it is walked once per alpha), each
    a_gamma straightened."""
    out: dict = {}
    for alpha, c in base.items():
        # the shifts landing on each gamma, summed before multiplying by c
        by_gamma: dict = {}
        for t, row in shifts:
            got = straighten(tuple(map(add, alpha, t)))
            if got is not None:
                sign, gamma = got
                add_into(by_gamma.setdefault(gamma, {}), row, sign)
        for gamma, row in by_gamma.items():
            add_into(out.setdefault(gamma, {}), mul_terms(c, row))
    return {gamma: row for gamma, row in out.items() if row}


def alternant(f: LaurentPoly, n: int, base: dict | None = None) -> dict:
    """The alternant coefficients of f * A for f symmetric in z1..zn, where A
    has the alternant coefficients `base`; by default A = V = a_delta.

    The coefficients of f * V are the terms of f * V whose z-exponents
    strictly decrease.
    """
    if base is None:
        base = {tuple(range(n - 1, -1, -1)): {(): 1}}
    return straighten_sum(base, group_by_z(f.terms, n).items())


def monomial_coefficients(coeffs: dict, n: int) -> dict:
    """The symmetric f = sum_alpha c_alpha s_{alpha - delta} in z1..zn on the
    monomial symmetric basis: content mu (weakly decreasing) -> {q-part: c},
    with no zero c and no empty row.

    m_mu V = sum over the orbit beta of mu of a_{beta + delta}, whose largest
    alternant is a_{mu + delta}; so the largest alternant left in f V gives
    the next content, and subtracting its m_mu V leaves smaller ones only.
    """
    delta = tuple(range(n - 1, -1, -1))
    # the rows are copied: the word cache hands the same dicts to every caller
    left = {alpha: dict(row) for alpha, row in coeffs.items()}
    heap = [tuple(-a for a in alpha) for alpha in left]
    heapq.heapify(heap)
    out: dict = {}
    while heap:
        alpha = tuple(-a for a in heapq.heappop(heap))
        row = left.pop(alpha)
        if not row:
            continue
        # alpha - delta weakly decreases, so it heads its own (descending)
        # orbit; every other beta + delta straightens to some gamma below
        # alpha in lex order, so a popped alpha is never created again
        content = tuple(map(sub, alpha, delta))
        out[content] = row
        for beta in _orbit(content)[1:]:
            got = straighten(tuple(map(add, beta, delta)))
            if got is not None:
                sign, gamma = got
                target = left.get(gamma)
                if target is None:
                    target = left[gamma] = {}
                    heapq.heappush(heap, tuple(-g for g in gamma))
                add_into(target, row, -sign)
    return out


def from_alternant(coeffs: dict, n: int) -> LaurentPoly:
    """The symmetric f = sum_alpha c_alpha s_{alpha - delta} in z1..zn, in monomials."""
    out: dict = {}
    for content, row in monomial_coefficients(coeffs, n).items():
        orbit = _orbit(content)
        for qpart, c in row.items():
            qpart = (qpart + (0, 0))[:2]
            for zpart in orbit:
                out[trimmed(qpart + zpart)] = c
    return LaurentPoly._raw(out)


def render_alternant(coeffs: dict, n: int) -> str:
    """`render(from_alternant(coeffs, n))`, written from each content's orbit
    without building the monomials: a content's orbit and q-part fill one
    group of the formatter, and orbits of distinct contents are disjoint."""
    groups: dict = {}
    for content, row in monomial_coefficients(coeffs, n).items():
        degree = sum(content)
        orbit = _orbit(content)
        for qpart, c in row.items():
            q1, q2 = (qpart + (0, 0))[:2]
            group = groups.setdefault((degree + q1 + q2, q1, q2), [])
            group.extend(zip(orbit, itertools.repeat(c)))
    return _render_groups(groups)


@lru_cache(maxsize=4096)
def _orbit(content: tuple) -> tuple:
    """The distinct rearrangements of an exponent vector, in descending order."""
    return tuple(sorted(set(itertools.permutations(content)), reverse=True))
