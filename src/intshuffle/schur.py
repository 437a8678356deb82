"""Division of antisymmetric Laurent polynomials by the Vandermonde.

A polynomial p antisymmetric in z1..zn is a sum of alternants,
p = sum_alpha c_alpha a_alpha over strictly decreasing exponent vectors
alpha, where a_alpha = sum_sigma sign(sigma) z^sigma(alpha) and c_alpha is
the coefficient of z^alpha in p (the q-exponents ride along in c_alpha).
With V = prod_{i<j}(z_i - z_j) = a_delta, delta = (n-1, ..., 1, 0),

    p / V = sum_alpha c_alpha s_{alpha - delta},
    s_lambda = sum_mu K(lambda, mu) m_mu,

where s_lambda is a Schur polynomial, m_mu the monomial symmetric
polynomial of the partition mu and K(lambda, mu) the Kostka number: the
count of semistandard tableaux of shape lambda and content mu.  Laurent
exponents are handled by s_lambda = e_n^t s_{lambda - t}, which shifts
lambda and mu by the same t.  So the quotient is read off the terms of p
with strictly decreasing z-exponents, and no division is carried out.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from ._terms_py import trimmed
from .poly import LaurentPoly


def divide_vandermonde(p: LaurentPoly, n: int) -> LaurentPoly:
    """p / prod_{i<j<=n}(z_i - z_j) for p antisymmetric in z1..zn.

    The caller guarantees antisymmetry (the quotient is then symmetric);
    p may use no z-index above n.
    """
    width = n + 2
    pad = (0,) * width
    delta = tuple(range(n - 1, -1, -1))
    # lambda (shifted so its last part is 0), shift t -> {q-part: coefficient}
    by_shape: dict = {}
    for mono, c in p.terms.items():
        mono = mono + pad[len(mono):]
        alpha = mono[2:]
        if any(alpha[i] <= alpha[i + 1] for i in range(n - 1)):
            continue
        t = alpha[-1]
        key = (tuple(a - d - t for a, d in zip(alpha, delta)), t)
        row = by_shape.setdefault(key, {})
        row[mono[:2]] = c
    # mu (shifted) -> {q-part: coefficient}
    by_content: dict = {}
    for (shape, t), row in by_shape.items():
        for content, k in _schur_row(shape):
            acc = by_content.setdefault(tuple(e + t for e in content), {})
            for qpart, c in row.items():
                acc[qpart] = acc.get(qpart, 0) + k * c
    out: dict = {}
    for content, acc in by_content.items():
        orbit = _orbit(content)
        for qpart, c in acc.items():
            if c:
                for zpart in orbit:
                    out[trimmed(qpart + zpart)] = c
    return LaurentPoly._raw(out)


@lru_cache(maxsize=4096)
def _orbit(content: tuple) -> tuple:
    """The distinct rearrangements of an exponent vector."""
    return tuple(set(itertools.permutations(content)))


@lru_cache(maxsize=4096)
def _schur_row(shape: tuple) -> tuple:
    """(mu, K(shape, mu)) for every partition mu of |shape| that shape dominates."""
    return tuple(
        (content, _kostka(shape, content))
        for content in _dominated(shape, sum(shape), 0, shape[0])
    )


def _dominated(shape: tuple, left: int, i: int, largest: int):
    """Partitions (len(shape) parts, the first at most `largest`) of `left`
    whose prefix sums from part i on stay at or below those of shape."""
    n = len(shape)
    if i == n:
        if not left:
            yield ()
        return
    room = sum(shape[: i + 1]) - (sum(shape) - left)
    for part in range(min(largest, left, room), -1, -1):
        if part * (n - i) < left:
            break
        for rest in _dominated(shape, left - part, i + 1, part):
            yield (part,) + rest


@lru_cache(maxsize=1 << 16)
def _kostka(shape: tuple, content: tuple) -> int:
    """Semistandard tableaux of `shape` holding content[i] entries i + 1.

    The largest entry fills a horizontal strip; remove it and recurse.
    """
    rows = len(content)
    if any(shape[rows:]):
        return 0
    if not rows:
        return 1
    return sum(
        _kostka(inner, content[:-1]) for inner in _strips(shape, content[-1], 0)
    )


def _strips(shape: tuple, size: int, i: int):
    """Shapes inner with shape / inner a horizontal strip of `size` boxes,
    as the tuple of their parts from row i on."""
    if i == len(shape):
        if not size:
            yield ()
        return
    floor = shape[i + 1] if i + 1 < len(shape) else 0
    for take in range(min(size, shape[i] - floor) + 1):
        for rest in _strips(shape, size - take, i + 1):
            yield (shape[i] - take,) + rest
