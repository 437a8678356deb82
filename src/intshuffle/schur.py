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

`straighten_sum` does this on packed q-rows (Kronecker substitution).  A
row is evaluated at q1 = 2^(B W), q2 = 2^B: one int whose B-bit digit
k = (e1 - lo1) W + e2 - lo2 holds the coefficient of q1^e1 q2^e2.  Here
lo1, lo2 are the least exponents of the call's inputs (so Laurent rows
shift), and W spans the output's q2 exponents, so no product digit carries
into the next q1 step; sums and products of rows become sums and products
of ints.  With ||r|| the sum of |c| over a row, every input and output
coefficient is at most M = (sum_alpha ||c_alpha||)(sum_t ||r_t||) in
absolute value, and B is bitlen(M) + 1 rounded up to whole bytes: each
digit d has -2^(B-1) < d < 2^(B-1), so decoding is exact.  Adding 2^(B-1)
to every digit and xor-ing it back leaves each digit's two's complement,
which `to_bytes` and an `array` read.  Rows holding a Fraction are first
`cleared` of their denominators, and the output is divided by the lcm once
(`ratio`), giving an int wherever the value is integral.  A packed row has a
digit for every point of the output's q-exponent box, occupied or not, and
so do the q-part tables that pack and decode it (`_tables`, kept by shape
for boxes of up to _CACHED_DIGITS points): a product whose box has more
than _MAX_DIGITS points (256 x 256) raises ValueError instead, however few
terms it has.

Going back, `monomial_coefficients` gives f on the monomial symmetric basis,
content mu -> {q-part: c}, by inverting the same map: m_mu V straightens to
a_{mu + delta} plus alternants below it in lex order, so the largest
alternant left names the next content (back-substitution).
`from_monomial_basis` expands each content's orbit (its distinct
rearrangements) into monomials, after any z-exponents held in place, and
`render_alternant` writes the canonical text of f straight from these
(content, q-part) representatives, each one prefix before the text of every
z-part of its orbit, and each z-part's text built once: no monomial is built.
"""

from __future__ import annotations

import heapq
import itertools
import sys
from array import array
from functools import lru_cache
from operator import add, lshift, sub

from ._terms_py import add_into, cleared, ratio, trimmed
from .poly import _Q_SLOTS, LaurentPoly, _bare, _factors_text, _head, _join_groups

# digit bytes -> (slot bytes, type code) of the `array` that reads such
# signed digits, each in a slot of its own width or the next wider one
_ARRAY_CODES = {array(code).itemsize: code for code in "bhiq"}
_ARRAY_SLOTS = {
    size: min((slot, code) for slot, code in _ARRAY_CODES.items() if slot >= size)
    for size in range(1, max(_ARRAY_CODES) + 1)
}
# byte -> 0xff when its top bit is set, else 0: the sign extension of a digit
_SIGN_FILL = bytes(255 if b & 0x80 else 0 for b in range(256))
# the most digits a packed row may have: one for each point q1^e1 q2^e2 of
# the output's exponent box, whether or not a term sits there
_MAX_DIGITS = 1 << 16
# the most digits of a call whose q-part tables `_tables` keeps; 64 such
# entries hold about 13 MB
_CACHED_DIGITS = 1 << 10


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
    pairs of `shifts`, each a_gamma straightened.

    The q-rows are packed into ints (see above): the shift rows landing on
    each gamma are summed as ints, each (alpha, gamma) pair costs one
    multiply, and each output row is decoded once.  Raises ValueError when
    the output's q-exponent box has more than _MAX_DIGITS points.
    """
    shifts = tuple(shifts)
    rows_a, den_a, norm_a, lo1a, hi1a, lo2a, hi2a = _scan(list(base.values()))
    rows_t, den_t, norm_t, lo1t, hi1t, lo2t, hi2t = _scan([row for _, row in shifts])
    bound = norm_a * norm_t
    if not bound:
        return {}
    lo1, lo2 = lo1a + lo1t, lo2a + lo2t
    width = hi2a + hi2t - lo2 + 1
    digits = (hi1a + hi1t - lo1 + 1) * width
    if digits > _MAX_DIGITS:
        raise ValueError(
            f"q-exponents span {digits // width} x {width} in one product, "
            f"more than the {_MAX_DIGITS} packed digits allowed")
    # B = 8 * size bits > bitlen(M), so -2^(B-1) < every digit < 2^(B-1)
    size = (bound.bit_length() + 8) // 8
    bits = 8 * size
    # a small box's tables are cached: building them costs about as much as
    # a small call's work, while a large box's call outweighs its tables
    tables = _tables if digits <= _CACHED_DIGITS else _tables.__wrapped__
    where_a, where_t, qparts = tables(lo1a, hi1a, lo2a, lo1t, hi1t, lo2t, width, bits)
    where = where_a.__getitem__
    packed_a = [sum(map(lshift, row.values(), map(where, row))) for row in rows_a]
    where = where_t.__getitem__
    packed_t = [(t, sum(map(lshift, row.values(), map(where, row))))
                for (t, _), row in zip(shifts, rows_t)]
    out: dict = {}
    get = out.get
    for alpha, c in zip(base, packed_a):
        # the shifts landing on each gamma, summed before multiplying by c
        by_gamma: dict = {}
        at = by_gamma.get
        for t, r in packed_t:
            got = straighten(tuple(map(add, alpha, t)))
            if got is not None:
                sign, gamma = got
                by_gamma[gamma] = at(gamma, 0) + r if sign > 0 else at(gamma, 0) - r
        for gamma, r in by_gamma.items():
            if r:
                out[gamma] = get(gamma, 0) + c * r
    # 2^(B-1) in every digit: adding it makes each digit an unsigned B-bit
    # one, and xor-ing it back leaves each digit's two's complement
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * digits, "little")
    den = den_a * den_t
    result = {}
    for gamma, v in out.items():
        if v:
            values = _read_digits((v + bias) ^ bias, size, digits)
            coeffs = filter(None, values)
            if den != 1:
                coeffs = [ratio(d, den) for d in coeffs]
            result[gamma] = dict(zip(itertools.compress(qparts, values), coeffs))
    return result


def _scan(rows: list) -> tuple:
    """(rows, den, norm, lo1, hi1, lo2, hi2) for a list of q-rows: the rows
    `cleared` by den, the sum of the absolute values of the rows'
    coefficients after that, and the ranges of their q1 and q2 exponents.
    norm is 0 when there are no coefficients."""
    den = 1
    try:
        norm = sum(map(int.__abs__, itertools.chain.from_iterable(map(dict.values, rows))))
    except TypeError:  # int.__abs__ stops at the first Fraction, so none is summed
        den, rows = cleared(rows)
        norm = sum(map(int.__abs__, itertools.chain.from_iterable(map(dict.values, rows))))
    if not norm:
        return rows, 1, 0, 0, 0, 0, 0
    keys = set().union(*rows)
    e1 = {q[0] if q else 0 for q in keys}
    e2 = {q[1] if len(q) > 1 else 0 for q in keys}
    return rows, den, norm, min(e1), max(e1), min(e2), max(e2)


def _box(lo1: int, hi1: int, lo2: int, hi2: int) -> list:
    """The trimmed q-parts q1^e1 q2^e2 with lo1 <= e1 <= hi1, lo2 <= e2 <= hi2,
    e1 major: the digits of a packed row of width hi2 - lo2 + 1, in order."""
    box = list(itertools.product(range(lo1, hi1 + 1), range(lo2, hi2 + 1)))
    if lo2 <= 0 <= hi2:
        # the e2 = 0 column is the only one that trims
        for k, e1 in zip(range(-lo2, len(box), hi2 - lo2 + 1), range(lo1, hi1 + 1)):
            box[k] = (e1,) if e1 else ()
    return box


@lru_cache(maxsize=64)
def _tables(lo1a: int, hi1a: int, lo2a: int, lo1t: int, hi1t: int, lo2t: int,
            width: int, bits: int) -> tuple:
    """(where_a, where_t, qparts) for packed rows of `width` digits of `bits`
    bits per q1 step: q-part -> bit offset on the base side, which starts at
    q1^lo1a q2^lo2a and ends at q1 exponent hi1a, the same on the shift side,
    and the output's q-part at each digit.  Cached results are shared, so
    callers only read them."""
    return (_offsets(lo1a, hi1a, lo2a, width, bits),
            _offsets(lo1t, hi1t, lo2t, width, bits),
            tuple(_box(lo1a + lo1t, hi1a + hi1t, lo2a + lo2t, lo2a + lo2t + width - 1)))


def _offsets(lo1: int, hi1: int, lo2: int, width: int, bits: int) -> dict:
    """q-part -> the bit offset of its digit in a packed row of `width`
    digits per q1 step that starts at q1^lo1 q2^lo2, for q1 exponents up to hi1."""
    return dict(zip(_box(lo1, hi1, lo2, lo2 + width - 1), itertools.count(0, bits)))


def _read_digits(u: int, size: int, digits: int):
    """The signed `size`-byte digits of u, which holds each digit's two's
    complement, least significant first."""
    raw = u.to_bytes(size * digits, "little")
    if size not in _ARRAY_SLOTS:
        return [int.from_bytes(raw[i:i + size], "little", signed=True)
                for i in range(0, size * digits, size)]
    slot, code = _ARRAY_SLOTS[size]
    if slot != size:
        # spread the digits into wider slots, sign-extended
        wide = bytearray(slot * digits)
        for i in range(size):
            wide[i::slot] = raw[i::size]
        fill = raw[size - 1::size].translate(_SIGN_FILL)
        for i in range(size, slot):
            wide[i::slot] = fill
        raw = wide
    values = array(code, raw)
    if sys.byteorder == "big":
        values.byteswap()
    return values


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
    return from_monomial_basis(monomial_coefficients(coeffs, n))


def from_monomial_basis(rows: dict, fixed: int = 0) -> LaurentPoly:
    """The monomials of sum_key row z^key[:fixed] m_key[fixed:]: `fixed`
    z-exponents held in place, then a content whose orbit fills the rest."""
    out: dict = {}
    for key, row in rows.items():
        orbit = _orbit(key[fixed:])
        for qpart, c in row.items():
            qpart = (qpart + (0, 0))[:2] + key[:fixed]
            for zpart in orbit:
                out[trimmed(qpart + zpart)] = c
    return LaurentPoly._raw(out)


def render_alternant(coeffs: dict, n: int) -> str:
    """`render(from_alternant(coeffs, n))`, written orbit by orbit without
    building the monomials.  The disjoint orbits of one z-degree's contents,
    merged, form one descending line of z-parts, each z-part's text built
    once.  A (total degree, q1, q2) group writes one prefix per (content,
    q-part) before each z-text of its orbit: one member in orbit order, more
    in the order of their ranks in the line."""
    by_degree: dict = {}
    for content, row in monomial_coefficients(coeffs, n).items():
        by_degree.setdefault(sum(content), []).append((_orbit(content), row))
    lines: dict = {}  # z-degree -> the texts of its line
    groups: dict = {}  # (total degree, q1, q2) -> [(coefficient, ranks)]
    for d, members in by_degree.items():
        line = sorted(itertools.chain.from_iterable(orbit for orbit, _ in members), reverse=True)
        lines[d] = [_factors_text(zpart, _Q_SLOTS) for zpart in line]
        rank = dict(zip(line, itertools.count())).__getitem__
        for orbit, row in members:
            ranks = tuple(map(rank, orbit))
            for qpart, c in row.items():
                q1, q2 = (qpart + (0, 0))[:2]
                groups.setdefault((d + q1 + q2, q1, q2), []).append((c, ranks))
    chunks = []
    for key in sorted(groups, reverse=True):
        total, q1, q2 = key
        texts = lines[total - q1 - q2]
        qtext = _factors_text((q1, q2), 0)
        written = []  # (prefix, ranks) of each member
        for c, ranks in groups[key]:
            prefix = _head(c) + qtext
            # only the zero content has an empty z-text, and its orbit is itself
            written.append((prefix if texts[ranks[0]] else _bare(prefix), ranks))
        if len(written) == 1:
            prefix, ranks = written[0]
            chunks.append(prefix + (" " + prefix).join(map(texts.__getitem__, ranks)))
            continue
        at = [None] * len(texts)  # rank -> the prefix of its member
        for prefix, ranks in written:
            for r in ranks:
                at[r] = prefix
        chunks.append(" ".join(map(add, filter(None, at), itertools.compress(texts, at))))
    return _join_groups(chunks)


@lru_cache(maxsize=4096)
def _orbit(content: tuple) -> tuple:
    """The distinct rearrangements of an exponent vector, in descending order."""
    return tuple(sorted(set(itertools.permutations(content)), reverse=True))
