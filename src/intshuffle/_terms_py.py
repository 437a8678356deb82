"""Term-map kernel: the operations `intshuffle.poly` builds on.

A polynomial is a dict mapping exponent tuples to nonzero rational
coefficients.  Slot 0 holds the q1 exponent, slot 1 the q2 exponent, slot
i+1 the z_i exponent; trailing zeros are trimmed so equal monomials always
share one key.  The zero polynomial is the empty dict.

Coefficients are in normal form: an int when integral, a `Fraction` with
denominator above 1 otherwise.  Inputs in normal form give outputs in normal
form, and only `normal`, `ratio` and `cleared` create or remove denominators.

Functions leave their arguments alone and return fresh dicts, except that
`cleared` hands maps of ints back as they are and the accumulator
`add_into` updates its first argument in place.

Only what carries an algorithm, a key format or the normal form lives here:
`LaurentPoly` writes its sums and negation itself, as a copy plus `add_into`
or a comprehension.  `mul_terms` works on packed keys: a monomial of s slots
becomes one int holding e_i + 2^(b-1) in bits [b*i, b*(i+1)), so
multiplying two monomials is adding two ints.  It packs its input and
unpacks its result, so callers only ever see tuples; a single-term operand
skips the packing.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import lcm
from operator import attrgetter, itemgetter


def normal(c):
    """c in normal form: an integral Fraction becomes its int."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def ratio(c, d):
    """c / d in normal form, for d nonzero: c // d when both are ints and d
    divides c, so no Fraction is built."""
    if type(c) is int and type(d) is int:
        q, r = divmod(c, d)
        return Fraction(c, d) if r else q
    return normal(c / d)


def cleared(maps: list) -> tuple:
    """(den, the maps times den): den is the lcm of every coefficient's
    denominator, so the new maps hold ints only.  Maps that hold ints only
    come back as they are, with den 1."""
    coeffs = list(chain.from_iterable(map(dict.values, maps)))
    if _all_ints(coeffs):
        return 1, maps
    den = lcm(*map(attrgetter("denominator"), coeffs))
    return den, [{m: c.numerator * (den // c.denominator) for m, c in terms.items()}
                 for terms in maps]


_INT = frozenset([int])


def _all_ints(values) -> bool:
    """Whether every value is an int: stops at the first that is not, where
    a sum, the faster test on ints, would add up every Fraction after it."""
    return _INT.issuperset(map(type, values))


def mono_mul(m1: tuple, m2: tuple) -> tuple:
    """Product of two monomials: add exponent tuples, trim trailing zeros."""
    if not m1:
        return m2
    if not m2:
        return m1
    n1 = len(m1)
    n2 = len(m2)
    if n1 < n2:
        out = list(m2)
        for i in range(n1):
            out[i] += m1[i]
        return tuple(out)
    if n2 < n1:
        out = list(m1)
        for i in range(n2):
            out[i] += m2[i]
        return tuple(out)
    out = [a + b for a, b in zip(m1, m2)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def add_into(r: dict, b: dict, sign: int = 1) -> None:
    """In-place r += sign * b for sign 1 or -1; cancelled keys are removed."""
    get = r.get
    for m, c in b.items():
        if sign < 0:
            c = -c
        c0 = get(m)
        if c0 is None:
            r[m] = c
        else:
            c0 = c0 + c
            if not c0:
                del r[m]
            elif type(c0) is int:
                r[m] = c0
            else:  # two Fractions may have summed to an integer
                r[m] = normal(c0)


def mul_terms(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        (mono, c), = a.items()
        if c == 1 and not mono:
            return dict(b)
        out = {mono_mul(m, mono): cc * c for m, cc in b.items()}
    else:
        pack, unpack, bias = _codec(max(_width(a), _width(b)), _reach(a) + _reach(b))
        packed_b = [(pack(m) - bias, c) for m, c in b.items()]
        sums: dict = {}
        get = sums.get
        for ma, ca in a.items():
            ka = pack(ma)
            for kb, cb in packed_b:
                k = ka + kb
                sums[k] = get(k, 0) + ca * cb
        out = {unpack(k): c for k, c in sums.items() if c}
    if _all_ints(a.values()) and _all_ints(b.values()):
        return out
    # an int times a Fraction, or two Fractions, may be integral
    return {m: normal(c) for m, c in out.items()}


def div_binomial(a: dict, sa: int, sb: int) -> dict:
    """Exact division of a by (v_sa - v_sb), the slot-sa minus slot-sb variable.

    Terms are bucketed by their exponents outside the two slots and by the
    slot-exponent sum s; within a bucket the quotient coefficients are the
    running sums of a telescoping recurrence.  Raises ValueError when the
    division is not exact.
    """
    pad = (0,) * (max(sa, sb) + 1)
    buckets: dict = {}
    for mono, c in a.items():
        base = list(mono + pad[len(mono):])
        ea = base[sa]
        eb = base[sb]
        base[sa] = base[sb] = 0
        key = (tuple(base), ea + eb)
        got = buckets.get(key)
        if got is None:
            buckets[key] = [(ea, c)]
        else:
            got.append((ea, c))
    out: dict = {}
    for (base, s), entries in buckets.items():
        entries.sort()
        mono = list(base)
        d = 0
        prev = 0
        for t, c in entries:
            if d:
                for u in range(prev, t):
                    mono[sa] = u
                    mono[sb] = s - 1 - u
                    out[trimmed(tuple(mono))] = d
            d = d - c
            prev = t
        if d:
            raise ValueError("binomial division is not exact")
    if _all_ints(a.values()):
        return out
    # a difference of two Fractions may be integral
    return {m: normal(c) for m, c in out.items()}


def permute_slots(a: dict, src: tuple) -> dict:
    """Slot t of each new monomial takes the exponent at slot src[t].

    Monomials are zero-padded to max(src) + 1 slots first, so src may name a
    slot past every monomial's end to leave a slot empty.  src lists at least
    two slots, and the caller keeps it injective on the occupied slots, so no
    two monomials merge.
    """
    get = itemgetter(*src)
    pad = (0,) * (max(src) + 1)
    out: dict = {}
    for mono, c in a.items():
        out[trimmed(get(mono + pad[len(mono):]))] = c
    return out


def trimmed(m: tuple) -> tuple:
    """m without its trailing zeros."""
    if not m or m[-1]:
        return m
    n = len(m) - 1
    while n and not m[n - 1]:
        n -= 1
    return m[:n]


def _width(a: dict) -> int:
    """The number of slots of the longest key of a nonempty term map."""
    return max(map(len, a))


def _reach(a: dict) -> int:
    """The largest absolute exponent in a term map."""
    keys = [m for m in a if m]
    if not keys:
        return 0
    return max(max(map(max, keys)), -min(map(min, keys)))


def _slot_bytes(reach: int) -> int:
    """Bytes per packed slot so that exponents up to +-reach fit."""
    for size in (2, 4, 8):
        if reach < 1 << (8 * size - 1):
            return size
    raise ValueError(f"exponent {reach} is too large to pack")


def _codec(slots: int, reach: int):
    """(pack, unpack, bias) for monomials of at most `slots` slots.

    pack maps an exponent tuple to its packed int and unpack maps a packed
    int back to the trimmed tuple.  bias is the packed zero monomial, so
    pack(m1) + pack(m2) - bias == pack(m1 * m2) while every exponent of the
    product stays within +-reach.
    """
    return _codec_cached(max(slots, 1), _slot_bytes(reach))


@lru_cache(maxsize=64)
def _codec_cached(slots: int, size: int):
    layout = struct.Struct("<%d%s" % (slots, {2: "h", 4: "i", 8: "q"}[size]))
    bits = 8 * size
    # Flipping the top bit of each slot turns two's complement into e + 2^(b-1).
    bias = sum(1 << (bits * i + bits - 1) for i in range(slots))
    pad = (0,) * slots
    to_bytes = layout.pack
    from_bytes = layout.unpack
    nbytes = layout.size
    from_int = int.from_bytes

    def pack(mono: tuple) -> int:
        return from_int(to_bytes(*mono, *pad[len(mono):]), "little") ^ bias

    def unpack(key: int) -> tuple:
        return trimmed(from_bytes((key ^ bias).to_bytes(nbytes, "little")))

    return pack, unpack, bias
