"""Term-map kernel: the operations `intshuffle.poly` builds on.

A polynomial is a dict mapping exponent tuples to nonzero rational
coefficients (int or Fraction).  Slot 0 holds the q1 exponent, slot 1 the
q2 exponent, slot i+1 the z_i exponent; trailing zeros are trimmed so equal
monomials always share one key.  The zero polynomial is the empty dict.

Functions return fresh dicts and leave their arguments alone, except the
`*_into` accumulators, which update their first argument in place.
"""

from __future__ import annotations


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
            if c0:
                r[m] = c0
            else:
                del r[m]


def add_terms(a: dict, b: dict) -> dict:
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    add_into(out, b)
    return out


def sub_terms(a: dict, b: dict) -> dict:
    out = dict(a)
    add_into(out, b, -1)
    return out


def neg_terms(a: dict) -> dict:
    return {m: -c for m, c in a.items()}


def scale_terms(a: dict, c) -> dict:
    """Multiply every coefficient by the nonzero scalar c."""
    return {m: cc * c for m, cc in a.items()}


def mul_terms(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = mono_mul(ma, mb)
            c0 = get(m)
            if c0 is None:
                out[m] = ca * cb
            else:
                c0 = c0 + ca * cb
                if c0:
                    out[m] = c0
                else:
                    del out[m]
    return out


def mul_monomial(a: dict, mono: tuple, c) -> dict:
    """a * c*z^mono for a single monomial with nonzero coefficient c."""
    if c == 1 and not mono:
        return dict(a)
    return {mono_mul(m, mono): cc * c for m, cc in a.items()}


def div_binomial(a: dict, sa: int, sb: int) -> dict:
    """Exact division of a by (v_sa - v_sb), the slot-sa minus slot-sb variable.

    Terms are bucketed by their exponents outside the two slots and by the
    slot-exponent sum s; within a bucket the quotient coefficients are the
    running sums of a telescoping recurrence.  Raises ValueError when the
    division is not exact.
    """
    if not a:
        return {}
    buckets: dict = {}
    for mono, c in a.items():
        w = len(mono)
        ea = mono[sa] if sa < w else 0
        eb = mono[sb] if sb < w else 0
        base = list(mono)
        if sa < w:
            base[sa] = 0
        if sb < w:
            base[sb] = 0
        while base and base[-1] == 0:
            base.pop()
        key = (tuple(base), ea + eb)
        got = buckets.get(key)
        if got is None:
            buckets[key] = [(ea, c)]
        else:
            got.append((ea, c))
    out: dict = {}
    width = max(sa, sb) + 1
    for (base, s), entries in buckets.items():
        entries.sort()
        d = 0
        prev = 0
        for t, c in entries:
            if d:
                for u in range(prev, t):
                    mono = list(base)
                    if len(mono) < width:
                        mono.extend([0] * (width - len(mono)))
                    mono[sa] = u
                    mono[sb] = s - 1 - u
                    while mono and mono[-1] == 0:
                        mono.pop()
                    out[tuple(mono)] = d
            d = d - c
            prev = t
        if d:
            raise ValueError("binomial division is not exact")
    return out


def permute_slots(a: dict, perm: tuple) -> dict:
    """Move the exponent at slot s to slot perm[s], for a permutation perm."""
    out: dict = {}
    nperm = len(perm)
    for mono, c in a.items():
        w = len(mono)
        width = 0
        for s in range(w):
            if mono[s]:
                t = perm[s] if s < nperm else s
                if t + 1 > width:
                    width = t + 1
        m = [0] * width
        for s in range(w):
            e = mono[s]
            if e:
                m[perm[s] if s < nperm else s] = e
        out[tuple(m)] = c
    return out


def swap_z(a: dict, sa: int, sb: int) -> dict:
    """Exchange the exponents at slots sa and sb in every monomial."""
    out: dict = {}
    for mono, c in a.items():
        w = len(mono)
        ea = mono[sa] if sa < w else 0
        eb = mono[sb] if sb < w else 0
        if ea == eb:
            out[mono] = c
            continue
        width = max(w, sa + 1, sb + 1)
        m = list(mono)
        if width > w:
            m.extend([0] * (width - w))
        m[sa] = eb
        m[sb] = ea
        while m and m[-1] == 0:
            m.pop()
        out[tuple(m)] = c
    return out


def addmul_into(r: dict, b: dict, mono: tuple, c) -> list:
    """In-place r += c * z^mono * b on fixed-width keys; returns created keys.

    Used by the exact-division inner loop: keys of r, b and mono must share
    one padded width (no trailing-zero trimming is performed).
    """
    created = []
    n = len(mono)
    for mb, cb in b.items():
        m = tuple(mb[i] + mono[i] for i in range(n))
        c0 = r.get(m)
        if c0 is None:
            r[m] = cb * c
            created.append(m)
        else:
            c0 = c0 + cb * c
            if c0:
                r[m] = c0
            else:
                del r[m]
    return created
