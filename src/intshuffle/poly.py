"""Exact sparse Laurent-polynomial arithmetic over the rationals.

Values live in Q[q1^{±1}, q2^{±1}, z1^{±1}, ..., zk^{±1}]: the two parameter
variables q1, q2 and arity-indexed variables z1, z2, ...  Coefficients are
exact rationals in the term kernel's normal form (see `_terms_py`): a python
int when integral, a `fractions.Fraction` otherwise.

Representation: a mapping from exponent tuples to nonzero coefficients.
Slot 0 of a tuple is the q1 exponent, slot 1 the q2 exponent, slot i+1 the
z_i exponent; trailing zeros are trimmed, so equal monomials always share a
single key and the zero polynomial is the empty map.

The parameter q of the algebra is never a variable: it is everywhere the
product q1*q2.

Monomial order (used for exact division and for canonical printing): graded
lexicographic on exponent vectors, scanning q1, q2, z1, ..., zk.  Laurent
exponents are not well-ordered by it; exact division stays finite because an
exact quotient's exponents are bounded below, slot by slot, by the
dividend's lowest exponents minus the divisor's.  The canonical text lists
terms descending in this order, prints coefficients as reduced fractions and
exponents as `q1^a q2^b z1^c ...`, omitting exponent 1 and unit factors.
One formatter writes it from terms grouped by (total degree, q1 exponent, q2
exponent), each group a list of z-parts: `render` fills the groups from a
term map, and `schur.render_alternant` fills them from a symmetric element's
orbit representatives without building its monomials.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import reduce
from operator import add, itemgetter, lt, neg, sub
from typing import Iterable, Mapping, Union

from ._terms_py import add_into, div_binomial, mul_terms, normal, permute_slots, ratio, trimmed
from .errors import NonInvertibleImage, NotDivisible

Coefficient = Union[int, Fraction]
Scalar = Union[int, Fraction, "LaurentPoly"]

_Q_SLOTS = 2

# The largest z-index a variable name may carry: an exponent tuple holds a
# slot for every index up to its largest, so a huge index would ask for a
# huge tuple.
MAX_Z_INDEX = 1024


def _slot(name: str) -> int:
    """Map a variable name (q1, q2, z<i>) to its exponent-tuple slot."""
    if name == "q1":
        return 0
    if name == "q2":
        return 1
    # ASCII digits only: str.isdigit also accepts superscript and
    # Arabic-Indic digits, which int() then rejects or reads as ASCII ones.
    # No leading zero, so each variable has one spelling and z0 is no name.
    digits = name[1:]
    if (name.startswith("z") and digits.isascii() and digits.isdigit() and digits[0] != "0"
            and len(digits) <= len(str(MAX_Z_INDEX)) and int(digits) <= MAX_Z_INDEX):
        return int(digits) + 1
    raise ValueError(f"unknown variable name {name!r} (z-indices run from 1 to {MAX_Z_INDEX})")


def _slot_name(slot: int) -> str:
    if slot == 0:
        return "q1"
    if slot == 1:
        return "q2"
    return f"z{slot - 1}"


class LaurentPoly:
    """An immutable exact Laurent polynomial."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[tuple, Coefficient] | None = None):
        clean: dict = {}
        for mono, coeff in (terms or {}).items():
            coeff = normal(coeff if isinstance(coeff, (int, Fraction)) else Fraction(coeff))
            if coeff:
                add_into(clean, {trimmed(tuple(mono)): coeff})
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _raw(cls, terms: dict) -> "LaurentPoly":
        """Wrap a dict already in canonical form (kernel output)."""
        self = object.__new__(cls)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._raw({})

    @classmethod
    def constant(cls, c: Coefficient) -> "LaurentPoly":
        return cls({(): c})

    @classmethod
    def variable(cls, name: str, exponent: int = 1) -> "LaurentPoly":
        slot = _slot(name)
        if exponent == 0:
            return cls.constant(1)
        mono = [0] * (slot + 1)
        mono[slot] = exponent
        return cls._raw({tuple(mono): 1})

    # -- basic protocol ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            terms = self.terms
            if terms.keys() <= {()}:  # a constant hashes as the number it equals
                h = hash(terms.get((), 0))
            else:
                h = hash(frozenset(terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"

    def __str__(self) -> str:
        return render(self)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.constant(other)
        return None

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        add_into(out, b)
        return LaurentPoly._raw(out)

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        add_into(out, other.terms, -1)
        return LaurentPoly._raw(out)

    def __rsub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(other.terms)
        add_into(out, self.terms, -1)
        return LaurentPoly._raw(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return LaurentPoly._raw(mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return LaurentPoly.constant(1)
        base = self
        if n < 0:
            base = self.inverse_monomial()
            n = -n
        result = LaurentPoly.constant(1)
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse_monomial(self) -> "LaurentPoly":
        """Inverse of a single-term polynomial; ValueError otherwise."""
        if len(self.terms) != 1:
            raise ValueError("only a single-term monomial is invertible")
        (mono, coeff), = self.terms.items()
        return LaurentPoly._raw({trimmed(tuple(-e for e in mono)): ratio(1, coeff)})

    # -- structure queries --------------------------------------------------

    def z_span(self) -> int:
        """Largest z-index that occurs (0 when no z variable occurs)."""
        return max(max(map(len, self.terms), default=0) - _Q_SLOTS, 0)

    def total_z_degrees(self) -> set[int]:
        """Set of total z-degrees over the terms (for homogeneity checks)."""
        return {sum(m[_Q_SLOTS:]) for m in self.terms} if self.terms else set()


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.constant(1)
Q1 = LaurentPoly.variable("q1")
Q2 = LaurentPoly.variable("q2")
Q = Q1 * Q2


def z(index: int, exponent: int = 1) -> LaurentPoly:
    """The variable z_index (1-based), optionally raised to an exponent."""
    if index < 1:
        raise ValueError("z-indices are 1-based")
    return LaurentPoly.variable(f"z{index}", exponent)


def signed_sum(terms: Iterable[tuple[int, LaurentPoly]]) -> LaurentPoly:
    """Sum of sign*p over (sign, p) pairs with sign 1 or -1, in one pass."""
    total: dict = {}
    for sign, p in terms:
        add_into(total, p.terms, sign)
    return LaurentPoly._raw(total)


# -- exact division ---------------------------------------------------------


def exact_div(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """Quotient t with t*d == p exactly; raises NotDivisible otherwise.

    A divisor c*(v_a - v_b) goes to the binomial kernel.  Any other divisor
    is divided by leading terms under the graded-lex order, on Laurent
    exponents as they are.  If d divides p, each slot's lowest exponent in p
    is the sum of its lowest exponents in t and in d, since the ring is a
    domain.  So a quotient monomial below that bound in some slot proves the
    division is not exact, and only finitely many monomials lie between the
    bound and p's total degree, so the loop stops either way.
    """
    if not d.terms:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p.terms:
        return ZERO
    binomial = _binomial_slots(d.terms)
    if binomial is not None:
        sa, sb, lead = binomial
        try:
            quotient = div_binomial(p.terms, sa, sb)
        except ValueError:
            message = f"{render(d)} does not divide a {len(p.terms)}-term dividend"
            raise NotDivisible(message) from None
        if lead != 1:
            quotient = {m: ratio(c, lead) for m, c in quotient.items()}
        return LaurentPoly._raw(quotient)

    pad = (0,) * max(map(len, [*p.terms, *d.terms]))
    num = {mono + pad[len(mono):]: c for mono, c in p.terms.items()}
    den = {mono + pad[len(mono):]: c for mono, c in d.terms.items()}
    low = [min(ps) - min(ds) for ps, ds in zip(zip(*num), zip(*den))]
    lead, lead_coeff = max(den.items(), key=lambda term: (sum(term[0]), term[0]))
    # heap entries encode the monomial directly: entry[1:] are negated exponents
    heap = [(-sum(m), *map(neg, m)) for m in num]
    heapq.heapify(heap)
    quotient: dict = {}
    while num:
        mono = tuple(map(neg, heapq.heappop(heap)[1:]))
        c = num.get(mono)
        if c is None:
            continue
        qm = tuple(map(sub, mono, lead))
        if any(map(lt, qm, low)):
            raise NotDivisible(f"{render(d)} does not divide a {len(p.terms)}-term dividend")
        qc = ratio(c, lead_coeff)
        quotient[trimmed(qm)] = qc
        for dm, dc in den.items():
            m = tuple(map(add, dm, qm))
            c0 = num.get(m)
            if c0 is None:
                num[m] = -qc * dc
                heapq.heappush(heap, (-sum(m), *map(neg, m)))
            else:
                c0 = c0 - qc * dc
                if c0:
                    num[m] = c0
                else:
                    del num[m]
    return LaurentPoly._raw(quotient)


def _binomial_slots(d_terms: dict):
    """Recognize a c*(v_a - v_b) divisor; returns (slot_a, slot_b, c) or None.
    Keys are trimmed, so v_s is exactly the key (0,) * s + (1,)."""
    if len(d_terms) != 2:
        return None
    (m1, c1), (m2, c2) = d_terms.items()
    if c1 + c2 == 0 and all(m[-1:] == (1,) and not any(m[:-1]) for m in (m1, m2)):
        return (len(m1) - 1, len(m2) - 1, c1)
    return None


# -- substitution and z-relabelling ------------------------------------------


def substitute(p: LaurentPoly, images: Mapping[str, Scalar]) -> LaurentPoly:
    """Simultaneously replace variables by polynomials.

    Ring-homomorphism contract: distributes over + and *.  A variable that
    occurs with a negative exponent must map to an invertible (single-term)
    monomial, otherwise NonInvertibleImage is raised.

    Terms with the same exponents at the replaced slots form one group, which
    is multiplied once by the product of those slots' image powers.
    """
    slot_images = {}
    for name, value in images.items():
        image = p._coerce(value)
        if image is None:
            raise TypeError(f"cannot interpret {value!r} as a polynomial")
        slot_images[_slot(name)] = image
    if not slot_images or not p.terms:
        return p
    slots = sorted(slot_images)
    power_cache: dict = {}

    def image_power(slot: int, e: int) -> dict:
        key = (slot, e)
        got = power_cache.get(key)
        if got is None:
            img = slot_images[slot]
            if e < 0 and len(img.terms) != 1:
                raise NonInvertibleImage(
                    f"{_slot_name(slot)}^{e}: image is not an invertible monomial"
                )
            got = power_cache[key] = (img**e).terms
        return got

    groups: dict = {}  # exponents at the replaced slots -> the rest of each term
    for mono, coeff in p.terms.items():
        kept = list(mono) + [0] * (slots[-1] + 1 - len(mono))
        key = tuple([kept[slot] for slot in slots])
        for slot in slots:
            kept[slot] = 0
        groups.setdefault(key, {})[trimmed(tuple(kept))] = coeff
    total: dict = {}
    for key, rest in groups.items():
        powers = [image_power(slot, e) for slot, e in zip(slots, key) if e]
        if powers:
            rest = mul_terms(rest, reduce(mul_terms, powers))
        add_into(total, rest)
    return LaurentPoly._raw(total)


def relabel_z(p: LaurentPoly, mapping: Mapping[int, int]) -> LaurentPoly:
    """Rename z_i -> z_{mapping[i]}; indices the map leaves out stay put.

    The map must send z1..z_span (span = p.z_span()) to distinct positive
    indices, counting the indices it leaves out; keys above the span move
    nothing.  Otherwise ValueError is raised before any term is moved, so
    two monomials never merge and the result is exact.
    """
    span = p.z_span()
    if not mapping or not span:
        return p
    targets = [mapping.get(i, i) for i in range(1, span + 1)]
    if len(set(targets)) != span or min(targets) < 1:
        raise ValueError(f"z-relabelling must send z1..z{span} to distinct positive indices")
    empty = span + _Q_SLOTS  # a padded slot that no monomial occupies
    src = [0, 1] + [empty] * max(targets)
    for slot, target in enumerate(targets, _Q_SLOTS):
        src[target + _Q_SLOTS - 1] = slot
    return LaurentPoly._raw(permute_slots(p.terms, tuple(src)))


def permute_z(p: LaurentPoly, sigma: Mapping[int, int] | Iterable[int]) -> LaurentPoly:
    """Relabel z_i -> z_{sigma(i)} for a permutation sigma of {1..k}.

    sigma may be a dict (missing indices are fixed) or a sequence listing
    sigma(1), sigma(2), ...  Group-action contract:
    permute_z(permute_z(p, s), t) == permute_z(p, t∘s).
    """
    if not isinstance(sigma, Mapping):
        sigma = {i + 1: image for i, image in enumerate(sigma)}
    if set(sigma.values()) != set(sigma.keys()):
        raise ValueError("sigma is not a permutation")
    return relabel_z(p, dict(sigma))


def is_symmetric(p: LaurentPoly, k: int) -> bool:
    """True iff p is invariant under all adjacent z-transpositions of {1..k}."""
    if p.z_span() > k:
        raise ValueError(f"polynomial uses z-index above arity {k}")
    for i in range(1, k):
        if relabel_z(p, {i: i + 1, i + 1: i}).terms != p.terms:
            return False
    return True


# -- canonical rendering ------------------------------------------------------


def _render_groups(groups: dict) -> str:
    """Canonical text of terms grouped by (total degree, q1 exponent, q2
    exponent), each group a list of (z-exponents, coefficient) with the
    z-parts of one width and distinct within a group.

    Descending group keys, then descending z-parts, is the descending
    graded-lex order of the monomials.  The text of each (slot, exponent)
    factor and of each z-part is built once.  `groups` is emptied.
    """
    if not groups:
        return "0"
    factors: dict = {}  # (slot, exponent) -> factor text such as `z2^3`
    ztexts: dict = {}  # z-part -> its factors' text

    def text(slot_exponents) -> str:
        names = []
        for key in slot_exponents:
            if key[1]:
                name = factors.get(key)
                if name is None:
                    slot, e = key
                    name = factors[key] = _slot_name(slot) + (f"^{e}" if e != 1 else "")
                names.append(name)
        return " ".join(names)

    heads: dict = {}  # coefficient -> its sign and magnitude, as "+ " or "- 3/4 "
    chunks: list[str] = []  # the text of each group, the group freed once written
    for key in sorted(groups, reverse=True):
        qtext = text(((0, key[1]), (1, key[2])))
        group = groups.pop(key)
        group.sort(key=itemgetter(0), reverse=True)
        pieces = []
        for zpart, coeff in group:
            body = ztexts.get(zpart)
            if body is None:
                body = ztexts[zpart] = text(enumerate(zpart, _Q_SLOTS))
            if qtext:
                body = qtext + " " + body if body else qtext
            head = heads.get(coeff)
            if head is None:
                mag = abs(coeff)
                head = heads[coeff] = ("- " if coeff < 0 else "+ ") + (
                    "" if mag == 1 else f"{mag} ")
            if body:
                pieces.append(head + body)
            else:  # the constant term
                pieces.append(head[:2] + str(abs(coeff)))
        chunks.append(" ".join(pieces))
    first = chunks[0]
    chunks[0] = "-" + first[2:] if first[0] == "-" else first[2:]
    return " ".join(chunks)


def render(p: LaurentPoly) -> str:
    """Canonical text form: descending monomial order, reduced fractions."""
    width = max(map(len, p.terms), default=0)
    pad = (0,) * max(width, _Q_SLOTS)
    groups: dict = {}
    for mono, coeff in p.terms.items():
        mono += pad[len(mono):]
        groups.setdefault((sum(mono), mono[0], mono[1]), []).append((mono[_Q_SLOTS:], coeff))
    return _render_groups(groups)
