"""Expression language for shuffle-algebra elements.

Grammar (whitespace between tokens is ignored):

    expr     := ['-'] term (('+' | '-') term)*
    term     := juxt ('*' juxt)*                # '*' is the shuffle product
    juxt     := power power*                    # adjacency multiplies by a scalar
    power    := (number | name | word | '(' expr ')') ['^' exponent]
    number   := INT ['/' INT]
    word     := 'sh' '[' [sint (',' sint)*] ']'
    sint     := ['-'] INT
    name     := 'q1' | 'q2' | 'q' | 'z' | 'z' INT
    exponent := ['-'] INT | '(' ['-'] INT ')'

INT is a run of ASCII digits, and a name is a run of ASCII letters and
digits; no name contains `_`.  The INT of a name `z` INT runs from 1 to
`poly.MAX_Z_INDEX` and has no leading zero.  A character that is not one of
these, whitespace or one of `+-*/^()[],` is a syntax error at its position.

`sh[d1,...,dk]` is the expansion of z1^{d1} * ... * z1^{dk}; `z^d` (bare `z`)
is the one-letter word `sh[d]`; `q1`, `q2` and indexed `z1, z2, ...` are
scalar variables, and `q` is input sugar for q1 q2 (never printed).  The
shuffle operator binds tighter than + and -, juxtaposition tighter than the
shuffle operator.

The reader is a recursive-descent parser over a lazy lexer: it keeps only
its position in the text and matches the next token where the grammar asks
for one.  A number with its denominator and power, or a name with its
power, is one token in every spelling (`3/4`, `3 / 4`, `q1^-4`, `q1 ^ (-4)`,
`z^2`), read by the juxtaposition loop itself, which memoizes the scalar
ones.  Only a word and `( ... )` take the `power` rule apart from it.  One
search for a character that starts no token runs before parsing, so a bad
character anywhere wins over every other error.

The parser types every node as it builds it: a scalar (a Laurent
polynomial) with the largest z-index written in it, or a shuffle element of
a definite arity.  Adding a scalar to an element or elements of different
arities, juxtaposing or exponentiating elements, shuffling a z-dependent
scalar, and scaling an element by a scalar with a z-index above its arity
are type errors.  The parser keeps the first one it meets and raises it
once the whole text has parsed, so a syntax error anywhere wins.
Evaluation reports a scalar factor that is not symmetric and a negative
power of a base that is not a monomial.  Every error carries its character
position.

While a juxtaposed product is still scalar, the parser folds its numbers,
variables and their powers into one monomial (exponents added, coefficients
multiplied), and a sum folds its monomial summands into one term dict, so
printed certificate text `-3/4 q1^2 z2 z3^-1 + ...` becomes a single `Poly`
node as it is read.  Evaluation is then a single walk of the tree.  Sums
and juxtaposed products are flat nodes, walked in a loop, so their length
is not bounded by the recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from ._terms_py import add_into, mono_mul, normal, ratio
from .errors import ArityMismatch, ExprSyntaxError, NotSymmetric
from .poly import LaurentPoly, _slot, signed_sum
from .shuffle import ShuffleElement, element_sum, scalar, shuffle, shuffle_word

Value = Union[LaurentPoly, ShuffleElement]


# -- syntax tree ---------------------------------------------------------------


@dataclass(frozen=True)
class Node:
    pos: int


@dataclass(frozen=True)
class Poly(Node):
    """A scalar computed while parsing: a product of numbers, variables and
    their powers, or the sum of a sum's monomial summands."""

    value: LaurentPoly


@dataclass(frozen=True)
class WordLit(Node):
    exponents: tuple[int, ...]


@dataclass(frozen=True)
class Sum(Node):
    """A signed sum: (sign, operator position, summand) per term, in order.

    Flat rather than nested, so a sum of any length is walked in a loop.
    """

    terms: tuple[tuple[int, int, Node], ...]


@dataclass(frozen=True)
class Juxt(Node):
    """A product by adjacency: (start position, factor) per factor, in order.

    Flat like `Sum`, so a product of any length is walked in a loop.
    """

    factors: tuple[tuple[int, Node], ...]


@dataclass(frozen=True)
class Shuf(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    exponent: int


# -- lexer ---------------------------------------------------------------------

# Every token regex takes the whitespace after its token, so the parser's
# position always rests on a token's first character or on the end.  ASCII
# digits and letters only: str.isdigit would also accept superscript and
# Arabic-Indic digits, which int() then rejects or reads as ASCII ones.
_SPACE = re.compile(r"\s*")
_INT = re.compile(r"([0-9]+)\s*")

# '^' and an exponent, bare or in parentheses.  The digits and the ')' match
# empty where they are missing, so the match holds the position at which one
# was expected.
_EXPONENT = r"\^\s*(?P<open>\(\s*)?(?P<sign>-?)\s*(?P<digits>[0-9]*)(?(open)\s*(?P<close>\)?))"
_POWER = re.compile(_EXPONENT + r"\s*")

# A whole factor, group 1 its text: a number and its denominator, or a name
# other than `sh`, each with its power.  A name is the whole run of letters
# and digits, so that `z1abc` is one unknown name.
_FACTOR = re.compile(
    r"((?:(?P<num>[0-9]+)(?:\s*/\s*(?P<den>[0-9]*))?|(?!sh\b)(?P<name>[A-Za-z][A-Za-z0-9]*))"
    r"(?:\s*" + _EXPONENT + r")?)\s*"
)

# characters that start no token; no name contains '_'
_BAD_CHAR = re.compile(r"[^-+*/^()\[\],\sA-Za-z0-9]")

# the end of the text, a character no token contains
_END = "\0"
# what can start a factor after the first: a number, a name or '('
_JUXT_START = frozenset("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ(")


def _check_characters(text: str) -> None:
    bad = _BAD_CHAR.search(text)
    if bad:
        raise ExprSyntaxError(bad.start(), f"unexpected character {bad[0]!r}")


def _exponent(m: re.Match) -> int:
    """The exponent of a power matched by `_POWER` or `_FACTOR`."""
    if not m["digits"]:
        raise ExprSyntaxError(m.start("digits"), "expected an integer")
    if m["open"] and not m["close"]:
        raise ExprSyntaxError(m.start("close"), "expected ')'")
    return int(m["sign"] + m["digits"])


def _variable(name: str, pos: int) -> tuple[tuple, int]:
    """(exps, largest z-index) of a scalar variable written at `pos`."""
    if name == "q":
        return (1, 1), 0
    try:
        slot = _slot(name)
    except ValueError:
        raise ExprSyntaxError(pos, f"unknown name {name!r}") from None
    # slots 0 and 1 hold q1 and q2, slot i + 1 holds z_i
    return (0,) * slot + (1,), max(slot - 1, 0)


# -- parser --------------------------------------------------------------------

SCALAR = "scalar"
ELEMENT = "element"

# What a parse method returns: (node, kind, n), with n the largest z-index
# written in a SCALAR (0 when none) and the arity of an ELEMENT.  A number,
# variable, power or product of monomials comes back as the plain tuple
# (pos, exps, coeff), with the exponent slots of `poly.LaurentPoly` (exps
# trimmed), for `parse_juxt` and `parse_expr` to fold without building a
# node; `_monomial` makes it a node where one is needed.
_Typed = tuple[Union[Node, tuple], str, int]


def _monomial(mono: tuple) -> Poly:
    pos, exps, coeff = mono
    return Poly(pos, LaurentPoly({exps: coeff}))


def _power(pos: int, mono: tuple, e: int) -> Union[Node, tuple]:
    """mono^e, positioned at `pos`: a monomial, or for the zero base and
    e < 0 a `Pow` node, whose evaluation reports the negative power."""
    _, exps, c = mono
    if c or e >= 0:
        power = tuple(x * e for x in exps) if e else ()
        return pos, power, (c**e if e > 0 else ratio(1, c**-e))
    return Pow(pos, _monomial(mono), e)


class _Parser:
    def __init__(self, text: str):
        _check_characters(text)
        self.end = len(text)
        self.text = text + _END
        self.pos = _SPACE.match(text).end()
        # factor text -> (offset of its '^' or 0, exps, coeff, z-index); most
        # factors of a certificate's text repeat one read earlier in it
        self.factors: dict = {}
        # the first type error met; a node is typed after its children
        self.error: ArityMismatch | None = None

    def type_error(self, pos: int, message: str) -> None:
        if self.error is None:
            self.error = ArityMismatch(pos, message)

    def at_sym(self, sym: str) -> bool:
        # a symbol is one character, and no other token starts with one
        return self.text[self.pos] == sym

    def advance(self) -> int:
        """Step over a one-character symbol; returns its position."""
        pos = self.pos
        self.pos = _SPACE.match(self.text, pos + 1).end()
        return pos

    def expect_sym(self, sym: str) -> int:
        if not self.at_sym(sym):
            raise ExprSyntaxError(self.pos, f"expected {sym!r}")
        return self.advance()

    # expr := ['-'] term (('+'|'-') term)*
    def parse_expr(self) -> _Typed:
        """Monomial summands are added into one term dict as they are read,
        which joins the other summands as one `Poly`."""
        text = self.text
        pos = self.pos
        sign = 1
        if text[pos] == "-":
            self.advance()
            sign = -1
        node, kind, n = self.parse_term()
        if sign == 1 and text[self.pos] not in "+-":
            return node, kind, n
        folded: dict | None = None  # the monomial summands, added up
        terms = []
        while True:
            if type(node) is tuple:
                if folded is None:
                    folded = {}
                if node[2]:
                    add_into(folded, {node[1]: node[2]}, sign)
            else:
                terms.append((sign, pos, node))
            op = text[self.pos]
            if op != "+" and op != "-":
                break
            sign, pos = (1 if op == "+" else -1), self.advance()
            node, rkind, rn = self.parse_term()
            if kind != rkind:
                self.type_error(pos, "cannot add a scalar and a shuffle element")
            elif kind == ELEMENT and n != rn:
                self.type_error(pos, f"cannot add elements of arity {n} and {rn}")
            n = max(n, rn)
        # positioned at the last '+' or '-', the operator applied last
        if folded is not None:
            poly = Poly(pos, LaurentPoly._raw(folded))
            if not terms:
                return poly, kind, n
            terms.insert(0, (1, pos, poly))
        return Sum(pos, tuple(terms)), kind, n

    # term := juxt ('*' juxt)*
    def parse_term(self) -> _Typed:
        node, kind, n = self.parse_juxt()
        while self.at_sym("*"):
            pos = self.advance()
            right, rkind, rn = self.parse_juxt()
            if type(node) is tuple:
                node = _monomial(node)
            if type(right) is tuple:
                right = _monomial(right)
            for side, side_kind, span in ((node, kind, n), (right, rkind, rn)):
                if side_kind == SCALAR and span > 0:
                    self.type_error(side.pos, "a z-dependent scalar is not a shuffle element")
            n = (n if kind == ELEMENT else 0) + (rn if rkind == ELEMENT else 0)
            node, kind = Shuf(pos, node, right), ELEMENT
        return node, kind, n

    # juxt := power power*
    def parse_juxt(self) -> _Typed:
        """While the product is scalar, its monomials are folded into `run`,
        which joins the other factors as one monomial just before the first
        element, or at the end.  Each factor after an element stays its own
        factor, so the element is scaled by one factor at a time."""
        text = self.text
        factors: list[tuple[int, Node]] = []
        kind, n = None, 0  # the type of the product so far
        run = None  # (pos, exps, coeff) of the monomials folded so far
        while True:
            start = self.pos
            if kind is not None and text[start] not in _JUXT_START:
                break
            last = start
            m = _FACTOR.match(text, start)
            if m is not None:
                self.pos = m.end()
                entry = self.factors.get(m[1])
                if entry is None:
                    factor, fkind, fn = self.read_factor(m)
                else:
                    off, exps, c, fn = entry
                    factor, fkind = (start + off, exps, c), SCALAR
            else:
                factor, fkind, fn = self.parse_power()
            if kind != ELEMENT and type(factor) is tuple:
                if run is not None:  # several monomials: positioned like a Juxt
                    c = factor[2]  # 1 for a variable: skip the (Fraction) product
                    factor = (start, mono_mul(run[1], factor[1]),
                              run[2] if c == 1 else normal(run[2] * c))
                run, kind = factor, SCALAR
                if fn > n:
                    n = fn
                continue
            if fkind == ELEMENT and run is not None:
                factors.append((run[0], _monomial(run)))
                run = None
            if type(factor) is tuple:
                factor = _monomial(factor)
            factors.append((start, factor))
            if kind is None or kind == fkind == SCALAR:
                kind, n = fkind, max(n, fn)
            elif kind == fkind:
                self.type_error(start, "use '*' for the shuffle product of two elements")
            else:
                span, arity = (n, fn) if kind == SCALAR else (fn, n)
                if span > arity:
                    self.type_error(
                        start, f"scalar factor uses z{span} but the element has arity {arity}"
                    )
                kind, n = ELEMENT, arity
        if not factors:
            return run, kind, n
        if run is not None:
            factors.append((run[0], _monomial(run)))
        if len(factors) == 1:
            return factors[0][1], kind, n
        # positioned at the last factor, the one multiplied in last
        return Juxt(last, tuple(factors)), kind, n

    def read_factor(self, m: re.Match) -> _Typed:
        """A factor matched by _FACTOR, a power positioned at its '^'.  A
        monomial is kept in `factors`, its position relative to the factor's."""
        start, off = m.start(), m[1].find("^")
        num, den, name = m.group("num", "den", "name")
        if name == "z":  # bare `z^d`: the one-letter word sh[d]
            return WordLit(start, (1 if off < 0 else _exponent(m),)), ELEMENT, 1
        if name is not None:
            (exps, n), c = _variable(name, start), 1
        else:
            exps, n, c = (), 0, int(num)
            if den is not None:
                if not den:
                    raise ExprSyntaxError(m.start("den"), "expected an integer denominator")
                if not int(den):
                    raise ExprSyntaxError(m.start("den"), "zero denominator")
                c = ratio(c, int(den))
        factor = (start, exps, c) if off < 0 else _power(start + off, (start, exps, c), _exponent(m))
        if type(factor) is tuple:
            self.factors[m[1]] = (factor[0] - start, factor[1], factor[2], n)
        return factor, SCALAR, n

    # power := (word | '(' expr ')') ['^' exponent]
    def parse_power(self) -> _Typed:
        """A factor that `_FACTOR` declines, with its power: the power of an
        element is a type error."""
        text, pos = self.text, self.pos
        if text[pos] == "(":
            self.advance()
            node, kind, n = self.parse_expr()
            self.expect_sym(")")
        elif text[pos] == "s":  # `sh`, the one name that `_FACTOR` declines
            self.pos = _SPACE.match(text, pos + 2).end()
            node, kind, n = self.parse_word(pos)
        else:
            raise ExprSyntaxError(pos, "expected a value")
        m = _POWER.match(text, self.pos)
        if m is None:
            return node, kind, n
        self.pos = m.end()
        pos, e = m.start(), _exponent(m)
        if type(node) is tuple:
            return _power(pos, node, e), kind, n
        if kind == ELEMENT:
            self.type_error(pos, "cannot exponentiate a shuffle element")
        return Pow(pos, node, e), kind, n

    def parse_signed_int(self) -> int:
        sign = 1
        if self.at_sym("-"):
            self.advance()
            sign = -1
        m = _INT.match(self.text, self.pos)
        if m is None:
            raise ExprSyntaxError(self.pos, "expected an integer")
        self.pos = m.end()
        return sign * int(m[1])

    def parse_word(self, pos: int) -> _Typed:
        self.expect_sym("[")
        exponents: list[int] = []
        if not self.at_sym("]"):
            exponents.append(self.parse_signed_int())
            while self.at_sym(","):
                self.advance()
                exponents.append(self.parse_signed_int())
        self.expect_sym("]")
        return WordLit(pos, tuple(exponents)), ELEMENT, len(exponents)


def parse(text: str) -> Node:
    """Parse and type-check; raises ExprSyntaxError / ArityMismatch."""
    parser = _Parser(text)
    node, _, _ = parser.parse_expr()
    pos = parser.pos
    if pos != parser.end:
        # the juxtaposition loop reads every number and name: what is left is a symbol
        raise ExprSyntaxError(pos, f"unexpected {parser.text[pos]!r}")
    if parser.error is not None:
        raise parser.error
    return _monomial(node) if type(node) is tuple else node


# -- evaluation ------------------------------------------------------------------


def evaluate(node: Node) -> Value:
    """Evaluate a type-checked tree to a LaurentPoly or ShuffleElement."""
    if isinstance(node, Poly):
        return node.value
    if isinstance(node, WordLit):
        return shuffle_word(node.exponents)
    if isinstance(node, Sum):
        # the parser has checked that all summands share one kind and arity
        values = [(sign, evaluate(term)) for sign, _, term in node.terms]
        first = values[0][1]
        if isinstance(first, LaurentPoly):
            return signed_sum(values)
        return element_sum(first.arity, values)
    if isinstance(node, Juxt):
        # the scalar prefix scales the first element at the element's position,
        # and each later factor scales it at its own position
        value = None
        for pos, factor in node.factors:
            operand = evaluate(factor)
            if value is None:
                value = operand
            elif isinstance(value, ShuffleElement):
                value = _scaled(value, operand, pos)
            elif isinstance(operand, ShuffleElement):
                value = _scaled(operand, value, pos)
            else:
                value = value * operand
        return value
    if isinstance(node, Shuf):
        left = evaluate(node.left)
        right = evaluate(node.right)
        if isinstance(left, LaurentPoly):
            left = scalar(left)
        if isinstance(right, LaurentPoly):
            right = scalar(right)
        return shuffle(left, right)
    if isinstance(node, Pow):
        base = evaluate(node.base)
        assert isinstance(base, LaurentPoly)
        if node.exponent < 0 and len(base.terms) != 1:
            raise ArityMismatch(
                node.pos, "negative powers need an invertible monomial base"
            )
        return base**node.exponent
    raise TypeError(f"unknown node {node!r}")


def _scaled(element: ShuffleElement, factor: LaurentPoly, pos: int) -> ShuffleElement:
    try:
        return element.scaled(factor)
    except NotSymmetric as exc:
        raise ArityMismatch(pos, str(exc)) from None


def eval_text(text: str) -> Value:
    return evaluate(parse(text))


def parse_poly(text: str) -> LaurentPoly:
    """Parse a scalar expression (used for certificate cofactors)."""
    node = parse(text)
    value = evaluate(node)
    if not isinstance(value, LaurentPoly):
        raise ArityMismatch(node.pos, "expected a scalar expression")
    return value


def as_element(value: Value) -> ShuffleElement:
    """View a value as a shuffle element; scalars take their z-span as arity."""
    if isinstance(value, ShuffleElement):
        return value
    return ShuffleElement(value.z_span(), value)
