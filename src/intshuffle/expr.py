"""Expression language for shuffle-algebra elements.

Grammar (whitespace between tokens is ignored):

    expr     := ['-'] term (('+' | '-') term)*
    term     := juxt ('*' juxt)*                # '*' is the shuffle product
    juxt     := power power*                    # adjacency multiplies by a scalar
    power    := atom ['^' exponent]
    atom     := rational | name | word | '(' expr ')'
    rational := INT ['/' INT]
    word     := 'sh' '[' [sint (',' sint)*] ']'
    sint     := ['-'] INT
    name     := 'q1' | 'q2' | 'q' | 'z' | 'z' INT
    exponent := ['-'] INT | '(' ['-'] INT ')'

INT is a run of ASCII digits and names are ASCII.  A character that is not
one of these, whitespace or one of `+-*/^()[],` is a syntax error at its
position.

`sh[d1,...,dk]` is the expansion of z1^{d1} * ... * z1^{dk}; `z^d` (bare `z`)
is the one-variable element z1^d; `q1`, `q2` and indexed `z1, z2, ...` are
scalar variables, and `q` is input sugar for q1 q2 (never printed).  The
shuffle operator binds tighter than + and -, juxtaposition tighter than the
shuffle operator.

Every expression is classified bottom-up as a scalar (a Laurent polynomial)
or a shuffle element of a definite arity; adding elements of different
arities, shuffling a z-dependent scalar, or scaling an element by a scalar
that is not symmetric in its variables are type errors reported with the
character position.

Sums and juxtaposed products are flat nodes, walked in a loop, so their
length is not bounded by the recursion limit.  A product of numbers,
variables and their powers, such as a term `-3/4 q1^2 z2 z3^-1` of printed
certificate text, evaluates to one term: exponents are added and
coefficients multiplied, with no polynomial product per factor.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ArityMismatch, ExprSyntaxError, NotSymmetric
from .poly import LaurentPoly, Q1, Q2, _slot, signed_sum, z
from .shuffle import ShuffleElement, element_sum, one_variable, scalar, shuffle, shuffle_word

Value = Union[LaurentPoly, ShuffleElement]


# -- syntax tree ---------------------------------------------------------------


@dataclass(frozen=True)
class Node:
    pos: int


@dataclass(frozen=True)
class Num(Node):
    value: int | Fraction  # an int unless written with a denominator


@dataclass(frozen=True)
class Var(Node):
    name: str  # q1, q2, q, or z<i>


@dataclass(frozen=True)
class ZElt(Node):
    exponent: int


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


# -- tokenizer -----------------------------------------------------------------

# ASCII digits and letters only: str.isdigit would also accept superscript
# and Arabic-Indic digits, which int() then rejects or reads as ASCII ones.
_TOKEN = re.compile(
    r"(?P<INT>[0-9]+)|(?P<NAME>[A-Za-z][A-Za-z0-9_]*)|(?P<SYM>[-+*/^()\[\],])"
    r"|(?P<SPACE>\s+)|(?P<BAD>.)",
    re.DOTALL,
)

_Token = tuple[str, str, int]  # (INT | NAME | SYM | END, text, position)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "BAD":
            raise ExprSyntaxError(match.start(), f"unexpected character {match.group()!r}")
        if kind != "SPACE":
            tokens.append((kind, match.group(), match.start()))
    tokens.append(("END", "", len(text)))
    return tokens


# -- parser --------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at_sym(self, text: str) -> bool:
        return self.tokens[self.i][:2] == ("SYM", text)

    def expect_sym(self, text: str) -> _Token:
        if not self.at_sym(text):
            raise ExprSyntaxError(self.peek()[2], f"expected {text!r}")
        return self.advance()

    # expr := ['-'] term (('+'|'-') term)*
    def parse_expr(self) -> Node:
        terms = []
        sign = 1
        pos = self.peek()[2]
        if self.at_sym("-"):
            self.advance()
            sign = -1
        while True:
            terms.append((sign, pos, self.parse_term()))
            pos = self.peek()[2]
            if self.at_sym("+"):
                sign = 1
            elif self.at_sym("-"):
                sign = -1
            else:
                break
            self.advance()
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][2]
        # positioned at the last '+' or '-', the operator applied last
        return Sum(terms[-1][1], tuple(terms))

    # term := juxt ('*' juxt)*
    def parse_term(self) -> Node:
        node = self.parse_juxt()
        while self.at_sym("*"):
            pos = self.advance()[2]
            node = Shuf(pos, node, self.parse_juxt())
        return node

    # juxt := power power*
    def parse_juxt(self) -> Node:
        factors = [(self.peek()[2], self.parse_power())]
        while True:
            kind, _, pos = self.peek()
            if not (kind in ("INT", "NAME") or self.at_sym("(")):
                break
            factors.append((pos, self.parse_power()))
        if len(factors) == 1:
            return factors[0][1]
        # positioned at the last factor, the one multiplied in last
        return Juxt(factors[-1][0], tuple(factors))

    # power := atom ['^' exponent]
    def parse_power(self) -> Node:
        node = self.parse_atom()
        if self.at_sym("^"):
            pos = self.advance()[2]
            exponent = self.parse_exponent()
            if isinstance(node, ZElt):
                return ZElt(node.pos, exponent)
            return Pow(pos, node, exponent)
        return node

    def parse_exponent(self) -> int:
        if self.at_sym("("):
            self.advance()
            value = self.parse_signed_int()
            self.expect_sym(")")
            return value
        return self.parse_signed_int()

    def parse_int(self, what: str) -> int:
        kind, text, pos = self.advance()
        if kind != "INT":
            raise ExprSyntaxError(pos, f"expected {what}")
        return int(text)

    def parse_signed_int(self) -> int:
        sign = 1
        if self.at_sym("-"):
            self.advance()
            sign = -1
        return sign * self.parse_int("an integer")

    def parse_atom(self) -> Node:
        kind, name, pos = self.peek()
        if kind == "INT":
            value = self.parse_int("an integer")
            if self.at_sym("/"):
                self.advance()
                den_pos = self.peek()[2]
                den = self.parse_int("an integer denominator")
                if den == 0:
                    raise ExprSyntaxError(den_pos, "zero denominator")
                value = Fraction(value, den)
            return Num(pos, value)
        if kind == "NAME":
            self.advance()
            if name == "sh":
                return self.parse_word(pos)
            if name == "z":
                return ZElt(pos, 1)
            if name in ("q", "q1", "q2") or (
                name.startswith("z") and name[1:].isdigit() and int(name[1:]) >= 1
            ):
                return Var(pos, name)
            raise ExprSyntaxError(pos, f"unknown name {name!r}")
        if self.at_sym("("):
            self.advance()
            node = self.parse_expr()
            self.expect_sym(")")
            return node
        raise ExprSyntaxError(pos, "expected a value")

    def parse_word(self, pos: int) -> Node:
        self.expect_sym("[")
        exponents: list[int] = []
        if not self.at_sym("]"):
            exponents.append(self.parse_signed_int())
            while self.at_sym(","):
                self.advance()
                exponents.append(self.parse_signed_int())
        self.expect_sym("]")
        return WordLit(pos, tuple(exponents))


# -- arity/kind inference --------------------------------------------------------

SCALAR = "scalar"
ELEMENT = "element"


def infer(node: Node) -> tuple[str, int]:
    """Kind of a node: (SCALAR, max z-index) or (ELEMENT, arity)."""
    if isinstance(node, Num):
        return (SCALAR, 0)
    if isinstance(node, Var):
        if node.name.startswith("z"):
            return (SCALAR, int(node.name[1:]))
        return (SCALAR, 0)
    if isinstance(node, ZElt):
        return (ELEMENT, 1)
    if isinstance(node, WordLit):
        return (ELEMENT, len(node.exponents))
    if isinstance(node, Sum):
        _, _, first = node.terms[0]
        lk, ln = infer(first)
        for _, pos, term in node.terms[1:]:
            rk, rn = infer(term)
            if lk != rk:
                raise ArityMismatch(pos, "cannot add a scalar and a shuffle element")
            if lk == ELEMENT and ln != rn:
                raise ArityMismatch(
                    pos, f"cannot add elements of arity {ln} and {rn}"
                )
            ln = max(ln, rn)
        return (lk, ln)
    if isinstance(node, Juxt):
        _, first = node.factors[0]
        lk, ln = infer(first)
        for pos, factor in node.factors[1:]:
            rk, rn = infer(factor)
            if lk == SCALAR and rk == SCALAR:
                ln = max(ln, rn)
                continue
            if lk == rk:
                raise ArityMismatch(pos, "use '*' for the shuffle product of two elements")
            scalar_z = ln if lk == SCALAR else rn
            arity = rn if lk == SCALAR else ln
            if scalar_z > arity:
                raise ArityMismatch(
                    pos, f"scalar factor uses z{scalar_z} but the element has arity {arity}"
                )
            lk, ln = ELEMENT, arity
        return (lk, ln)
    if isinstance(node, Shuf):
        lk, ln = infer(node.left)
        rk, rn = infer(node.right)
        for kind, span, side in ((lk, ln, node.left), (rk, rn, node.right)):
            if kind == SCALAR and span > 0:
                raise ArityMismatch(
                    side.pos, "a z-dependent scalar is not a shuffle element"
                )
        left_arity = ln if lk == ELEMENT else 0
        right_arity = rn if rk == ELEMENT else 0
        return (ELEMENT, left_arity + right_arity)
    if isinstance(node, Pow):
        kind, span = infer(node.base)
        if kind != SCALAR:
            raise ArityMismatch(node.pos, "cannot exponentiate a shuffle element")
        return (SCALAR, span)
    raise TypeError(f"unknown node {node!r}")


def parse(text: str) -> Node:
    """Parse and type-check; raises ExprSyntaxError / ArityMismatch."""
    parser = _Parser(text)
    node = parser.parse_expr()
    kind, text, pos = parser.peek()
    if kind != "END":
        raise ExprSyntaxError(pos, f"unexpected {text!r}")
    infer(node)
    return node


# -- evaluation ------------------------------------------------------------------


def evaluate(node: Node) -> Value:
    """Evaluate a type-checked tree to a LaurentPoly or ShuffleElement."""
    if isinstance(node, Num):
        return LaurentPoly.constant(node.value)
    if isinstance(node, Var):
        if node.name == "q":
            return Q1 * Q2
        if node.name == "q1":
            return Q1
        if node.name == "q2":
            return Q2
        return z(int(node.name[1:]))
    if isinstance(node, ZElt):
        return one_variable(node.exponent)
    if isinstance(node, WordLit):
        return shuffle_word(node.exponents)
    if isinstance(node, Sum):
        # `infer` has checked that all summands share one kind and arity
        values = [(sign, evaluate(term)) for sign, _, term in node.terms]
        first = values[0][1]
        if isinstance(first, LaurentPoly):
            return signed_sum(values)
        return element_sum(first.arity, values)
    if isinstance(node, Juxt):
        return _product(node.factors)
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


def _product(factors: tuple[tuple[int, Node], ...]) -> Value:
    """Left fold of a juxtaposed product.

    While the running value is a scalar, numbers, variables and their powers
    go into one pending term (exponents added, coefficients multiplied); the
    term joins the other factors where an element is met, or at the end.  An
    element is scaled by each later factor in turn, so a factor that is not
    symmetric is reported at its own position.
    """
    exps: list[int] = []
    coeff = 1
    value: Value | None = None  # the product of the factors not in the term
    for i, (pos, factor) in enumerate(factors):
        if isinstance(value, ShuffleElement):
            value = _scaled(value, evaluate(factor), pos)
            continue
        c = _term_factor(factor, exps)
        if c is not None:
            coeff *= c
            continue
        operand = evaluate(factor)
        if isinstance(operand, LaurentPoly):
            value = operand if value is None else value * operand
        elif i:
            value = _scaled(operand, _times_term(value, exps, coeff), pos)
        else:
            value = operand
    if isinstance(value, ShuffleElement):
        return value
    return _times_term(value, exps, coeff)


def _term_factor(node: Node, exps: list[int]) -> int | Fraction | None:
    """Add the exponents of a number, variable or power of one to `exps` and
    return its coefficient; None, with `exps` untouched, for any other node."""
    e = 1
    if isinstance(node, Pow):
        node, e = node.base, node.exponent
    if isinstance(node, Num):
        if e >= 0:
            return node.value**e
        if not node.value:
            return None  # `evaluate` reports the zero base
        return 1 / Fraction(node.value) ** -e
    if not isinstance(node, Var):
        return None
    for slot in (0, 1) if node.name == "q" else (_slot(node.name),):
        if slot >= len(exps):
            exps.extend([0] * (slot + 1 - len(exps)))
        exps[slot] += e
    return 1


def _times_term(value: LaurentPoly | None, exps: list[int], coeff) -> LaurentPoly:
    """value (1 when None) times the term coeff * prod(var_slot ^ exps[slot])."""
    term = LaurentPoly({tuple(exps): coeff})
    return term if value is None else value * term


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
