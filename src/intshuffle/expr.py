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
variables and their powers into one `Term` (exponents added, coefficients
multiplied), so a term `-3/4 q1^2 z2 z3^-1` of printed certificate text is
one node.  Evaluation is then a single walk of the tree.  Sums and
juxtaposed products are flat nodes, walked in a loop, so their length is not
bounded by the recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from ._terms_py import mono_mul
from .errors import ArityMismatch, ExprSyntaxError, NotSymmetric
from .poly import LaurentPoly, _slot, signed_sum
from .shuffle import ShuffleElement, element_sum, one_variable, scalar, shuffle, shuffle_word

Value = Union[LaurentPoly, ShuffleElement]


# -- syntax tree ---------------------------------------------------------------


@dataclass(frozen=True)
class Node:
    pos: int


@dataclass(frozen=True)
class Term(Node):
    """coeff * prod(var_slot ^ exps[slot]): a product of numbers, variables
    and their powers, with the slots of `poly.LaurentPoly` (exps trimmed)."""

    exps: tuple[int, ...]
    coeff: int | Fraction


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

SCALAR = "scalar"
ELEMENT = "element"

# What a parse method returns: (node, kind, n), with n the largest z-index
# written in a SCALAR (0 when none) and the arity of an ELEMENT.  A number,
# variable or power of a monomial comes back from `parse_power` as the plain
# tuple (pos, exps, coeff) of a Term's fields, for `parse_juxt` to fold
# without building a node.
_Typed = tuple[Union[Node, tuple], str, int]


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        # the first type error met; a node is typed after its children
        self.error: ArityMismatch | None = None

    def type_error(self, pos: int, message: str) -> None:
        if self.error is None:
            self.error = ArityMismatch(pos, message)

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at_sym(self, text: str) -> bool:
        # no INT, NAME or END token has the text of a symbol
        return self.tokens[self.i][1] == text

    def expect_sym(self, text: str) -> _Token:
        if not self.at_sym(text):
            raise ExprSyntaxError(self.peek()[2], f"expected {text!r}")
        return self.advance()

    # expr := ['-'] term (('+'|'-') term)*
    def parse_expr(self) -> _Typed:
        pos = self.peek()[2]
        sign = 1
        if self.at_sym("-"):
            self.advance()
            sign = -1
        node, kind, n = self.parse_term()
        terms = [(sign, pos, node)]
        while self.at_sym("+") or self.at_sym("-"):
            sign, pos = (1 if self.at_sym("+") else -1), self.advance()[2]
            node, rkind, rn = self.parse_term()
            terms.append((sign, pos, node))
            if kind != rkind:
                self.type_error(pos, "cannot add a scalar and a shuffle element")
            elif kind == ELEMENT and n != rn:
                self.type_error(pos, f"cannot add elements of arity {n} and {rn}")
            n = max(n, rn)
        if len(terms) == 1 and sign == 1:
            return node, kind, n
        # positioned at the last '+' or '-', the operator applied last
        return Sum(pos, tuple(terms)), kind, n

    # term := juxt ('*' juxt)*
    def parse_term(self) -> _Typed:
        node, kind, n = self.parse_juxt()
        while self.at_sym("*"):
            pos = self.advance()[2]
            right, rkind, rn = self.parse_juxt()
            for side, side_kind, span in ((node, kind, n), (right, rkind, rn)):
                if side_kind == SCALAR and span > 0:
                    self.type_error(side.pos, "a z-dependent scalar is not a shuffle element")
            n = (n if kind == ELEMENT else 0) + (rn if rkind == ELEMENT else 0)
            node, kind = Shuf(pos, node, right), ELEMENT
        return node, kind, n

    # juxt := power power*
    def parse_juxt(self) -> _Typed:
        """While the product is scalar, its monomials are folded into `run`,
        which joins the other factors as one Term just before the first
        element, or at the end.  Each factor after an element stays its own
        factor, so the element is scaled by one factor at a time."""
        factors: list[tuple[int, Node]] = []
        kind, n = None, 0  # the type of the product so far
        run = None  # (pos, exps, coeff) of the monomials folded so far
        while True:
            tok, _, start = self.peek()
            if kind is not None and tok not in ("INT", "NAME") and not self.at_sym("("):
                break
            last = start
            factor, fkind, fn = self.parse_power()
            if kind != ELEMENT and type(factor) is tuple:
                if run is not None:  # several monomials: positioned like a Juxt
                    c = factor[2]  # 1 for a variable: skip the (Fraction) product
                    factor = (start, mono_mul(run[1], factor[1]), run[2] if c == 1 else run[2] * c)
                run, kind, n = factor, SCALAR, max(n, fn)
                continue
            if fkind == ELEMENT and run is not None:
                factors.append((run[0], Term(*run)))
                run = None
            if type(factor) is tuple:
                factor = Term(*factor)
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
        if run is not None:
            factors.append((run[0], Term(*run)))
        if len(factors) == 1:
            return factors[0][1], kind, n
        # positioned at the last factor, the one multiplied in last
        return Juxt(last, tuple(factors)), kind, n

    # power := atom ['^' exponent]
    def parse_power(self) -> _Typed:
        node, kind, n = self.parse_atom()
        if not self.at_sym("^"):
            return node, kind, n
        pos = self.advance()[2]
        e = self.parse_exponent()
        if isinstance(node, ZElt):
            return ZElt(node.pos, e), kind, n
        if type(node) is tuple:
            _, exps, c = node
            if c or e >= 0:
                power = tuple(x * e for x in exps) if e else ()
                return (pos, power, c**e if e >= 0 else Fraction(c) ** e), kind, n
            node = Term(*node)  # the zero base: evaluation reports the negative power
        if kind == ELEMENT:
            self.type_error(pos, "cannot exponentiate a shuffle element")
        return Pow(pos, node, e), kind, n

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

    def parse_atom(self) -> _Typed:
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
            return (pos, (), value), SCALAR, 0
        if kind == "NAME":
            self.advance()
            if name == "sh":
                return self.parse_word(pos)
            if name == "z":
                return ZElt(pos, 1), ELEMENT, 1
            if name == "q":
                return (pos, (1, 1), 1), SCALAR, 0
            try:
                slot = _slot(name)
            except ValueError:
                raise ExprSyntaxError(pos, f"unknown name {name!r}") from None
            # slots 0 and 1 hold q1 and q2, slot i + 1 holds z_i
            return (pos, (0,) * slot + (1,), 1), SCALAR, max(slot - 1, 0)
        if self.at_sym("("):
            self.advance()
            node, kind, n = self.parse_expr()
            self.expect_sym(")")
            if isinstance(node, Term):  # a monomial still: parse_juxt may fold it
                node = (node.pos, node.exps, node.coeff)
            return node, kind, n
        raise ExprSyntaxError(pos, "expected a value")

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
    kind, text, pos = parser.peek()
    if kind != "END":
        raise ExprSyntaxError(pos, f"unexpected {text!r}")
    if parser.error is not None:
        raise parser.error
    return node


# -- evaluation ------------------------------------------------------------------


def evaluate(node: Node) -> Value:
    """Evaluate a type-checked tree to a LaurentPoly or ShuffleElement."""
    if isinstance(node, Term):
        return LaurentPoly({node.exps: node.coeff})
    if isinstance(node, ZElt):
        return one_variable(node.exponent)
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
