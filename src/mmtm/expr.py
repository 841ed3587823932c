"""Binary arithmetic expression trees: parsing, traversal, reconstruction, evaluation.

Trees are immutable. Leaves hold either a quantity placeholder ("number0",
"number1", ...) or an exact rational constant; internal nodes hold one of the
four binary operators. All arithmetic is exact (fractions.Fraction).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Union

OPERATORS = ("+", "-", "*", "/")

_PLACEHOLDER_RE = re.compile(r"^number(\d+)$")
_NUMBER_RE = re.compile(r"^\d+(?:\.\d+)?$")
# Longest infix equation parse_infix accepts, in tokens: 128 operands joined
# by 127 operators (a valid equation has an odd count). The parser and the
# label builders use stacks, but the tree walkers (traverse, evaluate,
# operators_of, iter_leaves) recurse one frame per level, so this keeps the
# deepest tree (128 levels) far inside Python's default recursion limit of 1000.
MAX_EQUATION_TOKENS = 255


class ExprError(Exception):
    """Base class for expression-layer errors."""


class UnbalancedParens(ExprError):
    pass


class UnknownToken(ExprError):
    pass


class PlaceholderOutOfRange(ExprError):
    pass


class EmptyExpression(ExprError):
    pass


class TruncatedSequence(ExprError):
    pass


class TrailingTokens(ExprError):
    pass


class DivisionByZero(ExprError):
    pass


class EquationTooLong(ExprError):
    pass


class NumberTooLong(ExprError):
    pass


class TraversalVariant(Enum):
    PRE_ORDER = "pre"
    IN_ORDER = "in"
    POST_ORDER = "post"


@dataclass(frozen=True)
class Placeholder:
    index: int

    @property
    def token(self) -> str:
        return f"number{self.index}"


@dataclass(frozen=True)
class Constant:
    value: Fraction

    @property
    def token(self) -> str:
        return format_number(self.value)


Operand = Union[Placeholder, Constant]


@dataclass(frozen=True)
class Leaf:
    operand: Operand


@dataclass(frozen=True)
class Node:
    op: str
    left: "ExprTree"
    right: "ExprTree"

    def __post_init__(self):
        if self.op not in OPERATORS:
            raise UnknownToken(f"unknown operator {self.op!r}")


ExprTree = Union[Leaf, Node]


def format_number(value: Fraction) -> str:
    """Shortest decimal rendering of a rational; falls back to a/b form.
    Raises NumberTooLong past the digits Python writes for an int (4300)."""
    try:
        return _format_number(value)
    except ValueError:
        raise NumberTooLong("a number of more than 4300 digits") from None


def _format_number(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    den = value.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{value.numerator}/{value.denominator}"
    digits = max(twos, fives)
    scaled = value.numerator * 10**digits // value.denominator
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    whole, frac = text[:-digits], text[-digits:]
    return f"{sign}{whole}.{frac.rstrip('0')}" if frac.rstrip("0") else f"{sign}{whole}"


def parse_number(token: str) -> Fraction:
    """Parse an unsigned decimal literal, allowing comma grouping ('1,000')."""
    try:
        return Fraction(token.replace(",", ""))
    except ValueError:  # more digits than Python converts to an int (4300)
        raise NumberTooLong(f"a number of {len(token)} characters") from None


def operators_of(tree: ExprTree) -> list[str]:
    """Operators in pre-order; length equals the operator count."""
    if isinstance(tree, Leaf):
        return []
    return [tree.op] + operators_of(tree.left) + operators_of(tree.right)


def leaf_from_token(token: str) -> Leaf:
    m = _PLACEHOLDER_RE.match(token)
    if m:
        return Leaf(Placeholder(int(m.group(1))))
    if _NUMBER_RE.match(token):
        return Leaf(Constant(Fraction(token)))
    raise UnknownToken(f"unknown label token {token!r}")


def _tokenize_infix(equation: str) -> list[str]:
    out = []
    pos = 0
    pattern = re.compile(r"\s+|number\d+|\d+(?:,\d{3})*(?:\.\d+)?|[-+*/()]")
    while pos < len(equation):
        m = pattern.match(equation, pos)
        if not m:
            raise UnknownToken(f"unexpected input at {equation[pos:pos + 10]!r}")
        if not m.group().isspace():
            out.append(m.group())
        pos = m.end()
    return out


def _reduce(trees: list[ExprTree], op: str, mirror: bool = False):
    """Replace the top two trees of the operand stack with their `op` node:
    the deeper one is the left child, or the right one if `mirror`."""
    top, below = trees.pop(), trees.pop()
    trees.append(Node(op, top, below) if mirror else Node(op, below, top))


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def parse_infix(equation: str, n_quantities: int) -> ExprTree:
    """Parse an infix equation over placeholders/constants into a tree.

    Standard precedence (*, / bind tighter than +, -), left associativity.
    Every placeholder index must be < n_quantities, and an equation has at
    most MAX_EQUATION_TOKENS tokens. One left-to-right pass over an operand
    stack and a stack of pending operators and open parentheses (Dijkstra's
    shunting-yard), so an error is the first one the tokens reach.
    """
    tokens = _tokenize_infix(equation)
    if not tokens:
        raise EmptyExpression("empty equation")
    if len(tokens) > MAX_EQUATION_TOKENS:
        raise EquationTooLong(f"{len(tokens)} tokens, at most {MAX_EQUATION_TOKENS}")
    trees: list[ExprTree] = []
    pending: list[str] = []  # operators and open parentheses not yet reduced
    operand_next = True
    for i, tok in enumerate(tokens):
        if not operand_next and tok in _PRECEDENCE:
            while pending and _PRECEDENCE.get(pending[-1], 0) >= _PRECEDENCE[tok]:
                _reduce(trees, pending.pop())
            pending.append(tok)
        elif not operand_next and "(" in pending:
            if tok != ")":
                raise UnbalancedParens("missing closing parenthesis")
            while (op := pending.pop()) != "(":
                _reduce(trees, op)
        elif not operand_next:
            if tok == ")":
                raise UnbalancedParens("unmatched closing parenthesis")
            raise TrailingTokens(f"unconsumed input {tokens[i:]!r}")
        elif tok == "(":
            pending.append(tok)
        elif m := _PLACEHOLDER_RE.match(tok):
            if int(m[1]) >= n_quantities:
                raise PlaceholderOutOfRange(f"{tok} but only {n_quantities} quantities")
            trees.append(Leaf(Placeholder(int(m[1]))))
        elif tok[0].isdecimal():
            trees.append(Leaf(Constant(parse_number(tok))))
        else:
            raise UnknownToken(f"unexpected token {tok!r}")
        operand_next = tok == "(" or tok in _PRECEDENCE
    if operand_next:
        raise UnbalancedParens("expression ended unexpectedly")
    if "(" in pending:
        raise UnbalancedParens("missing closing parenthesis")
    while pending:
        _reduce(trees, pending.pop())
    return trees[0]


def traverse(tree: ExprTree, variant: TraversalVariant) -> list[str]:
    """Linearize a tree: pre (node-left-right), in (left-node-right, no
    parentheses), or post (left-right-node)."""
    out: list[str] = []

    def walk(t: ExprTree):
        if isinstance(t, Leaf):
            out.append(t.operand.token)
            return
        if variant is TraversalVariant.PRE_ORDER:
            out.append(t.op)
            walk(t.left)
            walk(t.right)
        elif variant is TraversalVariant.IN_ORDER:
            walk(t.left)
            out.append(t.op)
            walk(t.right)
        else:
            walk(t.left)
            walk(t.right)
            out.append(t.op)

    walk(tree)
    return out


def _tree_from_label(tokens: list[str], mirror: bool) -> ExprTree:
    """Build a post-order label's tree on the operand stack; with `mirror`,
    `tokens` are the mirror tree's post-order, so the children swap back."""
    if not tokens:
        raise TruncatedSequence("empty label sequence")
    trees: list[ExprTree] = []
    for tok in tokens:
        if tok in OPERATORS:
            if len(trees) < 2:
                raise TruncatedSequence(f"operator {tok!r} lacks operands")
            _reduce(trees, tok, mirror)
        else:
            trees.append(leaf_from_token(tok))
    if len(trees) != 1:
        raise TrailingTokens(f"{len(trees)} disconnected subtrees remain")
    return trees[0]


def tree_from_preorder(tokens: list[str]) -> ExprTree:
    """Invert a pre-order label sequence; the whole sequence must be consumed.
    Read backwards, it is the post-order of the mirror tree."""
    return _tree_from_label(tokens[::-1], mirror=True)


def tree_from_postorder(tokens: list[str]) -> ExprTree:
    """Invert a post-order label sequence."""
    return _tree_from_label(tokens, mirror=False)


def evaluate(tree: ExprTree, quantities: list[Fraction]) -> Fraction:
    """Evaluate bottom-up with exact rational arithmetic."""
    if isinstance(tree, Leaf):
        operand = tree.operand
        if isinstance(operand, Placeholder):
            if operand.index >= len(quantities):
                raise PlaceholderOutOfRange(
                    f"number{operand.index} but only {len(quantities)} quantities"
                )
            return Fraction(quantities[operand.index])
        return operand.value
    left = evaluate(tree.left, quantities)
    right = evaluate(tree.right, quantities)
    if tree.op == "+":
        return left + right
    if tree.op == "-":
        return left - right
    if tree.op == "*":
        return left * right
    if right == 0:
        raise DivisionByZero(f"{format_number(left)} / 0")
    return left / right


def iter_leaves(tree: ExprTree) -> Iterator[Leaf]:
    if isinstance(tree, Leaf):
        yield tree
    else:
        yield from iter_leaves(tree.left)
        yield from iter_leaves(tree.right)
