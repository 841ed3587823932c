from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmtm import expr
from mmtm.expr import (
    Constant,
    DivisionByZero,
    EmptyExpression,
    Leaf,
    Node,
    Placeholder,
    PlaceholderOutOfRange,
    TraversalVariant,
    TrailingTokens,
    TruncatedSequence,
    UnbalancedParens,
    UnknownToken,
)
from conftest import random_tree

P0, P1, P2 = Leaf(Placeholder(0)), Leaf(Placeholder(1)), Leaf(Placeholder(2))


def node_count(tree) -> int:
    if isinstance(tree, Leaf):
        return 1
    return 1 + node_count(tree.left) + node_count(tree.right)


class TestParseInfix:
    def test_two_leaf_sum(self):
        assert expr.parse_infix("number0 + number1", 2) == Node("+", P0, P1)

    def test_parenthesized(self):
        tree = expr.parse_infix("number0 * ( number1 + number2 )", 3)
        assert tree == Node("*", P0, Node("+", P1, P2))
        assert expr.traverse(tree, TraversalVariant.PRE_ORDER) == [
            "*", "number0", "+", "number1", "number2"]

    def test_precedence(self):
        tree = expr.parse_infix("number0 + number1 * number2", 3)
        assert tree == Node("+", P0, Node("*", P1, P2))

    def test_left_associativity(self):
        tree = expr.parse_infix("number0 - number1 - number2", 3)
        assert tree == Node("-", Node("-", P0, P1), P2)

    def test_constants(self):
        tree = expr.parse_infix("number0 + 2.5", 1)
        assert tree == Node("+", P0, Leaf(Constant(Fraction(5, 2))))

    def test_no_spaces(self):
        assert expr.parse_infix("(number0+number1)*number2", 3) == Node(
            "*", Node("+", P0, P1), P2)

    def test_errors(self):
        with pytest.raises(UnbalancedParens):
            expr.parse_infix("( number0 + number1", 2)
        with pytest.raises(UnbalancedParens):
            expr.parse_infix("number0 + number1 )", 2)
        with pytest.raises(UnknownToken):
            expr.parse_infix("number0 + x", 1)
        with pytest.raises(PlaceholderOutOfRange):
            expr.parse_infix("number0 + number3", 2)
        with pytest.raises(EmptyExpression):
            expr.parse_infix("   ", 0)


_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2}


def fewest_parens_infix(tree, sep=" "):
    """Infix with only the parentheses precedence and left associativity need:
    around a child that binds looser than its parent, or around a right child
    that binds as loosely."""
    if isinstance(tree, Leaf):
        return tree.operand.token

    def side(child, right):
        text = fewest_parens_infix(child, sep)
        if isinstance(child, Node) and (_BINDING[child.op] < _BINDING[tree.op] or (
                right and _BINDING[child.op] == _BINDING[tree.op])):
            return f"({sep}{text}{sep})"
        return text

    return sep.join([side(tree.left, False), tree.op, side(tree.right, True)])


class TestParsePrecedence:
    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 7))
    def test_fewest_parentheses_parse_back(self, seed, depth):
        tree = random_tree(np.random.default_rng(seed), depth)
        for sep in (" ", ""):
            assert expr.parse_infix(fewest_parens_infix(tree, sep), 4) == tree

    def test_printer_drops_parentheses(self):
        tree = Node("-", Node("-", P0, Node("*", P1, P2)), Node("/", P0, P1))
        assert fewest_parens_infix(tree) == \
            "number0 - number1 * number2 - number0 / number1"
        assert fewest_parens_infix(Node("-", P0, Node("-", P1, P2)), "") == \
            "number0-(number1-number2)"


class TestParseErrors:
    """Each message parse_infix raises, with its class: the equation's
    quarantine reason is `bad equation: <message>`."""

    @pytest.mark.parametrize("equation,n,cls,message", [
        ("number0 + x", 1, UnknownToken, "unexpected input at 'x'"),
        ("   ", 0, EmptyExpression, "empty equation"),
        (" + ".join(["number0"] * 129), 1, expr.EquationTooLong,
         "257 tokens, at most 255"),
        ("number0 +", 1, UnbalancedParens, "expression ended unexpectedly"),
        ("( ( number0 )", 1, UnbalancedParens, "missing closing parenthesis"),
        ("( number0 number0 )", 1, UnbalancedParens, "missing closing parenthesis"),
        ("( number0 ) )", 1, UnbalancedParens, "unmatched closing parenthesis"),
        ("number0 * number2", 2, PlaceholderOutOfRange,
         "number2 but only 2 quantities"),
        ("1" * 5000 + " + number0", 1, expr.NumberTooLong,
         "a number of 5000 characters"),
        ("* number0", 1, UnknownToken, "unexpected token '*'"),
        ("number0 + ( )", 1, UnknownToken, "unexpected token ')'"),
        ("number0 2.5 +", 1, TrailingTokens, "unconsumed input ['2.5', '+']"),
        ("number0 ( number0 )", 1, TrailingTokens,
         "unconsumed input ['(', 'number0', ')']"),
    ], ids=["unknown-input", "empty", "too-long", "ended", "unclosed",
            "operand-for-close", "unmatched-close", "placeholder-range",
            "number-too-long", "operator-first", "empty-parens", "trailing",
            "trailing-parens"])
    def test_class_and_message(self, equation, n, cls, message):
        with pytest.raises(expr.ExprError) as exc:
            expr.parse_infix(equation, n)
        assert (type(exc.value), str(exc.value)) == (cls, message)


class TestTraverse:
    def test_pre_order(self):
        assert expr.traverse(Node("-", P0, P1), TraversalVariant.PRE_ORDER) == [
            "-", "number0", "number1"]

    def test_post_order(self):
        assert expr.traverse(Node("-", P0, P1), TraversalVariant.POST_ORDER) == [
            "number0", "number1", "-"]

    def test_in_order_no_parens(self):
        tree = Node("*", P0, Node("+", P1, P2))
        assert expr.traverse(tree, TraversalVariant.IN_ORDER) == [
            "number0", "*", "number1", "+", "number2"]

    def test_token_count_equals_node_count(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            tree = random_tree(rng, 6)
            n = node_count(tree)
            for variant in TraversalVariant:
                assert len(expr.traverse(tree, variant)) == n


class TestReconstruction:
    def test_preorder_reference_labels(self):
        tree = expr.tree_from_preorder(["-", "+", "number0", "number2", "number1"])
        assert tree == Node("-", Node("+", P0, P2), P1)

    def test_preorder_single_leaf(self):
        assert expr.tree_from_preorder(["number0"]) == P0

    def test_preorder_truncated(self):
        with pytest.raises(TruncatedSequence):
            expr.tree_from_preorder(["+", "number0"])

    def test_preorder_trailing(self):
        with pytest.raises(TrailingTokens):
            expr.tree_from_preorder(["number0", "number1"])

    def test_preorder_unknown_token(self):
        with pytest.raises(UnknownToken):
            expr.tree_from_preorder(["+", "number0", "<unk>"])

    def test_postorder_base_case(self):
        assert expr.tree_from_postorder(["number0", "number1", "-"]) == Node(
            "-", P0, P1)

    def test_postorder_derived(self):
        # invert of traverse(Node(-, Node(+, P0, P2), P1), POST_ORDER)
        tree = Node("-", Node("+", P0, P2), P1)
        tokens = expr.traverse(tree, TraversalVariant.POST_ORDER)
        assert tokens == ["number0", "number2", "+", "number1", "-"]
        assert expr.tree_from_postorder(tokens) == tree

    def test_postorder_underflow(self):
        with pytest.raises(TruncatedSequence):
            expr.tree_from_postorder(["-"])

    def test_postorder_trailing(self):
        with pytest.raises(TrailingTokens):
            expr.tree_from_postorder(["number0", "number1", "number2", "-"])

    def test_round_trip_random(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            tree = random_tree(rng, 6)
            pre = expr.traverse(tree, TraversalVariant.PRE_ORDER)
            post = expr.traverse(tree, TraversalVariant.POST_ORDER)
            assert expr.tree_from_preorder(pre) == tree
            assert expr.tree_from_postorder(post) == tree

    def test_in_order_is_ambiguous(self):
        # distinct trees, distinct pre-order, identical in-order token list
        a = Node("+", P0, Node("*", P1, P2))
        b = Node("*", Node("+", P0, P1), P2)
        pre_a = expr.traverse(a, TraversalVariant.PRE_ORDER)
        pre_b = expr.traverse(b, TraversalVariant.PRE_ORDER)
        assert pre_a != pre_b
        assert expr.traverse(a, TraversalVariant.IN_ORDER) == expr.traverse(
            b, TraversalVariant.IN_ORDER)
        assert not hasattr(expr, "tree_from_inorder")


class TestEvaluate:
    def test_subtraction(self):
        assert expr.evaluate(Node("-", P0, P1), [Fraction(5), Fraction(3)]) == 2

    def test_nested(self):
        tree = Node("*", P0, Node("+", P1, P2))
        q = [Fraction(2), Fraction(3), Fraction(4)]
        assert expr.evaluate(tree, q) == 14

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            expr.evaluate(Node("/", P0, P1), [Fraction(1), Fraction(0)])

    def test_placeholder_out_of_range(self):
        with pytest.raises(PlaceholderOutOfRange):
            expr.evaluate(P2, [Fraction(1)])

    def test_exact_rationals(self):
        tree = Node("/", P0, P1)
        assert expr.evaluate(tree, [Fraction(1), Fraction(3)]) == Fraction(1, 3)


class TestFormatNumber:
    @pytest.mark.parametrize("value,expected", [
        (Fraction(5), "5"),
        (Fraction(5, 2), "2.5"),
        (Fraction(-5, 2), "-2.5"),
        (Fraction(1, 100), "0.01"),
        (Fraction(10), "10"),
        (Fraction(1, 3), "1/3"),
    ])
    def test_rendering(self, value, expected):
        assert expr.format_number(value) == expected

    @pytest.mark.parametrize("value", [Fraction(10**4300), Fraction(1, 2**15000)])
    def test_past_the_int_digit_limit_is_number_too_long(self, value):
        """Python writes at most 4300 digits of an int; past that this raised
        ValueError, which no caller expected."""
        with pytest.raises(expr.NumberTooLong, match="more than 4300 digits"):
            expr.format_number(value)


_LEAVES = st.one_of(
    st.builds(lambda i: Leaf(Placeholder(i)), st.integers(0, 4)),
    st.builds(lambda n, d: Leaf(Constant(Fraction(n, d))), st.integers(0, 999),
              st.sampled_from([1, 2, 4, 5, 10, 100])))
TREES = st.recursive(_LEAVES, lambda sub: st.builds(
    Node, st.sampled_from(expr.OPERATORS), sub, sub), max_leaves=12)


class TestTraversalProperties:
    @settings(max_examples=80)
    @given(tree=TREES,
           quantities=st.lists(st.fractions(-20, 20, max_denominator=6),
                               min_size=5, max_size=5))
    def test_pre_and_post_order_rebuild_the_tree(self, tree, quantities):
        pre = expr.traverse(tree, TraversalVariant.PRE_ORDER)
        post = expr.traverse(tree, TraversalVariant.POST_ORDER)
        rebuilt = [expr.tree_from_preorder(pre), expr.tree_from_postorder(post)]
        assert rebuilt == [tree, tree]
        try:
            value = expr.evaluate(tree, quantities)
        except DivisionByZero:
            for other in rebuilt:
                with pytest.raises(DivisionByZero):
                    expr.evaluate(other, quantities)
            return
        assert isinstance(value, Fraction)
        assert [expr.evaluate(other, quantities) for other in rebuilt] == [value] * 2


class TestEquationBound:
    """parse_infix rejects more than MAX_EQUATION_TOKENS tokens, so no corpus
    equation reaches Python's recursion limit in the recursive tree code."""

    def test_longest_chain_at_the_bound_parses(self):
        tree = expr.parse_infix(" + ".join(["number0"] * 128), 1)  # 255 tokens
        assert expr.evaluate(tree, [Fraction(2)]) == 256
        assert len(expr.traverse(tree, TraversalVariant.POST_ORDER)) == \
            expr.MAX_EQUATION_TOKENS

    def test_deepest_nesting_at_the_bound_parses(self):
        equation = "( " * 127 + "number0" + " )" * 127  # 255 tokens
        assert expr.parse_infix(equation, 1) == Leaf(Placeholder(0))

    @pytest.mark.parametrize("equation", [
        "( " * 331 + "number0 + number1" + " )" * 331,
        " + ".join(["number0"] * 1000),
        " + ".join(["number0"] * 129),  # 257 tokens, one operand past the bound
        "( " * 128 + "number0" + " )" * 128,
    ], ids=["nested-331", "chain-1000", "chain-129", "nested-128"])
    def test_over_the_bound_rejected(self, equation):
        with pytest.raises(expr.EquationTooLong, match="at most 255"):
            expr.parse_infix(equation, 2)
