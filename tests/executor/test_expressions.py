"""Tests for the expression language."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.catalog import Schema
from repro.errors import ExpressionError
from repro.executor import (
    And,
    Comparison,
    Not,
    Or,
    between,
    col,
    column_bounds,
    conjuncts,
    eq,
    equality_columns,
    ge,
    gt,
    le,
    lit,
)

SCHEMA = Schema.of(("a", "int4"), ("b", "text"), ("c", "float8"))
ROW = (5, "hello", 2.5)


class TestBasics:
    def test_literal(self):
        assert lit(7).evaluate(ROW, SCHEMA) == 7

    def test_column_ref(self):
        assert col("a").evaluate(ROW, SCHEMA) == 5
        assert col("b").evaluate(ROW, SCHEMA) == "hello"

    def test_columns_sets(self):
        expr = And(eq(col("a"), 1), gt(col("c"), col("a")))
        assert expr.columns() == {"a", "c"}
        assert lit(1).columns() == set()

    @pytest.mark.parametrize(
        "op,expected",
        [("=", False), ("!=", True), ("<", True), ("<=", True), (">", False), (">=", False)],
    )
    def test_comparisons(self, op, expected):
        expr = Comparison(op, col("a"), lit(10))
        assert expr.evaluate(ROW, SCHEMA) is expected

    def test_unknown_comparison_op(self):
        with pytest.raises(ExpressionError):
            Comparison("~", col("a"), lit(1))

    def test_type_mismatch_raises(self):
        with pytest.raises(ExpressionError):
            Comparison("<", col("a"), col("b")).evaluate(ROW, SCHEMA)


class TestNulls:
    NULL_ROW = (None, None, 1.0)

    def test_null_comparison_false(self):
        assert eq(col("a"), 5).evaluate(self.NULL_ROW, SCHEMA) is False
        assert eq(col("a"), col("b")).evaluate(self.NULL_ROW, SCHEMA) is False


class TestLogic:
    def test_and(self):
        assert And(gt(col("a"), 1), le(col("a"), 10)).evaluate(ROW, SCHEMA)
        assert not And(gt(col("a"), 1), gt(col("a"), 10)).evaluate(ROW, SCHEMA)

    def test_or(self):
        assert Or(eq(col("a"), 99), eq(col("b"), "hello")).evaluate(ROW, SCHEMA)
        assert not Or(eq(col("a"), 99), eq(col("b"), "nope")).evaluate(ROW, SCHEMA)

    def test_not(self):
        assert Not(eq(col("a"), 99)).evaluate(ROW, SCHEMA)

    def test_empty_logic_rejected(self):
        with pytest.raises(ExpressionError):
            And()
        with pytest.raises(ExpressionError):
            Or()

    def test_between(self):
        assert between("a", 0, 10).evaluate(ROW, SCHEMA)
        assert not between("a", 6, 10).evaluate(ROW, SCHEMA)


class TestBinding:
    def test_bound_expression_callable(self):
        bound = gt(col("a"), 3).bind(SCHEMA)
        assert bound(ROW) is True
        assert bound((1, "x", 0.0)) is False


class TestAnalysis:
    def test_conjuncts_flattens_nested_and(self):
        expr = And(eq(col("a"), 1), And(gt(col("c"), 0), le(col("c"), 9)))
        assert len(conjuncts(expr)) == 3

    def test_conjuncts_none(self):
        assert conjuncts(None) == []

    def test_conjuncts_atom(self):
        e = eq(col("a"), 1)
        assert conjuncts(e) == [e]

    def test_equality_columns(self):
        assert equality_columns(eq(col("a"), col("c"))) == ("a", "c")
        assert equality_columns(eq(col("a"), lit(1))) is None
        assert equality_columns(Comparison("<", col("a"), col("c"))) is None

    def test_column_bounds_range(self):
        expr = And(ge(col("a"), 10), le(col("a"), 20))
        assert column_bounds(expr, "a") == (10, 20)

    def test_column_bounds_equality(self):
        assert column_bounds(eq(col("a"), 7), "a") == (7, 7)

    def test_column_bounds_flipped_literal(self):
        expr = Comparison("<", lit(3), col("a"))  # 3 < a  =>  a > 3
        assert column_bounds(expr, "a") == (3, None)

    def test_column_bounds_tightest_wins(self):
        expr = And(ge(col("a"), 5), ge(col("a"), 10), le(col("a"), 50), le(col("a"), 30))
        assert column_bounds(expr, "a") == (10, 30)

    def test_column_bounds_other_column_ignored(self):
        assert column_bounds(ge(col("c"), 1.0), "a") == (None, None)

    @given(st.integers(-100, 100), st.integers(-100, 100))
    def test_between_matches_bounds(self, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        expr = between("a", lo, hi)
        assert column_bounds(expr, "a") == (lo, hi)
