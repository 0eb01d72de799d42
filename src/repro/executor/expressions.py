"""A small expression language for predicates and projections.

Expressions evaluate against ``(row, schema)`` pairs.  The paper's
workload only needs one-variable selections (``r1.a <op> const``), but
joins and the optimizer need comparisons between columns and
conjunction/disjunction, so those are included.

NULL semantics are SQL-ish three-valued logic collapsed to two values:
any comparison involving NULL is false, ``AND``/``OR`` treat missing as
false.  That is all the reproduction needs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable

from ..catalog.schema import Row, Schema
from ..errors import ExpressionError

_COMPARISONS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Expression:
    """Base class: evaluate against a row under a schema."""

    def evaluate(self, row: Row, schema: Schema) -> Any:
        """Evaluate against one row under ``schema``."""
        raise NotImplementedError

    def columns(self) -> set[str]:
        """Names of all columns the expression references."""
        raise NotImplementedError

    def bind(self, schema: Schema) -> "BoundExpression":
        """Pre-resolve column positions for fast repeated evaluation."""
        return BoundExpression(self, schema)


@dataclass(frozen=True)
class BoundExpression:
    """An expression paired with its schema for evaluation in a loop."""

    expression: Expression
    schema: Schema

    def __call__(self, row: Row) -> Any:
        return self.expression.evaluate(row, self.schema)


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: Any

    def evaluate(self, row: Row, schema: Schema) -> Any:
        """Return the constant."""
        return self.value

    def columns(self) -> set[str]:
        return set()

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A reference to a named column of the input schema."""

    name: str

    def evaluate(self, row: Row, schema: Schema) -> Any:
        """Return the named column's value from the row."""
        return row[schema.index_of(self.name)]

    def columns(self) -> set[str]:
        return {self.name}

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Comparison(Expression):
    """``left <op> right`` with SQL NULL semantics (NULL compares false)."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARISONS:
            raise ExpressionError(f"unknown comparison operator: {self.op!r}")

    def evaluate(self, row: Row, schema: Schema) -> bool:
        """Compare the operands; NULL on either side yields False."""
        lhs = self.left.evaluate(row, schema)
        rhs = self.right.evaluate(row, schema)
        if lhs is None or rhs is None:
            return False
        try:
            return _COMPARISONS[self.op](lhs, rhs)
        except TypeError as exc:
            raise ExpressionError(
                f"cannot compare {lhs!r} {self.op} {rhs!r}"
            ) from exc

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class And(Expression):
    """Conjunction of one or more predicates."""

    operands: tuple[Expression, ...]

    def __init__(self, *operands: Expression) -> None:
        if not operands:
            raise ExpressionError("AND needs at least one operand")
        object.__setattr__(self, "operands", tuple(operands))

    def evaluate(self, row: Row, schema: Schema) -> bool:
        """True iff every operand is true."""
        return all(op.evaluate(row, schema) for op in self.operands)

    def columns(self) -> set[str]:
        return set().union(*(op.columns() for op in self.operands))

    def __repr__(self) -> str:
        return "(" + " AND ".join(repr(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class Or(Expression):
    """Disjunction of one or more predicates."""

    operands: tuple[Expression, ...]

    def __init__(self, *operands: Expression) -> None:
        if not operands:
            raise ExpressionError("OR needs at least one operand")
        object.__setattr__(self, "operands", tuple(operands))

    def evaluate(self, row: Row, schema: Schema) -> bool:
        """True iff any operand is true."""
        return any(op.evaluate(row, schema) for op in self.operands)

    def columns(self) -> set[str]:
        return set().union(*(op.columns() for op in self.operands))

    def __repr__(self) -> str:
        return "(" + " OR ".join(repr(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class IsNull(Expression):
    """``operand IS NULL`` (or ``IS NOT NULL`` with negated=True)."""

    operand: Expression
    negated: bool = False

    def evaluate(self, row: Row, schema: Schema) -> bool:
        """NULL test on the operand's value."""
        is_null = self.operand.evaluate(row, schema) is None
        return not is_null if self.negated else is_null

    def columns(self) -> set[str]:
        return self.operand.columns()

    def __repr__(self) -> str:
        return f"({self.operand!r} IS {'NOT ' if self.negated else ''}NULL)"


@dataclass(frozen=True)
class Not(Expression):
    """Logical negation."""

    operand: Expression

    def evaluate(self, row: Row, schema: Schema) -> bool:
        """Negate the operand."""
        return not self.operand.evaluate(row, schema)

    def columns(self) -> set[str]:
        return self.operand.columns()

    def __repr__(self) -> str:
        return f"(NOT {self.operand!r})"


# -- convenience constructors ---------------------------------------------------


def col(name: str) -> ColumnRef:
    """Shorthand for :class:`ColumnRef`."""
    return ColumnRef(name)


def lit(value: Any) -> Literal:
    """Shorthand for :class:`Literal`."""
    return Literal(value)


def _as_expr(value: Any) -> Expression:
    return value if isinstance(value, Expression) else Literal(value)


def eq(left: Any, right: Any) -> Comparison:
    """``left = right`` (values are wrapped as literals)."""
    return Comparison("=", _as_expr(left), _as_expr(right))


def le(left: Any, right: Any) -> Comparison:
    """``left <= right``."""
    return Comparison("<=", _as_expr(left), _as_expr(right))


def gt(left: Any, right: Any) -> Comparison:
    """``left > right``."""
    return Comparison(">", _as_expr(left), _as_expr(right))


def ge(left: Any, right: Any) -> Comparison:
    """``left >= right``."""
    return Comparison(">=", _as_expr(left), _as_expr(right))


def between(column: str, low: Any, high: Any) -> And:
    """``low <= column <= high``."""
    return And(ge(col(column), low), le(col(column), high))


def conjuncts(expression: Expression | None) -> list[Expression]:
    """Flatten a predicate into its top-level AND conjuncts."""
    if expression is None:
        return []
    if isinstance(expression, And):
        result: list[Expression] = []
        for op in expression.operands:
            result.extend(conjuncts(op))
        return result
    return [expression]


def equality_columns(expression: Expression) -> tuple[str, str] | None:
    """If the expression is ``col_a = col_b``, return the two names.

    Used by the optimizer to recognize equi-join predicates.
    """
    if (
        isinstance(expression, Comparison)
        and expression.op == "="
        and isinstance(expression.left, ColumnRef)
        and isinstance(expression.right, ColumnRef)
    ):
        return expression.left.name, expression.right.name
    return None


def column_bounds(
    expression: Expression | None, column: str
) -> tuple[Any, Any]:
    """Extract constant (low, high) bounds on ``column`` from conjuncts.

    Recognizes ``column <op> literal`` and ``literal <op> column``
    shapes.  Returns ``(None, None)`` when unbounded.  Used to decide
    index-scan ranges and selectivities.
    """
    low: Any = None
    high: Any = None

    def tighten_low(value: Any) -> None:
        nonlocal low
        if low is None or value > low:
            low = value

    def tighten_high(value: Any) -> None:
        nonlocal high
        if high is None or value < high:
            high = value

    for conj in conjuncts(expression):
        if not isinstance(conj, Comparison):
            continue
        left, right = conj.left, conj.right
        if isinstance(left, ColumnRef) and left.name == column and isinstance(right, Literal):
            op, value = conj.op, right.value
        elif isinstance(right, ColumnRef) and right.name == column and isinstance(left, Literal):
            flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
            op, value = flip[conj.op], left.value
        else:
            continue
        if op == "=":
            tighten_low(value)
            tighten_high(value)
        elif op in ("<", "<="):
            tighten_high(value)
        elif op in (">", ">="):
            tighten_low(value)
    return low, high
