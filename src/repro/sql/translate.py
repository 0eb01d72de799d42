"""Lower parsed SQL onto the optimizer and executor.

The translator resolves columns against the catalog, splits the WHERE
clause into pushed-down per-relation selections, equi-join predicates
and a residual filter, builds the :class:`~repro.optimizer.Query` for
the join optimizer, and stacks the post-operators (residual filter,
aggregation, projection, sort, limit) on top of the optimized join
tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..catalog.catalog import Catalog
from ..config import MachineConfig, paper_machine
from ..executor import expressions as ex
from ..executor.operators.aggregate import AggregateSpec
from ..optimizer.enumeration import enumerate_space
from ..optimizer.query import JoinPredicate, Query
from ..optimizer.twophase import SeqcostObjective
from ..plans import nodes as pn
from . import ast
from .lexer import SqlError
from .parser import parse


@dataclass
class TranslatedQuery:
    """The lowering of one SELECT statement."""

    statement: ast.SelectStatement
    query: Query
    residual: ex.Expression | None
    plan: pn.PlanNode

    def run(self, catalog: Catalog) -> list:
        """Execute the plan and return the result rows."""
        return self.plan.to_operator(catalog).run()


class _Resolver:
    """Column-name resolution against the catalog."""

    def __init__(self, catalog: Catalog, tables: list[str]) -> None:
        self.catalog = catalog
        self.owner: dict[str, str] = {}
        for table in tables:
            schema = self.catalog.table(table).schema
            for column in schema.names():
                if column in self.owner:
                    raise SqlError(
                        f"column {column!r} is ambiguous between "
                        f"{self.owner[column]!r} and {table!r}"
                    )
                self.owner[column] = table

    def resolve(self, column: ast.ColumnName) -> tuple[str, str]:
        """(relation, column) for a reference; validates qualification."""
        owner = self.owner.get(column.name)
        if owner is None:
            raise SqlError(f"unknown column {column!r}")
        if column.relation is not None and column.relation != owner:
            raise SqlError(
                f"column {column.name!r} belongs to {owner!r}, "
                f"not {column.relation!r}"
            )
        return owner, column.name


def _operand_expr(operand: ast.ColumnName | ast.Literal) -> ex.Expression:
    if isinstance(operand, ast.ColumnName):
        return ex.col(operand.name)
    return ex.lit(operand.value)


def _condition_expr(condition: ast.Condition) -> ex.Expression:
    """Lower a condition AST to an executor expression."""
    if isinstance(condition, ast.Comparison):
        return ex.Comparison(
            condition.op,
            _operand_expr(condition.left),
            _operand_expr(condition.right),
        )
    if isinstance(condition, ast.IsNull):
        return ex.IsNull(ex.col(condition.column.name), condition.negated)
    if isinstance(condition, ast.Between):
        return ex.between(
            condition.column.name, condition.low.value, condition.high.value
        )
    if isinstance(condition, ast.Not):
        return ex.Not(_condition_expr(condition.operand))
    if isinstance(condition, ast.And):
        return ex.And(*(_condition_expr(c) for c in condition.operands))
    if isinstance(condition, ast.Or):
        return ex.Or(*(_condition_expr(c) for c in condition.operands))
    raise SqlError(f"unsupported condition: {condition!r}")  # pragma: no cover


def _condition_relations(condition: ast.Condition, resolver: _Resolver) -> set[str]:
    """All relations a condition touches (validating columns)."""
    if isinstance(condition, ast.Comparison):
        out = set()
        for operand in (condition.left, condition.right):
            if isinstance(operand, ast.ColumnName):
                out.add(resolver.resolve(operand)[0])
        return out
    if isinstance(condition, (ast.IsNull, ast.Between)):
        return {resolver.resolve(condition.column)[0]}
    if isinstance(condition, ast.Not):
        return _condition_relations(condition.operand, resolver)
    if isinstance(condition, (ast.And, ast.Or)):
        out = set()
        for operand in condition.operands:
            out |= _condition_relations(operand, resolver)
        return out
    raise SqlError(f"unsupported condition: {condition!r}")  # pragma: no cover


def _flatten_and(condition: ast.Condition) -> list[ast.Condition]:
    if isinstance(condition, ast.And):
        out: list[ast.Condition] = []
        for operand in condition.operands:
            out.extend(_flatten_and(operand))
        return out
    return [condition]


def translate(
    sql: str,
    catalog: Catalog,
    *,
    space: str = "bushy",
    machine: MachineConfig | None = None,
) -> TranslatedQuery:
    """Parse, plan and lower one SELECT statement.

    Args:
        sql: the statement text.
        catalog: resolves tables, columns, indexes and statistics.
        space: join-order search space (``"bushy"`` or ``"left-deep"``).
        machine: cost-estimation context.

    Raises:
        SqlError: for syntax errors, unknown tables/columns, ambiguous
            references or unsupported constructs.
    """
    statement = parse(sql)
    for table in statement.tables:
        if not catalog.has_table(table):
            raise SqlError(f"unknown table {table!r}")
    if len(set(statement.tables)) != len(statement.tables):
        raise SqlError("duplicate table in FROM (self-joins are unsupported)")
    resolver = _Resolver(catalog, statement.tables)

    # -- classify the WHERE conjuncts -----------------------------------------
    selections: dict[str, list[ex.Expression]] = {}
    joins: list[JoinPredicate] = []
    residual_parts: list[ex.Expression] = []
    if statement.where is not None:
        for conjunct in _flatten_and(statement.where):
            relations = _condition_relations(conjunct, resolver)
            if len(relations) <= 1:
                expr = _condition_expr(conjunct)
                if relations:
                    (relation,) = relations
                    selections.setdefault(relation, []).append(expr)
                else:  # constant predicate: keep as residual
                    residual_parts.append(expr)
            elif (
                isinstance(conjunct, ast.Comparison)
                and conjunct.op == "="
                and isinstance(conjunct.left, ast.ColumnName)
                and isinstance(conjunct.right, ast.ColumnName)
            ):
                left_rel, left_col = resolver.resolve(conjunct.left)
                right_rel, right_col = resolver.resolve(conjunct.right)
                joins.append(
                    JoinPredicate(left_rel, left_col, right_rel, right_col)
                )
            else:
                residual_parts.append(_condition_expr(conjunct))

    query = Query(
        relations=list(statement.tables),
        joins=joins,
        selections={
            rel: exprs[0] if len(exprs) == 1 else ex.And(*exprs)
            for rel, exprs in selections.items()
        },
    )
    query.validate(catalog)

    # -- phase 1: join-order optimization ---------------------------------------
    seqcost = SeqcostObjective(catalog, machine=machine or paper_machine())
    plan = enumerate_space(query, catalog, seqcost, space=space)
    residual = None
    if residual_parts:
        residual = (
            residual_parts[0]
            if len(residual_parts) == 1
            else ex.And(*residual_parts)
        )
        plan = pn.FilterNode(plan, residual)

    # -- post-operators ------------------------------------------------------------
    plan = _apply_select_list(statement, resolver, plan)
    if statement.order_by:
        columns = []
        descending = []
        for item in statement.order_by:
            columns.append(_output_column(statement, resolver, item.column))
            descending.append(not item.ascending)
        plan = pn.SortNode(plan, tuple(columns), tuple(descending))
    if statement.limit is not None:
        plan = pn.LimitNode(plan, statement.limit)
    return TranslatedQuery(
        statement=statement, query=query, residual=residual, plan=plan
    )


def _apply_select_list(
    statement: ast.SelectStatement, resolver: _Resolver, plan: pn.PlanNode
) -> pn.PlanNode:
    """Aggregation or projection per the select list."""
    if statement.aggregates:
        specs = []
        for aggregate in statement.aggregates:
            column = None
            if aggregate.column is not None:
                resolver.resolve(aggregate.column)
                column = aggregate.column.name
            specs.append(
                AggregateSpec(aggregate.function, column, aggregate.alias)
            )
        group_by = []
        for column in statement.group_by:
            resolver.resolve(column)
            group_by.append(column.name)
        plain = {item.column.name for item in statement.items}
        if not plain <= set(group_by):
            raise SqlError(
                "plain select columns must appear in GROUP BY when "
                "aggregates are present"
            )
        return pn.AggregateNode(plan, tuple(specs), tuple(group_by))
    if statement.group_by:
        raise SqlError("GROUP BY without aggregates is unsupported")
    if statement.star:
        return plan
    columns = []
    output_names = []
    for item in statement.items:
        resolver.resolve(item.column)
        columns.append(item.column.name)
        output_names.append(item.alias or item.column.name)
    return pn.ProjectNode(plan, tuple(columns), tuple(output_names))


def _output_column(
    statement: ast.SelectStatement, resolver: _Resolver, column: ast.ColumnName
) -> str:
    """Resolve an ORDER BY column against the (possibly renamed) output."""
    if statement.aggregates:
        names = [a.alias or _default_agg_name(a) for a in statement.aggregates]
        names.extend(c.name for c in statement.group_by)
        if column.name in names:
            return column.name
        raise SqlError(
            f"ORDER BY column {column.name!r} is not in the aggregate output"
        )
    if statement.star:
        resolver.resolve(column)
        return column.name
    for item in statement.items:
        if (item.alias or item.column.name) == column.name:
            return item.alias or item.column.name
    raise SqlError(f"ORDER BY column {column.name!r} is not in the select list")


def _default_agg_name(aggregate: ast.Aggregate) -> str:
    if aggregate.column is None:
        return f"{aggregate.function}_all"
    return f"{aggregate.function}_{aggregate.column.name}"


def run_sql(sql: str, catalog: Catalog, **kwargs) -> list:
    """One-call convenience: translate and execute, returning rows."""
    return translate(sql, catalog, **kwargs).run(catalog)
