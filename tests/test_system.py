"""Tests for the XprsSystem facade."""

import pytest

from repro.errors import ReproError, SchemaError, UnknownRelationError
from repro.optimizer import ParallelCost, parallel_cost
from repro.sql import SqlError
from repro.system import XprsSystem

from .optimizer.corpus_tools import explain_system


@pytest.fixture
def system():
    return explain_system()


class TestDdl:
    def test_create_table_registers_and_analyzes(self, system):
        entry = system.catalog.table("emp")
        assert entry.stats.row_count == 200
        assert entry.heap.row_count == 200

    def test_create_index_and_usage(self, system):
        system.create_index("emp", "eid")
        from repro.plans import IndexScanNode
        from repro.sql import translate

        t = translate(
            "SELECT ename FROM emp WHERE eid BETWEEN 3 AND 4", system.catalog
        )
        assert any(isinstance(n, IndexScanNode) for n in t.plan.walk())

    def test_insert_maintains_index_and_rows(self, system):
        system.create_index("emp", "eid")
        system.insert("emp", [(500, 1, 2000, "late")])
        system.analyze("emp")
        rows = system.execute("SELECT ename FROM emp WHERE eid = 500")
        assert rows == [("late",)]

    def test_insert_indexes_the_rows_before_a_bad_row(self, system):
        system.create_index("emp", "eid")
        rows = [(600 + i, 1, 2000, f"r{i}") for i in range(5)]
        with pytest.raises(SchemaError, match="int4 requires an int"):
            system.insert("emp", rows[:3] + [("bad", 1, 2000, "x")] + rows[3:])
        entry = system.catalog.table("emp")
        assert entry.heap.row_count == 203
        index = entry.indexes["emp_eid_idx"].index
        stored = {row[0]: rid for rid, row in entry.heap.scan() if row[0] >= 600}
        assert sorted(stored) == [600, 601, 602]
        for key, rid in stored.items():
            assert list(index.range_scan(key, key)) == [(key, rid)]
        assert len(list(index.range_scan())) == 203

    def test_unknown_table(self, system):
        with pytest.raises(UnknownRelationError):
            system.insert("nope", [(1,)])


class TestExecute:
    def test_select(self, system):
        rows = system.execute("SELECT count(*) FROM emp")
        assert rows == [(200,)]

    def test_join(self, system):
        rows = system.execute(
            "SELECT dname, count(*) AS n FROM emp, dept "
            "WHERE dept = did GROUP BY dname ORDER BY dname"
        )
        assert len(rows) == 5
        assert all(n == 40 for __, n in rows)

    def test_bad_sql(self, system):
        with pytest.raises(SqlError):
            system.execute("SELECT FROM emp")

    def test_empty_sql(self, system):
        with pytest.raises(ReproError):
            system.execute("   ")


class TestExplain:
    def test_report_fields(self, system):
        report = system.explain(
            "SELECT count(*) FROM emp, dept WHERE dept = did"
        )
        assert report.predicted_elapsed > 0
        assert report.seqcost > report.predicted_elapsed  # parallel wins
        assert len(report.fragments) >= 2
        assert len(report.tasks) == len(report.fragments)

    def test_report_is_the_plans_parallel_cost(self, system):
        sql = "SELECT count(*) FROM emp, dept WHERE dept = did"
        report = system.explain(sql)
        assert isinstance(report, ParallelCost)
        assert report.sql == sql
        direct = parallel_cost(
            report.plan,
            system.catalog,
            machine=system.machine,
            policy=system.policy,
        )
        assert report.elapsed.hex() == direct.elapsed.hex()
        assert report.predicted_elapsed.hex() == direct.elapsed.hex()
        assert report.seqcost.hex() == direct.seqcost.hex()

    def test_pretty_renders_everything(self, system):
        report = system.explain("SELECT count(*) FROM emp")
        text = report.pretty()
        assert "Plan:" in text
        assert "Fragments:" in text
        assert "Predicted schedule:" in text

    def test_explain_matches_execute_semantics(self, system):
        sql = "SELECT count(*) FROM emp WHERE salary > 1200"
        report = system.explain(sql)
        rows = system.execute(sql)
        # estimate in the right ballpark of the actual count
        assert rows[0][0] == pytest.approx(
            report.estimate.by_node[report.plan.children[0].node_id].rows, rel=1.0
        )

    def test_left_deep_space_option(self):
        from repro.plans import is_left_deep

        system = XprsSystem(space="left-deep")
        system.create_table("t1", [("x1", "int4"), ("p1", "text")], [(1, "a")])
        system.create_table("t2", [("x2", "int4"), ("p2", "text")], [(1, "b")])
        system.create_table("t3", [("x3", "int4"), ("p3", "text")], [(1, "c")])
        report = system.explain(
            "SELECT count(*) FROM t1, t2, t3 WHERE x1 = x2 AND x2 = x3"
        )
        assert is_left_deep(report.plan.children[0])
