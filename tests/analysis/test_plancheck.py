"""Plan-contract rules (PC*): fixture rules and the shipped operators."""

from pathlib import Path

from repro.analysis import plancheck
from repro.analysis.__main__ import check_paths

FIXTURES = Path(__file__).parent / "fixtures"


def test_fixture_reports_every_pc_rule():
    violations = check_paths(
        [str(FIXTURES / "bad_plan_contract.py")], select=["PC"]
    )
    assert {"PC001", "PC002", "PC003", "PC004", "PC005"} == {
        v.rule for v in violations
    }
    by_rule = {v.rule: v for v in violations}
    assert "UndeclaredExec" in by_rule["PC001"].message
    assert "LyingNarrowExec" in by_rule["PC002"].message
    assert "'driver'" in by_rule["PC002"].message
    assert "WastedPlacementExec" in by_rule["PC005"].message


def test_every_shipped_operator_declares_partitioning():
    from repro.core import physical as core_physical
    from repro.sql import physical as sql_physical
    from repro.sql.physical import PhysicalPlan

    operators = [
        cls
        for module in (sql_physical, core_physical)
        for cls in vars(module).values()
        if isinstance(cls, type)
        and issubclass(cls, PhysicalPlan)
        and cls is not PhysicalPlan
    ]
    assert len(operators) >= 15
    for cls in operators:
        assert getattr(cls, "PARTITIONING", None) in plancheck.PLACEMENTS, cls


def test_abstract_base_is_skipped(tmp_path):
    path = tmp_path / "plans.py"
    path.write_text(
        """
class PhysicalPlan:
    def execute(self):
        raise NotImplementedError


class StillAbstract(PhysicalPlan):
    \"\"\"No concrete execute -> not an operator yet.\"\"\"

    def execute(self):
        raise NotImplementedError
""",
        encoding="utf-8",
    )
    assert check_paths([str(path)], select=["PC"]) == []


def test_allow_with_reason_suppresses_a_pc_finding(tmp_path):
    path = tmp_path / "plans.py"
    path.write_text(
        """
class PhysicalPlan:
    def execute(self):
        raise NotImplementedError


class Bare(PhysicalPlan):  # lint: allow[PC001]
    def execute(self):
        return []


class Justified(PhysicalPlan):  # lint: allow[PC001] -- test double, never planned
    def execute(self):
        return []
""",
        encoding="utf-8",
    )
    found = check_paths([str(path)], select=["PC"])
    assert [(v.rule, v.line) for v in found] == [("PC001", 7)]
