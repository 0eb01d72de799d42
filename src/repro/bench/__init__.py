"""Benchmark harness: experiment runners, calibration and formatting."""

from .calibration import (
    CalibrationResult,
    ScanMeasurement,
    calibrate,
    measure_disk_regimes,
    measure_scan,
)
from .figures import Figure3Data, Figure4Data, figure3, figure4
from .gantt import render_gantt
from .harness import (
    Figure7Cell,
    Figure7Result,
    POLICY_NAMES,
    make_policies,
    run_figure7,
)
from .report import format_bar_chart, format_table

__all__ = [
    "CalibrationResult",
    "Figure3Data",
    "Figure4Data",
    "Figure7Cell",
    "Figure7Result",
    "POLICY_NAMES",
    "ScanMeasurement",
    "calibrate",
    "figure3",
    "figure4",
    "format_bar_chart",
    "format_table",
    "make_policies",
    "measure_disk_regimes",
    "measure_scan",
    "render_gantt",
    "run_figure7",
]
