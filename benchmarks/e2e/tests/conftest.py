"""Harness unit tests: ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q``.

Outside tier-1's ``testpaths``; they test the benchmark, not the program.
"""

import sys
from pathlib import Path

HARNESS = str(Path(__file__).resolve().parents[1])
if HARNESS not in sys.path:
    sys.path.insert(0, HARNESS)
