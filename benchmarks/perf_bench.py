"""Thin wrapper: the benchmark logic lives in :mod:`repro.perfbench`.

Preserved entry point so existing invocations keep working::

    PYTHONPATH=src python benchmarks/perf_bench.py --workers 4
    PYTHONPATH=src python benchmarks/perf_bench.py --micro-only
    PYTHONPATH=src python benchmarks/perf_bench.py --check-equality

The same captures are available through the CLI as ``repro bench run``
(plus ``compare`` / ``merge`` verbs).
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.perfbench import legacy_main  # noqa: E402

if __name__ == "__main__":
    sys.exit(legacy_main())
