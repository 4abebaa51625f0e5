"""Print the set-up time of one workload in this fresh process: from
``import tsslab`` until the seeded inputs exist.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
start = time.perf_counter()
import workloads  # noqa: E402  (imports tsslab)

workloads.inputs(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - start)
