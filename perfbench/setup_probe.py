"""One fresh process that imports drovar and builds a workload's inputs.

Prints the seconds from just before `import drovar` to the inputs being
built; run.py takes the median over several such processes as `setup_s`.
Usage: python3 setup_probe.py WORKLOAD SEED WORK_DIR
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import drovar  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
print(time.perf_counter() - t0)
