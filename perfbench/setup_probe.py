"""Time one fresh interpreter's set-up for a workload and print it in seconds.

Set-up is the import of cellbranch plus the construction of every law,
environment and config the workload uses (``workloads.build``).  ``run.py``
starts this script several times per run and reports the median.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir> <small 0|1>
"""

import time

_started = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), small=sys.argv[4] == "1")
print(repr(time.perf_counter() - _started))
