"""Set-up probe: a fresh interpreter imports the bridgelines CLI and builds one workload's inputs.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED  (prints the inputs' sha256)
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bridgelines import cli  # noqa: E402,F401  (the import chain a CLI user pays: numpy, scipy)

import workloads  # noqa: E402

print(workloads.digest(workloads.build_passes(sys.argv[1], int(sys.argv[2]))))
