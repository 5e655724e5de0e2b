"""Set-up of one workload, run in a fresh interpreter and timed from outside.

Usage: python3 setup_probe.py <workload> <seed> <src dir> <work dir>

Imports ``wnilab``, generates and parses the workload's configs and builds
the transforms and test-function families they name.
"""

import sys
from pathlib import Path


def main() -> None:
    workload, seed, src, work = sys.argv[1], int(sys.argv[2]), sys.argv[3], Path(sys.argv[4])
    sys.path.insert(0, src)
    import wnilab.cli  # noqa: F401

    import workloads

    workloads.parse(workloads.generate(workload, seed, work))


if __name__ == "__main__":
    main()
