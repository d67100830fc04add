"""Set-up of one in-process workload in a fresh interpreter.

``run.py`` spawns this to measure ``setup_s`` for ``sweep_corpus`` and
``simulate_grid`` the way a user pays it: interpreter start, imports,
input generation and calibration, from an empty cache directory.

    python3 perfbench/setup_child.py sweep_corpus 7
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import SRC, Tracer  # noqa: E402

sys.path.insert(0, SRC)


def main(argv) -> int:
    workload, seed = argv[0], int(argv[1])
    if workload == "sweep_corpus":
        import sweep

        sweep.prepare(seed, Tracer(False))
    elif workload == "simulate_grid":
        import simulate

        simulate.prepare(seed, Tracer(False))
    else:
        print("no in-process set-up for %r" % workload, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
