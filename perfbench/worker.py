"""One benchmark pass in a fresh interpreter, started by run.py.

    python -I perfbench/worker.py SRC WORKLOAD TRACE INPUTS

SRC is the package's source directory, WORKLOAD one of sweep, large_n
or series, TRACE 0 or 1, INPUTS a comma-separated list (n_max for
sweep, the n values for large_n, the tolerances for series).

The worker times ``import catalan_integrals.cli`` before it imports
anything else, so the import pays the same cold start as a CLI call.
Then it runs the pass (see passes.py) and prints one JSON line.
"""

import sys
import time


def main() -> None:
    src, workload, traced, inputs = sys.argv[1:5]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    __import__("catalan_integrals.cli")
    setup_s = time.perf_counter() - t0

    import json
    import os

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import passes

    record = passes.run(workload, traced == "1", inputs)
    record["setup_s"] = setup_s
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
