"""Entry point named by ``BENCHMARK.json``.

``python3 benchmarks/lakebench/run.py --workload W --seed N --seconds S --trace 0|1``
runs one workload once and prints the result object as the last line of
standard output.  The same script is what ``python -m benchmarks.lakebench
run|trace`` launches, one fresh process per run.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    # Make the package importable as ``lakebench`` from a bare checkout.  Kept
    # under the main guard: spawned pool workers re-import this file.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from lakebench.__main__ import single

    raise SystemExit(single(sys.argv[1:]))
