"""Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# The benchmark measures the checkout it sits in, never an installed
# copy of the package: both paths go first on sys.path.
for path in (SRC, ROOT):
    if path in sys.path:
        sys.path.remove(path)
    sys.path.insert(0, path)

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no repro package under {SRC}; "
                         f"run from a full checkout\n")
        sys.exit(2)
    from perfbench.cli import main

    sys.exit(main(sys.argv[1:]))
