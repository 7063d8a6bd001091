"""The command line, as ``python -m clinli`` and as the ``clinli`` script."""

import os
import sys


def main() -> int:
    # one BLAS thread unless the environment names a count, set before numpy
    # loads: each product then sums in one order, so output bytes repeat
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    from .cli import main as run

    return run()


if __name__ == "__main__":
    sys.exit(main())
