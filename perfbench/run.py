"""Run one workload of the clinli benchmark and print its result.

    python3 perfbench/run.py --workload train-transformer --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
records the host, the generated input sizes and the sha256 digest of every
output artifact; it is also written under ``.perfbench/out/``, next to the
spans of a traced run.  The exit code is 0 only when every output check
passed.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

# one Python thread and one BLAS thread: set before numpy is first imported
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    # the benchmark measures the checkout it sits in, never an installed copy
    if not (SRC / "clinli" / "__init__.py").is_file():
        print(f"error: no clinli sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out_dir = ROOT / ".perfbench" / "out"
    work_dir = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        result, record = bench.measure(
            args.workload, args.seed, args.seconds, bool(args.trace), work_dir,
            spans_path=out_dir / f"{args.workload}.spans.tsv.gz" if args.trace else None,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    (out_dir / f"{stem}.json").write_text(json.dumps({"record": record, "result": result}, indent=1) + "\n")
    for error in record["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
