"""Run the fimlab benchmark from the root of a checkout.

    python3 perfbench/run.py --workload blobs_mlp --seed 0 --seconds 20 --trace 0

Pins the BLAS thread count before numpy loads, then imports fimlab from the
checkout's own `src/` (never an installed copy) and hands over to bench.py.
"""

import os
import sys
from pathlib import Path

BLAS_THREADS = "1"  # one thread times steadier on small shared VMs; recorded in every result


def main() -> int:
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    if not (src / "fimlab" / "__init__.py").is_file():
        print(f"perfbench: no fimlab sources under {src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(src), str(here)]
    import bench

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
