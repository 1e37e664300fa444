"""Benchmark entry point.

    python3 perfbench/run.py --workload fo_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a modalkit checkout.  ``--trace 0`` measures the
end-to-end metrics, ``--trace 1`` the per-layer ones; see ``bench.py``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the same names as perfbench.workloads.WORKLOADS, which cannot be imported
# before the checkout is known to hold modalkit
WORKLOADS = ("fo_sweep", "prop_search", "cli_mix")
HASH_SEED = "0"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import, generate inputs and warm up, then exit "
                        "(timed by the parent run as setup_s)")
    args = p.parse_args()
    if not (ROOT / "src" / "modalkit" / "__init__.py").is_file():
        print(f"error: no modalkit sources under {ROOT / 'src'}; run from a "
              f"full checkout", file=sys.stderr)
        return 2
    # One string-hash seed for this run and every interpreter it starts:
    # the library's sets of world names iterate in hash order, and the
    # median axiom_report on the same frames took 0.57 ms under one hash
    # seed and 0.94 ms under another, which would read as noise between
    # runs.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    # Import the package as perfbench.*, never the script directory's
    # modules as top-level names.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench
    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())
