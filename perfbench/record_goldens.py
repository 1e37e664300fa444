"""Record the golden output digests that the oracle byte-compares against.

    PYTHONPATH=src python3 -m perfbench.record_goldens

Every output is first checked by the rest of the oracle (theory and
replay); a wrong one stops the recording.  Run it only at a commit whose
outputs are known good: it overwrites perfbench/goldens.json.
"""

from __future__ import annotations

import json
import sys

from . import gen, oracle, workloads
from .bench import WORK

GOLDEN_SEEDS = tuple(range(11)) + (gen.VALIDATION_SEED,)


def main() -> int:
    goldens: dict[str, str] = {}
    for name in workloads.WORKLOADS:
        for seed in GOLDEN_SEEDS:
            wl = workloads.build(name, seed, WORK / f"goldens-{name}-{seed}",
                                 {})
            for job in wl.jobs:
                if job.golden is None or oracle.digest(job.golden) in goldens:
                    continue
                try:
                    result = job.call()
                except RecursionError:
                    continue  # a known defect: nothing to record
                problem = job.check(result)
                if problem:
                    print(f"{job.name}: {problem}", file=sys.stderr)
                    return 1
                goldens[oracle.digest(job.golden)] = oracle.digest(
                    job.canonical(result))
            print(f"{name} seed {seed}: {len(goldens)} goldens", flush=True)
    oracle.GOLDENS_PATH.write_text(
        json.dumps(dict(sorted(goldens.items())), indent=0) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
