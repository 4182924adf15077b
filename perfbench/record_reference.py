#!/usr/bin/env python3
"""Record the orphan counts the benchmark checks repetitions against.

Run from the root of a source checkout whose outputs are known good::

    python3 perfbench/record_reference.py

It runs one repetition of each case on ``sim`` and writes
``perfbench/reference.json``.  The off-body scenarios depend on the
seed, so their counts are recorded per seed for ``SEEDS``; a run with
a seed outside that range checks off-body orphans only against its
own first repetition.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

SEEDS = range(64)


def main() -> int:
    run.load_program()
    import workloads as wl

    orphans = {
        "store": wl.WORKLOADS["store-sim"].runner(0, None, None).orphans,
        "airfoil": wl._overflow_rep("airfoil", "sim", None).orphans,
        "offbody": {
            str(seed): wl.WORKLOADS["offbody-sim"].runner(seed, None, None).orphans
            for seed in SEEDS
        },
    }
    path = Path(__file__).parent / "reference.json"
    path.write_text(json.dumps({"orphans": orphans}, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
