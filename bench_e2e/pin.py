"""Write ``pins.json``: the outputs every benchmark run is checked against.

Usage (from the root of a checkout)::

    python3 bench_e2e/pin.py

Runs every workload once per panel seed and records its store digest(s),
headline metrics and event/record counts.  Re-pin only for a change that
is meant to alter the program's output, and say so in that change: a
change that claims a speed-up must leave every pin as it is.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, OUTPUT_KEYS, RUN_DEADLINE_S, WORK_DIR, run_rep
from rep import WORKLOADS

#: seed 2 is the development seed; 3-5 are held out
PANEL = [2, 3, 4, 5]


def main() -> int:
    pins = {"panel": PANEL, "workloads": {}}
    for workload in WORKLOADS:
        pins["workloads"][workload] = {}
        for seed in PANEL:
            rep = run_rep(workload, seed, False, RUN_DEADLINE_S)
            shutil.rmtree(WORK_DIR, ignore_errors=True)
            if rep.record is None:
                print(f"{workload} seed {seed}: {rep.error}", file=sys.stderr)
                return 1
            pins["workloads"][workload][str(seed)] = {
                key: value for key, value in rep.record.items()
                if key in OUTPUT_KEYS}
            print(f"{workload} seed {seed}: {rep.wall_s:.2f} s", flush=True)
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1,
                                               sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
