"""Re-pin the simulation digests in pins.json at the default seed.

Runs each simulating workload once, in a fresh interpreter, and writes the
digest of its simulation output: the montecarlo p_hat columns, and the
confidence centre keyed by n_alpha. Run it from the root of a checkout,
only in a change that alters simulation bits on purpose, and log the
re-pin in CHANGES.md:
    python3 perfbench/repin.py
"""

import json
import os
import shutil
import sys
import time
from pathlib import Path

from run import DEADLINE_S, HERE, Children
from workloads import DEFAULT_SEED, prepare

PINNED = ("mc_reference", "mc_affine_d8", "confidence_long")


def main():
    root = Path.cwd().resolve()
    work = HERE / ".work" / f"repin-{os.getpid()}"
    work.mkdir(parents=True)
    pins = {}
    try:
        for workload in PINNED:
            spec = prepare(workload, DEFAULT_SEED, work, root)
            spec["out"] = str(work / "out")
            children = Children(root, work, time.monotonic() + DEADLINE_S)
            result, reason = children.run(spec)
            if result is None:
                sys.exit(f"{workload}: {reason}")
            op = result["ops"][0]
            if op["failed"]:
                sys.exit(f"{workload}: output check failed: {op['errors']}")
            if workload == "confidence_long":
                pins[workload] = {str(op["n_alpha"]): op["sim_digest"]}
            else:
                pins[workload] = op["sim_digest"]
            print(f"{workload}: {pins[workload]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "pins.json").write_text(json.dumps(pins, indent=2) + "\n",
                                    encoding="utf-8")
    print(f"wrote {HERE / 'pins.json'}")


if __name__ == "__main__":
    main()
