#!/usr/bin/env python3
"""Regenerates `pins.json`: the expected report of every input of the
pinned seeds (42, the default, and 2015, held out).

Run from the repository root, only when a change is meant to alter what
Rejecto detects:

    python3 perfbench/pin.py

Each input is detected once; an input whose report is partial or carries
runtime failures stops the script instead of being pinned.
"""

import json
import shutil
import sys
from pathlib import Path

import run

PINNED_SEEDS = (42, 2015)


def main():
    binary = run.build()
    if binary is None:
        return 2
    work = Path.cwd() / ".bench_work" / "pin"
    pins = {}
    try:
        for workload in run.WORKLOADS:
            for seed in PINNED_SEEDS:
                gen = run.run_json([str(binary), "gen", "--workload", workload,
                                    "--seed", str(seed), "--out", str(work / "inputs")])
                if gen is None:
                    return 1
                entries = []
                for inp in gen["instances"]:
                    rec = run.run_json([str(binary), "detect", "--workload", workload,
                                        "--input", inp["input"], "--work", str(work)])
                    if rec is None or not rec["complete"] or rec["failures"]:
                        run.log(f"{workload} seed {seed}: input {inp['seed']} did not detect cleanly")
                        return 1
                    entries.append({"seed": inp["seed"], "rjg_crc32": inp["rjg_crc32"],
                                    "digest": rec["digest"], "precision": rec["precision"],
                                    "recall": rec["recall"]})
                pins.setdefault(workload, {})[str(seed)] = entries
                run.log(f"pinned {workload} seed {seed}: {len(entries)} inputs")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.BENCH_DIR / "pins.json", "w", encoding="utf-8") as f:
        json.dump(pins, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
