#!/usr/bin/env python3
"""Record the expected output digests and identity counts of every workload.

    python3 perfbench/pin.py

Runs one untraced pass of each workload and writes perfbench/expected.json.
Run it only on code whose results are known to be right: the benchmark
counts every later difference from these digests as a failed operation.
"""

import json
import os
import shutil
import sys

import run as bench


def main() -> None:
    expected = {}
    workdir = bench.ROOT / ".perfbench" / f"pin-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for workload in bench.WORKLOADS:
            p = bench.Run(workload, 0, workdir / workload).run_pass(False)
            bad = [op for op in p.ops if op[3] or op[5]]
            if p.error or bad:
                sys.exit(f"{workload}: refusing to pin a failing pass: "
                         f"{p.error or bad[:3]}")
            expected[workload] = {
                "verified": sum(op[2] for op in p.ops),
                "ops": {op[0]: op[4] for op in sorted(p.ops)},
            }
            print(f"{workload}: {len(p.ops)} operations, "
                  f"{expected[workload]['verified']} identities")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = bench.HERE / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
