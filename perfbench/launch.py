"""Traced stand-in for the `orbirr` console script.

    PERFBENCH_TRACE=out.json python3 perfbench/launch.py chartable --group ...

Imports `orbirr.cli`, installs the span wrappers, calls `orbirr.cli.main`
with the remaining arguments and exits with its code.  Writes the spans, the
process counters and the import time of `orbirr.cli` to $PERFBENCH_TRACE.
"""

import json
import os
import sys
import time

_t0 = time.perf_counter()
import orbirr.cli  # noqa: E402

STARTUP_S = time.perf_counter() - _t0

import spans  # noqa: E402


def main() -> int:
    rec = spans.Recorder()
    spans.install(rec)
    try:
        return orbirr.cli.main(sys.argv[1:])
    finally:
        with open(os.environ["PERFBENCH_TRACE"], "w") as fh:
            json.dump({"startup_s": STARTUP_S, "counters": rec.counters(),
                       "spans": rec.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
