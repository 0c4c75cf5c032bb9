"""Standalone driver for the orphaned-worker test.

Run as ``python _orphan_driver.py``: starts a 2-worker ``run_units`` whose
two units each return their worker's pid.  Once both results are in it
prints the two pids on one line and blocks inside ``stop_when``, with
both workers idle on their task pipes, until the test SIGKILLs it.
"""

import os
import sys
import time

from repro.orchestrate import WorkUnit, register_kind, run_units


def _worker_pid(payload):
    return os.getpid()


def main() -> int:
    register_kind("orphan-test-pid", _worker_pid)
    units = [WorkUnit("orphan-test-pid", f"p{i}", {"i": i}) for i in range(2)]
    pids = []

    def stop_when(result):
        pids.append(result.value)
        if len(pids) == len(units):
            print(" ".join(str(pid) for pid in pids), flush=True)
            time.sleep(600)
        return False

    run_units(units, workers=2, stop_when=stop_when)
    return 0


if __name__ == "__main__":
    sys.exit(main())
