"""A SIGKILLed ``run_units`` parent leaves no worker process behind.

The parent cannot clean up after SIGKILL, so each worker must notice on
its own that its parent is gone, also while it idles between units.
"""

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_DRIVER = Path(__file__).with_name("_orphan_driver.py")


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie has already exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads process state from /proc")
def test_idle_workers_exit_when_the_parent_is_killed():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen([sys.executable, str(_DRIVER)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    pids = []
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 60.0)
        assert ready, "driver never reported its worker pids"
        line = proc.stdout.readline().decode()
        pids = [int(word) for word in line.split()]
        assert len(set(pids)) == 2, line
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(map(_alive, pids)):
            time.sleep(0.05)
        assert not [pid for pid in pids if _alive(pid)], (
            "worker processes outlived their SIGKILLed parent")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
