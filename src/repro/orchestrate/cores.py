"""Usable-core detection for worker sizing and benchmark host stamps.

``os.cpu_count()`` reports the machine, not the budget this process may
actually use: a container can be pinned to a CPU subset (sched affinity)
or throttled by a cgroup CPU quota while still "seeing" every core.
Sizing a pool, or stamping a timing with the cores it ran on, from
``cpu_count`` therefore overcounts on CI runners.  The detection here
takes the minimum of:

* the scheduler affinity mask (``os.sched_getaffinity``), and
* the cgroup CPU quota (v2 ``cpu.max``, v1 ``cfs_quota_us`` /
  ``cfs_period_us``), rounded up — a 350% quota supports 4 busy workers.
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import Optional

_CGROUP_V2_MAX = "/sys/fs/cgroup/cpu.max"
_CGROUP_V1_QUOTA = "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"
_CGROUP_V1_PERIOD = "/sys/fs/cgroup/cpu/cpu.cfs_period_us"


def _read_int(path: str) -> Optional[int]:
    try:
        return int(Path(path).read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def cgroup_cpu_quota(
    v2_max: str = _CGROUP_V2_MAX,
    v1_quota: str = _CGROUP_V1_QUOTA,
    v1_period: str = _CGROUP_V1_PERIOD,
) -> Optional[int]:
    """Cores allowed by the cgroup CPU quota, rounded up; ``None`` if
    unlimited or not in a constrained cgroup."""
    try:
        parts = Path(v2_max).read_text().split()
    except OSError:
        parts = []
    if len(parts) >= 2 and parts[0] != "max":
        try:
            quota, period = int(parts[0]), int(parts[1])
        except ValueError:
            quota, period = 0, 0
        if quota > 0 and period > 0:
            return max(1, math.ceil(quota / period))
    quota = _read_int(v1_quota)
    period = _read_int(v1_period)
    if quota is not None and period is not None and quota > 0 and period > 0:
        return max(1, math.ceil(quota / period))
    return None


def usable_cores() -> int:
    """Cores this process can actually keep busy.

    ``min(affinity mask, cgroup quota)``, falling back to
    ``os.cpu_count()`` where a source is unavailable.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cores = os.cpu_count() or 1
    quota = cgroup_cpu_quota()
    if quota is not None:
        cores = min(cores, quota)
    return max(1, cores)
