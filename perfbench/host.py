"""Host provenance, set-up timing, memory sampling and percentiles.

Everything here observes the program from outside: it reads ``/proc``,
launches processes and times them.  None of it touches a simulated
quantity.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.core import units

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up is measured this many times per run; the median is reported.
SETUP_SAMPLES = 5

#: A fresh interpreter imports what the simulation workloads use and
#: builds both testbeds, then says so.  This is the set-up a user of
#: ``repro run`` pays before the first simulated tick.
_READY_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import repro.experiments.registry, repro.runner, repro.sim.shard
from repro.testbeds import AmLightTestbed, ESnetTestbed
for tb in (ESnetTestbed(), AmLightTestbed(kernel="6.8")):
    tb.host_pair()
    tb.paths()
print("ready", flush=True)
"""


def now() -> float:
    """Host wall-clock seconds: the one clock every benchmark timing reads."""
    return time.perf_counter()  # repro: noqa-DET001 — measuring wall time is the point


def child_env() -> dict:
    """Environment for processes the benchmark starts: ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def time_ready(argv: list[str], timeout: float = 60.0) -> float:
    """Seconds from launching ``argv`` until it prints a line ``ready``."""
    start = now()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT
    )
    try:
        line = proc.stdout.readline()
        elapsed = now() - start
        proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line!r}, rc={proc.returncode}")
    return elapsed


def sim_setup_seconds() -> float:
    """Median cold set-up time of the simulation workloads."""
    argv = [sys.executable, "-c", _READY_CODE, str(SRC)]
    return statistics.median(time_ready(argv) for _ in range(SETUP_SAMPLES))


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Host and code identity stamped on every benchmark output."""
    import numpy

    from repro.runner.cache import source_digest

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "source_digest": source_digest(),
    }


# ----------------------------------------------------------------------
# Memory


def _children(pid: int) -> list[int]:
    kids: list[int] = []
    try:
        for task in Path(f"/proc/{pid}/task").iterdir():
            text = (task / "children").read_text()
            kids.extend(int(tok) for tok in text.split())
    except OSError:
        pass
    return kids


def _peak_kb(pid: int) -> int:
    """``VmHWM``: the kernel's record of the process's peak RSS."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def tree_peak_mb(root: int) -> float:
    """Summed peak RSS of ``root`` and its live descendants, in MiB.

    Read once, at the end of the measured work, so no sampler thread
    competes with the program for the interpreter lock.
    """
    total = 0
    stack = [root]
    while stack:
        pid = stack.pop()
        total += _peak_kb(pid)
        stack.extend(_children(pid))
    return units.to_mib(units.kib(total))
