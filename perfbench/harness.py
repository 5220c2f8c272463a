"""Shared plumbing for the workloads: timing loop, statistics, checks, stamps.

Everything here is benchmark-side; the program under test is only ever
reached through ``repro``'s public entry points from the workload modules.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Host probes taken right before each timed unit.
PROBES_PER_UNIT = 3

#: Median seconds of ``host_probe`` on the reference host (2-vCPU Xeon
#: VM, Python 3.11, numpy 2): the speed end-to-end times are scaled to.
PROBE_REF_S = 0.018

_PROBE_ARRAY = np.linspace(0.0, 1.0, 256 * 256 * 3).reshape(256, 256, 3)
_PROBE_BYTES = bytes(8 << 20)


def host_probe() -> float:
    """Seconds one fixed piece of benchmark-owned work takes right now.

    It mixes what the workloads spend their time on: interpreted Python,
    float64 array arithmetic on a frame-sized array, and a memory copy.
    No ``repro`` code runs in it, so no change to the program moves it.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(40_000):
        table[i % 977] = table.get(i % 977, 0) + i * 3
    x = _PROBE_ARRAY
    for _ in range(6):
        x = np.sqrt(x * 1.0001 + 0.5)
    for _ in range(4):
        bytearray(_PROBE_BYTES)
    return time.perf_counter() - start


class HostClock:
    """Timed units, each with the host's speed right before it.

    The benchmark's host is a VM on shared hardware whose speed drifts
    by tens of percent within a minute.  Over ten runs of each workload,
    the spread (IQR/median) of the median unit time was 0.20 for 24-client
    fleet passes, 0.20 for exact-engine runs and 0.11 for cohort-engine
    runs; the median of each unit's time over the median of the probes
    right before it spread 0.04, 0.05 and 0.06.  So every CPU-bound unit
    runs right after ``PROBES_PER_UNIT`` probes, and end-to-end times
    report that median ratio in reference-host seconds.  Raw times are
    printed by name, next to the run's slowdown against the reference host.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        #: unit kind -> [(unit seconds, median probe seconds right before it)]
        self.units: dict[str, list[tuple[float, float]]] = {}

    def probe(self, n: int = PROBES_PER_UNIT) -> float:
        """Probe ``n`` times; return the median, the host's speed now."""
        taken = [host_probe() for _ in range(n)]
        self.probes.extend(taken)
        return statistics.median(taken)

    def time(self, kind: str, fn, *args, **kwargs):
        """Probe, then run ``fn`` as one timed unit of ``kind``; return its result."""
        speed = self.probe()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.units.setdefault(kind, []).append((time.perf_counter() - start, speed))
        return result

    def raw(self, kind: str) -> list[float]:
        """Wall seconds of every ``kind`` unit, in order."""
        return [seconds for seconds, _ in self.units[kind]]

    def scaled(self, kind: str) -> float:
        """Median ``kind`` unit time, in reference-host seconds."""
        ratios = [seconds / speed for seconds, speed in self.units[kind]]
        return statistics.median(ratios) * PROBE_REF_S

    @property
    def slowdown(self) -> float:
        """How much slower than the reference host this run's probes ran."""
        return statistics.median(self.probes) / PROBE_REF_S


@dataclass
class Outcome:
    """What one workload run produced, before it is printed.

    ``end_to_end`` holds the generic end-to-end metrics, ``named``
    the workload's path-specific figures (printed, stored, and never
    gated), ``layers`` the per-layer figures a traced run derives from
    its spans, ``stats`` the simulated statistics that must repeat
    exactly between runs of one seed, traced or not, and ``host`` the
    run's timed units with the host's speed before each.
    """

    end_to_end: dict[str, float] = field(default_factory=dict)
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    stats: dict[str, float] = field(default_factory=dict)
    host: HostClock = field(default_factory=HostClock)
    attempted: int = 0
    failed: int = 0
    traced_passes: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def check(self, ok: bool, what: str) -> bool:
        """Record one correctness check; a failed one is a failed operation."""
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def timed_setup(build, host: HostClock, reps: int = SETUP_REPS):
    """Run ``build()`` ``reps`` times as ``setup`` units; return the last result."""
    result = None
    for _ in range(reps):
        result = host.time("setup", build)
    return result


def run_passes(seconds: float, one_pass, min_passes: int = 1) -> list[float]:
    """Call ``one_pass(index)`` until the next pass would overrun ``seconds``.

    At least ``min_passes`` passes run.  Returns each pass's wall time.
    """
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        one_pass(len(durations))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(durations) >= min_passes and elapsed + statistics.median(durations) > seconds:
            return durations


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100]); ``inf`` entries allowed."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set size of this process (plus its largest child)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def code_fingerprint(*directories: str) -> str:
    """SHA-256 over every ``.py`` file below ``directories``, in path order."""
    digest = hashlib.sha256()
    for directory in directories:
        for dirpath, dirnames, filenames in os.walk(directory):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, directory).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unavailable"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment_stamp() -> dict[str, str]:
    """Versions, CPU and the kernel settings the live workload depends on."""
    import numpy
    import scipy

    stamp = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": str(os.cpu_count()),
        "cpu": _cpu_model(),
        "net.ipv4.tcp_rmem": _read("/proc/sys/net/ipv4/tcp_rmem"),
        "net.core.wmem_max": _read("/proc/sys/net/core/wmem_max"),
    }
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        stamp[name] = os.environ.get(name, "unset")
    return stamp
