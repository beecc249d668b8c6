"""The environment record written next to every set of numbers.

Orio's experiment notes are the template: every row names machine,
compiler, flags and variant, so a noisy or foreign run is recognisable
from its own output.  Nothing heavy is imported at module level.
"""

import os
import platform
import subprocess
import sys


def _first_line(cmd):
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = (proc.stdout or proc.stderr).splitlines()
    return lines[0] if lines else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def loadavg():
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def git_sha(root):
    """The checkout's commit, or ``None`` (the driver's checkout is not
    a git repository)."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    return _first_line(["git", "-C", root, "rev-parse", "HEAD"])


def calibration_unit():
    """A fixed piece of pure-Python work (about a millisecond).

    The worker runs it once after every measured pass, so its samples
    cover exactly the window the ops were timed in.  This host's speed
    drifts by 15-20 % over minutes, uniformly for everything running on
    it; dividing by a low quantile of these samples takes the drift out
    (``op_loops_min``; the 10th percentile, because the minimum itself
    catches rare fast moments that no millisecond-long op can use).
    The median says how disturbed the run was.
    """
    acc = 0
    for i in range(20000):
        acc += i * i & 1023
    return acc


def collect(root, pinned_cpu, allowed_cpus):
    """Static facts about the host, toolchain and checkout."""
    import numpy

    from repro.native import find_compiler

    try:
        import cffi
    except ImportError:  # the native tier then reports itself unavailable
        cffi = None

    cc = find_compiler()
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "allowed_cpus": sorted(allowed_cpus),
        "pinned_cpu": pinned_cpu,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cffi": cffi.__version__ if cffi else None,
        "cc": cc,
        "cc_version": _first_line([cc, "--version"]) if cc else None,
        # the native tier's flags (repro.native.cache.KernelCache.build)
        "native_flags": "-O2 -fPIC -shared -fno-fast-math "
                        "-ffp-contract=off -fno-math-errno -lm",
        "threads_env": {name: os.environ.get(name) for name in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "PYTHONHASHSEED")},
        "git_sha": git_sha(root),
    }
