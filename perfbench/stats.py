"""Sample statistics and the machine record attached to every result."""
from __future__ import annotations

import math
import os
import platform
import statistics
import sys
import time

MIN_BEYOND = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# speed_probe() time on a 2-core Xeon VM at its quiet speed (Python 3.11,
# numpy 2.4)
PROBE_REF_S = 0.011


class TooFewSamples(ValueError):
    """A tail percentile was asked of too few samples to support it."""


def tail_percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile, refused unless ten samples lie beyond it.

    With n samples the nearest rank is k = ceil(q n / 100); the n - k
    samples above rank k are the ones beyond the percentile.
    """
    if not 0.0 < q < 100.0:
        raise ValueError("q must lie in (0, 100)")
    data = sorted(values)
    n = len(data)
    k = max(1, math.ceil(q * n / 100.0))
    if n - k < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} needs {MIN_BEYOND} samples beyond it; "
            f"{n} samples leave {n - k}")
    return data[k - 1]


def speed_probe() -> float:
    """Wall time of a fixed mix of pure-Python and numpy work, about 15 ms.

    Shared machines run the same code up to 2x slower for seconds or
    minutes at a time.  Timing this probe next to each measurement and
    scaling by PROBE_REF_S / probe expresses the measurement in seconds
    of a machine at its quiet speed.  The mix matches lglab's: a Python
    float loop, numpy calls on small arrays, and passes over a large one.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(40_000):
        acc += math.sqrt(i * 0.5 + 1.0)
    b = np.arange(3000.0)
    for _ in range(300):
        b = np.minimum(b, b[::-1]) + 1.0
    a = np.linspace(0.0, 1.0, 100_000)
    for _ in range(10):
        a = np.sqrt(a * 1.0001 + 1.0)
    return time.perf_counter() - t0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_record() -> dict:
    import numpy
    import scipy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v, "") for v in THREAD_VARS},
        # comparing it between result files compares the machines
        "calibration_s": statistics.median(speed_probe() for _ in range(9)),
    }
