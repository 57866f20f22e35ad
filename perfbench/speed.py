"""Fixed probes of the host's current speed.

On the shared host this benchmark was built on, pure-Python code runs up
to 25% slower for seconds at a time, and CPU time slows with wall time,
so neither clock gives steady figures.  Timing a fixed probe next to the
operations and scaling their times by reference / probe turns them into
times at one fixed host speed.

`probe` does the same kind of work as nakaber's pure kernels (a loop of
float arithmetic and math calls) and scales work done inside one
interpreter: in a 60 s trial the spread of 0.75 s windows fell from 22%
raw to 7% scaled.  `spawn_probe` starts a bare interpreter and scales
work that starts processes (set-up time and the cli workload), where
process creation, not Python bytecode, sets the pace.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from time import perf_counter

# typical probe times on 2 vCPUs of the Xeon host the benchmark was tuned
# on; scaled times read as times at that host's typical speed
REFERENCE_S = 0.00072
REFERENCE_SPAWN_S = 0.040


def probe() -> float:
    """Seconds the fixed probe took just now."""
    t0 = perf_counter()
    s = 0.0
    for i in range(1, 4001):
        x = i * 1e-3
        s += math.exp(-x) * math.log1p(x) + math.sqrt(x)
    seconds = perf_counter() - t0
    if not s > 0.0:
        raise RuntimeError("speed probe computed nonsense")
    return seconds


def spawn_probe(env: dict | None = None) -> float:
    """Seconds a bare `python -c pass` took to start and exit just now
    (the faster of two tries)."""
    times = []
    for _ in range(2):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        times.append(perf_counter() - t0)
    return min(times)


def factor(before: float, after: float, reference: float = REFERENCE_S) -> float:
    """Scale factor for work timed between two probes: the faster one, so
    a probe hit by an interrupt does not skew it."""
    return reference / min(before, after)


def mean_factor(probes: list[float], reference: float) -> float:
    """Scale factor from the mean of several probes around the work.

    One bare process start is a noisy measure of how fast the processes
    around it run.  Over eight cli runs, scaling each op by the mean of
    the probes within two segments (about 5 s) either side of it spread
    op_p50_ms by 5% and the timed window by 2.4%; the faster of the two
    probes next to the op gave 7.5% and 4.1%, no scaling 4.1% and 6.5%.
    """
    return reference / statistics.fmean(probes)
