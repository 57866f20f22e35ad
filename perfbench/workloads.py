"""Seeded operation lists for the three workloads.

The seed fixes every input, so two runs with one seed do identical work.
Inputs are stratified over the domain (m log-uniform on [0.05, 50], mean
SNR from -30 to 80 dB, all six orders): the seed draws a point inside
each stratum and the order of execution, so every seed covers the domain
the same way and the mix of cheap and costly operations does not change
between seeds.  No input is dropped for failing.
"""

from __future__ import annotations

import math
import random

ORDERS = (4, 16, 64, 256, 1024, 4096)
M_LO, M_HI = 0.05, 50.0
DB_LO, DB_HI = -30.0, 80.0
# the series workload's fixed dB grid: 18 points, 6.47 dB apart
SERIES_GRID = tuple(DB_LO + (DB_HI - DB_LO) * i / 17 for i in range(18))
# closed(N=5) fails most of a curve's points once m passes about 8, so
# whether the curve nearest that threshold lies above it moves ok_frac by
# one curve's share of the ops; 192 short curves keep that share at 0.3%
SERIES_CURVES = 192
ORACLE_M_BINS, ORACLE_DB_BINS = 36, 10
SELFTEST_GROUPS = ("lemma1", "lemma2", "lemma3", "reflection", "termination",
                   "sandwich")
ABER_METHODS = (("closed", "closed5"), ("lu", "lu"), ("oracle", "oracle"),
                ("expq", "expq"))

# seconds one pass takes with the pure-Python kernels on 2 vCPUs of a
# Xeon host; `passes` turns --seconds into a whole number of passes
PASS_SECONDS = {"series": 9.0, "oracle": 10.2, "cli": 24.0}
# runs of each subcommand per pass of cli: 6 x the
# successful invocations in tests/test_cli.py (12 aber, 7 sweep,
# 2 discrepancy, 1 bench, 2 selftest)
CLI_MIX = {"aber": 72, "sweep": 42, "discrepancy": 12, "bench": 6, "selftest": 12}


def passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def _m(rng: random.Random, k: int, bins: int) -> float:
    """m drawn log-uniformly inside bin k of `bins` over [M_LO, M_HI]."""
    return math.exp(math.log(M_LO) + (k + rng.random()) / bins
                    * math.log(M_HI / M_LO))


def _db(rng: random.Random, k: int, bins: int, lo: float = DB_LO,
        hi: float = DB_HI) -> float:
    return lo + (k + rng.random()) * (hi - lo) / bins


def series(seed: int) -> list[dict]:
    """192 (m, M) curves over the 18-point grid; one op is one grid point.

    32 groups of six m strata; each group gives every order one stratum,
    so every order spans the whole m range.
    """
    rng = random.Random(f"series:{seed}")
    ops = []
    for group in range(SERIES_CURVES // len(ORDERS)):
        for i, order in enumerate(rng.sample(ORDERS, len(ORDERS))):
            m = _m(rng, group * len(ORDERS) + i, SERIES_CURVES)
            ops.extend({"m": m, "M": order, "db": db} for db in SERIES_GRID)
    rng.shuffle(ops)
    return ops


def oracle(seed: int) -> list[dict]:
    """One independent (m, M, dB) draw in each of 6 x 36 x 10 strata."""
    rng = random.Random(f"oracle:{seed}")
    ops = [{"m": _m(rng, mb, ORACLE_M_BINS), "M": order,
            "db": _db(rng, db, ORACLE_DB_BINS)}
           for order in ORDERS for mb in range(ORACLE_M_BINS)
           for db in range(ORACLE_DB_BINS)]
    rng.shuffle(ops)
    return ops


def _int_db(rng: random.Random, k: int, bins: int, lo: float, hi: float) -> float:
    return float(math.floor(_db(rng, k, bins, lo, hi)))


def cli(seed: int) -> list[dict]:
    """The `python -m nakaber` invocations of one pass, in CLI_MIX's counts.

    `aber` cycles through the four methods; half the sweeps use the
    default method set and half closed,lu,expq, and half of each add
    --jobs 2; every `selftest --group` runs twice.  Slot k of a command
    takes m stratum k, a fixed stride through the dB strata and a fixed
    order, so every method meets every order; grids start on whole dB so
    their points are exact.
    """
    rng = random.Random(f"cli:{seed}")
    ops = []
    n = CLI_MIX["aber"]
    for k in range(n):
        method, route = ABER_METHODS[k % 4]
        m, order = _m(rng, k, n), ORDERS[(k // 4) % 6]
        db = _db(rng, (7 * k) % n, n)
        ops.append({"cmd": "aber", "route": route, "m": m, "M": order, "db": db,
                    "argv": ["aber", "--m", repr(m), "--mod", str(order),
                             f"--snr-db={db!r}", "--method", method]})
    n = CLI_MIX["sweep"]
    for k in range(n):
        m, order = _m(rng, k, n), ORDERS[(k // 2) % 6]
        start = _int_db(rng, (5 * k) % n, n, DB_LO, DB_HI - 20.0)
        methods = "closed,lu,oracle" if k % 2 == 0 else "closed,lu,expq"
        argv = ["sweep", "--m", repr(m), "--mod", str(order),
                f"--snr-db-range={start:g}:{start + 20.0:g}:2", "--no-timing"]
        if k % 2:
            argv += ["--method", methods]
        if (k // 2) % 2:
            argv += ["--jobs", "2"]
        ops.append({"cmd": "sweep", "m": m, "M": order,
                    "grid": [start + 2.0 * i for i in range(11)],
                    "methods": methods.split(","), "argv": argv})
    n = CLI_MIX["discrepancy"]
    for k in range(n):
        m, order = _m(rng, k, n), ORDERS[k % 6]
        start = _int_db(rng, (5 * k) % n, n, DB_LO, DB_HI - 20.0)
        ops.append({"cmd": "discrepancy", "m": m, "M": order,
                    "grid": [start + 4.0 * i for i in range(6)],
                    "methods": ["closed", "lu"],
                    "argv": ["discrepancy", "--m", repr(m), "--mod", str(order),
                             f"--snr-db-range={start:g}:{start + 20.0:g}:4"]})
    n = CLI_MIX["bench"]
    for k in range(n):
        m, order = _m(rng, k, n), ORDERS[k % 6]
        db = _int_db(rng, (5 * k) % n, n, DB_LO, DB_HI)
        ops.append({"cmd": "bench", "m": m, "M": order, "db": db,
                    "argv": ["bench", "--m", repr(m), "--mod", str(order),
                             f"--snr-db={db:g}", "--reps", "10"]})
    for k in range(CLI_MIX["selftest"]):
        group = SELFTEST_GROUPS[k % len(SELFTEST_GROUPS)]
        ops.append({"cmd": "selftest", "group": group,
                    "argv": ["selftest", "--group", group]})
    rng.shuffle(ops)
    return ops


def bench_points(seed: int) -> list[tuple[float, int, float]]:
    """(m, M, dB) points for the closed/oracle timing ratio: the point
    acceptance check 8 uses, then five seeded points, m and dB stratified
    over the whole domain."""
    rng = random.Random(f"bench:{seed}")
    return [(0.6, 256, 10.0)] + [
        (_m(rng, k, 5), ORDERS[k], _int_db(rng, (2 * k) % 5, 5, DB_LO, DB_HI))
        for k in range(5)]


def reference_points(ops: list[dict]) -> list[tuple[float, float, int]]:
    """Every (m, dB, M) point whose value some op's output carries."""
    points = set()
    for op in ops:
        if "grid" in op:
            points.update((op["m"], db, op["M"]) for db in op["grid"])
        elif "db" in op and op.get("cmd") != "bench":
            points.add((op["m"], op["db"], op["M"]))
    return sorted(points)


MAKERS = {"series": series, "oracle": oracle, "cli": cli}
