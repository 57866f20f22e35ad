"""Sweep, discrepancy, timing, and self-check engines behind the CLI.

Grid sweeps may fan out over a thread pool; result rows are assembled
in sorted order regardless of completion order, so CSV output is
deterministic.  Timing runs stay single-threaded to keep the measured
ratios meaningful.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Iterable, NamedTuple, Sequence

from . import _backend, quad, specfun
from . import aber as aber_mod
from .aber import AberMethod, TruncationPolicy
from .channel import ChannelParams, Modulation, db_to_linear, fading_average
from .quad import QuadratureSpec

__all__ = [
    "BenchRow",
    "CheckResult",
    "DiscrepancyRow",
    "SweepRow",
    "db_grid",
    "db_to_linear",
    "run_bench",
    "run_discrepancy",
    "run_selftest",
    "run_sweep",
    "selftest_groups",
]


def db_grid(start: float, stop: float, step: float) -> list[float]:
    """start, start + step, ... up to and including stop.

    The one rule for a dB grid: finite bounds, start < stop, step > 0 and
    at most 100,000 points.  A broken rule raises ValueError naming it,
    before any point is built.
    """
    grid = f"{start:g}:{stop:g}:{step:g}"
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError(f"wants finite start:stop:step, got {grid}")
    if not start < stop:
        raise ValueError(f"wants start < stop and step > 0, got {grid} "
                         "(start is not below stop)")
    if not step > 0.0:
        raise ValueError(f"wants start < stop and step > 0, got {grid} "
                         "(step is not positive)")
    # the epsilon absorbs accumulated binary-step error so the stop
    # point itself is kept
    steps = (stop - start) / step + 1e-9
    if not steps < 100_000:
        raise ValueError(f"wants at most 100000 points, got {grid} "
                         "(more than 100000 points)")
    return [start + i * step for i in range(int(math.floor(steps)) + 1)]


class SweepRow(NamedTuple):
    snr_db: float
    method: str
    value: float
    terms: int
    wall_time_ns: int


class DiscrepancyRow(NamedTuple):
    snr_db: float
    candidate_method: str
    epsilon_db: float


class BenchRow(NamedTuple):
    snr_db: float
    n_terms: int
    t_closed_ns: int
    t_oracle_ns: int
    epsilon_t: float


class CheckResult(NamedTuple):
    group: str
    name: str
    passed: bool
    detail: str


# the pool's ceiling, so that outside input cannot decide how many OS
# threads start (a grid may hold 100,000 points x 4 methods)
_MAX_JOBS = 64


def _map_tasks(fn: Callable, tasks: Sequence, jobs: int) -> list:
    if not 1 <= jobs <= _MAX_JOBS:
        raise ValueError(f"jobs must lie in [1, {_MAX_JOBS}], got {jobs}")
    if jobs > 1:
        # imported here, like statistics and random below: each of
        # sweep, discrepancy, bench and selftest imports this module and
        # needs at most one of them
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _require_methods(methods: Sequence[AberMethod]) -> None:
    if not methods:
        raise ValueError("a grid run needs at least one method")


# the routes whose values must be probabilities; lu and expq average an
# approximate BER, which exceeds 1 at low mean SNR for wide constellations
_RANGE_CHECKED = ("closed_form", "oracle")


def run_sweep(m: float, order: int, snr_dbs: Sequence[float],
              methods: Sequence[AberMethod], jobs: int = 1) -> list[SweepRow]:
    """Evaluate every method at every grid point.

    Rows come back sorted by (snr_db, method label); wall times are
    per-evaluation and vary run to run, everything else is
    deterministic.  A closed-form or oracle value outside [0, 1] raises
    ValueError; lu and expq values are kept as they are.
    """
    _require_methods(methods)
    mod = Modulation(order)

    def run_one(task: tuple[float, AberMethod]) -> SweepRow:
        snr_db, method = task
        ch = ChannelParams(m, db_to_linear(snr_db))
        t0 = time.perf_counter_ns()
        mv = method.evaluate(ch, mod)
        elapsed = time.perf_counter_ns() - t0
        if method.tag in _RANGE_CHECKED and not 0.0 <= mv.value <= 1.0:
            raise ValueError(f"method {method.label()} produced a value "
                             f"outside [0, 1] at {snr_db} dB: {mv.value}")
        return SweepRow(snr_db, method.label(), mv.value, mv.terms, elapsed)

    tasks = [(snr_db, meth) for snr_db in snr_dbs for meth in methods]
    rows = _map_tasks(run_one, tasks, jobs)
    rows.sort(key=lambda r: (r.snr_db, r.method))
    return rows


def run_discrepancy(m: float, order: int, snr_dbs: Sequence[float],
                    methods: Sequence[AberMethod],
                    oracle_spec: QuadratureSpec | None = None,
                    jobs: int = 1) -> list[DiscrepancyRow]:
    """Per grid point: reference oracle (exact kernel) vs each method.

    The reference is always the exact-kernel quadrature; the methods
    are the candidates.
    """
    _require_methods(methods)
    mod = Modulation(order)

    def run_point(snr_db: float) -> list[DiscrepancyRow]:
        ch = ChannelParams(m, db_to_linear(snr_db))
        reference = aber_mod.aber_oracle(ch, mod, "exact", oracle_spec)
        out = []
        for method in methods:
            value = method.evaluate(ch, mod).value
            out.append(DiscrepancyRow(snr_db, method.label(),
                                      aber_mod.discrepancy(reference, value)))
        return out

    rows = [row for chunk in _map_tasks(run_point, snr_dbs, jobs) for row in chunk]
    rows.sort(key=lambda r: (r.snr_db, r.candidate_method))
    return rows


def _median_time_ns(fn: Callable[[], object], reps: int) -> int:
    import statistics

    fn()
    fn()  # two warmup calls keep allocator and cache effects out of rep 0
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - t0)
    return int(statistics.median(samples))


def stabilized_oracle_spec(ch: ChannelParams, mod: Modulation) -> QuadratureSpec:
    """Loosest oracle tolerance whose value is 5-significant-digit stable.

    Tightens rel_tol decade by decade until two successive values agree
    to 1e-5 relative, then keeps the earlier (cheaper) setting; this is
    the 'equal precision' footing for timing ratios.
    """
    rel = 1e-4
    spec = QuadratureSpec(rel_tol=rel)
    prev = aber_mod.aber_oracle(ch, mod, "exact", spec)
    while rel > 1e-13:
        tighter = QuadratureSpec(rel_tol=rel / 10.0)
        cur = aber_mod.aber_oracle(ch, mod, "exact", tighter)
        if abs(cur - prev) <= 1e-5 * abs(cur):
            return spec
        rel /= 10.0
        spec = tighter
        prev = cur
    return spec


def run_bench(m: float, order: int, snr_dbs: Sequence[float],
              n_list: Sequence[int], reps: int) -> list[BenchRow]:
    """Median wall times of closed form vs matched-precision oracle.

    epsilon_t is the oracle-to-closed time ratio, so values >= 1 mean
    the closed form is the faster route.  Runs strictly single-threaded.
    """
    if reps < 10:
        raise ValueError("timing needs at least 10 repetitions")
    if not n_list:
        raise ValueError("timing needs at least one term count")
    mod = Modulation(order)
    rows = []
    for snr_db in snr_dbs:
        ch = ChannelParams(m, db_to_linear(snr_db))
        spec = stabilized_oracle_spec(ch, mod)
        t_oracle = _median_time_ns(
            lambda: aber_mod.aber_oracle(ch, mod, "exact", spec), reps)
        for n in n_list:
            trunc = TruncationPolicy.fixed(n)
            t_closed = _median_time_ns(
                lambda: aber_mod.aber_closed(ch, mod, trunc), reps)
            rows.append(BenchRow(snr_db, n, t_closed, t_oracle,
                                 t_oracle / t_closed))
    return rows


# ---------------------------------------------------------------------------
# self-test groups

_IDENTITY_MS = (0.6, 1.0, 2.5, 4.1)
_IDENTITY_DBS = (-5.0, 0.0, 10.0, 20.0, 30.0)
_IDENTITY_ORDERS = (4, 16, 256, 4096)

_IDENTITY_SPEC = QuadratureSpec(rel_tol=1e-11)


def _rel_diff(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _check_lemma1() -> list[CheckResult]:
    # the paper's tail identity, Q(z) = e^{-z^2/2}/(2 pi)
    # * int_0^oo e^{-z^2 x/2} dx/(sqrt(x)(1+x)), integrated in phi with
    # x = tan^2(phi), where dx/(sqrt(x)(1+x)) = 2 dphi on [0, pi/2)
    out = []
    for z in (0.1, 0.5, 1.0, 2.0, 4.0):
        z2 = z * z

        def f(phi: float) -> float:
            t = math.tan(phi)
            return 2.0 * math.exp(-0.5 * z2 * t * t)

        integral = quad.integrate_finite(f, 0.0, 0.5 * math.pi).value
        numeric = math.exp(-0.5 * z2) * integral / (2.0 * math.pi)
        rd = _rel_diff(numeric, specfun.gauss_q(z))
        out.append(CheckResult("lemma1", f"z={z:g}", rd <= 1e-9,
                               f"rel_diff={rd:.3e} tol=1e-9"))
    return out


def _identity_grid():
    for m in _IDENTITY_MS:
        for snr_db in _IDENTITY_DBS:
            for order in _IDENTITY_ORDERS:
                yield ChannelParams(m, db_to_linear(snr_db)), Modulation(order), snr_db


def _avg_q_kernel(alpha: float, power: int) -> Callable[[float], float]:
    """snr -> Q(sqrt(2*alpha*snr))**power, the integrand of lemma2
    (power 1) and lemma3 (power 2), with alpha taken once."""
    two_alpha = 2.0 * alpha
    kernels = _backend.kernels
    sqrt = math.sqrt
    if power == 1:
        return lambda g: kernels.gauss_q(sqrt(two_alpha * g))
    return lambda g: kernels.gauss_q(sqrt(two_alpha * g)) ** power


def _check_lemma2() -> list[CheckResult]:
    out = []
    worst = 0.0
    worst_at = ""
    for ch, mod, snr_db in _identity_grid():
        closed = aber_mod.lemma2_avg_q(ch, mod.c1)
        oracle = fading_average(ch, _avg_q_kernel(mod.c1, 1), _IDENTITY_SPEC,
                                rate=mod.c1).value
        rd = _rel_diff(closed, oracle)
        if rd > worst:
            worst, worst_at = rd, f"m={ch.m:g} snr={snr_db:g}dB M={mod.order}"
    out.append(CheckResult("lemma2", "avg-Q closed form vs quadrature (80-point grid)",
                           worst <= 1e-8, f"worst rel_diff={worst:.3e} at {worst_at} tol=1e-8"))
    return out


def _check_lemma3() -> list[CheckResult]:
    out = []
    worst = 0.0
    worst_at = ""
    for ch, mod, snr_db in _identity_grid():
        quarter_i = 0.5 * aber_mod.lemma2_avg_q(ch, mod.c1)
        closed = quarter_i - aber_mod.r2_quadrature(ch, mod.c1,
                                                    spec=_IDENTITY_SPEC)
        oracle = fading_average(ch, _avg_q_kernel(mod.c1, 2), _IDENTITY_SPEC,
                                rate=2.0 * mod.c1).value
        rd = _rel_diff(closed, oracle)
        if rd > worst:
            worst, worst_at = rd, f"m={ch.m:g} snr={snr_db:g}dB M={mod.order}"
    out.append(CheckResult("lemma3", "avg-Q^2 split vs quadrature (80-point grid)",
                           worst <= 1e-7, f"worst rel_diff={worst:.3e} at {worst_at} tol=1e-7"))
    return out


def _check_reflection() -> list[CheckResult]:
    import random

    rng = random.Random(20250818)
    worst = 0.0
    for _ in range(300):
        a = rng.uniform(0.3, 10.0)
        b = rng.uniform(0.3, 10.0)
        x = rng.random()
        gap = abs(specfun.reg_inc_beta(x, a, b)
                  + specfun.reg_inc_beta(1.0 - x, b, a) - 1.0)
        worst = max(worst, gap)
    return [CheckResult("reflection", "incomplete-beta reflection (300 random draws)",
                        worst <= 1e-12, f"worst abs gap={worst:.3e} tol=1e-12")]


def _check_termination() -> list[CheckResult]:
    out = []
    alpha = Modulation(16).c1
    for m in (1, 2, 3):
        for gbar in (1.0, 10.0):
            ch = ChannelParams(float(m), gbar)
            value, used = aber_mod.r2_series(ch, alpha, TruncationPolicy.fixed(10))
            ref = aber_mod.r2_quadrature(ch, alpha)
            rd = _rel_diff(value, ref)
            ok = used == m and rd <= 1e-8
            out.append(CheckResult(
                "termination", f"m={m} gbar={gbar:g}", ok,
                f"terms_used={used} (expect {m}) rel_diff={rd:.3e} tol=1e-8"))
    return out


def _check_sandwich() -> list[CheckResult]:
    out = []
    ok = True
    detail = ""
    for ch, mod, snr_db in _identity_grid():
        avg_q = aber_mod.lemma2_avg_q(ch, mod.c1)
        quarter_i = 0.5 * avg_q
        r2 = aber_mod.r2_quadrature(ch, mod.c1)
        avg_q2 = quarter_i - r2
        here = (0.0 <= r2 <= quarter_i * (1.0 + 1e-9) + 1e-15
                and 0.0 < avg_q2 <= avg_q * (1.0 + 1e-9)
                and avg_q <= 0.5)
        if not here and ok:
            ok = False
            detail = (f"violated at m={ch.m:g} snr={snr_db:g}dB M={mod.order}: "
                      f"r2={r2:.3e} quarter_i={quarter_i:.3e} "
                      f"avg_q={avg_q:.6e} avg_q2={avg_q2:.6e}")
    if ok:
        detail = "0 <= R2 <= I/4 and 0 < E[Q^2] <= E[Q] <= 1/2 on the 80-point grid"
    return [CheckResult("sandwich", "correction-term bounds", ok, detail)]


_SELFTEST_GROUPS: dict[str, Callable[[], list[CheckResult]]] = {
    "lemma1": _check_lemma1,
    "lemma2": _check_lemma2,
    "lemma3": _check_lemma3,
    "reflection": _check_reflection,
    "termination": _check_termination,
    "sandwich": _check_sandwich,
}


def selftest_groups() -> tuple[str, ...]:
    return tuple(_SELFTEST_GROUPS)


def run_selftest(groups: Iterable[str] | None = None) -> list[CheckResult]:
    """Run the named invariant groups (all of them when None)."""
    names = list(groups) if groups is not None else list(_SELFTEST_GROUPS)
    unknown = [g for g in names if g not in _SELFTEST_GROUPS]
    if unknown:
        raise ValueError(f"unknown selftest group(s): {', '.join(unknown)}; "
                         f"known: {', '.join(_SELFTEST_GROUPS)}")
    results: list[CheckResult] = []
    for name in names:
        results.extend(_SELFTEST_GROUPS[name]())
    return results
