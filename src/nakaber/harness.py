"""Sweep, discrepancy, timing, and self-check engines behind the CLI.

Every runner evaluates its grid in one thread, point by point, and
builds each point's ChannelParams once.  Sweep and discrepancy rows
come back sorted by (snr_db, method label), so CSV output is
deterministic.  The self tests check the averaged Q and Q^2 the routes
serve against direct quadrature of the defining average.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Iterable, NamedTuple, Sequence

from . import _purekernels as kernels
from . import quad
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


# the CLI writes each row type's fields, in order, as its CSV header
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


def _require_methods(methods: Sequence[AberMethod]) -> None:
    if not methods:
        raise ValueError("a grid run needs at least one method")


def run_sweep(m: float, order: int, snr_dbs: Sequence[float],
              methods: Sequence[AberMethod]) -> list[SweepRow]:
    """Evaluate every method at every grid point.

    Rows come back sorted by (snr_db, method label); wall times are
    per-evaluation and vary run to run, everything else is
    deterministic.  A value outside [0, 1] raises ValueError unless its
    kind is "approximation": lu and expq average an approximate BER,
    which exceeds 1 at low mean SNR for wide constellations.
    """
    _require_methods(methods)
    mod = Modulation(order)
    rows = []
    for snr_db in snr_dbs:
        ch = ChannelParams(m, db_to_linear(snr_db))
        for method in methods:
            t0 = time.perf_counter_ns()
            rv = method.evaluate(ch, mod)
            elapsed = time.perf_counter_ns() - t0
            if rv.kind != "approximation" and not 0.0 <= rv.value <= 1.0:
                raise ValueError(f"method {method.label()} produced a value "
                                 f"outside [0, 1] at {snr_db} dB: {rv.value}")
            rows.append(SweepRow(snr_db, method.label(), rv.value,
                                 rv.terms_used, elapsed))
    rows.sort(key=lambda r: (r.snr_db, r.method))
    return rows


def run_discrepancy(m: float, order: int, snr_dbs: Sequence[float],
                    methods: Sequence[AberMethod],
                    oracle_spec: QuadratureSpec = quad.DEFAULT_SPEC
                    ) -> list[DiscrepancyRow]:
    """Per grid point: reference oracle (exact kernel) vs each method.

    The reference is always the exact-kernel quadrature; the methods
    are the candidates.
    """
    _require_methods(methods)
    mod = Modulation(order)
    rows = []
    for snr_db in snr_dbs:
        ch = ChannelParams(m, db_to_linear(snr_db))
        reference = aber_mod.aber_oracle(ch, mod, "exact", oracle_spec)
        for method in methods:
            value = method.evaluate(ch, mod).value
            rows.append(DiscrepancyRow(snr_db, method.label(),
                                       aber_mod.discrepancy(reference, value)))
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

    Tightens rel_tol through the exact decades 1e-4 .. 1e-13 until two
    successive values agree to 1e-5 relative, then keeps the earlier
    (cheaper) setting; this is the 'equal precision' footing for timing
    ratios.  Where no two agree it keeps 1e-13, the tightest decade the
    engine's roundoff floor lets converge.
    """
    spec = QuadratureSpec(rel_tol=1e-4)
    prev = aber_mod.aber_oracle(ch, mod, "exact", spec)
    for k in range(5, 14):
        tighter = QuadratureSpec(rel_tol=10.0 ** -k)
        cur = aber_mod.aber_oracle(ch, mod, "exact", tighter)
        if abs(cur - prev) <= 1e-5 * abs(cur):
            return spec
        spec = tighter
        prev = cur
    return spec


def run_bench(m: float, order: int, snr_dbs: Sequence[float],
              n_list: Sequence[int], reps: int) -> list[BenchRow]:
    """Median wall times of closed form vs matched-precision oracle.

    epsilon_t is the oracle-to-closed time ratio, so values >= 1 mean
    the closed form is the faster route.
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
_SERVED_TERM_TOL = TruncationPolicy.adaptive().term_tol


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
        rd = _rel_diff(numeric, kernels.gauss_q(z))
        out.append(CheckResult("lemma1", f"z={z:g}", rd <= 1e-9,
                               f"rel_diff={rd:.3e} tol=1e-9"))
    return out


def _identity_grid():
    for m in _IDENTITY_MS:
        for snr_db in _IDENTITY_DBS:
            for order in _IDENTITY_ORDERS:
                yield ChannelParams(m, db_to_linear(snr_db)), Modulation(order), snr_db


def _averaged_q_power(ch: ChannelParams, alpha: float, power: int) -> float:
    """E[Q(sqrt(2*alpha*snr))**power] by the defining average's quadrature."""
    two_alpha = 2.0 * alpha
    return fading_average(
        ch, lambda g: kernels.gauss_q(math.sqrt(two_alpha * g)) ** power,
        _IDENTITY_SPEC, rate=power * alpha).value


def _worst_against_quadrature(group: str, name: str, power: int,
                              closed: Callable[[ChannelParams, float], float],
                              tol: str) -> list[CheckResult]:
    """The worst relative difference on the identity grid between a
    closed form of E[Q(sqrt(2*alpha*snr))**power] and its quadrature,
    alpha = c1 of each order; tol is the bound as printed."""
    worst, worst_at = 0.0, ""
    for ch, mod, snr_db in _identity_grid():
        alpha = mod.c1
        oracle = _averaged_q_power(ch, alpha, power)
        rd = _rel_diff(closed(ch, alpha), oracle)
        if rd > worst:
            worst, worst_at = rd, f"m={ch.m:g} snr={snr_db:g}dB M={mod.order}"
    return [CheckResult(group, name, worst <= float(tol),
                        f"worst rel_diff={worst:.3e} at {worst_at} tol={tol}")]


def _check_lemma2() -> list[CheckResult]:
    return _worst_against_quadrature(
        "lemma2", "avg-Q closed form vs quadrature (80-point grid)", 1,
        aber_mod.lemma2_avg_q, "1e-8")


def _check_lemma3() -> list[CheckResult]:
    return _worst_against_quadrature(
        "lemma3", "avg-Q^2 split vs quadrature (80-point grid)", 2,
        lambda ch, alpha: aber_mod.avg_q_squared(ch, alpha, _SERVED_TERM_TOL),
        "1e-9")


def _check_reflection() -> list[CheckResult]:
    import random

    rng = random.Random(20250818)
    worst = 0.0
    for _ in range(300):
        a = rng.uniform(0.3, 10.0)
        b = rng.uniform(0.3, 10.0)
        x = rng.random()
        log_b = kernels.log_beta(a, b)
        gap = abs(kernels.reg_inc_beta(x, a, b, log_b)
                  + kernels.reg_inc_beta(1.0 - x, b, a, log_b) - 1.0)
        worst = max(worst, gap)
    return [CheckResult("reflection", "incomplete-beta reflection (300 random draws)",
                        worst <= 1e-12, f"worst abs gap={worst:.3e} tol=1e-12")]


def _check_termination() -> list[CheckResult]:
    # the series against R2 = E[Q]/2 - E[Q^2], E[Q^2] by quadrature
    out = []
    alpha = Modulation(16).c1
    for m in (1, 2, 3):
        for gbar in (1.0, 10.0):
            ch = ChannelParams(float(m), gbar)
            res = aber_mod.r2_series(ch, alpha, 10)
            r2 = (0.5 * aber_mod.lemma2_avg_q(ch, alpha)
                  - _averaged_q_power(ch, alpha, 2))
            rd = _rel_diff(res.value, r2)
            ok = res.terms_used == m and rd <= 1e-8
            out.append(CheckResult(
                "termination", f"m={m} gbar={gbar:g}", ok,
                f"terms_used={res.terms_used} (expect {m}) rel_diff={rd:.3e} "
                "tol=1e-8"))
    return out


def _check_sandwich() -> list[CheckResult]:
    ok = True
    detail = ""
    for ch, mod, snr_db in _identity_grid():
        avg_q = aber_mod.lemma2_avg_q(ch, mod.c1)
        avg_q2 = aber_mod.avg_q_squared(ch, mod.c1, _SERVED_TERM_TOL)
        # E[Q^2] <= E[Q]/2 is R2 >= 0
        here = 0.0 < avg_q2 <= 0.5 * avg_q * (1.0 + 1e-9) and avg_q <= 0.5
        if not here and ok:
            ok = False
            detail = (f"violated at m={ch.m:g} snr={snr_db:g}dB M={mod.order}: "
                      f"avg_q={avg_q:.6e} avg_q2={avg_q2:.6e}")
    if ok:
        detail = "0 < E[Q^2] <= E[Q]/2 <= 1/4 on the 80-point grid"
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
