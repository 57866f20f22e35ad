"""Deterministic adaptive Gauss-Kronrod quadrature.

Finite intervals go through a 15-point Kronrod rule with the embedded
7-point Gauss rule for error estimation; the interval with the worst
error estimate is bisected until the global estimate meets the
tolerance.  Semi-infinite ranges are folded onto [0, 1) by the
rational change of variable x = lo + t/(1-t) first.

Everything here is pure: no caches, no global state, identical inputs
give bit-identical outputs.  That makes results reproducible across
runs and safe to compute from concurrent workers.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

__all__ = [
    "ConvergenceError",
    "QuadratureResult",
    "QuadratureSpec",
    "integrate_finite",
    "integrate_semi_infinite",
    "require_converged",
]

_EPS = 2.220446049250313e-16
_UFLOW = 2.2250738585072014e-308

# 15-point Kronrod abscissae on [-1, 1] (positive half; the rule is
# symmetric).  Every other node, starting at index 1, is a node of the
# embedded 7-point Gauss rule.  Classical QUADPACK constants.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


class ConvergenceError(RuntimeError):
    """A quadrature or series failed to reach its requested tolerance.

    Carries the best value and error estimate achieved so callers can
    still inspect how far the computation got.
    """

    def __init__(self, message: str, value: float | None = None,
                 error_estimate: float | None = None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and budget knobs for the adaptive engine.

    rel_tol and abs_tol combine as err <= max(abs_tol, rel_tol*|value|).
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (1e-14 <= self.rel_tol <= 1e-3):
            raise ValueError("rel_tol must lie in [1e-14, 1e-3]")
        if not (0.0 <= self.abs_tol < math.inf):
            raise ValueError("abs_tol must be finite and non-negative")
        if not (10 <= self.max_subdivisions <= 10000):
            raise ValueError("max_subdivisions must lie in [10, 10000]")


class QuadratureResult(NamedTuple):
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def require_converged(res: QuadratureResult, message: str) -> QuadratureResult:
    """res itself if it converged; otherwise raise ConvergenceError with
    message, carrying res's value and error estimate."""
    if not res.converged:
        raise ConvergenceError(message, value=res.value,
                               error_estimate=res.error_estimate)
    return res


def _kronrod15(f: Callable[[float], float], lo: float, hi: float):
    """One 15-point Kronrod panel: returns (integral, error estimate).

    The error estimate follows the QUADPACK recipe: the Gauss/Kronrod
    difference is sharpened by the panel's variation and floored at the
    roundoff level of the absolute integral.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    fc = f(c)
    resg = _WG[3] * fc
    resk = _WGK[7] * fc
    resabs = abs(resk)
    pairs = []
    for i in range(7):
        dx = h * _XGK[i]
        f1 = f(c - dx)
        f2 = f(c + dx)
        pairs.append((f1, f2))
        s = f1 + f2
        resk += _WGK[i] * s
        if i % 2 == 1:
            resg += _WG[i // 2] * s
        resabs += _WGK[i] * (abs(f1) + abs(f2))
    reskh = 0.5 * resk
    resasc = _WGK[7] * abs(fc - reskh)
    for i in range(7):
        f1, f2 = pairs[i]
        resasc += _WGK[i] * (abs(f1 - reskh) + abs(f2 - reskh))
    value = resk * h
    resabs *= abs(h)
    resasc *= abs(h)
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPS):
        err = max(err, 50.0 * _EPS * resabs)
    if not (math.isfinite(value) and math.isfinite(err)):
        raise ConvergenceError("integrand produced a non-finite value")
    return value, err


def integrate_finite(f: Callable[[float], float], lo: float, hi: float,
                     spec: QuadratureSpec | None = None) -> QuadratureResult:
    """Adaptive integral of f over the finite interval [lo, hi].

    Never raises on slow convergence; the result records converged=False
    instead, with the error estimate still honest.  Raises ValueError on
    a malformed interval and ConvergenceError on a non-finite integrand
    value, which is a numerical failure, not a usage error.
    """
    if spec is None:
        spec = QuadratureSpec()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integration limits must be finite")
    if not lo < hi:
        raise ValueError("integration requires lo < hi")

    v, e = _kronrod15(f, lo, hi)
    evaluations = 15
    total_v = v
    total_e = e
    # heap entries: (-err, insertion counter, lo, hi, value, err); the
    # counter breaks ties deterministically
    heap = [(-e, 0, lo, hi, v, e)]
    counter = 1
    frozen: list[tuple[float, float, float]] = []  # (lo, value, err) of unsplittable panels
    splits = 0

    while total_e > max(spec.abs_tol, spec.rel_tol * abs(total_v)):
        if splits >= spec.max_subdivisions or not heap:
            break
        _, _, a, b, va, ea = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if not (a < mid < b):
            # panel already at floating-point resolution
            frozen.append((a, va, ea))
            continue
        v1, e1 = _kronrod15(f, a, mid)
        v2, e2 = _kronrod15(f, mid, b)
        evaluations += 30
        splits += 1
        total_v += v1 + v2 - va
        total_e += e1 + e2 - ea
        heapq.heappush(heap, (-e1, counter, a, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, b, v2, e2))
        counter += 1

    # final sums walk panels left to right so the result does not depend
    # on heap layout
    panels = [(entry[2], entry[4], entry[5]) for entry in heap]
    panels.extend(frozen)
    panels.sort(key=lambda p: p[0])
    value = 0.0
    error = 0.0
    for _, pv, pe in panels:
        value += pv
        error += pe
    converged = error <= max(spec.abs_tol, spec.rel_tol * abs(value))
    return QuadratureResult(value, error, evaluations, converged)


def integrate_semi_infinite(f: Callable[[float], float], lo: float,
                            spec: QuadratureSpec | None = None) -> QuadratureResult:
    """Adaptive integral of f over [lo, oo).

    Substitutes x = lo + t/(1-t), which tolerates algebraic tails as
    well as exponential ones.  A zero integrand value short circuits the
    Jacobian so far-tail underflow cannot poison the sum with 0*inf.
    """
    if not math.isfinite(lo):
        raise ValueError("lower limit must be finite")

    def g(t: float) -> float:
        w = 1.0 - t
        if w <= 0.0:
            # a panel edge can round onto t = 1; the transformed
            # integrand of any integrable f vanishes there
            return 0.0
        fx = f(lo + t / w)
        if fx == 0.0:
            return 0.0
        return fx / (w * w)

    return integrate_finite(g, 0.0, 1.0, spec)
