"""Deterministic adaptive Gauss-Kronrod quadrature.

Finite intervals go through one 15-point Kronrod rule with the
embedded 7-point Gauss rule for error estimation; every integral in the
library runs on it.  The engine opens on the two halves of the
interval, 30 evaluations, not on one panel over all of it as QUADPACK's
qag does: nearly every library integral splits that panel anyway.  A
caller that knows which panels its integrals go on to bisect names the
interior points of its opening, splits, and opens on the panels
between them, 15*(len(splits)+1) evaluations: the fading average cuts
[0, 2] at its quarters below rel_tol 1e-5 and, below 1e-7, at points
graded towards the end each map family refines.  The panel with the
worst error estimate is then bisected until the global estimate meets
the relative tolerance, the one setting, or _MAX_SUBDIVISIONS
bisections, the opening's len(splits) included, are spent.
Every integral in the library is finite: a half-line one with the
weight dx/(sqrt(x)*(1+x)) becomes 2*dphi on [0, pi/2) under
x = tan^2(phi).  integrate_semi_infinite, the rational fold
x = lo + t/(1-t), has no library caller; the benchmark tracer wraps it
by name, so it stays public.

Everything here is pure: no caches, no global state, identical inputs
give bit-identical outputs.  That makes results reproducible across
runs and safe to compute from concurrent workers.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, NamedTuple

__all__ = [
    "ConvergenceError",
    "DEFAULT_SPEC",
    "QuadratureResult",
    "QuadratureSpec",
    "integrate_finite",
    "integrate_semi_infinite",
    "require_converged",
]

_EPS = 2.220446049250313e-16
_UFLOW = 2.2250738585072014e-308
# every panel's error is at least this share of its resabs, so no
# rel_tol at or below it can be met, and QuadratureSpec refuses one
_FLOOR = 50.0 * _EPS
# the floor with room for the rounding of the sums that bound resabs
_FLOOR_BOUND = _FLOOR * (1.0 + 1e-12)
# bisections one adaptive integral may spend before it reports
# converged=False
_MAX_SUBDIVISIONS = 2000
# how far a split panel's |value| or error may exceed the running totals
# left after its split before those totals are summed afresh
_RESUM = 1e6

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


class _Value:
    """Base of the package's immutable value objects.

    A subclass names its fields in __slots__ and sets them once, with
    _init, in its __init__.  Values of the same class with equal fields
    are equal and hash alike; a value of another class never equals
    one.  repr reads Name(field=value, ...), and assigning to a field
    raises AttributeError.  This stands in for frozen dataclasses, whose
    import pulls inspect, ast and tokenize into every CLI process.
    """

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    # copy and pickle restore the fields without calling __init__
    def __getstate__(self):
        return self._values()

    def __setstate__(self, state):
        self._init(*state)


class QuadratureSpec(_Value):
    """The adaptive engine's one setting, its relative tolerance.

    Convergence is relative only, err <= rel_tol*|value|, so a value of
    1e-117 gets the same relative accuracy as one of 0.4.  rel_tol lies
    in (50*eps, 1e-3]: at or below the panels' roundoff floor, 50*eps,
    no integral of a normal value converges.  1.12e-14 does: the oracle
    at m = 1.7, 10 dB, QPSK in 1,545 evaluations, opening on its
    interval's graded cuts for m > 1.
    """

    __slots__ = ("rel_tol",)

    def __init__(self, rel_tol: float = 1e-10):
        self._init(rel_tol)
        if not (_FLOOR < self.rel_tol <= 1e-3):
            raise ValueError(f"rel_tol must lie in (50*eps, 1e-3]: 50*eps = "
                             f"{_FLOOR:.5g} is the quadrature's roundoff floor")


# the engine's default setting, shared since a spec is immutable
DEFAULT_SPEC = QuadratureSpec()


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
    roundoff level of the absolute integral.  An integrand that raises
    OverflowError or gives a non-finite value raises ConvergenceError.
    """
    x0, x1, x2, x3, x4, x5, x6 = _XGK
    k0, k1, k2, k3, k4, k5, k6, k7 = _WGK
    g0, g1, g2, g3 = _WG
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    # nodes c -/+ h*x_i; every sum adds the centre's term first, then
    # i = 0..6, QUADPACK's order: the panel's bits depend on it, and
    # tests/test_quad.py pins them
    # an integrand whose value passes the double range, as a float or
    # as an int converted to one, is a numerical failure too
    try:
        fc = f(c)
        d = h * x0
        a0 = f(c - d)
        b0 = f(c + d)
        d = h * x1
        a1 = f(c - d)
        b1 = f(c + d)
        d = h * x2
        a2 = f(c - d)
        b2 = f(c + d)
        d = h * x3
        a3 = f(c - d)
        b3 = f(c + d)
        d = h * x4
        a4 = f(c - d)
        b4 = f(c + d)
        d = h * x5
        a5 = f(c - d)
        b5 = f(c + d)
        d = h * x6
        a6 = f(c - d)
        b6 = f(c + d)
    except OverflowError as exc:
        raise ConvergenceError(
            f"integrand overflowed a double on [{lo!r}, {hi!r}]: {exc}") from exc
    s1 = a1 + b1
    s3 = a3 + b3
    s5 = a5 + b5
    resg = g3 * fc + g0 * s1 + g1 * s3 + g2 * s5
    resk = (k7 * fc + k0 * (a0 + b0) + k1 * s1 + k2 * (a2 + b2) + k3 * s3
            + k4 * (a4 + b4) + k5 * s5 + k6 * (a6 + b6))
    reskh = 0.5 * resk
    resasc = (k7 * abs(fc - reskh)
              + k0 * (abs(a0 - reskh) + abs(b0 - reskh))
              + k1 * (abs(a1 - reskh) + abs(b1 - reskh))
              + k2 * (abs(a2 - reskh) + abs(b2 - reskh))
              + k3 * (abs(a3 - reskh) + abs(b3 - reskh))
              + k4 * (abs(a4 - reskh) + abs(b4 - reskh))
              + k5 * (abs(a5 - reskh) + abs(b5 - reskh))
              + k6 * (abs(a6 - reskh) + abs(b6 - reskh)))
    value = resk * h
    resasc *= abs(h)
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    # the Kronrod weights sum to 2, so resabs <= resasc + |value|, and
    # the roundoff floor can raise only an err below _FLOOR_BOUND times
    # that; elsewhere resabs is not needed
    if not err >= _FLOOR_BOUND * (resasc + abs(value)):
        resabs = (abs(k7 * fc) + k0 * (abs(a0) + abs(b0)) + k1 * (abs(a1) + abs(b1))
                  + k2 * (abs(a2) + abs(b2)) + k3 * (abs(a3) + abs(b3))
                  + k4 * (abs(a4) + abs(b4)) + k5 * (abs(a5) + abs(b5))
                  + k6 * (abs(a6) + abs(b6)))
        resabs *= abs(h)
        if resabs > _UFLOW / _FLOOR:
            err = max(err, _FLOOR * resabs)
    if not (math.isfinite(value) and math.isfinite(err)):
        raise ConvergenceError("integrand produced a non-finite value")
    return value, err


def integrate_finite(f: Callable[[float], float], lo: float, hi: float,
                     spec: QuadratureSpec = DEFAULT_SPEC,
                     splits: tuple[float, ...] | None = None) -> QuadratureResult:
    """Adaptive integral of f over the finite interval [lo, hi].

    The panel, _kronrod15, is looked up when the call starts.  With
    splits=None, the default, it opens on [lo, mid] and [mid, hi], 30
    evaluations and one bisection of the budget, or on one panel where
    the interval is a float wide and cannot be split.  splits, a tuple
    rising strictly inside (lo, hi), names the opening's interior
    points instead: it opens on the len(splits)+1 panels between them,
    15*(len(splits)+1) evaluations and len(splits) bisections.  The loop
    keeps running totals of the panels' values and errors; where a split
    panel outweighs the totals left after its split by a factor _RESUM,
    subtracting it has left its rounding residue in them, and they are
    summed afresh from the live panels.  It stops only where the sums it
    reports, taken left to right, meet the tolerance as well.

    Never raises on slow convergence; the result records converged=False
    instead, with the error estimate still honest.  Raises ValueError on
    a malformed interval or splits that are not such a tuple, and
    ConvergenceError on a non-finite integrand value or one that
    overflows (OverflowError), which is a numerical failure, not a usage
    error.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integration limits must be finite")
    if not lo < hi:
        raise ValueError("integration requires lo < hi")
    if splits is None:
        mid = 0.5 * (lo + hi)
        edges = (lo, mid, hi) if lo < mid < hi else (lo, hi)
    else:
        if type(splits) is not tuple:
            raise ValueError(f"splits must be a tuple, not {splits!r}")
        edges = (lo, *splits, hi)
        if not all(a < b for a, b in zip(edges, edges[1:])):
            raise ValueError(f"splits must rise strictly inside ({lo!r}, {hi!r}), "
                             f"not {splits!r}")
    panel = _kronrod15

    rel_tol, budget = spec.rel_tol, _MAX_SUBDIVISIONS
    heappush, heappop, heapreplace = heapq.heappush, heapq.heappop, heapq.heapreplace
    # heap entries: (-err, insertion counter, lo, hi, value, err); the
    # counter breaks ties deterministically, so the worst panel, and
    # with it every split, does not depend on the heap's layout
    heap = []
    total_v = total_e = 0.0
    for counter, (a, b) in enumerate(zip(edges, edges[1:])):
        v, e = panel(f, a, b)
        total_v += v
        total_e += e
        heappush(heap, (-e, counter, a, b, v, e))
    counter = len(heap)
    evaluations = 15 * counter
    bisections = counter - 1
    frozen: list[tuple[float, float, float]] = []  # (lo, value, err) of unsplittable panels

    while True:
        if not total_e > rel_tol * abs(total_v):
            # the running totals' rounding residue can cross the tolerance
            value, error = _left_to_right(heap, frozen)
            if not error > rel_tol * abs(value):
                break
            total_v, total_e = value, error
        if bisections >= budget or not heap:
            value, error = _left_to_right(heap, frozen)
            break
        _, _, a, b, va, ea = heap[0]
        mid = 0.5 * (a + b)
        if not (a < mid < b):
            # panel already at floating-point resolution
            heappop(heap)
            frozen.append((a, va, ea))
            continue
        v1, e1 = panel(f, a, mid)
        v2, e2 = panel(f, mid, b)
        evaluations += 30
        bisections += 1
        total_v += v1 + v2 - va
        total_e += e1 + e2 - ea
        # the left half takes the worst panel's place: one sift, not a
        # pop and a push
        heapreplace(heap, (-e1, counter, a, mid, v1, e1))
        heappush(heap, (-e2, counter + 1, mid, b, v2, e2))
        counter += 2
        if abs(va) > _RESUM * abs(total_v) or ea > _RESUM * total_e:
            total_v = math.fsum([entry[4] for entry in heap] + [p[1] for p in frozen])
            total_e = math.fsum([entry[5] for entry in heap] + [p[2] for p in frozen])

    converged = error <= rel_tol * abs(value)
    return QuadratureResult(value, error, evaluations, converged)


def _left_to_right(heap, frozen) -> tuple[float, float]:
    """The value and error sums of integrate_finite's live and frozen
    panels, walked left to right so they do not depend on heap layout.
    The panels tile the interval, so no two share a left end and the
    (lo, value, err) tuples sort by lo alone."""
    panels = [(entry[2], entry[4], entry[5]) for entry in heap]
    panels.extend(frozen)
    panels.sort()
    value = 0.0
    error = 0.0
    for _, pv, pe in panels:
        value += pv
        error += pe
    return value, error


def integrate_semi_infinite(f: Callable[[float], float], lo: float,
                            spec: QuadratureSpec = DEFAULT_SPEC) -> QuadratureResult:
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
