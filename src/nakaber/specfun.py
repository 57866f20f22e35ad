"""Special functions backing the error-rate formulas.

Validated front end over the numeric kernels: log-gamma, the Gaussian
tail function, log-beta and the regularized incomplete beta, and the
two-variable hypergeometric F1.  All operations are pure and reentrant.
"""

from __future__ import annotations

import math

from . import _purekernels as kernels
from .quad import QuadratureSpec, require_converged

_F1_SPEC = QuadratureSpec(rel_tol=1e-11)

__all__ = [
    "appell_f1",
    "gauss_q",
    "log_beta",
    "log_gamma",
    "reg_inc_beta",
]


def log_gamma(x: float) -> float:
    """Natural log of the gamma function, for finite x > 0."""
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError("log_gamma requires finite x > 0")
    return kernels.log_gamma(x)


def gauss_q(z: float) -> float:
    """Standard normal tail probability Q(z) = P(Z > z)."""
    if not math.isfinite(z):
        raise ValueError("gauss_q requires finite z")
    return kernels.gauss_q(z)


def log_beta(a: float, b: float) -> float:
    """Natural log of the beta function B(a, b), for a, b > 0."""
    if not (a > 0.0 and b > 0.0 and math.isfinite(a) and math.isfinite(b)):
        raise ValueError("log_beta requires finite a > 0 and b > 0")
    return kernels.log_beta(a, b)


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b) on x in [0, 1].

    Continued-fraction evaluation with the symmetry switch at
    x > a/(a+b); endpoints return exactly 0 and 1.  Raises
    ConvergenceError where the fraction has not converged in 400 steps
    (a and b near 1e6 and above, x near the switch); Lemma 2's pairs
    (m, 1/2) and (1/2, m) with m <= 1e4 need at most 135.
    """
    if not (a > 0.0 and b > 0.0 and math.isfinite(a) and math.isfinite(b)):
        raise ValueError("reg_inc_beta requires finite a > 0 and b > 0")
    if not 0.0 <= x <= 1.0:
        raise ValueError("reg_inc_beta requires 0 <= x <= 1")
    return kernels.reg_inc_beta(x, a, b, kernels.log_beta(a, b))


def appell_f1(a: float, b1: float, b2: float, c: float, x: float, y: float,
              spec: QuadratureSpec = _F1_SPEC) -> float:
    """Appell hypergeometric F1(a; b1, b2; c; x, y) for x, y <= 0.

    Evaluated through its single-integral representation, which stays
    valid where the defining double series diverges.  Requires c > a so
    the representation applies.  Raises ConvergenceError (carrying the
    achieved value and estimate) if the quadrature does not meet spec.
    """
    for name, v in (("a", a), ("b1", b1), ("b2", b2), ("c", c), ("x", x), ("y", y)):
        if not math.isfinite(v):
            raise ValueError(f"appell_f1 argument {name} must be finite")
    if not a > 0.0:
        raise ValueError("appell_f1 requires a > 0")
    if not c > a:
        raise ValueError("appell_f1 requires c > a")
    if x > 0.0 or y > 0.0:
        raise ValueError("appell_f1 supports only x <= 0 and y <= 0")
    return require_converged(
        kernels.appell_f1(a, b1, b2, c, x, y, spec),
        "appell_f1 quadrature did not reach the requested accuracy").value
