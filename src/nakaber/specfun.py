"""Special functions backing the error-rate formulas.

Validated front end over the numeric kernels: log-gamma, the Gaussian
tail function, log-beta and the regularized incomplete beta, and the
two-variable hypergeometric F1.  All operations are pure and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _backend
from .quad import ConvergenceError

__all__ = [
    "Accuracy",
    "appell_f1",
    "gauss_q",
    "log_beta",
    "log_gamma",
    "reg_inc_beta",
]


@dataclass(frozen=True)
class Accuracy:
    """Accuracy request for quadrature-backed special functions.

    rel_tol is the target relative error; abs_floor cuts the relative
    criterion off for results indistinguishable from zero.
    """

    rel_tol: float = 1e-11
    abs_floor: float = 1e-14

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= 1e-3):
            raise ValueError("rel_tol must lie in (0, 1e-3]")
        if not (0.0 < self.abs_floor <= 1e-10):
            raise ValueError("abs_floor must lie in (0, 1e-10]")


_DEFAULT_ACCURACY = Accuracy()
_APPELL_MAX_SUBDIVISIONS = 2000


def log_gamma(x: float) -> float:
    """Natural log of the gamma function, for finite x > 0."""
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError("log_gamma requires finite x > 0")
    return _backend.kernels.log_gamma(x)


def gauss_q(z: float) -> float:
    """Standard normal tail probability Q(z) = P(Z > z)."""
    if not math.isfinite(z):
        raise ValueError("gauss_q requires finite z")
    return _backend.kernels.gauss_q(z)


def log_beta(a: float, b: float) -> float:
    """Natural log of the beta function B(a, b), for a, b > 0."""
    if not (a > 0.0 and b > 0.0 and math.isfinite(a) and math.isfinite(b)):
        raise ValueError("log_beta requires finite a > 0 and b > 0")
    return _backend.kernels.log_beta(a, b)


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b) on x in [0, 1].

    Continued-fraction evaluation with the symmetry switch at
    x > a/(a+b); endpoints return exactly 0 and 1.
    """
    if not (a > 0.0 and b > 0.0 and math.isfinite(a) and math.isfinite(b)):
        raise ValueError("reg_inc_beta requires finite a > 0 and b > 0")
    if not 0.0 <= x <= 1.0:
        raise ValueError("reg_inc_beta requires 0 <= x <= 1")
    return _backend.kernels.reg_inc_beta(x, a, b)


def appell_f1(a: float, b1: float, b2: float, c: float, x: float, y: float,
              accuracy: Accuracy | None = None) -> float:
    """Appell hypergeometric F1(a; b1, b2; c; x, y) for x, y <= 0.

    Evaluated through its single-integral representation, which stays
    valid where the defining double series diverges.  Requires c > a so
    the representation applies.  Raises ConvergenceError (carrying the
    achieved value and estimate) if the requested accuracy is not met.
    """
    acc = _DEFAULT_ACCURACY if accuracy is None else accuracy
    for name, v in (("a", a), ("b1", b1), ("b2", b2), ("c", c), ("x", x), ("y", y)):
        if not math.isfinite(v):
            raise ValueError(f"appell_f1 argument {name} must be finite")
    if not a > 0.0:
        raise ValueError("appell_f1 requires a > 0")
    if not c > a:
        raise ValueError("appell_f1 requires c > a")
    if x > 0.0 or y > 0.0:
        raise ValueError("appell_f1 supports only x <= 0 and y <= 0")
    value, err, _, converged = _backend.kernels.appell_f1(
        a, b1, b2, c, x, y, acc.rel_tol, acc.abs_floor, _APPELL_MAX_SUBDIVISIONS)
    if not converged:
        raise ConvergenceError(
            "appell_f1 quadrature did not reach the requested accuracy",
            value=value, error_estimate=err)
    return value
