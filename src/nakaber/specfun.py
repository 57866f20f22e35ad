"""The validated Appell F1 front end, which no route calls.

It stays because the benchmark's tracer wraps ``specfun.appell_f1`` by
name, and goes with the next change to the benchmark.  Every other
special function has one door, ``_purekernels``.
"""

from __future__ import annotations

import math

from . import _purekernels as kernels
from .quad import QuadratureSpec, require_converged

_F1_SPEC = QuadratureSpec(rel_tol=1e-11)

__all__ = ["appell_f1"]


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
