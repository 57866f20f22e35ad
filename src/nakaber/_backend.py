"""The numeric kernels every layer calls.

aber, channel and specfun look kernels up as ``_backend.kernels.<name>``
at call time, so a caller can swap or wrap one kernel without touching
the modules that use it.  The kernels are pure Python
(``_purekernels``).
"""

from __future__ import annotations

from . import _purekernels as kernels


def backend_name() -> str:
    """Name of the kernel backend in use ('python')."""
    return kernels.BACKEND_NAME
