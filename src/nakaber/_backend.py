"""The benchmark's handle on the kernel module, and its backend name.

``kernels`` is ``_purekernels`` itself.  aber, channel, harness and
specfun import that module and look each kernel up in it at call time,
so patching an attribute of ``kernels`` patches it for them too.  Only
perfbench reaches the kernels and ``backend_name`` through here; this
module goes with the next change to the benchmark.
"""

from __future__ import annotations

from . import _purekernels as kernels


def backend_name() -> str:
    """Name of the kernel backend in use ('python')."""
    return kernels.BACKEND_NAME
