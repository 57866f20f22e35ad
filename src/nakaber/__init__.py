"""Average bit error rate of square M-QAM over Nakagami-m fading.

Series closed forms, an adaptive-quadrature reference, discrepancy and
timing comparisons, and the special functions they stand on.  Import
each name from the module that owns it (``nakaber.aber``,
``nakaber.channel``, ``nakaber.quad``, ...): the package itself exports
only ``backend_name`` and ``__version__``.
"""

from ._backend import backend_name

__version__ = "0.1.0"
