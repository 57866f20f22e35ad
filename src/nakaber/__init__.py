"""Average bit error rate of square M-QAM over Nakagami-m fading.

Series closed forms, an adaptive-quadrature reference, discrepancy and
timing comparisons, and the special functions they stand on.  Pure
Python: the numeric kernels live in ``_purekernels``.
"""

from ._backend import backend_name
from .aber import (AberMethod, TruncationPolicy, aber_closed,
                   aber_closed_with_terms, aber_expq_closed, aber_lu_closed,
                   aber_oracle, discrepancy, lemma2_avg_q, oracle_result,
                   r2_quadrature, r2_series)
from .channel import (ChannelParams, Modulation, QApproxVariant, ber_exact,
                      ber_lu_approx, fading_average, mgf, pdf, q_exp_approx)
from .quad import (ConvergenceError, QuadratureResult, QuadratureSpec,
                   integrate_finite, integrate_semi_infinite)
from .specfun import appell_f1, gauss_q, log_beta, log_gamma, reg_inc_beta

__version__ = "0.1.0"

__all__ = [
    "AberMethod",
    "ChannelParams",
    "ConvergenceError",
    "Modulation",
    "QApproxVariant",
    "QuadratureResult",
    "QuadratureSpec",
    "TruncationPolicy",
    "aber_closed",
    "aber_closed_with_terms",
    "aber_expq_closed",
    "aber_lu_closed",
    "aber_oracle",
    "appell_f1",
    "backend_name",
    "ber_exact",
    "ber_lu_approx",
    "discrepancy",
    "fading_average",
    "gauss_q",
    "integrate_finite",
    "integrate_semi_infinite",
    "lemma2_avg_q",
    "log_beta",
    "log_gamma",
    "mgf",
    "oracle_result",
    "pdf",
    "q_exp_approx",
    "r2_quadrature",
    "r2_series",
    "reg_inc_beta",
    "__version__",
]
