"""Average bit error rate of square M-QAM over Nakagami-m fading.

Three independent routes to the same quantity live here: a
truncated-series closed form built from an incomplete beta and a series
of Appell-F1 terms summed in one integral, an exact closed form for the
sum-of-Q BER approximation, and direct adaptive quadrature of the
defining average, which acts as the reference the closed forms are
judged against.  The discrepancy metric and the series/quadrature
split of the squared-Q correction term are exposed so the comparison
machinery can be driven from the CLI.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from . import _backend, channel
from .channel import ChannelParams, Modulation, QApproxVariant
from .quad import (_EPS, ConvergenceError, QuadratureResult, QuadratureSpec,
                   _Value, require_converged)

__all__ = [
    "AberMethod",
    "MethodValue",
    "SeriesResult",
    "TruncationPolicy",
    "aber_closed",
    "aber_closed_with_terms",
    "aber_expq_closed",
    "aber_lu_closed",
    "aber_oracle",
    "discrepancy",
    "lemma2_avg_q",
    "oracle_result",
    "r2_quadrature",
    "r2_series",
]

_SERIES_CAP = 200
# r2_series' default; one shared value, since a spec is immutable
_SERIES_SPEC = QuadratureSpec(rel_tol=1e-11)
# largest m the closed-form E[Q] takes (see lemma2_avg_q)
_AVG_Q_M_MAX = 1e4


class TruncationPolicy(_Value):
    """How many correction-series terms the closed form keeps.

    fixed_terms sums indices n = 0..n_max inclusive, so n_max = 0 is the
    one-term evaluation.  adaptive picks the first n >= 1 whose term
    bound |c_n| * r_max^n falls below term_tol relative to the bounds
    summed so far (r_max = 1/(2+b) bounds the integrand's r); a series
    that needs more than 200 terms raises ConvergenceError.  Either way
    an integer m stops the series at its exact zero.
    """

    __slots__ = ("mode", "n_max", "term_tol")

    def __init__(self, mode: str = "fixed_terms", n_max: int = 5,
                 term_tol: float = 1e-12):
        self._init(mode, n_max, term_tol)
        if self.mode not in ("fixed_terms", "adaptive"):
            raise ValueError("mode must be 'fixed_terms' or 'adaptive'")
        if not (0 <= self.n_max <= _SERIES_CAP):
            raise ValueError(f"n_max must lie in [0, {_SERIES_CAP}]")
        if not (1e-16 <= self.term_tol <= 1e-4):
            raise ValueError("term_tol must lie in [1e-16, 1e-4]")

    @classmethod
    def fixed(cls, n_max: int) -> "TruncationPolicy":
        return cls("fixed_terms", n_max=n_max)

    @classmethod
    def adaptive(cls, term_tol: float = 1e-12) -> "TruncationPolicy":
        return cls("adaptive", term_tol=term_tol)


class SeriesResult(NamedTuple):
    value: float
    terms_used: int


class MethodValue(NamedTuple):
    """One evaluated ABER with whatever diagnostics the method carries.

    Only converged values are returned: an oracle that misses its
    tolerance raises ConvergenceError instead.
    """
    value: float
    terms: int
    error_estimate: float | None


def lemma2_avg_q(ch: ChannelParams, alpha: float) -> float:
    """Fading average of Q(sqrt(2*alpha*snr)), in closed form.

    Equals (1/2) * I_x(m, 1/2) with x = m/(m + alpha*mean_snr); checked
    against direct quadrature of the defining average by the self tests.
    Every route that averages Q in closed form (closed, lu) calls this.

    Where x > m/(m + 1/2), the side on which the incomplete beta takes
    its complement, it is (1/2)*(1 - I_y(1/2, m)) with
    y = alpha*mean_snr/(m + alpha*mean_snr) computed directly, not as
    1 - x, which would keep only the rounding of x at low mean SNR.
    What error is left grows with m, from the continued fraction, whose
    leading terms cancel to O(1/m) near x = m/(m + c): against 40-digit
    references over all six orders it is at most 2.5e-12 at m = 3000
    and 1.4e-11 at m = 5000 (-30 to 80 dB, 0.5 dB steps), and 3.3e-11
    at m = 1e4 (-30 to 40 dB in 0.02 dB steps, at 5.44 dB; 2 dB steps
    to 80 dB).  For m above _AVG_Q_M_MAX = 1e4 it raises
    ConvergenceError: the error keeps growing with m, and huge m needs
    a route of its own.
    """
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValueError("alpha must be positive and finite")
    if ch.m > _AVG_Q_M_MAX:
        raise ConvergenceError(
            f"closed-form E[Q] is not accurate to 1e-10 for m above "
            f"{_AVG_Q_M_MAX:g} (m={ch.m:g})")
    c = alpha * ch.mean_snr
    x = ch.m / (ch.m + c)
    if x > ch.m / (ch.m + 0.5):
        return 0.5 * (1.0 - _backend.kernels.reg_inc_beta(c / (ch.m + c), 0.5, ch.m))
    return 0.5 * _backend.kernels.reg_inc_beta(x, ch.m, 0.5)


def r2_quadrature(ch: ChannelParams, alpha: float,
                  spec: QuadratureSpec | None = None) -> float:
    """Squared-Q correction term by adaptive quadrature.

    This is the series-free reference for the correction: the fading
    average of Q^2 equals (1/4)*I_x(m, 1/2) minus this value.  The
    r2_integral kernel writes it with Craig's form of Q and Q^2 as
    E[Q]/2 - E[Q^2], one positive integral of elementary functions over
    Craig's angle on [0, pi/4]; it needs no incomplete beta per node and
    a few hundred evaluations at most.
    """
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValueError("alpha must be positive and finite")
    b = ch.m / (alpha * ch.mean_snr)
    return require_converged(
        _backend.kernels.r2_integral(b, ch.m, spec),
        "squared-Q correction quadrature did not converge").value


def r2_series(ch: ChannelParams, alpha: float,
              trunc: TruncationPolicy | None = None,
              spec: QuadratureSpec | None = None) -> SeriesResult:
    """Squared-Q correction term as a truncated hypergeometric series.

    Term n is B(n+m+1, 1/2)/(4*pi*B(1/2, m)) * c_n * b^m
    * F1(n+m+1; m, n+1/2; n+m+3/2; -b, -(1+b)), with
    c_n = (1-m)_n / (n! (n+1/2)) and b = m/(alpha*mean_snr).  Every F1
    shares one theta-integrand times r(theta)^n, so the terms kept are
    summed as a polynomial inside a single quadrature (see the
    r2_term_scaled kernel).  For integer m (1-m)_n hits an exact zero and
    the series terminates at n = m-1 with the closed form exact.
    spec=None means QuadratureSpec(rel_tol=1e-11).  Where the
    coefficients cancel (m > 1, high mean SNR) the kernel sums them in
    fixed point at 2^110.  Raises ConvergenceError if the quadrature
    cannot meet spec, if adaptive truncation needs more than 200 terms,
    if the adaptive stop rule would rest on a bound sum that cancels past
    double precision (eps * sum |c_n| r_max^n above 1% of
    |sum c_n r_max^n|), or if P_N(r_max) keeps fewer than 64 bits at the
    kernel's fixed-point scale.
    """
    if trunc is None:
        trunc = TruncationPolicy()
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValueError("alpha must be positive and finite")
    m = ch.m
    b = m / (alpha * ch.mean_snr)
    if spec is None:
        spec = _SERIES_SPEC

    # adaptive mode bounds term n by |c_n| * r_max^n, since r <= 1/(2+b)
    r_max = 1.0 / (2.0 + b)
    r_pow = 1.0
    coefs = [2.0]  # c_0 = 1/(1/2)
    bound_sum = abs_sum = 2.0
    adaptive = trunc.mode == "adaptive"
    for n in range(1, _SERIES_CAP if adaptive else trunc.n_max + 1):
        factor = (1.0 - m) + (n - 1.0)
        if factor == 0.0:
            break  # integer m: every later coefficient carries this zero
        coefs.append(coefs[-1] * factor / n * (n - 0.5) / (n + 0.5))
        if adaptive:
            r_pow *= r_max
            term = abs(coefs[-1]) * r_pow
            bound_sum += coefs[-1] * r_pow
            abs_sum += term
            if term <= trunc.term_tol * abs(bound_sum):
                # bound_sum is a sum in doubles: its rounding, about
                # eps * abs_sum, must not decide where the series stops
                if _EPS * abs_sum > 0.01 * abs(bound_sum):
                    raise ConvergenceError(
                        "correction series cancels past double precision at "
                        f"r_max: its stop rule cannot be trusted (m={m:g})")
                break
    else:
        if adaptive:
            raise ConvergenceError(
                f"correction series needs more than {_SERIES_CAP} terms "
                f"for term_tol={trunc.term_tol:g}")
    res = require_converged(
        _backend.kernels.r2_term_scaled(tuple(coefs), m, b, spec),
        "correction series quadrature did not converge")
    return SeriesResult(res.value, len(coefs))


def aber_closed_with_terms(ch: ChannelParams, mod: Modulation,
                           trunc: TruncationPolicy | None = None) -> tuple[float, int]:
    """Series closed form of the average BER; returns (value, terms used).

    Combines the averaged Q and Q^2 pieces into
    (4*c0 - 2*c0^2) * E[Q] + 4*c0^2 * R2, E[Q] = (1/2) * I_x(m, 1/2).
    """
    c0 = mod.c0
    r2, terms = r2_series(ch, mod.c1, trunc)
    avg_q = lemma2_avg_q(ch, mod.c1)
    return (4.0 * c0 - 2.0 * c0 * c0) * avg_q + 4.0 * c0 * c0 * r2, terms


def aber_closed(ch: ChannelParams, mod: Modulation,
                trunc: TruncationPolicy | None = None) -> float:
    """Series closed form of the average BER (value only)."""
    return aber_closed_with_terms(ch, mod, trunc)[0]


def aber_lu_closed(ch: ChannelParams, mod: Modulation) -> float:
    """Exact closed form of the averaged sum-of-Q BER approximation.

    4*c0 * sum_j E[Q(sqrt(2*c1*(2j-1)^2*snr))]; no truncation is
    involved, so it matches the quadrature of its own kernel to oracle
    accuracy.
    """
    total = 0.0
    for j in range(1, int(round(math.sqrt(mod.order))) // 2 + 1):
        k = 2.0 * j - 1.0
        total += lemma2_avg_q(ch, mod.c1 * k * k)
    return 4.0 * mod.c0 * total


def _ber_kernel(mod: Modulation, ber_kind: str, variant: QApproxVariant | None
                ) -> tuple[Callable[[float], float], float]:
    """(BER kernel, its slowest exponential decay rate in the SNR)."""
    if ber_kind == "exact":
        return channel._ber_exact_kernel(mod), mod.c1
    if ber_kind == "lu":
        return channel._ber_lu_kernel(mod), mod.c1
    if ber_kind == "expq":
        v = QApproxVariant.chiani_two_term() if variant is None else variant
        return (channel._ber_expq_kernel(mod, v),
                2.0 * mod.c1 * min(r for _, r in v.coefficients))
    raise ValueError("ber_kind must be 'exact', 'lu', or 'expq'")


def oracle_result(ch: ChannelParams, mod: Modulation, ber_kind: str = "exact",
                  spec: QuadratureSpec | None = None,
                  variant: QApproxVariant | None = None) -> QuadratureResult:
    """Average BER by direct quadrature of BER(snr)*pdf(snr) over [0, oo).

    Full diagnostic record; converged=False is reported, never hidden.
    """
    kernel, rate = _ber_kernel(mod, ber_kind, variant)
    return channel.fading_average(ch, kernel, spec, rate=rate)


def _converged_oracle(ch: ChannelParams, mod: Modulation, ber_kind: str = "exact",
                      spec: QuadratureSpec | None = None,
                      variant: QApproxVariant | None = None) -> QuadratureResult:
    return require_converged(oracle_result(ch, mod, ber_kind, spec, variant),
                             "average-BER quadrature did not reach its tolerance")


def aber_oracle(ch: ChannelParams, mod: Modulation, ber_kind: str = "exact",
                spec: QuadratureSpec | None = None,
                variant: QApproxVariant | None = None) -> float:
    """Average BER by direct quadrature; raises on non-convergence.

    The ConvergenceError carries the best value and error estimate, so
    callers that want the unconverged number can still read it.
    """
    return _converged_oracle(ch, mod, ber_kind, spec, variant).value


def aber_expq_closed(ch: ChannelParams, mod: Modulation,
                     variant: QApproxVariant | None = None) -> float:
    """Closed-form average BER under an exponential-sum Q approximation.

    Substituting Q(x) ~ sum w_i exp(-r_i x^2) into the BER turns the
    average into MGF evaluations at negative arguments, so no quadrature
    is needed.
    """
    v = QApproxVariant.chiani_two_term() if variant is None else variant
    c0 = mod.c0
    two_c1 = 2.0 * mod.c1
    linear = 0.0
    for w, r in v.coefficients:
        linear += w * channel.mgf(ch, -two_c1 * r)
    square = 0.0
    for wi, ri in v.coefficients:
        for wj, rj in v.coefficients:
            square += wi * wj * channel.mgf(ch, -two_c1 * (ri + rj))
    return 4.0 * c0 * linear - 4.0 * c0 * c0 * square


def discrepancy(reference: float, candidate: float) -> float:
    """Log-scaled relative deviation, 10*log10(|ref - cand| / ref), in dB.

    Returns -inf when the two coincide exactly (serialized as "-inf" in
    CSV output).  The reference must be a positive finite value.
    """
    if not (reference > 0.0 and math.isfinite(reference)):
        raise ValueError("reference must be positive and finite")
    if not math.isfinite(candidate):
        raise ValueError("candidate must be finite")
    d = abs((reference - candidate) / reference)
    if d == 0.0:
        return -math.inf
    return 10.0 * math.log10(d)


class AberMethod(_Value):
    """Tagged selector for one way of producing an average BER value.

    Exactly one payload may accompany its tag: closed_form carries a
    TruncationPolicy, oracle carries a QuadratureSpec, expq_closed
    carries a QApproxVariant, lu_closed carries nothing.
    """

    __slots__ = ("tag", "trunc", "spec", "variant")

    def __init__(self, tag: str, trunc: TruncationPolicy | None = None,
                 spec: QuadratureSpec | None = None,
                 variant: QApproxVariant | None = None):
        self._init(tag, trunc, spec, variant)
        if self.tag not in ("closed_form", "lu_closed", "oracle", "expq_closed"):
            raise ValueError("tag must be closed_form, lu_closed, oracle, or expq_closed")
        allowed = {"closed_form": "trunc", "oracle": "spec",
                   "expq_closed": "variant", "lu_closed": None}[self.tag]
        for name in ("trunc", "spec", "variant"):
            if name != allowed and getattr(self, name) is not None:
                raise ValueError(f"{self.tag} does not take {name}")

    @classmethod
    def closed_form(cls, trunc: TruncationPolicy | None = None) -> "AberMethod":
        return cls("closed_form", trunc=trunc)

    @classmethod
    def lu_closed(cls) -> "AberMethod":
        return cls("lu_closed")

    @classmethod
    def oracle(cls, spec: QuadratureSpec | None = None) -> "AberMethod":
        return cls("oracle", spec=spec)

    @classmethod
    def expq_closed(cls, variant: QApproxVariant | None = None) -> "AberMethod":
        return cls("expq_closed", variant=variant)

    def label(self) -> str:
        """Stable CSV label; doubles as the sort key within a grid point."""
        if self.tag == "closed_form":
            t = TruncationPolicy() if self.trunc is None else self.trunc
            if t.mode == "fixed_terms":
                return f"closed(N={t.n_max})"
            return "closed(adaptive)"
        if self.tag == "lu_closed":
            return "lu"
        if self.tag == "oracle":
            return "oracle"
        v = QApproxVariant.chiani_two_term() if self.variant is None else self.variant
        return "expq(chiani)" if v.is_chiani else "expq(custom)"

    def evaluate(self, ch: ChannelParams, mod: Modulation) -> MethodValue:
        if self.tag == "closed_form":
            value, terms = aber_closed_with_terms(ch, mod, self.trunc)
            return MethodValue(value, terms, None)
        if self.tag == "lu_closed":
            return MethodValue(aber_lu_closed(ch, mod), 0, None)
        if self.tag == "oracle":
            res = _converged_oracle(ch, mod, spec=self.spec)
            return MethodValue(res.value, 0, res.error_estimate)
        return MethodValue(aber_expq_closed(ch, mod, self.variant), 0, None)
