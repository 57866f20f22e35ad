"""Average bit error rate of square M-QAM over Nakagami-m fading.

Three independent routes to the same quantity live here: a closed form
built from an incomplete beta and either a correction term, the
paper's series of Appell-F1 terms truncated and summed over one
sequence of Gauss functions (by quadrature in fixed point where that
sum cancels), or its untruncated limit, E[Q^2] as one hypergeometric
sum with no quadrature; an exact closed form for the sum-of-Q BER
approximation; and direct adaptive quadrature of the defining average,
which acts as the reference the closed forms are judged against.  The
discrepancy metric, the truncated series and the averaged Q and Q^2 are
exposed so the comparison machinery can be driven from the CLI; the
Craig-form quadrature of the correction term is the tests' reference.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import _purekernels as kernels
from . import channel
from .channel import ChannelParams, Modulation, QApproxVariant
from .quad import (DEFAULT_SPEC, ConvergenceError, QuadratureResult,
                   QuadratureSpec, _Value, require_converged)

__all__ = [
    "AberMethod",
    "RouteValue",
    "TruncationPolicy",
    "aber_closed",
    "aber_closed_with_terms",
    "aber_expq_closed",
    "aber_lu_closed",
    "aber_oracle",
    "avg_q_squared",
    "discrepancy",
    "lemma2_avg_q",
    "oracle_result",
    "r2_quadrature",
    "r2_series",
]

# largest n_max a fixed truncation takes
_SERIES_CAP = 200
# the tolerance of r2_series' sum guard and series quadrature
_SERIES_SPEC = QuadratureSpec(rel_tol=1e-11)
_EPS = 2.220446049250313e-16
# largest m the closed-form E[Q] takes (see lemma2_avg_q)
_AVG_Q_M_MAX = 1e4
# a term at most this share of a sum lies below half the sum's ulp
_BELOW_HALF_ULP = 2.0 ** -55
# the ConvergenceError message of an oracle that misses its tolerance
_ORACLE_UNCONVERGED = "average-BER quadrature did not reach its tolerance"
# the oracle's and expq's default variant
_CHIANI = QApproxVariant.chiani_two_term()


class TruncationPolicy(_Value):
    """How the closed form gets its correction term R2.

    fixed_terms sums the paper's series for indices n = 0..n_max
    inclusive, so n_max = 0 is the one-term evaluation; an integer m
    stops the series at its exact zero.  adaptive takes the series'
    N -> oo limit instead, E[Q^2] as one hypergeometric sum
    (avg_q_squared), and keeps no terms: term_tol sets how many
    terms of that sum are taken, K = ceil(log2(4/term_tol)) + 1, so its
    tail lies below term_tol/4 (43 terms at 1e-12).  term_tol stops at
    1e-13 (_purekernels._TERM_TOL_MIN), the floor of the contract, where
    the Craig-form reference r2_quadrature sits at its 50*eps roundoff
    floor.
    """

    __slots__ = ("mode", "n_max", "term_tol")

    def __init__(self, mode: str = "fixed_terms", n_max: int = 5,
                 term_tol: float = 1e-12):
        self._init(mode, n_max, term_tol)
        if self.mode not in ("fixed_terms", "adaptive"):
            raise ValueError("mode must be 'fixed_terms' or 'adaptive'")
        if not (0 <= self.n_max <= _SERIES_CAP):
            raise ValueError(f"n_max must lie in [0, {_SERIES_CAP}]")
        if not (kernels._TERM_TOL_MIN <= self.term_tol <= 1e-4):
            raise ValueError(f"term_tol must lie in [{kernels._TERM_TOL_MIN:g}, 1e-4]")

    @classmethod
    def fixed(cls, n_max: int) -> "TruncationPolicy":
        return cls("fixed_terms", n_max=n_max)

    @classmethod
    def adaptive(cls, term_tol: float = 1e-12) -> "TruncationPolicy":
        return cls("adaptive", term_tol=term_tol)


# the closed form's default, the paper's five-term evaluation
_FIVE_TERMS = TruncationPolicy()


class RouteValue(NamedTuple):
    """One value from a route, with what kind of number it is.

    kind is "exact" (the oracle), "truncated" (the paper's series cut
    at N: closed(N) and r2_series), "untruncated" (closed(adaptive)) or
    "approximation" (lu and expq average an approximate BER).
    terms_used counts the series terms summed, 0 where none are.
    error_estimate is the oracle's quadrature estimate, None elsewhere.
    Only converged values are returned: a quadrature that misses its
    tolerance raises ConvergenceError instead.
    """
    value: float
    kind: str
    terms_used: int
    error_estimate: float | None


def lemma2_avg_q(ch: ChannelParams, alpha: float) -> float:
    """Fading average of Q(sqrt(2*alpha*snr)), in closed form.

    Equals (1/2) * I_x(m, 1/2) with x = m/(m + alpha*mean_snr); checked
    against direct quadrature of the defining average by the self tests.
    Every route that averages Q in closed form (closed, lu) goes through
    this rule: closed calls it, and lu sums its terms through it in one
    pass (_avg_q_sum, of which this is the one-term case).  Each term is
    one call of the reg_inc_beta kernel, which takes its continued
    fraction from _beta_start, the one start of the incomplete beta,
    which closed(N)'s r2_sum takes too.

    The kernel takes y = 1 - x = alpha*mean_snr/(m + alpha*mean_snr)
    computed directly, not as 1 - x, which would keep only the rounding
    of x at low mean SNR: past its switch x = m/(m + 1/2) it returns the
    complement 1 - I_y(1/2, m), taken on y.  What error is left grows
    with m, from the continued fraction, whose leading terms cancel to
    O(1/m) near x = m/(m + c): against 40-digit references over all six
    orders it is at most 1.9e-13 at m = 100, 1.2e-12 at m = 3000 and
    2.1e-12 at m = 5000 (-30 to 80 dB, 0.5 dB steps), and 5.4e-12 at
    m = 1e4 (-30 to 40 dB in 0.02 dB steps, at 10.42 dB; 0.5 dB steps
    to 80 dB).  For m above _AVG_Q_M_MAX = 1e4 it raises
    ConvergenceError: the error keeps growing with m, and huge m needs a
    route of its own.  Where x underflows to 0 it raises ValueError:
    I_x(m, 1/2) is then about x^m, which is near 1 at tiny m.
    """
    return _avg_q_sum(ch, alpha, (1,))


def _avg_q_sum(ch: ChannelParams, alpha: float, ks) -> float:
    """Sum over k in ks, rising, of the fading average of
    Q(sqrt(2*alpha*k^2*snr)), each term by lemma2_avg_q's rule.

    Each term is one reg_inc_beta call on x = m/(m + c) and
    y = c/(m + c), c = alpha*k^2*mean_snr, with b = m/(alpha*mean_snr)
    and k^2 in place of m and c where c overflows.  The terms fall as k
    rises.  Once one is at most 2^-55 of the running total, it and every
    later one lie below half the total's ulp, so none can change it: the
    sum stops calling the kernel there and returns the same double.
    Every later k still has its x checked, so a refusal where x
    underflows is raised as before."""
    b = _ratio(ch, alpha)  # for the x and y of a c past DBL_MAX
    m, snr = ch.m, ch.mean_snr
    if m > _AVG_Q_M_MAX:
        raise ConvergenceError(
            f"closed-form E[Q] is not accurate to 1e-10 for m above "
            f"{_AVG_Q_M_MAX:g} (m={m:g})")
    reg_inc_beta = kernels.reg_inc_beta
    log_b = kernels.log_beta(m, 0.5)
    total = 0.0
    settled = False
    for k in ks:
        c = alpha * k * k * snr
        p, q = (m, c) if c < math.inf else (b, k * k)
        x, y = p / (p + q), q / (p + q)
        if not x > 0.0:
            # x ~ b/k^2 can underflow where b does not (1e-20, 3055 dB)
            raise channel._ratio_underflow(ch)
        if settled:
            continue
        term = 0.5 * reg_inc_beta(x, y, m, 0.5, log_b)
        settled = term <= _BELOW_HALF_ULP * total
        total += term
    return total


def _ratio(ch: ChannelParams, alpha: float) -> float:
    """b = m/(alpha*mean_snr), which the correction-term kernels,
    avg_q_squared and lemma2_avg_q's rule take.  Where alpha*mean_snr
    underflows to 0 it is inf, the mean SNR -> 0 limit every closed form
    serves.  Raises ValueError for a bad alpha and where b underflows to
    0, as the MGF does."""
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValueError("alpha must be positive and finite")
    c = alpha * ch.mean_snr
    b = ch.m / c if c > 0.0 else math.inf
    if b == 0.0:
        raise channel._ratio_underflow(ch)
    return b


def avg_q_squared(ch: ChannelParams, alpha: float, term_tol: float) -> float:
    """Fading average of Q(sqrt(2*alpha*snr))^2, lemma2_avg_q's twin.

    The one E[Q^2] the library serves: the avg_q_squared kernel's
    hypergeometric sum, its tail below term_tol/4, which closed(adaptive)
    takes and the self tests check against direct quadrature of the
    defining average.  It refuses what _ratio refuses.
    """
    return kernels.avg_q_squared(ch.m, _ratio(ch, alpha), term_tol)


def r2_quadrature(ch: ChannelParams, alpha: float,
                  spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Squared-Q correction term by adaptive quadrature.

    This is the series-free reference for the correction, the Craig-form
    R2 the tests check the series and closed(adaptive) against: the
    fading average of Q^2 equals (1/4)*I_x(m, 1/2) minus this value.
    The r2_integral kernel writes it with Craig's form of Q and Q^2 as
    E[Q]/2 - E[Q^2], one positive integral of elementary functions over
    Craig's angle on [0, pi/4]; it needs no incomplete beta per node and
    a few hundred evaluations at most.  No route, self test or command
    calls it.
    """
    return require_converged(
        kernels.r2_integral(_ratio(ch, alpha), ch.m, spec),
        "squared-Q correction quadrature did not converge").value


def r2_series(ch: ChannelParams, alpha: float, n_max: int = 5) -> RouteValue:
    """Squared-Q correction term as the paper's truncated series.

    Term n is B(n+m+1, 1/2)/(4*pi*B(1/2, m)) * c_n * b^m
    * F1(n+m+1; m, n+1/2; n+m+3/2; -b, -(1+b)), with
    c_n = (1-m)_n / (n! (n+1/2)) and b = m/(alpha*mean_snr).  Every F1
    shares one theta-integrand times r(theta)^n, so the terms kept,
    n = 0..n_max, are one integral of a polynomial P_N(r), and the
    r2_sum kernel sums that integral with no quadrature, over one
    sequence of Gauss functions.  For integer m (1-m)_n hits an exact
    zero and the series terminates at n = m-1 with the closed form
    exact.  For m > 1 the coefficients alternate in sign, and the sum
    can be far smaller than its terms (by about 1.5^m at high mean
    SNR).  Where that cancellation, the sum's kappa, lets its rounding
    reach a tenth of the series tolerance (_SERIES_SPEC, rel_tol 1e-11),
    or where the sum would take more than 400 terms (from m = 220 at
    high mean SNR), the r2_term_scaled kernel integrates P_N(r) by
    quadrature at that tolerance, on the exact coefficients of m in
    fixed point.  Raises ValueError for n_max outside [0, 200], and
    ConvergenceError if the quadrature does not converge or if P_N(r_max)
    keeps fewer than 64 bits in fixed point.
    """
    if not 0 <= n_max <= _SERIES_CAP:
        raise ValueError(f"n_max must lie in [0, {_SERIES_CAP}]")
    m = ch.m
    b = _ratio(ch, alpha)

    coefs = [2.0]  # c_0 = 1/(1/2)
    for n in range(1, n_max + 1):
        factor = (1.0 - m) + (n - 1.0)
        if factor == 0.0:
            break  # integer m: every later coefficient carries this zero
        coefs.append(coefs[-1] * factor / n * (n - 0.5) / (n + 0.5))
    served = kernels.r2_sum(coefs, m, b)
    if (served is not None
            and 4 * len(coefs) * _EPS * served[1] <= 0.1 * _SERIES_SPEC.rel_tol):
        return RouteValue(served[0], "truncated", len(coefs), None)
    res = require_converged(
        kernels.r2_term_scaled(len(coefs), m, b, _SERIES_SPEC),
        "correction series quadrature did not converge")
    return RouteValue(res.value, "truncated", len(coefs), None)


def aber_closed_with_terms(ch: ChannelParams, mod: Modulation,
                           trunc: TruncationPolicy = _FIVE_TERMS) -> RouteValue:
    """Series closed form of the average BER, with the terms it used.

    A fixed policy combines the averaged Q and Q^2 pieces into
    (4*c0 - 2*c0^2) * E[Q] + 4*c0^2 * R2, E[Q] = (1/2) * I_x(m, 1/2),
    with R2 from r2_series at N = trunc.n_max, a "truncated" value.  The
    adaptive policy takes the series' untruncated limit,
    4*c0 * E[Q] - 4*c0^2 * E[Q^2] with E[Q^2] from
    avg_q_squared at trunc.term_tol, an "untruncated" value of 0
    terms and no quadrature.  It never forms R2 = E[Q]/2 - E[Q^2], which
    cancels at low mean SNR: E[Q^2] <= E[Q]/2 and c0 <= 1/4, so the
    subtracted term is at most 1/8 of the first, and E[Q^2]'s relative
    error grows by at most 8/7 in the value.
    """
    c0 = mod.c0
    # E[Q] first: it refuses m above 1e4 before the correction is formed
    avg_q = lemma2_avg_q(ch, mod.c1)
    if trunc.mode == "adaptive":
        avg_q2 = avg_q_squared(ch, mod.c1, trunc.term_tol)
        return RouteValue(4.0 * c0 * avg_q - 4.0 * c0 * c0 * avg_q2,
                          "untruncated", 0, None)
    r2, kind, terms, _ = r2_series(ch, mod.c1, trunc.n_max)
    return RouteValue((4.0 * c0 - 2.0 * c0 * c0) * avg_q + 4.0 * c0 * c0 * r2,
                      kind, terms, None)


def aber_closed(ch: ChannelParams, mod: Modulation,
                trunc: TruncationPolicy = _FIVE_TERMS) -> float:
    """Series closed form of the average BER (value only)."""
    return aber_closed_with_terms(ch, mod, trunc).value


def aber_lu_closed(ch: ChannelParams, mod: Modulation) -> float:
    """Exact closed form of the averaged sum-of-Q BER approximation.

    4*c0 * sum_j E[Q(sqrt(2*c1*(2j-1)^2*snr))], j = 1..sqrt(M)/2, summed
    in one pass through Lemma 2's rule; no truncation is involved, so it
    matches the quadrature of its own kernel to oracle accuracy.
    """
    return 4.0 * mod.c0 * _avg_q_sum(ch, mod.c1, mod.odd_multipliers)


def oracle_result(ch: ChannelParams, mod: Modulation, ber_kind: str = "exact",
                  spec: QuadratureSpec = DEFAULT_SPEC,
                  variant: QApproxVariant = _CHIANI) -> QuadratureResult:
    """Average BER by direct quadrature of BER(snr)*pdf(snr) over [0, oo).

    ber_kind is channel.ber_kernel's kind ("exact", "lu" or "expq",
    the last under variant); its kernel is built once and averaged by
    channel.fading_average at the kernel's decay rate.
    Full diagnostic record; converged=False is reported, never hidden.
    """
    kernel, rate = channel.ber_kernel(mod, ber_kind, variant)
    return channel.fading_average(ch, kernel, spec, rate=rate)


def aber_oracle(ch: ChannelParams, mod: Modulation, ber_kind: str = "exact",
                spec: QuadratureSpec = DEFAULT_SPEC,
                variant: QApproxVariant = _CHIANI) -> float:
    """Average BER by direct quadrature; raises on non-convergence.

    The ConvergenceError carries the best value and error estimate, so
    callers that want the unconverged number can still read it.
    """
    return require_converged(oracle_result(ch, mod, ber_kind, spec, variant),
                             _ORACLE_UNCONVERGED).value


def aber_expq_closed(ch: ChannelParams, mod: Modulation,
                     variant: QApproxVariant = _CHIANI) -> float:
    """Closed-form average BER under an exponential-sum Q approximation.

    Substituting Q(x) ~ sum w_i exp(-r_i x^2) into the BER turns the
    average into MGF evaluations at negative arguments, so no quadrature
    is needed.
    """
    c0 = mod.c0
    two_c1 = 2.0 * mod.c1
    linear = 0.0
    for w, r in variant.coefficients:
        linear += w * channel.mgf(ch, -two_c1 * r)
    square = 0.0
    for wi, ri in variant.coefficients:
        for wj, rj in variant.coefficients:
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


# each AberMethod tag's payload type and the default that fills a
# missing payload: the one its route function takes
_PAYLOADS = {"closed_form": (TruncationPolicy, _FIVE_TERMS),
             "lu_closed": (type(None), None),
             "oracle": (QuadratureSpec, DEFAULT_SPEC),
             "expq_closed": (QApproxVariant, _CHIANI)}


class AberMethod(_Value):
    """Tagged selector for one way of producing an average BER value.

    payload is what its route runs with: closed_form takes a
    TruncationPolicy, oracle a QuadratureSpec, expq_closed a
    QApproxVariant, and lu_closed nothing (None).  A payload left out is
    the route's default.
    """

    __slots__ = ("tag", "payload")

    def __init__(self, tag: str, payload=None):
        if tag not in _PAYLOADS:
            raise ValueError("tag must be closed_form, lu_closed, oracle, or expq_closed")
        kind, default = _PAYLOADS[tag]
        if payload is None:
            payload = default
        elif not isinstance(payload, kind):
            raise ValueError(f"{tag} does not take a {type(payload).__name__}")
        self._init(tag, payload)

    @classmethod
    def closed_form(cls, trunc: TruncationPolicy | None = None) -> "AberMethod":
        return cls("closed_form", trunc)

    @classmethod
    def lu_closed(cls) -> "AberMethod":
        return cls("lu_closed")

    @classmethod
    def oracle(cls, spec: QuadratureSpec | None = None) -> "AberMethod":
        return cls("oracle", spec)

    @classmethod
    def expq_closed(cls, variant: QApproxVariant | None = None) -> "AberMethod":
        return cls("expq_closed", variant)

    def label(self) -> str:
        """Stable CSV label; doubles as the sort key within a grid point."""
        tag, payload = self.tag, self.payload
        if tag == "closed_form":
            if payload.mode == "fixed_terms":
                return f"closed(N={payload.n_max})"
            return "closed(adaptive)"
        if tag == "expq_closed":
            return "expq(chiani)" if payload.is_chiani else "expq(custom)"
        return "lu" if tag == "lu_closed" else "oracle"

    def evaluate(self, ch: ChannelParams, mod: Modulation) -> RouteValue:
        if self.tag == "closed_form":
            return aber_closed_with_terms(ch, mod, self.payload)
        if self.tag == "oracle":
            res = require_converged(oracle_result(ch, mod, spec=self.payload),
                                    _ORACLE_UNCONVERGED)
            return RouteValue(res.value, "exact", 0, res.error_estimate)
        if self.tag == "lu_closed":
            return RouteValue(aber_lu_closed(ch, mod), "approximation", 0, None)
        return RouteValue(aber_expq_closed(ch, mod, self.payload),
                          "approximation", 0, None)
