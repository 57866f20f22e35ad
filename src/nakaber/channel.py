"""Nakagami-m channel statistics and square M-QAM bit error rates.

Holds the fading density, its moment generating function and the
quadrature of any average over it, the exact and approximate
instantaneous-BER expressions, and the exponential Gauss-Q
approximation family used as a baseline.  SNR is linear
everywhere in this module; db_to_linear is the package's one dB
conversion, for the CLI boundary.
"""

from __future__ import annotations

import math
import operator
from typing import Callable

from . import _purekernels as kernels
from . import quad
from .quad import _Value

__all__ = [
    "ChannelParams",
    "Modulation",
    "QApproxVariant",
    "SUPPORTED_ORDERS",
    "ber_exact",
    "ber_kernel",
    "ber_lu_approx",
    "db_to_linear",
    "fading_average",
    "mgf",
    "pdf",
    "q_exp_approx",
]

# square constellations only: the approximate-BER sum runs to sqrt(M)/2,
# which must be an integer
SUPPORTED_ORDERS = (4, 16, 64, 256, 1024, 4096)

_CHIANI_PAIRS = ((1.0 / 12.0, 0.5), (0.25, 2.0 / 3.0))

# fading_average's openings of [0, 2], each named by its interior cuts.
# It opens on the quarters below _QUARTERS_BELOW and on the halves at or
# above it: on a seed-601 perfbench oracle pass the quarters save 16.8%
# of the evaluations at 1e-10 and 3.5% at 1e-5, but cost 10.1% more at
# 1e-4, where most integrals converge on the halves
_QUARTERS_BELOW = 1e-5
_HALVES = (1.0,)
_QUARTERS = (0.5, 1.0, 1.5)
# below _GRADED_BELOW it opens on cuts graded towards the end each map
# family goes on to refine: x = 2 under the m <= 1 rational tail fold,
# x = 0 under the m > 1 head.  Against the quarters on the seed-601 pass
# they cost 16.4% more at 3e-7 and 3.5% at 1e-7, and save 3.2% at 3e-8,
# 8.3% at 1e-9, 15.6% at 1e-10 and 15.4% at 1e-11
_GRADED_BELOW = 1e-7
_GRADED_FOLD = (0.5, 1.0, 1.5, 1.75, 1.875, 1.9375)
_GRADED_HEAD = (0.25, 0.5, 1.0, 1.5)


def db_to_linear(snr_db: float) -> float:
    """dB to linear power ratio; the only dB conversion in the package.

    Raises ValueError, naming the dB value, for NaN and +inf, above about
    3,083 dB, where the ratio overflows a float, and below about
    -3,236 dB, where it underflows to 0.0.
    """
    if not snr_db < math.inf:
        raise ValueError(f"{snr_db:g} dB is not a finite number")
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"{snr_db:g} dB overflows a float as a linear "
                         "ratio (the limit is about 3083 dB)") from None
    if ratio == 0.0:
        raise ValueError(f"{snr_db:g} dB underflows a float to 0 as a "
                         "linear ratio (the limit is about -3236 dB)")
    return ratio


class ChannelParams(_Value):
    """Nakagami-m fading parameters.

    m is the fading figure (m < 1 means fading heavier than Rayleigh,
    m = 1 is Rayleigh); mean_snr is the mean SNR as a linear power
    ratio, never dB.
    """

    __slots__ = ("m", "mean_snr")

    def __init__(self, m: float, mean_snr: float):
        self._init(m, mean_snr)
        if not (self.m > 0.0 and math.isfinite(self.m)):
            raise ValueError("fading figure m must be positive and finite")
        if not (self.mean_snr > 0.0 and math.isfinite(self.mean_snr)):
            raise ValueError("mean_snr must be positive and finite (linear scale)")


class Modulation(_Value):
    """Square M-QAM constellation with its BER expansion coefficients
    c0 and c1, derived from the order."""

    __slots__ = ("order", "c0", "c1")

    def __init__(self, order: int):
        # a NumPy integer is kept as an int; 4.0 is refused, as isqrt would
        try:
            order = operator.index(order)
        except TypeError:
            order = None
        if order not in SUPPORTED_ORDERS:
            raise ValueError(f"order must be one of {SUPPORTED_ORDERS}")
        root = math.sqrt(order)
        bits = math.log2(order)
        self._init(order, (root - 1.0) / (root * bits),
                   3.0 * bits / (2.0 * (order - 1.0)))

    @property
    def odd_multipliers(self) -> tuple[int, ...]:
        """1, 3, ..., sqrt(M) - 1, the Q-argument multipliers of ber_lu_approx."""
        return tuple(range(1, math.isqrt(self.order), 2))


class QApproxVariant(_Value):
    """Exponential-sum approximation of the Gaussian tail.

    Q(x) ~ sum(w_i * exp(-r_i * x^2)) over the (weight, rate) pairs in
    coefficients; the sum averages in closed form through the MGF.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[tuple[float, float], ...]):
        self._init(coefficients)
        if not self.coefficients:
            raise ValueError("an exponential sum needs at least one (weight, rate) pair")
        for w, r in self.coefficients:
            if not (w > 0.0 and math.isfinite(w) and r > 0.0 and math.isfinite(r)):
                raise ValueError("weights and rates must be positive and finite")

    @classmethod
    def chiani_two_term(cls) -> "QApproxVariant":
        """Two-term exponential bound-derived approximation,
        Q(x) ~ e^{-x^2/2}/12 + e^{-2x^2/3}/4."""
        return cls(_CHIANI_PAIRS)

    @classmethod
    def from_pairs(cls, pairs) -> "QApproxVariant":
        return cls(tuple((float(w), float(r)) for w, r in pairs))

    @property
    def is_chiani(self) -> bool:
        return self.coefficients == _CHIANI_PAIRS


def pdf(ch: ChannelParams, snr: float) -> float:
    """Density of the instantaneous SNR at a linear value snr >= 0.

    Computed in log space, in z = snr/mean_snr, so large m and extreme
    mean SNR cannot overflow the gamma-function prefactor: the density
    is exp(log_k + (m-1)*log(z) - m*(z-1)) / mean_snr, with log_k =
    kernels.log_peak_density(m), the constant fading_average takes.
    Near z = 1, where (m-1)*log(z) and m*(z-1) cancel, the exponent is
    m*(log1p(s) - s) - log1p(s), s = z - 1.  At snr = inf it is the
    density's limit, 0.0, for every m.
    """
    if not snr >= 0.0:
        raise ValueError("pdf requires snr >= 0")
    if snr == math.inf:
        return 0.0  # (m-1)*log(z) - m*z would be inf - inf at m >= 1
    m = ch.m
    gbar = ch.mean_snr
    if snr == 0.0:
        # limit of the gamma density at the origin
        if m > 1.0:
            return 0.0
        if m == 1.0:
            return 1.0 / gbar
        return math.inf
    z = snr / gbar
    s = z - 1.0
    if abs(s) < 0.1:
        lz = math.log1p(s)
        log_f = m * _log1p_minus_small(s) - lz
    else:
        # log(z) itself, since log1p(z - 1) is -inf for a subnormal z;
        # a z that leaves double range keeps its log as a difference
        lz = math.log(z) if 1e-300 < z < 1e300 else math.log(snr) - math.log(gbar)
        log_f = (m - 1.0) * lz - m * s
    log_f += kernels.log_peak_density(m)
    if abs(log_f) < 700.0:
        return math.exp(log_f) / gbar
    # past double range before the 1/mean_snr factor: m < 1 densities
    # are unbounded at the origin, so saturate like the snr == 0 branch
    # instead of raising once exp leaves double range
    log_f -= math.log(gbar)
    return math.inf if log_f > 709.0 else math.exp(log_f)


def mgf(ch: ChannelParams, p: float) -> float:
    """E[exp(p*snr)] = (1 - p*mean_snr/m)^(-m), left of the pole.

    For p < 0 it is kernels.mgf_power(m, b, 1), b = (m/mean_snr)/(-p),
    which holds where p*mean_snr/m overflows; where b underflows to 0
    it raises ValueError."""
    if not math.isfinite(p):
        raise ValueError("mgf requires finite p")
    if p < 0.0:
        b = ch.m / ch.mean_snr / -p
        if b == 0.0:
            raise _ratio_underflow(ch)
        power, log_power = kernels.mgf_power(ch.m, b, 1.0)
        return power * math.exp(log_power)
    u = p * ch.mean_snr / ch.m
    if not u < 1.0:
        raise ValueError("mgf is undefined at or beyond the pole p = m/mean_snr")
    return math.exp(-ch.m * math.log1p(-u))


def _ratio_underflow(ch: ChannelParams) -> ValueError:
    """The refusal of a closed form whose m/(alpha*mean_snr) underflows
    to 0, where neither its MGF peak nor its incomplete beta keeps a
    value (at m = 1e-20 and 3080 dB both are about 1, not 0)."""
    snr_db = 10.0 * math.log10(ch.mean_snr)
    return ValueError(f"m={ch.m:g} at {snr_db:g} dB: m/(alpha*mean SNR) "
                      "underflows a float to 0")


def _log1p_minus_small(s: float) -> float:
    """log(1 + s) - s for |s| < 0.1, to full relative accuracy.

    The difference cancels there, so it is taken from
    log1p(s) - s = -s^2/(2+s) + 2*(atanh(u) - u), u = s/(2+s), with the
    odd atanh series summed; |u| < 0.053 leaves the first dropped term,
    2*u^17/17, below 1e-20 of the result."""
    u = s / (2.0 + s)
    u2 = u * u
    odd = u * u2 * (1.0 / 3.0 + u2 * (1.0 / 5.0 + u2 * (1.0 / 7.0 + u2 * (
        1.0 / 9.0 + u2 * (1.0 / 11.0 + u2 * (1.0 / 13.0 + u2 / 15.0))))))
    return -s * s / (2.0 + s) + 2.0 * odd


def fading_average(ch: ChannelParams, h: Callable[[float], float],
                   spec: quad.QuadratureSpec = quad.DEFAULT_SPEC,
                   rate: float = 0.0) -> quad.QuadratureResult:
    """E[h(snr)] = integral of h(snr) * pdf(snr) over [0, oo), by quadrature.

    h takes a linear SNR.  The one defining-average integrand: the
    average-BER oracle and the self-test identities all run through it.
    rate is the slowest exponential decay of h, h(snr) ~ e^(-rate*snr)
    up to slower factors (0 for an h that does not decay).  Every
    rate >= 0 defines the same integral, but only a rate near h's decay
    puts the mass where the quadrature looks: with rate=0 an h that
    decays fast against the mean SNR keeps its mass near z = 0, where the
    first panels can miss it.  A value of exactly 0.0 means no node saw
    mass, so it is reported with converged=False.

    The integral runs in z = snr / (mean_snr * lam), lam = 1/(1 + rate *
    mean_snr/m), where h * pdf behaves like z^(m-1) * e^(-m*z) at any
    mean SNR, so the mass sits at z = O(1).  The density's constant is
    taken once, in log space, from kernels.log_peak_density as pdf takes
    it, with its shape scaled to 1 at z = 1, near the mode, where large
    m concentrates the mass in a width of about 1/sqrt(m).  One finite
    quadrature over x in [0, 2] covers the head z <= 1 (x < 1) and the
    tail z >= 1 (x >= 1), so z = 1, x = 1, is an edge of every opening:
    the halves of [0, 2] at rel_tol 1e-5 and above, its quarters from
    1e-7 up to 1e-5, and below 1e-7 cuts graded towards the end the
    family refines, (0.5, 1, 1.5, 1.75, 1.875, 1.9375) for m <= 1 and
    (0.25, 0.5, 1, 1.5) for m > 1:
      head, m <= 1  z = x^(q/m), so z^(m-1) dz = (q/m)*x^(q-1) dx and
                    the density's endpoint power leaves the integrand;
                    the BER's sqrt(snr) term, powers of sqrt(z), becomes
                    x^(q-1+q/(2m)), x^(q-1+q/m), ..., with no exponent
                    below 2 for q = 2 and, at m <= 1/4, for q = 1, which
                    the head takes there (q = 1 above m = 1/4 left
                    x^(1/(2m)), a power below 1 for m > 1/2, where the
                    rule under-stated its error);
      head, m > 1   z = x^p, p = 4/sqrt(m), taken in logs: the
                    density's z^(m-1) and the jacobian p*z/x leave
                    x^(4*sqrt(m)-1), no endpoint power below 3, and the
                    BER's sqrt(z) terms add powers p/2; the power spreads
                    the mode's left flank, of width about 1/sqrt(m),
                    over the panel without squeezing it towards x = 0;
      tail, m <= 1  z = 1 + t/(m*(1-t)), t = x-1, a rational fold at the
                    tail's decay length 1/m;
      tail, m > 1   z = 1 - p*log(2-x), so e^(-m*z) becomes
                    e^(-m)*(2-x)^(4*sqrt(m)), with no decay squeezed
                    towards x = 2.
    A seed-601 perfbench oracle pass takes 261,000 evaluations: 265,020
    with q = 2 for every m <= 1, 313,380 on the quarters and 376,620 on
    the halves.  Measured on the halves, the m > 1 log head at m <= 1
    takes as many and about 4% more CPU; a log tail takes 6.0% fewer
    with p = 4/m but fails acceptance check 8, and 34% to 1,740% more
    with p = 2/m, 4/sqrt(m), 4 or 2.  On the quarters the p = 4/m log
    tail takes 7.3% fewer (290,490) and cuts check 8's oracle at 1e-4
    from 90 evaluations to 30; on the graded cuts it takes 7.4% more
    (280,320 on the m > 1 cuts, 314,370 on the m <= 1 ones).
    Each call builds one node closure, for m's map family (m <= 1 or
    m > 1), so no node tests m; an m <= 1 head node reads one flag, set
    once, for its jacobian, x where q = 2 and 1 where q = 1.
    Full diagnostic record; converged=False is reported, never hidden.
    """
    if not (rate >= 0.0 and math.isfinite(rate)):
        raise ValueError("rate must be finite and non-negative")
    m = ch.m
    tilt = rate * ch.mean_snr / m
    snr_per_z = ch.mean_snr / (1.0 + tilt)
    # the z-density (m*lam)^m z^(m-1) e^(-m*lam*z) / Gamma(m) is
    # exp(log_k + (m-1)*log(z) - m*(z-1) + rate*snr): log_k is
    # log((m*lam)^m * e^-m / Gamma(m)), and rate*snr = m*(1-lam)*z turns
    # the shape's e^(-m*z) back into e^(-m*lam*z)
    log_k = kernels.log_peak_density(m) - m * math.log1p(tilt)
    rate_per_z = rate * snr_per_z
    exp, expm1, log, log1p = math.exp, math.expm1, math.log, math.log1p
    log1p_minus = _log1p_minus_small
    if m <= 1.0:
        # z = x^(q/m) leaves jacobian (q/m)*x^(q-1): q = 2 above m = 1/4,
        # q = 1 at or below it, where sqrt(z) is already x^2 or flatter
        q = 1.0 if m <= 0.25 else 2.0
        log_k_head = log_k + math.log(q / m)
        head_power = q / m
        x_jac = q == 2.0
        width = 1.0 / m
        graded = _GRADED_FOLD

        def f(x: float) -> float:
            if x < 1.0:
                z = x ** head_power
                log_w = log_k_head + m * (1.0 - z)
                jac = x if x_jac else 1.0
            else:
                u = 2.0 - x
                if u <= 0.0:
                    # a panel edge can round onto x = 2, where the folded
                    # integrand of any integrable average vanishes
                    return 0.0
                t = x - 1.0
                s = width * t / u
                jac = width / (u * u)
                z = 1.0 + s
                lz = log1p(s)
                peak = lz - s if s >= 0.1 else log1p_minus(s)
                log_w = log_k + m * peak - lz
            w = exp(log_w + rate_per_z * z)
            if w == 0.0:
                return 0.0
            return h(snr_per_z * z) * (w * jac)
    else:
        power = 4.0 / math.sqrt(m)
        log_k_head = log_k + math.log(power)
        graded = _GRADED_HEAD

        def f(x: float) -> float:
            if x < 1.0:
                if x == 0.0:
                    return 0.0  # z = 0, where z^(m-1) vanishes
                lz = power * log(x)
                # z itself, not 1 - y, which rounds a z below 1e-16 to 0
                z = exp(lz)
                y = -expm1(lz)  # 1 - z, not cancelled against z
                # (m-1)*log(z) - m*(z-1) + log(dz/dx), dz/dx = p*z/x
                peak = lz + y if y >= 0.1 else log1p_minus(-y)
                log_w = log_k_head + m * peak - lz / power
                jac = 1.0
            else:
                u = 2.0 - x
                if u <= 0.0:
                    return 0.0  # x = 2, as for m <= 1
                s = -power * log(u)
                jac = power / u
                z = 1.0 + s
                lz = log1p(s)
                peak = lz - s if s >= 0.1 else log1p_minus(s)
                log_w = log_k + m * peak - lz
            w = exp(log_w + rate_per_z * z)
            if w == 0.0:
                return 0.0
            return h(snr_per_z * z) * (w * jac)

    # x = 1, where the head meets the tail, is a panel edge of every
    # opening
    if spec.rel_tol >= _QUARTERS_BELOW:
        splits = _HALVES
    elif spec.rel_tol >= _GRADED_BELOW:
        splits = _QUARTERS
    else:
        splits = graded
    res = quad.integrate_finite(f, 0.0, 2.0, spec, splits)
    if res.value == 0.0:
        return res._replace(converged=False)
    return res


def ber_kernel(mod: Modulation, kind: str = "exact",
               variant: QApproxVariant | None = None
               ) -> tuple[Callable[[float], float], float]:
    """(snr -> BER, its slowest exponential decay rate in the SNR), with
    mod's constants taken once: the one builder of every BER the oracle
    integrates.

    kind "exact" is ber_exact, rate c1; "lu" is ber_lu_approx, rate c1;
    "expq" is the exact BER's two-term form with Q replaced by the
    exponential sum variant, q_exp_approx(variant, .), Chiani's pair by
    default, rate 2*c1*min r_i.  The exact and lu nodes take each
    Q(z) as 0.5*erfc(z/sqrt(2)), the expression of kernels.gauss_q, with
    math.erfc bound when the kernel is built, and refuse snr < 0 and NaN.
    """
    four_c0 = 4.0 * mod.c0
    four_c0_sq = four_c0 * mod.c0
    two_c1 = 2.0 * mod.c1
    sqrt, erfc, sqrt1_2 = math.sqrt, math.erfc, kernels._SQRT1_2
    if kind == "exact":
        def ber(snr: float) -> float:
            if not snr >= 0.0:
                raise ValueError("ber_exact requires snr >= 0")
            q = 0.5 * erfc(sqrt(two_c1 * snr) * sqrt1_2)
            return four_c0 * q - four_c0_sq * q * q

        return ber, mod.c1
    if kind == "lu":
        odd = mod.odd_multipliers

        def ber(snr: float) -> float:
            if not snr >= 0.0:
                raise ValueError("ber_lu_approx requires snr >= 0")
            base = sqrt(two_c1 * snr)
            total = 0.0
            for k in odd:
                total += 0.5 * erfc(k * base * sqrt1_2)
            return four_c0 * total

        return ber, mod.c1
    if kind == "expq":
        v = QApproxVariant.chiani_two_term() if variant is None else variant

        def ber(snr: float) -> float:
            q = q_exp_approx(v, sqrt(two_c1 * snr))
            return four_c0 * q - four_c0_sq * q * q

        return ber, two_c1 * min(r for _, r in v.coefficients)
    raise ValueError("ber_kind must be 'exact', 'lu', or 'expq'")


def ber_exact(mod: Modulation, snr: float) -> float:
    """Instantaneous BER of square M-QAM with Gray mapping,
    4*c0*Q - 4*c0^2*Q^2 at Q = Q(sqrt(2*c1*snr))."""
    return ber_kernel(mod)[0](snr)


def ber_lu_approx(mod: Modulation, snr: float) -> float:
    """Classical sum-of-Q approximation of the M-QAM BER.

    4*c0 * sum_{j=1}^{sqrt(M)/2} Q((2j-1) * sqrt(2*c1*snr)); the odd
    multipliers scale the Q argument, not its square.
    """
    return ber_kernel(mod, "lu")[0](snr)


def q_exp_approx(v: QApproxVariant, x: float) -> float:
    """Q(x) under the exponential-sum variant v."""
    if not x >= 0.0:
        raise ValueError("q_exp_approx requires x >= 0")
    x2 = x * x
    total = 0.0
    for w, r in v.coefficients:
        total += w * math.exp(-r * x2)
    return total
