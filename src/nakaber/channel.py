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
from typing import Callable

from . import _backend, quad
from .quad import _Value

__all__ = [
    "ChannelParams",
    "Modulation",
    "QApproxVariant",
    "SUPPORTED_ORDERS",
    "ber_exact",
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


def db_to_linear(snr_db: float) -> float:
    """dB to linear power ratio; the only dB conversion in the package."""
    return 10.0 ** (snr_db / 10.0)


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
        if order not in SUPPORTED_ORDERS:
            raise ValueError(f"order must be one of {SUPPORTED_ORDERS}")
        root = math.sqrt(order)
        bits = math.log2(order)
        self._init(order, (root - 1.0) / (root * bits),
                   3.0 * bits / (2.0 * (order - 1.0)))


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

    Computed in log space so large m and extreme mean SNR cannot
    overflow the gamma-function prefactor.
    """
    if not snr >= 0.0:
        raise ValueError("pdf requires snr >= 0")
    m = ch.m
    gbar = ch.mean_snr
    if snr == 0.0:
        # limit of the gamma density at the origin
        if m > 1.0:
            return 0.0
        if m == 1.0:
            return 1.0 / gbar
        return math.inf
    log_f = (m * math.log(m / gbar) + (m - 1.0) * math.log(snr)
             - m * snr / gbar - _backend.kernels.log_gamma(m))
    # m < 1 densities are unbounded at the origin; saturate like the
    # snr == 0 branch instead of raising once exp leaves double range
    if log_f > 709.0:
        return math.inf
    return math.exp(log_f)


def mgf(ch: ChannelParams, p: float) -> float:
    """E[exp(p*snr)] = (1 - p*mean_snr/m)^(-m), left of the pole."""
    if not math.isfinite(p):
        raise ValueError("mgf requires finite p")
    u = p * ch.mean_snr / ch.m
    if not u < 1.0:
        raise ValueError("mgf is undefined at or beyond the pole p = m/mean_snr")
    return math.exp(-ch.m * math.log1p(-u))


def _log_peak_density(m: float) -> float:
    """log(m^m * e^-m / Gamma(m)), the Gamma(m, 1/m) density at z = 1
    with its factor z^(m-1) * e^(-m*(z-1)) divided out.

    Past m = 100 it comes from Stirling's series, because m*log(m) - m
    and lgamma(m) cancel to a residue of about log(m)/2 there."""
    if m < 100.0:
        return m * math.log(m) - m - _backend.kernels.log_gamma(m)
    inv2 = 1.0 / (m * m)
    return (0.5 * math.log(m / (2.0 * math.pi))
            - (1.0 / 12.0 - (1.0 / 360.0 - inv2 / 1260.0) * inv2) / m)


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
                   spec: quad.QuadratureSpec | None = None,
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
    taken once, in log space, with its shape scaled to 1 at z = 1, near
    the mode, where large m concentrates the mass in a width of about
    1/sqrt(m).  One finite quadrature over x in [0, 2] covers the head
    z <= 1 (x < 1) and the tail z >= 1 (x >= 1), so its first bisection
    falls on z = 1:
      head, m <= 1  z = x^(1/m), so z^(m-1) dz = dx/m and the density's
                    endpoint power leaves the integrand;
      head, m > 1   z = x/(x + w*(1-x)), which spreads the mode's left
                    flank, of width w = 1/sqrt(m), over the whole panel;
      tail          z = 1 + w*t/(1-t), t = x-1, with w = 1/m for m <= 1
                    (the tail's decay length) and 1/sqrt(m) above.
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
    log_k = _log_peak_density(m) - m * math.log1p(tilt)
    rate_per_z = rate * snr_per_z
    power_head = m <= 1.0
    log_k_head = log_k - math.log(m)
    head_power = 1.0 / m
    width = 1.0 / m if power_head else 1.0 / math.sqrt(m)
    exp, log, log1p, log1p_minus = math.exp, math.log, math.log1p, _log1p_minus_small

    def f(x: float) -> float:
        if x < 1.0:
            if power_head:
                z = x ** head_power
                log_w = log_k_head + m * (1.0 - z)
                jac = 1.0
            else:
                d = x + width * (1.0 - x)
                y = width * (1.0 - x) / d  # 1 - z, kept exact near the mode
                if y >= 1.0:
                    return 0.0  # z = 0, where z^(m-1) vanishes
                z = x / d
                lz = log(z)
                # (m-1)*log(z) - m*(z-1) = m*(log1p(-y) + y) - log(z)
                peak = lz + y if y >= 0.1 else log1p_minus(-y)
                log_w = log_k + m * peak - lz
                jac = width / (d * d)
        else:
            t = x - 1.0
            u = 1.0 - t
            if u <= 0.0:
                # a panel edge can round onto t = 1, where the folded
                # integrand of any integrable average vanishes
                return 0.0
            s = width * t / u
            z = 1.0 + s
            lz = log1p(s)
            peak = lz - s if s >= 0.1 else log1p_minus(s)
            log_w = log_k + m * peak - lz
            jac = width / (u * u)
        w = exp(log_w + rate_per_z * z)
        if w == 0.0:
            return 0.0
        return h(snr_per_z * z) * (w * jac)

    res = quad.integrate_finite(f, 0.0, 2.0, spec)
    if res.value == 0.0:
        return res._replace(converged=False)
    return res


def _ber_exact_kernel(mod: Modulation) -> Callable[[float], float]:
    """snr -> ber_exact(mod, snr), with mod's constants taken once."""
    four_c0 = 4.0 * mod.c0
    four_c0_sq = four_c0 * mod.c0
    two_c1 = 2.0 * mod.c1
    kernels = _backend.kernels
    sqrt = math.sqrt

    def ber(snr: float) -> float:
        if not snr >= 0.0:
            raise ValueError("ber_exact requires snr >= 0")
        q = kernels.gauss_q(sqrt(two_c1 * snr))
        return four_c0 * q - four_c0_sq * q * q

    return ber


def _ber_lu_kernel(mod: Modulation) -> Callable[[float], float]:
    """snr -> ber_lu_approx(mod, snr), with mod's constants taken once."""
    four_c0 = 4.0 * mod.c0
    two_c1 = 2.0 * mod.c1
    odd = tuple(2.0 * j - 1.0
                for j in range(1, int(round(math.sqrt(mod.order))) // 2 + 1))
    kernels = _backend.kernels
    sqrt = math.sqrt

    def ber(snr: float) -> float:
        if not snr >= 0.0:
            raise ValueError("ber_lu_approx requires snr >= 0")
        base = sqrt(two_c1 * snr)
        total = 0.0
        for k in odd:
            total += kernels.gauss_q(k * base)
        return four_c0 * total

    return ber


def _ber_expq_kernel(mod: Modulation, v: QApproxVariant) -> Callable[[float], float]:
    """snr -> the exact BER's two-term form with Q replaced by the
    exponential sum v, q_exp_approx(v, .), and mod's constants taken once."""
    four_c0 = 4.0 * mod.c0
    four_c0_sq = four_c0 * mod.c0
    two_c1 = 2.0 * mod.c1
    sqrt = math.sqrt

    def ber(snr: float) -> float:
        q = q_exp_approx(v, sqrt(two_c1 * snr))
        return four_c0 * q - four_c0_sq * q * q

    return ber


def ber_exact(mod: Modulation, snr: float) -> float:
    """Instantaneous BER of square M-QAM with Gray mapping,
    4*c0*Q - 4*c0^2*Q^2 at Q = Q(sqrt(2*c1*snr))."""
    return _ber_exact_kernel(mod)(snr)


def ber_lu_approx(mod: Modulation, snr: float) -> float:
    """Classical sum-of-Q approximation of the M-QAM BER.

    4*c0 * sum_{j=1}^{sqrt(M)/2} Q((2j-1) * sqrt(2*c1*snr)); the odd
    multipliers scale the Q argument, not its square.
    """
    return _ber_lu_kernel(mod)(snr)


def q_exp_approx(v: QApproxVariant, x: float) -> float:
    """Q(x) under the exponential-sum variant v."""
    if not x >= 0.0:
        raise ValueError("q_exp_approx requires x >= 0")
    x2 = x * x
    total = 0.0
    for w, r in v.coefficients:
        total += w * math.exp(-r * x2)
    return total
