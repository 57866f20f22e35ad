"""Nakagami-m channel statistics and square M-QAM bit error rates.

Holds the fading density, its moment generating function and the
quadrature of any average over it, the exact and approximate
instantaneous-BER expressions, and the exponential Gauss-Q
approximation family used as a baseline.  SNR is linear
everywhere in this module; dB conversion belongs to the CLI boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from . import _backend, quad

__all__ = [
    "ChannelParams",
    "Modulation",
    "QApproxVariant",
    "SUPPORTED_ORDERS",
    "ber_exact",
    "ber_lu_approx",
    "fading_average",
    "mgf",
    "pdf",
    "q_exp_approx",
]

# square constellations only: the approximate-BER sum runs to sqrt(M)/2,
# which must be an integer
SUPPORTED_ORDERS = (4, 16, 64, 256, 1024, 4096)

_CHIANI_PAIRS = ((1.0 / 12.0, 0.5), (0.25, 2.0 / 3.0))


@dataclass(frozen=True)
class ChannelParams:
    """Nakagami-m fading parameters.

    m is the fading figure (m < 1 means fading heavier than Rayleigh,
    m = 1 is Rayleigh); mean_snr is the mean SNR as a linear power
    ratio, never dB.
    """

    m: float
    mean_snr: float

    def __post_init__(self):
        if not (self.m > 0.0 and math.isfinite(self.m)):
            raise ValueError("fading figure m must be positive and finite")
        if not (self.mean_snr > 0.0 and math.isfinite(self.mean_snr)):
            raise ValueError("mean_snr must be positive and finite (linear scale)")


@dataclass(frozen=True)
class Modulation:
    """Square M-QAM constellation with its BER expansion coefficients."""

    order: int
    c0: float = field(init=False)
    c1: float = field(init=False)

    def __post_init__(self):
        if self.order not in SUPPORTED_ORDERS:
            raise ValueError(f"order must be one of {SUPPORTED_ORDERS}")
        root = math.sqrt(self.order)
        bits = math.log2(self.order)
        object.__setattr__(self, "c0", (root - 1.0) / (root * bits))
        object.__setattr__(self, "c1", 3.0 * bits / (2.0 * (self.order - 1.0)))


@dataclass(frozen=True)
class QApproxVariant:
    """Exponential-sum approximation of the Gaussian tail.

    Q(x) ~ sum(w_i * exp(-r_i * x^2)) over the (weight, rate) pairs in
    coefficients; the sum averages in closed form through the MGF.
    """

    coefficients: tuple[tuple[float, float], ...]

    def __post_init__(self):
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


def fading_average(ch: ChannelParams, h: Callable[[float], float],
                   spec: quad.QuadratureSpec | None = None) -> quad.QuadratureResult:
    """E[h(snr)] = integral of h(snr) * pdf(snr) over [0, oo), by quadrature.

    h takes a linear SNR.  The one defining-average integrand: the
    average-BER oracle and the self-test identities all run through it.
    Full diagnostic record; converged=False is reported, never hidden.
    """
    gbar = ch.mean_snr

    # integrate in units of the mean: the density then keeps its mass at
    # O(1) for any mean_snr, where the first panel's nodes can see it; in
    # raw units a mean below node scale reads as the zero function
    def f(u: float) -> float:
        g = gbar * u
        w = pdf(ch, g)
        if w == 0.0:
            return 0.0
        return h(g) * w * gbar

    return quad.integrate_semi_infinite(f, 0.0, spec)


def ber_exact(mod: Modulation, snr: float) -> float:
    """Instantaneous BER of square M-QAM with Gray mapping."""
    if not snr >= 0.0:
        raise ValueError("ber_exact requires snr >= 0")
    c0 = mod.c0
    q = _backend.kernels.gauss_q(math.sqrt(2.0 * mod.c1 * snr))
    return 4.0 * c0 * q - 4.0 * c0 * c0 * q * q


def ber_lu_approx(mod: Modulation, snr: float) -> float:
    """Classical sum-of-Q approximation of the M-QAM BER.

    4*c0 * sum_{j=1}^{sqrt(M)/2} Q((2j-1) * sqrt(2*c1*snr)); the odd
    multipliers scale the Q argument, not its square.
    """
    if not snr >= 0.0:
        raise ValueError("ber_lu_approx requires snr >= 0")
    base = math.sqrt(2.0 * mod.c1 * snr)
    total = 0.0
    for j in range(1, int(round(math.sqrt(mod.order))) // 2 + 1):
        total += _backend.kernels.gauss_q((2.0 * j - 1.0) * base)
    return 4.0 * mod.c0 * total


def q_exp_approx(v: QApproxVariant, x: float) -> float:
    """Q(x) under the exponential-sum variant v."""
    if not x >= 0.0:
        raise ValueError("q_exp_approx requires x >= 0")
    x2 = x * x
    total = 0.0
    for w, r in v.coefficients:
        total += w * math.exp(-r * x2)
    return total
