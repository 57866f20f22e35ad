"""Independent reference values for the average BER of square M-QAM.

Shares no code with nakaber.  Everything here starts from Craig's form of
the Gaussian tail and the Nakagami-m moment generating function:

    Q(x)   = (1/pi) * int_0^{pi/2}  exp(-x^2 / (2 sin^2 t)) dt
    Q(x)^2 = (1/pi) * int_0^{pi/4}  exp(-x^2 / (2 sin^2 t)) dt
    E[exp(-s*snr)] = (1 + s*gbar/m)^(-m)

so, with M(t; k) = (1 + k^2 * c1 * gbar / (m sin^2 t))^(-m),

    exact ABER = (4 c0/pi) int_0^{pi/2} M(t;1) dt - (4 c0^2/pi) int_0^{pi/4} M(t;1) dt
    lu ABER    = (4 c0/pi) sum_j int_0^{pi/2} M(t; 2j-1) dt
    expq ABER  = 4 c0 sum_i w_i E[e^{-2 c1 r_i snr}]
                 - 4 c0^2 sum_ij w_i w_j E[e^{-2 c1 (r_i + r_j) snr}]

Two evaluators implement the integrals.  `precise` runs mpmath's
tanh-sinh rule at 30 significant digits (6 to 125 ms a point).  `fast`
runs QUADPACK through scipy on an integrand scaled by its value at
pi/2, so it neither underflows nor loses relative accuracy at the
domain's corners (about 1 ms a point); it falls back to `precise` when
QUADPACK reports any trouble.  `self_check` compares the two and checks
published anchor values, so a run that trusts `fast` has shown that it
may.
"""

from __future__ import annotations

import math

import mpmath
from scipy import integrate

# Chiani, Dardari and Simon's two-term exponential approximation,
# Q(x) ~ exp(-x^2/2)/12 + exp(-2x^2/3)/4, as (weight, rate) pairs
CHIANI = ((1.0 / 12.0, 0.5), (0.25, 2.0 / 3.0))

HALF_PI = math.pi / 2.0
QUARTER_PI = math.pi / 4.0

# anchors: the exact ABER at m=1, 0 dB, M=4 as the quadrature oracle gives
# it where that oracle is known to work, and a 30-digit quadrature of the
# defining average at m=0.6, 60 dB, M=4
ANCHORS = (
    ((1.0, 0.0, 4), 0.13770205555632, 1e-12),
    ((0.6, 60.0, 4), 5.18460348421454e-5, 1e-12),
)


def constellation(order: int) -> tuple[float, float]:
    """(c0, c1) of square M-QAM with Gray mapping."""
    root = math.sqrt(order)
    bits = math.log2(order)
    return (root - 1.0) / (root * bits), 3.0 * bits / (2.0 * (order - 1.0))


def odd_multipliers(order: int) -> list[int]:
    return [2 * j - 1 for j in range(1, int(round(math.sqrt(order))) // 2 + 1)]


def expq(m: float, snr_db: float, order: int) -> float:
    """ABER under the two-term exponential Q approximation, in mpmath."""
    with mpmath.workdps(30):
        c0, c1 = constellation(order)
        gbar = mpmath.power(10, mpmath.mpf(snr_db) / 10)
        m_ = mpmath.mpf(m)

        def mgf(s):
            return mpmath.power(1 + s * gbar / m_, -m_)

        lin = sum(w * mgf(2 * c1 * mpmath.mpf(r)) for w, r in CHIANI)
        sq = sum(wi * wj * mgf(2 * c1 * (mpmath.mpf(ri) + rj))
                 for wi, ri in CHIANI for wj, rj in CHIANI)
        return float(4 * c0 * lin - 4 * c0 * c0 * sq)


def _precise_craig(m: float, snr_db: float, order: int) -> tuple[float, float]:
    """(exact, lu) by 30-digit tanh-sinh quadrature.

    mpmath's quad stops on an absolute error, so each integrand is scaled
    by M(pi/2; 1) = (1+a)^-m to make its largest value 1 and the scale is
    applied afterwards.
    """
    with mpmath.workdps(30):
        c0, c1 = constellation(order)
        c0 = mpmath.mpf(c0)
        a = mpmath.mpf(c1) * mpmath.power(10, mpmath.mpf(snr_db) / 10) / m
        m_ = mpmath.mpf(m)
        top = 1 + a
        ks = [k * k for k in odd_multipliers(order)]

        def scaled(t):
            return mpmath.power(top / (1 + a / mpmath.sin(t) ** 2), m_)

        def scaled_sum(t):
            s2 = mpmath.sin(t) ** 2
            return sum(mpmath.power(top / (1 + k2 * a / s2), m_) for k2 in ks)

        scale = mpmath.power(top, -m_)
        low = mpmath.quad(scaled, [0, mpmath.pi / 4])
        high = mpmath.quad(scaled, [mpmath.pi / 4, mpmath.pi / 2])
        exact = scale * 4 * c0 / mpmath.pi * ((1 - c0) * low + high)
        lu = scale * 4 * c0 / mpmath.pi * mpmath.quad(
            scaled_sum, [0, mpmath.pi / 4, mpmath.pi / 2])
        return float(exact), float(lu)


def _quadpack(f, lo: float, hi: float) -> float | None:
    """QUADPACK integral of f, or None when it flags any trouble."""
    value, err, info, *rest = integrate.quad(f, lo, hi, epsabs=0.0,
                                             epsrel=1e-13, limit=400,
                                             full_output=1)
    if rest or not (math.isfinite(value) and value > 0.0 and err <= 1e-11 * value):
        return None
    return value


def _fast_craig(m: float, snr_db: float, order: int) -> tuple[float, float] | None:
    c0, c1 = constellation(order)
    a = c1 * 10.0 ** (snr_db / 10.0) / m
    # divide every integrand by M(pi/2; 1) = (1+a)^-m = exp(-base)
    base = m * math.log1p(a)

    def scaled(t: float) -> float:
        s2 = math.sin(t) ** 2
        if s2 == 0.0:
            return 0.0
        return math.exp(base - m * math.log1p(a / s2))

    ks = [float(k * k) for k in odd_multipliers(order)]

    def scaled_sum(t: float) -> float:
        s2 = math.sin(t) ** 2
        if s2 == 0.0:
            return 0.0
        return sum(math.exp(base - m * math.log1p(k2 * a / s2)) for k2 in ks)

    low = _quadpack(scaled, 0.0, QUARTER_PI)
    high = _quadpack(scaled, QUARTER_PI, HALF_PI)
    lu = _quadpack(scaled_sum, 0.0, HALF_PI)
    if low is None or high is None or lu is None:
        return None
    exact = math.exp(math.log(4.0 * c0 / math.pi * ((1.0 - c0) * low + high)) - base)
    lu = math.exp(math.log(4.0 * c0 / math.pi * lu) - base)
    return exact, lu


def precise(m: float, snr_db: float, order: int) -> dict[str, float]:
    exact, lu = _precise_craig(m, snr_db, order)
    return {"exact": exact, "lu": lu, "expq": expq(m, snr_db, order)}


def fast(m: float, snr_db: float, order: int) -> tuple[dict[str, float], bool]:
    """Reference values at one point and whether the mpmath path was needed."""
    craig = _fast_craig(m, snr_db, order)
    fell_back = craig is None
    if fell_back:
        craig = _precise_craig(m, snr_db, order)
    return {"exact": craig[0], "lu": craig[1], "expq": expq(m, snr_db, order)}, fell_back


def rel_diff(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(b), 1e-300)


def self_check(points) -> dict:
    """Compare `fast` against `precise` at the given points and both against
    the anchors.  Returns the worst relative differences and a verdict.

    Values below 1e-290 are compared absolutely: doubles cannot carry a
    relative error there.
    """
    worst_fast = 0.0
    for m, snr_db, order in points:
        f, _ = fast(m, snr_db, order)
        p = precise(m, snr_db, order)
        for key in p:
            if max(abs(p[key]), abs(f[key])) > 1e-290:
                worst_fast = max(worst_fast, rel_diff(f[key], p[key]))
    worst_anchor = 0.0
    anchors_ok = True
    for (m, snr_db, order), value, tol in ANCHORS:
        for got in (fast(m, snr_db, order)[0]["exact"],
                    precise(m, snr_db, order)["exact"]):
            rd = rel_diff(got, value)
            worst_anchor = max(worst_anchor, rd)
            anchors_ok = anchors_ok and rd <= tol
    return {"fast_vs_precise_max_rel": worst_fast,
            "anchor_max_rel": worst_anchor,
            "ok": anchors_ok and worst_fast <= 1e-10}
