"""Numeric kernels: special functions and the correction-term integrals.

Plain functions of floats; the quadrature-backed ones take a
``quad.QuadratureSpec`` and return a ``quad.QuadratureResult``.  The
validated public front end is ``specfun`` and ``aber``.
"""

from __future__ import annotations

import math

from . import quad

BACKEND_NAME = "python"

_SQRT1_2 = math.sqrt(0.5)
_HALF_PI = math.pi / 2.0
_INV_FOUR_PI = 1.0 / (4.0 * math.pi)
_EPS = 2.220446049250313e-16
# Veltkamp's splitter for doubles, 2^27 + 1
_SPLITTER = 134217729.0

# continued-fraction controls
_CF_MAX_ITER = 400
_CF_EPS = 1e-16
_CF_TINY = 1e-300


def log_gamma(x: float) -> float:
    return math.lgamma(x)


def gauss_q(z: float) -> float:
    return 0.5 * math.erfc(z * _SQRT1_2)


def log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_cf(x: float, a: float, b: float) -> float:
    """Continued fraction for the regularized incomplete beta.

    Modified Lentz iteration; caller guarantees the convergent regime
    x <= (a+1)/(a+b+2) via the symmetry switch in reg_inc_beta.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for it in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * it
        aa = it * (b - it) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + it) * (qab + it) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    # unreachable for in-domain arguments; keep the best value anyway
    return h


def reg_inc_beta(x: float, a: float, b: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta(a, b))
    if x <= a / (a + b):
        return front * _beta_cf(x, a, b) / a
    return 1.0 - front * _beta_cf(1.0 - x, b, a) / b


def appell_f1(a: float, b1: float, b2: float, c: float, x: float, y: float,
              spec: quad.QuadratureSpec) -> quad.QuadratureResult:
    """F1(a; b1, b2; c; x, y) for x, y <= 0 via its one-dimensional
    integral representation.

    The substitution t = cos^2(theta) absorbs both algebraic endpoint
    factors, so the quadrature sees a smooth integrand on [0, pi/2].
    """
    two_am1 = 2.0 * a - 1.0
    two_cam1 = 2.0 * (c - a) - 1.0

    def h(theta: float) -> float:
        ct = math.cos(theta)
        st = math.sin(theta)
        ct2 = ct * ct
        out = 2.0 * ct ** two_am1 * (1.0 - x * ct2) ** (-b1) * (1.0 - y * ct2) ** (-b2)
        if two_cam1 != 0.0:
            out *= st ** two_cam1
        return out

    res = quad.integrate_finite(h, 0.0, _HALF_PI, spec)
    scale = math.exp(-log_beta(a, c - a))
    return res._replace(value=res.value * scale,
                        error_estimate=res.error_estimate * scale)


def _horner(coefs, r: float) -> float:
    p = 0.0
    for c in reversed(coefs):
        p = p * r + c
    return p


def _low_parts(coefs, m: float) -> list[float]:
    """coefs[n]'s rounding error against the exact coefficient
    c_n = 2 * prod_{k<=n} (k-m)(2k-1)/(k(2k+1)), so that coefs[n] + low[n]
    is c_n to about twice the working precision.  m = p/q exactly, so
    c_n is a ratio of integers."""
    p, q = m.as_integer_ratio()
    num, den = 2, 1
    low = []
    for k, c in enumerate(coefs):
        if k > 0:
            num *= (k * q - p) * (2 * k - 1)
            den *= q * k * (2 * k + 1)
        a, s = c.as_integer_ratio()
        low.append((num * s - a * den) / (den * s))
    return low


def _horner_compensated(coefs, low, r: float) -> float:
    """Horner's scheme on the double-double coefficients coefs + low that
    carries each step's rounding error along (Graillat, Langlois and
    Louvet, 2005): as accurate as plain Horner in twice the working
    precision.  Products are split exactly with Veltkamp's splitter,
    sums with Knuth's TwoSum."""
    t = _SPLITTER * r
    r_hi = t - (t - r)
    r_lo = r - r_hi
    s = coefs[-1]
    comp = low[-1]
    for n in range(len(coefs) - 2, -1, -1):
        c = coefs[n]
        p = s * r
        t = _SPLITTER * s
        s_hi = t - (t - s)
        s_lo = s - s_hi
        p_err = s_lo * r_lo - (((p - s_hi * r_hi) - s_lo * r_hi) - s_hi * r_lo)
        s = p + c
        z = s - p
        s_err = (p - (s - z)) + (c - z)
        comp = comp * r + (p_err + s_err + low[n])
    return s + comp


def r2_term_scaled(coefs, m: float, b: float,
                   spec: quad.QuadratureSpec) -> quad.QuadratureResult:
    """Truncated squared-Q correction series R2_N as one integral.

    Term n of the series integrates the same theta-integrand times
    r^n, r = t/(1 + (1+b)*t) with t = cos^2(theta), so the sum over
    n <= N is the integral of that integrand times the polynomial
    P_N(r) = sum_n coefs[n] * r^n, coefs[n] = (1-m)_n/(n! (n+1/2)):

        R2_N = 1/(4*pi*B(1/2, m)) * int_0^{pi/2} 2*cos(theta)
               * (b*t/(1 + b*t))^m * (1 + (1+b)*t)^(-1/2) * P_N(r) dtheta

    The quadrature runs in w with phi = pi/2 - theta = w^k on
    [0, (pi/2)^(1/k)], k = max(1, 2/(1+m)): cos(theta) = sin(phi),
    sin(theta) = cos(phi) and dtheta becomes k*(phi/w)*dw.  Near
    theta = pi/2 the theta-integrand behaves like a constant times
    phi^(1+2m), a fractional power for non-integer m, which an adaptive
    Gauss-Kronrod rule resolves only by bisecting towards that endpoint
    many times.  In w it behaves like w^(k*(2+2m)-1), which is w^3 for
    every m < 1; for m >= 1, k = 1 and the integrand is the
    theta-integrand reflected.

    (b*t/(1 + b*t))^m peaks at theta = 0, where it is (b/(1+b))^m.  The
    integrand divides that peak out and the result multiplies it back in
    log space, so b^m neither overflows at tiny mean SNR nor drags the
    integrand into subnormals at high mean SNR and large m.

    For m > 1 the coefficients alternate in sign, and P_N(r) can be far
    smaller than its terms (by about 1.5^m at high mean SNR).  Where that
    cancellation at r_max = 1/(2+b) lets rounding of the coefficients or
    of Horner's scheme reach a tenth of spec.rel_tol, P_N is evaluated in
    twice the working precision.  Past what that carries (m above about
    100 at high mean SNR) the rounding noise keeps the quadrature from
    converging.
    """
    one_plus_b = 1.0 + b
    r_max = 1.0 / (2.0 + b)
    magnitude = _horner([abs(c) for c in coefs], r_max)
    low = None
    if 4 * len(coefs) * _EPS * magnitude > 0.1 * spec.rel_tol * abs(_horner(coefs, r_max)):
        low = _low_parts(coefs, m)
    rev = coefs[::-1]
    k = max(1.0, 2.0 / (1.0 + m))

    def h(w: float) -> float:
        phi = w ** k
        ct = math.sin(phi)
        t = ct * ct
        if t == 0.0:
            return 0.0
        st = math.cos(phi)
        u = one_plus_b * t
        r = t / (1.0 + u)
        if low is None:
            p = 0.0
            for c in rev:
                p = p * r + c
        else:
            p = _horner_compensated(coefs, low, r)
        # (b*t/(1+b*t))^m / (b/(1+b))^m = (1 + sin^2/((1+b)*t))^-m
        return (2.0 * k * phi / w * ct * p
                * math.exp(-m * math.log1p(st * st / u) - 0.5 * math.log1p(u)))

    res = quad.integrate_finite(h, 0.0, _HALF_PI ** (1.0 / k), spec)
    log_scale = -m * math.log1p(1.0 / b) - log_beta(0.5, m)
    return res._replace(value=_scaled(res.value, log_scale),
                        error_estimate=_scaled(res.error_estimate, log_scale))


def _scaled(x: float, log_scale: float) -> float:
    """x * exp(log_scale) / (4*pi), without under- or overflowing early."""
    if x == 0.0:
        return 0.0
    return math.copysign(_INV_FOUR_PI * math.exp(log_scale + math.log(abs(x))), x)


def r2_integral(b: float, m: float,
                spec: quad.QuadratureSpec | None) -> quad.QuadratureResult:
    """Squared-Q correction term by quadrature over [0, oo).

    R2 = 1/(4*pi) * int_0^oo I_{1/(b+2+p)}(1/2, m) * (b/(b+1+p))^m
         * dp / (sqrt(p) * (1+p)),

    integrated in s with p = s^2: dp/(sqrt(p)*(1+p)) = 2*ds/(1+s^2).
    That removes the 1/sqrt(p) endpoint singularity, which an adaptive
    Gauss-Kronrod rule resolves only by bisecting towards p = 0 many
    times, and leaves an integrand that is smooth at s = 0 and decays
    like s^-(3+2m), which the rational map folds onto [0, 1) as
    (1-t)^(1+2m).  The b^m/(b+1+p)^m ratio stays in log space, so tiny and
    large mean SNR stay in double range.
    """

    def f(s: float) -> float:
        p = s * s
        ib = reg_inc_beta(1.0 / (b + 2.0 + p), 0.5, m)
        if ib == 0.0:
            return 0.0
        return 2.0 * ib * math.exp(-m * math.log1p((1.0 + p) / b)) / (1.0 + p)

    res = quad.integrate_semi_infinite(f, 0.0, spec)
    return res._replace(value=res.value * _INV_FOUR_PI,
                        error_estimate=res.error_estimate * _INV_FOUR_PI)
