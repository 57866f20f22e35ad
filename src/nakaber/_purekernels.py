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
_DBL_MIN = 2.2250738585072014e-308  # smallest normal double
# binary point of the fixed-point correction polynomial, and the bits
# its value at r_max must keep there
_FIXED_BITS = 110
_FIXED_KEEP = 64
# how far, relative to the largest, coefs may sit from the exact series
# coefficients that the fixed-point path sums in their place; the
# coefficients r2_series builds in doubles sit within 3.1e-15
_COEF_TOL = 1e-12

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


def _fixed_coefs(n_terms: int, m: float) -> list[int]:
    """The exact coefficients c_n = 2 * prod_{k<=n} (k-m)(2k-1)/(k(2k+1)),
    n < n_terms, scaled by 2^_FIXED_BITS and floored.  m = p/q exactly,
    so c_n is a ratio of integers."""
    p, q = m.as_integer_ratio()
    num, den = 2, 1
    out = []
    for k in range(n_terms):
        if k > 0:
            num *= (k * q - p) * (2 * k - 1)
            den *= q * k * (2 * k + 1)
        out.append((num << _FIXED_BITS) // den)
    return out


def _horner_fixed(rev, r: float) -> int:
    """Horner's scheme in integers on the fixed-point coefficients rev
    (highest degree first) at r = a/2^shift, which a double is exactly.
    Each step floors once, so the result is P(r) * 2^_FIXED_BITS to
    within len(rev) units."""
    a, s = r.as_integer_ratio()
    shift = s.bit_length() - 1
    p = 0
    for c in rev:
        p = (p * a >> shift) + c
    return p


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
    fixed point: Horner's scheme in integers on the exact coefficients of
    m (coefs then only gives their count) scaled by 2^110, which rounds
    each node's P_N(r) to about 2^-110 absolute.  Raises ValueError if
    coefs there is not that series (to 1e-12 of its largest
    coefficient), and ConvergenceError if P_N(r_max) keeps fewer than
    64 significant bits at that scale.
    """
    one_plus_b = 1.0 + b
    r_max = 1.0 / (2.0 + b)
    magnitude = _horner([abs(c) for c in coefs], r_max)
    fixed = None
    if 4 * len(coefs) * _EPS * magnitude > 0.1 * spec.rel_tol * abs(_horner(coefs, r_max)):
        fixed = _fixed_coefs(len(coefs), m)
        exact = [math.ldexp(c, -_FIXED_BITS) for c in fixed]
        largest = max(abs(c) for c in exact)
        if max(abs(c - e) for c, e in zip(coefs, exact)) > _COEF_TOL * largest:
            raise ValueError(
                f"coefs are not the correction-series coefficients of m={m:g}, "
                "which the fixed-point polynomial sums in their place")
        fixed.reverse()
        if abs(_horner_fixed(fixed, r_max)).bit_length() < _FIXED_KEEP:
            raise quad.ConvergenceError(
                f"correction polynomial keeps fewer than {_FIXED_KEEP} bits "
                f"at r_max in 2^{_FIXED_BITS} fixed point (m={m:g})")
    rev = coefs[::-1]
    k = max(1.0, 2.0 / (1.0 + m))
    # phi = w when k = 1, since w ** 1.0 == w and 2*phi/w == 2 exactly
    power = k != 1.0
    two_k = 2.0 * k
    neg_m = -m
    sin, cos, exp, log1p, ldexp = math.sin, math.cos, math.exp, math.log1p, math.ldexp

    def h(w: float) -> float:
        if power:
            phi = w ** k
            jac = two_k * phi / w
        else:
            phi = w
            jac = 2.0
        ct = sin(phi)
        t = ct * ct
        if t == 0.0:
            return 0.0
        st = cos(phi)
        u = one_plus_b * t
        r = t / (1.0 + u)
        if fixed is None:
            p = 0.0
            for c in rev:
                p = p * r + c
        else:
            p = ldexp(_horner_fixed(fixed, r), -_FIXED_BITS)
        # (b*t/(1+b*t))^m / (b/(1+b))^m = (1 + sin^2/((1+b)*t))^-m
        return jac * ct * p * exp(neg_m * log1p(st * st / u) - 0.5 * log1p(u))

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
    """Squared-Q correction term by quadrature over [0, pi/2).

    R2 = 1/(4*pi) * int_0^oo I_{1/(b+2+p)}(1/2, m) * (b/(b+1+p))^m
         * dp / (sqrt(p) * (1+p)),

    integrated in phi with p = tan^2(phi): dp/(sqrt(p)*(1+p)) = 2*dphi
    and, with c = cos^2(phi), the integrand becomes
    2 * I_{c/(1+(1+b)*c)}(1/2, m) * (b*c/(1+b*c))^m.  That removes the
    1/sqrt(p) endpoint singularity and the algebraic tail at once.  The
    ratio stays in log space, exp(-m*log1p(1/(b*c))), so tiny and large
    mean SNR stay in double range; where b*c is subnormal, 1/(b*c)
    overflows or keeps few bits, and log1p(1/(b*c)) is -log(b) - log(c)
    to rounding.
    """
    cos, exp, log, log1p = math.cos, math.exp, math.log, math.log1p

    def f(phi: float) -> float:
        ct = cos(phi)
        c = ct * ct
        ib = reg_inc_beta(c / (1.0 + (1.0 + b) * c), 0.5, m)
        if ib == 0.0:  # c == 0 included
            return 0.0
        bc = b * c
        if bc < _DBL_MIN:
            return 2.0 * ib * exp(m * (log(b) + log(c)))
        return 2.0 * ib * exp(-m * log1p(1.0 / bc))

    res = quad.integrate_finite(f, 0.0, _HALF_PI, spec)
    return res._replace(value=res.value * _INV_FOUR_PI,
                        error_estimate=res.error_estimate * _INV_FOUR_PI)
