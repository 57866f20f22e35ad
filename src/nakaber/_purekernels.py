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
_QUARTER_PI = math.pi / 4.0
_INV_FOUR_PI = 1.0 / (4.0 * math.pi)
_EPS = 2.220446049250313e-16
_DBL_MAX = 1.7976931348623157e308
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
    # P_N(r_max) and sum |c_n| r_max^n, by Horner's scheme
    p_max = magnitude = 0.0
    for c in reversed(coefs):
        p_max = p_max * r_max + c
        magnitude = magnitude * r_max + abs(c)
    fixed = None
    if 4 * len(coefs) * _EPS * magnitude > 0.1 * spec.rel_tol * abs(p_max):
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
    # Horner's scheme from the top coefficient, which 0.0 * r + c_N equals
    top, rest = coefs[-1], coefs[-2::-1]
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
            p = top
            for c in rest:
                p = p * r + c
        else:
            p = ldexp(_horner_fixed(fixed, r), -_FIXED_BITS)
        # (b*t/(1+b*t))^m / (b/(1+b))^m = (1 + sin^2/((1+b)*t))^-m
        return jac * ct * p * exp(neg_m * log1p(st * st / u) - 0.5 * log1p(u))

    res = quad.integrate_finite(h, 0.0, _HALF_PI ** (1.0 / k), spec)
    return _scaled(res, -m * math.log1p(1.0 / b) - log_beta(0.5, m))


def _scaled(res: quad.QuadratureResult, log_scale: float) -> quad.QuadratureResult:
    """res with its value and error estimate times exp(log_scale)/(4*pi)."""
    return quad.QuadratureResult(_scale(res.value, log_scale),
                                 _scale(res.error_estimate, log_scale),
                                 res.evaluations, res.converged)


def _scale(x: float, log_scale: float) -> float:
    """x * exp(log_scale) / (4*pi), without under- or overflowing early."""
    if x == 0.0:
        return 0.0
    return math.copysign(_INV_FOUR_PI * math.exp(log_scale + math.log(abs(x))), x)


def r2_integral(b: float, m: float,
                spec: quad.QuadratureSpec | None) -> quad.QuadratureResult:
    """Squared-Q correction term by quadrature of Craig's form.

    With M(theta) = (1 + 1/(b*sin^2(theta)))^(-m), the fading average of
    Craig's integrand, E[Q] = (1/pi) int_0^{pi/2} M and
    E[Q^2] = (1/pi) int_0^{pi/4} M.  Reflecting the upper half of the
    first onto [0, pi/4] gives a positive integrand of elementary
    functions that does not cancel:

        R2 = E[Q]/2 - E[Q^2]
           = 1/(2*pi) * int_0^{pi/4} M(pi/2 - theta) * (-expm1(-m*log1p(x))),
        x = (c^2 - s^2)/((1 + b*c^2)*s^2),  c = cos(theta), s = sin(theta).

    M(pi/2 - theta) peaks at theta = 0 at (b/(1+b))^m.  The integrand
    carries M(pi/2 - theta)/peak = exp(-m*log1p(s^2/((1+b)*c^2))), and
    the result multiplies the peak back in log space, so b^m neither
    overflows at tiny mean SNR nor drags the integrand into subnormals
    at high mean SNR and large m.  The log peak is -m*log1p(1/b); the
    form m*(log(b) - log1p(b)) cancels for b near 1, so it serves only
    where 1/b overflows.

    Near theta = 0 the integrand is 1 - C*theta^(2m), a fractional power
    for non-integer 2m that an adaptive Gauss-Kronrod rule resolves only
    by bisecting towards that endpoint many times.  At low mean SNR it
    also has a knee: it falls from its value at 0 where b*sin^2(theta)
    passes 1, at theta of about (1+b)^(-1/2), which for b = 1e300 sits
    150 decades inside the range.  The quadrature runs in w on [0, 1]
    with theta = A*sinh(lam*w^k), A = 2/sqrt(1+b) and
    lam = asinh((pi/4)/A), so that theta(1) = pi/4:
      - the sinh grades the nodes geometrically from theta = A up to
        pi/4 and keeps them linear below A, near the knee; where A
        exceeds pi/4 (b below about 5.5) it is almost linear;
      - theta = A*lam*w^k near 0, so the endpoint power is that of
        theta = w^k: k = 1 for m >= 1, and for m < 1 the integer
        k = ceil(1.2/m) kept within [3, 7], which makes the power
        2*m*k at least 2.4 down to m = 0.17.
    1 + b is taken at most at the largest double, so A stays positive
    where b overflows.
    """
    k = 1 if m >= 1.0 else max(3, math.ceil(min(7.0, 1.2 / m)))
    one_plus_b = 1.0 + b
    knee = 2.0 / math.sqrt(min(one_plus_b, _DBL_MAX))
    lam = math.asinh(_QUARTER_PI / knee)
    # dtheta/dw = knee*lam*k*w^(k-1)*cosh(lam*w^k), times 1/(2 pi) = 2/(4 pi)
    jac_scale = 2.0 * k * knee * lam
    neg_m = -m
    sin, cos, exp, expm1, log1p = math.sin, math.cos, math.exp, math.expm1, math.log1p
    sinh, cosh = math.sinh, math.cosh

    def f(w: float) -> float:
        wk = w ** k
        t = lam * wk
        theta = knee * sinh(t)
        jac = jac_scale * (wk / w) * cosh(t)
        s = sin(theta)
        c = cos(theta)
        s2 = s * s
        c2 = c * c
        if s2 == 0.0:
            return jac
        x = (c - s) * (c + s) / ((1.0 + b * c2) * s2)
        return jac * exp(neg_m * log1p(s2 / (one_plus_b * c2))) * -expm1(neg_m * log1p(x))

    res = quad.integrate_finite(f, 0.0, 1.0, spec)
    inv_b = 1.0 / b
    if inv_b == math.inf:
        log_peak = m * (math.log(b) - math.log1p(b))
    else:
        log_peak = neg_m * log1p(inv_b)
    return _scaled(res, log_peak)
