"""Numeric kernels: special functions and the correction-term integrals.

Plain functions of floats; the quadrature-backed ones take a
``quad.QuadratureSpec`` and return a ``quad.QuadratureResult``.  No
argument checks: ``aber``, ``channel`` and ``harness`` pass checked or
fixed values.  No caches, no global state.
"""

from __future__ import annotations

import math

from . import quad

BACKEND_NAME = "python"

_SQRT1_2 = math.sqrt(0.5)
_HALF_PI = math.pi / 2.0
_INV_FOUR_PI = 1.0 / (4.0 * math.pi)
_DBL_MAX = 1.7976931348623157e308
# binary point of the fixed-point correction polynomial
_FIXED_BITS = 110

# continued-fraction controls
_CF_MAX_ITER = 400
_CF_EPS = 1e-16
_CF_TINY = 1e-300

# Stirling's series for lgamma: B_2n/(2n*(2n-1)), n = 8 down to 1, and
# the argument from which log_beta and log_peak_density take it
_STIRLING = (-3617.0 / 122400.0, 1.0 / 156.0, -691.0 / 360360.0,
             1.0 / 1188.0, -1.0 / 1680.0, 1.0 / 1260.0, -1.0 / 360.0,
             1.0 / 12.0)
_STIRLING_FROM = 10.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma(x: float) -> float:
    return math.lgamma(x)


def gauss_q(z: float) -> float:
    return 0.5 * math.erfc(z * _SQRT1_2)


def _stirling_delta(x: float) -> float:
    """lgamma(x) - ((x - 1/2)*log(x) - x + log(2*pi)/2), Stirling's
    series to within 2e-18 absolute for x >= _STIRLING_FROM."""
    t = 1.0 / (x * x)
    s = 0.0
    for c in _STIRLING:
        s = s * t + c
    return s / x


def log_beta(a: float, b: float) -> float:
    """log B(a, b).

    With a <= b: for b below _STIRLING_FROM, lgamma(a) + lgamma(b) -
    lgamma(a + b).  Above it that difference loses about eps*lgamma(a+b)
    to cancellation: 1.5e-11 at (1e4, 1/2), 9.8e-10 at (1e6, 1e6).  So
    there, as in TOMS 708's betaln, lgamma(b) - lgamma(a + b) is taken
    in Stirling's form, -(a + b - 1/2)*log1p(a/b) - a*log(b) + a plus a
    difference of Stirling corrections, which do not cancel, and so is
    lgamma(a) where a is large too: within 2 ulps of 40-digit values at
    those two points, (3e3, 1/2) and (50, 1/2).
    """
    if a > b:
        a, b = b, a
    if b < _STIRLING_FROM:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    ab = a + b
    corr = _stirling_delta(b) - _stirling_delta(ab)
    if a < _STIRLING_FROM:
        return (math.lgamma(a) + corr + a * (1.0 - math.log(b))
                - (ab - 0.5) * math.log1p(a / b))
    return (_HALF_LOG_2PI - 0.5 * math.log(b) + corr + _stirling_delta(a)
            + (a - 0.5) * math.log(a / ab) - b * math.log1p(a / b))


def log_peak_density(m: float) -> float:
    """log(m^m * e^-m / Gamma(m)), the Gamma(m, 1/m) density at z = 1
    with its factor z^(m-1) * e^(-m*(z-1)) divided out.

    Below _STIRLING_FROM it is m*log(m) - m - lgamma(m).  From there
    that difference cancels to a residue of about log(m)/2, so it is
    log(m/(2*pi))/2 less the Stirling correction, as log_beta takes it.
    Its exp is within 1e-14 relative of 40-digit values from m = 0.05
    to 1e6."""
    if m < _STIRLING_FROM:
        return m * math.log(m) - m - log_gamma(m)
    return 0.5 * math.log(m / (2.0 * math.pi)) - _stirling_delta(m)


def _beta_cf(x: float, a: float, b: float) -> float:
    """Continued fraction for the regularized incomplete beta.

    Modified Lentz iteration; caller guarantees the convergent regime
    x <= (a+1)/(a+b+2) via the symmetry switch in reg_inc_beta.  Raises
    ConvergenceError if the fraction has not converged after
    _CF_MAX_ITER steps.
    """
    tiny, eps = _CF_TINY, _CF_EPS
    # v < t and -t < v is abs(v) < t, NaN included, without the call;
    # d and c are mostly positive, so the first test settles it
    neg_tiny, neg_eps = -tiny, -eps
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if d < tiny and neg_tiny < d:
        d = tiny
    d = 1.0 / d
    h = d
    # it and 2*it as floats, exact, so each product rounds as with ints
    for it in map(float, range(1, _CF_MAX_ITER + 1)):
        m2 = 2.0 * it
        aa = it * (b - it) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if d < tiny and neg_tiny < d:
            d = tiny
        c = 1.0 + aa / c
        if c < tiny and neg_tiny < c:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + it) * (qab + it) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if d < tiny and neg_tiny < d:
            d = tiny
        c = 1.0 + aa / c
        if c < tiny and neg_tiny < c:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if neg_eps < delta - 1.0 < eps:
            return h
    raise quad.ConvergenceError(
        f"incomplete-beta continued fraction did not converge in "
        f"{_CF_MAX_ITER} steps (x={x!r}, a={a!r}, b={b!r})")


def reg_inc_beta(x: float, a: float, b: float, log_b_ab: float) -> float:
    """I_x(a, b) by the continued fraction, given log_b_ab = log B(a, b),
    which a caller summing many terms of one (a, b) pair takes once."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - log_b_ab)
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


def log_mgf_peak(m: float, b: float) -> float:
    """log((b/(1+b))^m), the Nakagami MGF (1 + alpha*mean_snr/m)^(-m) at
    -alpha with b = m/(alpha*mean_snr): the peak that both correction-term
    kernels divide out of their integrands and _scaled multiplies back in,
    so b^m neither overflows at tiny mean SNR nor drags an integrand into
    subnormals at high mean SNR and large m.  m*(log(b) - log1p(b))
    cancels for b near 1, so it serves only where 1/b overflows."""
    inv_b = 1.0 / b
    if inv_b == math.inf:
        return m * (math.log(b) - math.log1p(b))
    return -m * math.log1p(inv_b)


def _sinh_grading(bend: float, top: float, k: float) -> tuple[float, float, float]:
    """(A, lam, 2*k*A*lam) for the nodes x = A*sinh(lam*w^k), w in [0, 1],
    A = 1/sqrt(bend) and lam = asinh(top/A), so that x(1) = top.

    Each correction-term integrand falls from its value at x = 0 where
    (1+b)*x^2 passes 1, a knee 150 decades inside the range at b = 1e300;
    a kernel puts A there with bend = 1 + b.  The sinh grades the nodes
    geometrically from x = A up to top and keeps them linear below A,
    near the knee.  Near w = 0, x = A*lam*w^k, so k raises the
    integrand's endpoint power, which an adaptive Gauss-Kronrod rule
    resolves only by bisecting towards it many times; k < 1 moves the
    nodes towards top instead.  The last value is
    dx/dw = A*lam*k*w^(k-1)*cosh(lam*w^k) over its w-factors, times the
    2 both integrands carry.  bend is capped at a quarter of the largest
    double, so A stays positive where 1 + b overflows and A^2 stays a
    normal double."""
    knee = 1.0 / math.sqrt(min(bend, _DBL_MAX / 4.0))
    lam = math.asinh(top / knee)
    return knee, lam, 2.0 * k * knee * lam


def r2_term_scaled(coefs, m: float, b: float,
                   spec: quad.QuadratureSpec) -> quad.QuadratureResult:
    """Truncated squared-Q correction series R2_N as one integral.

    Term n of the series integrates the same theta-integrand times
    r^n, r = t/(1 + (1+b)*t) with t = cos^2(theta), so the sum over
    n <= N is the integral of that integrand times the polynomial
    P_N(r) = sum_n coefs[n] * r^n, coefs[n] = (1-m)_n/(n! (n+1/2)):

        R2_N = 1/(4*pi*B(1/2, m)) * int_0^{pi/2} 2*cos(theta)
               * (b*t/(1 + b*t))^m * (1 + (1+b)*t)^(-1/2) * P_N(r) dtheta

    The quadrature runs in phi = pi/2 - theta, where cos(theta) = sin(phi)
    and sin(theta) = cos(phi), on _sinh_grading's nodes up to phi = pi/2.
    Near phi = 0 the integrand behaves like a constant times phi^(1+2m),
    and in w like w^(k*(2+2m)-1).  For m >= 1 the knee A sits where the
    integrand bends, at (1+b)*phi^2 = 1, and k = m^(-1/4) <= 1 moves the
    nodes towards phi = pi/2, where the mass sits at large m; the power
    stays at least 3.  On 1 <= m < 3 that power is fractional, between 3
    and 5.6, and the rule bisects towards w = 0 to resolve it, so there
    k is moved to make it the nearest integer.  Rounding above m = 3
    saves nothing and cost an estimate: at m = 6.934, -17.1 dB, a value
    converged with an estimate of 9.9e-12 and a true error of 3.6e-11.
    For m < 1, k = 2/(1+m) makes the power w^3 and A stays at
    (1+b)*phi^2 = 4: a seed-601 perfbench series pass takes 257,400
    evaluations here, 275,970 with k = m^(-1/4) on all of m >= 1, and
    415,590 (failing acceptance check 8) with that rule at every m.
    It carries (b*t/(1 + b*t))^m over its peak,
    log_mgf_peak.  It keeps the 15-point rule: acceptance check 8's
    integral settles on its opening in 30 evaluations, 42 on 21 points.

    coefs are doubles, summed by Horner's scheme, or _fixed_coefs'
    integers at 2^_FIXED_BITS, summed by _horner_fixed to about 2^-110
    absolute at each node; r2_series picks which.  Up to six doubles
    (N <= 5) are padded at the top with 0.0 and summed by an unrolled
    Horner's scheme, with the same bits as the loop, since 0.0 * r + c
    equals c: acceptance check 8 times closed(N) for N = 0..5 against
    the oracle, and the loop's per-node cost ate into its margin.
    """
    one_plus_b = 1.0 + b
    # Horner's scheme from the top coefficient, which 0.0 * r + c_N equals
    rev = coefs[::-1]
    top, rest = rev[0], rev[1:]
    fixed = isinstance(top, int)
    unrolled = not fixed and len(coefs) <= 6
    if unrolled:
        c0, c1, c2, c3, c4, c5 = tuple(coefs) + (0.0,) * (6 - len(coefs))
    if m < 1.0:
        # A = 2/sqrt(1+b) to the bit, since (1+b)/4 is exact
        k, bend = 2.0 / (1.0 + m), 0.25 * one_plus_b
    elif m < 3.0:
        # the power m^(-1/4)*(2+2m) - 1 rounded to an integer
        two_m2 = 2.0 + 2.0 * m
        k, bend = (round(m ** -0.25 * two_m2 - 1.0) + 1.0) / two_m2, one_plus_b
    else:
        k, bend = m ** -0.25, one_plus_b
    knee, lam, jac_scale = _sinh_grading(bend, _HALF_PI, k)
    neg_m = -m
    sin, cos, exp, log1p, ldexp = math.sin, math.cos, math.exp, math.log1p, math.ldexp
    sinh, cosh = math.sinh, math.cosh

    def h(w: float) -> float:
        wk = w ** k
        s = lam * wk
        jac = jac_scale * (wk / w) * cosh(s)
        phi = knee * sinh(s)
        ct = sin(phi)
        t = ct * ct
        if t == 0.0:
            return 0.0
        st = cos(phi)
        u = one_plus_b * t
        r = t / (1.0 + u)
        if unrolled:
            p = ((((c5 * r + c4) * r + c3) * r + c2) * r + c1) * r + c0
        elif fixed:
            p = ldexp(_horner_fixed(rev, r), -_FIXED_BITS)
        else:
            p = top
            for c in rest:
                p = p * r + c
        # (b*t/(1+b*t))^m / (b/(1+b))^m = (1 + sin^2/((1+b)*t))^-m
        return jac * ct * p * exp(neg_m * log1p(st * st / u) - 0.5 * log1p(u))

    res = quad.integrate_finite(h, 0.0, 1.0, spec)
    return _scaled(res, m, b, -log_beta(0.5, m))


def _scaled(res: quad.QuadratureResult, m: float, b: float,
            log_scale: float = 0.0) -> quad.QuadratureResult:
    """res with its value and error estimate times
    (b/(1+b))^m * exp(log_scale)/(4*pi)."""
    log_scale = log_mgf_peak(m, b) + log_scale
    return quad.QuadratureResult(_scale(res.value, log_scale),
                                 _scale(res.error_estimate, log_scale),
                                 res.evaluations, res.converged)


def _scale(x: float, log_scale: float) -> float:
    """x * exp(log_scale) / (4*pi), without under- or overflowing early."""
    if x == 0.0:
        return 0.0
    return math.copysign(_INV_FOUR_PI * math.exp(log_scale + math.log(abs(x))), x)


def r2_integral(b: float, m: float,
                spec: quad.QuadratureSpec) -> quad.QuadratureResult:
    """Squared-Q correction term by quadrature of Craig's form.

    With M(theta) = (1 + 1/(b*sin^2(theta)))^(-m), the fading average of
    Craig's integrand, E[Q] = (1/pi) int_0^{pi/2} M and
    E[Q^2] = (1/pi) int_0^{pi/4} M.  Reflecting the upper half of the
    first onto [0, pi/4] gives a positive integrand of elementary
    functions that does not cancel:

        R2 = E[Q]/2 - E[Q^2]
           = 1/(2*pi) * int_0^{pi/4} M(pi/2 - theta) * (-expm1(-m*log1p(x))),
        x = (c^2 - s^2)/((1 + b*c^2)*s^2),  c = cos(theta), s = sin(theta).

    The integrand carries M(pi/2 - theta) over its peak, log_mgf_peak:
    exp(-m*log1p(s^2/((1+b)*c^2))).  In v = tan(theta) on [0, 1] it is
    rational in v, with no trig call per node: s^2/c^2 = v^2,
    x = (1 - v^2)*(1 + v^2)/((1 + v^2 + b)*v^2) and
    dtheta = dv/(1 + v^2).  The quadrature runs on the 21-point Kronrod
    rule, which this smooth integrand settles in a quarter fewer
    evaluations than the 15-point one, and on _sinh_grading's nodes up
    to v = 1, with the knee A where the integrand bends, at
    (1+b)*v^2 = 1.  Near theta = 0 the integrand is 1 - C*v^(2m), and in
    w it is w^(k-1) less a w^(k-1+2mk) term, which the rule resolves
    only by bisecting towards w = 0 unless it is high enough.  So k is
    an integer: ceil(2.4/m) for m >= 1, which makes 2*m*k at least 2.4
    (k = 1 from m = 2.4 on), and for m < 1 ceil(0.9/m) kept within
    [3, 7].  A seed-601 perfbench series pass takes 210,504 evaluations
    here, and 252,168 with k = 1 for m >= 1 and ceil(1.2/m) below; at
    1 <= m < 2 a call took 124 evaluations at 0 dB and above and 200
    below, and takes 42 and 60.
    """
    if m >= 1.0:
        k = math.ceil(2.4 / m)
    else:
        k = max(3, math.ceil(min(7.0, 0.9 / m)))
    one_plus_b = 1.0 + b
    knee, lam, jac_scale = _sinh_grading(one_plus_b, 1.0, k)
    # w^k = w when k = 1, since w ** 1 == w and w / w == 1.0 exactly
    power = k != 1
    neg_m = -m
    exp, expm1, log1p = math.exp, math.expm1, math.log1p
    sinh, cosh = math.sinh, math.cosh

    def f(w: float) -> float:
        if power:
            wk = w ** k
            t = lam * wk
            jac = jac_scale * (wk / w) * cosh(t)
        else:
            t = lam * w
            jac = jac_scale * cosh(t)
        v = knee * sinh(t)
        v2 = v * v
        # (1+b+v^2)*v^2 as ((1+b+v^2)*v)*v, since v^2 is subnormal below
        # the knee where b nears the largest double; where it underflows
        # x is past any double and the integrand is jac
        u = (one_plus_b + v2) * v * v
        if u == 0.0:
            return jac
        # dtheta = dv/(1 + v^2)
        jac /= 1.0 + v2
        x = (1.0 - v) * (1.0 + v) * (1.0 + v2) / u
        return jac * exp(neg_m * log1p(v2 / one_plus_b)) * -expm1(neg_m * log1p(x))

    res = quad.integrate_finite(f, 0.0, 1.0, spec, rule=21)
    return _scaled(res, m, b)
