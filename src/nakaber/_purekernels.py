"""Numeric kernels: special functions, the correction-term integrals and
closed(adaptive)'s E[Q^2] sum.

Plain functions of floats; the quadrature-backed ones take a
``quad.QuadratureSpec`` and return a ``quad.QuadratureResult``.  No
argument checks: ``aber``, ``channel`` and ``harness`` pass checked or
fixed values.  No caches, no global state.
"""

from __future__ import annotations

import itertools
import math
import operator

from . import quad

BACKEND_NAME = "python"

_SQRT1_2 = math.sqrt(0.5)
_HALF_PI = math.pi / 2.0
_TWO_PI = 2.0 * math.pi
_INV_FOUR_PI = 1.0 / (4.0 * math.pi)
_DBL_MAX = 1.7976931348623157e308
# binary point of the fixed-point correction polynomial
_FIXED_BITS = 110

# sqrt(2)*(1/2)_k/(k!*2^k), k = 0, 1, ..., the weights of
# avg_q_squared's series, as many as term_tol = 1e-13 takes
_Q2_WEIGHTS = tuple(itertools.accumulate(
    ((k + 0.5) / (2 * k + 2) for k in range(math.ceil(math.log2(4e13)))),
    operator.mul, initial=math.sqrt(2.0)))

# continued-fraction controls
_CF_MAX_ITER = 400
_CF_EPS = 1e-16
# _CF_EPS is under the spacing of doubles below 1 (2^-53), so a step
# that settles one ulp under 1 never meets it; within this it has
_CF_SETTLED = 3e-16
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


def _beta_cf(x: float, a: float, b: float, eps: float = _CF_EPS) -> float:
    """Continued fraction for the regularized incomplete beta.

    Modified Lentz iteration; caller guarantees the convergent regime
    x <= (a+1)/(a+b+2) via the symmetry switch in reg_inc_beta.  Raises
    ConvergenceError if the fraction has not converged after
    _CF_MAX_ITER steps.  A fraction whose step has settled within
    _CF_SETTLED of 1 by then has converged, but never met eps: it is
    run again to stop at the first such step.  avg_q_squared's F_0 at
    m = 1/2 and z = 0.575 (a = 1, b = -1/2) settles at 1 - 2^-53 from
    the 12th step on.
    """
    tiny = _CF_TINY
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
    if eps < _CF_SETTLED and -_CF_SETTLED < delta - 1.0 < _CF_SETTLED:
        return _beta_cf(x, a, b, _CF_SETTLED)
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
    It carries (b*t/(1 + b*t))^m over its peak, log_mgf_peak.

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
    dtheta = dv/(1 + v^2).  The quadrature runs on _sinh_grading's nodes
    up to v = 1, with the knee A where the integrand bends, at
    (1+b)*v^2 = 1.  Near theta = 0 the integrand is 1 - C*v^(2m), and in
    w it is w^(k-1) less a w^(k-1+2mk) term, which the rule resolves
    only by bisecting towards w = 0 unless it is high enough.  So k is
    an integer: ceil(2.4/m) for m >= 1, which makes 2*m*k at least 2.4
    (k = 1 from m = 2.4 on), and for m < 1 ceil(0.9/m) kept within
    [3, 7].  It is the Craig-form reference for R2 behind
    aber.r2_quadrature, which the tests check the routes against; no
    route or self test runs it.
    """
    if m >= 1.0:
        k = math.ceil(2.4 / m)
    else:
        k = max(3, math.ceil(min(7.0, 0.9 / m)))
    one_plus_b = 1.0 + b
    knee, lam, jac_scale = _sinh_grading(one_plus_b, 1.0, k)
    neg_m = -m
    exp, expm1, log1p = math.exp, math.expm1, math.log1p
    sinh, cosh = math.sinh, math.cosh

    def f(w: float) -> float:
        wk = w ** k
        t = lam * wk
        jac = jac_scale * (wk / w) * cosh(t)
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

    res = quad.integrate_finite(f, 0.0, 1.0, spec)
    return _scaled(res, m, b)


def avg_q_squared(m: float, b: float, term_tol: float) -> float:
    """E[Q^2], the fading average of Q(sqrt(2*alpha*snr))^2, as one
    hypergeometric sum, b = m/(alpha*mean_snr) (inf as mean_snr -> 0).

    With z = b/(b+2), y = 2/(b+2) and u = sin^2(theta) in Craig's form,
    expanding (1-u)^(-1/2) on u <= 1/2 makes term k the incomplete beta
    B_z(m+k+1/2, -k-1/2), so

        E[Q^2] = (1/pi) int_0^{pi/4} (1 + 1/(b*sin^2(theta)))^(-m) dtheta
               = z^m/(2*sqrt(2)*pi) * sum_k w_k * F_k/(m+k+1/2),

    w_k = (1/2)_k/(k!*2^k) and F_k = 2F1(1, m; m+k+3/2; z).  Each term
    is at most half the one before at every SNR, so the first
    K = ceil(log2(4/term_tol)) + 1 leave a tail below term_tol/4 of the
    sum: 43 terms at 1e-12.  They are summed smallest first.

    _beta_cf(z, m+p+1/2, -p-1/2) is F_p, and the contiguous relation
    F_{k+1} = (m+k+3/2)*(1 - y*F_k)/((k+3/2)*z) gives every other F_k
    from that one fraction.  Run forward it multiplies an error by
    g_k = (m+k+3/2)*y/((k+3/2)*z), so it runs forward above the pivot
    p = ceil(m*y/(z-y) - 3/2), where g_k falls to 1, and backward below
    it; where z <= 1/2, g_k > 1 for every k and p = K - 1.

    F_0's fraction converges only for z < (m+3/2)/(m+2), and near that
    bound it is slow and, at large m, inaccurate (1.4e-12 at m = 1e4,
    against 2e-15 from the connection).  So where y*(m+2) <= 1, twice
    as far from z = 1 as the bound, F_0 comes from the 1 - z connection
    (DLMF 15.8.4), a series in y:

        F_0 = (2m+1)*2F1(1, m; 1/2; y)
              - 2*sqrt(pi)*Gamma(m+3/2)/Gamma(m)*sqrt(y)*z^(-m-1/2).

    Its first part is at most 21 times F_0 there (at large m, where
    y*(m+2) = 1), so the difference loses at most 5 bits.  The Gamma
    ratio is (m+1/2)*sqrt(pi)/B(m, 1/2) by log_beta: an lgamma
    difference would carry eps*lgamma(m) into it, 7e-15 at m = 37.88
    and 1.9e-13 at m = 500.  At b = inf, y = 0, F_0 = 2m+1 and
    E[Q^2] = 1/4.  z^m is carried in logs to the final product, as
    _scaled carries the other kernels' peaks, so nothing underflows
    before it.

    Against 40-digit values (mpmath's 2F1 term by term) at
    term_tol = 1e-12 it is within 7.5e-14 relative on 600 random
    (m, b) in [0.05, 50] x [1e-8, 1e8], the worst at b below 1e-6,
    where z^m's exponent is about -500 and carries the rounding of
    log(z) m-fold, and within 8.4e-13 on 100 with m in [50, 1e4].
    """
    n = math.ceil(math.log2(4.0 / term_tol)) + 1
    last = n - 1
    if b == math.inf:
        z, y, log_z = 1.0, 0.0, 0.0
    else:
        y = 2.0 / (b + 2.0)
        z = b / (b + 2.0)
        inv = 2.0 / b
        log_z = -math.log1p(inv) if inv < math.inf else math.log(b) - math.log(b + 2.0)
    f = [0.0] * n
    if y * (m + 2.0) <= 1.0:
        p = 0
        s = term = 1.0
        j = 0.0
        while term > _CF_EPS * s:
            term *= (m + j) * y / (j + 0.5)
            s += term
            j += 1.0
        f[0] = (2.0 * m + 1.0) * s - _TWO_PI * (m + 0.5) * math.sqrt(y) * math.exp(
            -(m + 0.5) * log_z - log_beta(m, 0.5))
    else:
        p = last if z <= 0.5 else min(last, max(0, math.ceil(m * y / (z - y) - 1.5)))
        f[p] = _beta_cf(z, m + p + 0.5, -p - 0.5)
    for k in range(p, last):
        f[k + 1] = (m + k + 1.5) * (1.0 - y * f[k]) / ((k + 1.5) * z)
    for k in range(p - 1, -1, -1):
        f[k] = (1.0 - (k + 1.5) * z * f[k + 1] / (m + k + 1.5)) / y
    s = 0.0
    for k in range(last, -1, -1):
        s += _Q2_WEIGHTS[k] * f[k] / (m + k + 0.5)
    # the weights carry sqrt(2), so z^m*s/(4*pi) is z^m/(2*sqrt(2)*pi)
    # times the sum of w_k*F_k/(m+k+1/2)
    return _scale(s, m * log_z)
