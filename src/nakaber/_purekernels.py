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
# binary point of the fixed-point correction polynomial, and the bits
# it must keep at r_max
_FIXED_BITS = 110
_FIXED_KEEP = 64

# avg_q_squared's smallest term_tol, TruncationPolicy's floor, and the
# weights of its series, sqrt(2)*(1/2)_k/(k!*2^k), as many as it takes
_TERM_TOL_MIN = 1e-13
_Q2_WEIGHTS = tuple(itertools.accumulate(
    ((k + 0.5) / (2 * k + 2)
     for k in range(math.ceil(math.log2(4.0 / _TERM_TOL_MIN)))),
    operator.mul, initial=math.sqrt(2.0)))
# its 1 - z connection series' stop: past a term under this share of
# the sum, terms at least halve, so the tail is under 2^-53 of the sum
_Q2_SERIES_TAIL = 1e-16

# continued-fraction controls; the loop stops at a step within 2^-52 of 1
_CF_MAX_ITER = 400
_CF_EPS = 3e-16
_CF_TINY = 1e-300

# r2_sum's stop: a tail at most this share of the sum so far, and the
# most terms it takes
_R2_TAIL = 2.0 ** -58
_R2_CAP = 400

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

    Modified Lentz iteration; I_x(a, b) is x^a*(1-x)^b/B(a, b) times
    this over a.  It converges fast below or near x = (a+1)/(a+b+2), so
    _beta_start, the one start of I_x(a, b), runs it on x up to the
    switch x = a/(a+b) and on y = 1 - x with a and b swapped past it.
    Two callers take it directly: avg_q_squared, whose fraction on a
    negative second parameter never crosses the switch and takes no
    front factor, and the self tests' reflection group, which compares
    the two sides.  It stops at the first step within _CF_EPS of 1,
    which takes a step that settles one ulp off 1 on either side, and
    raises ConvergenceError if none comes in _CF_MAX_ITER steps.
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
    # it and m2 = 2*it count in floats, exact, so each product rounds
    # as with ints
    it = m2 = 0.0
    for _ in itertools.repeat(None, _CF_MAX_ITER):
        it += 1.0
        m2 += 2.0
        a_m2 = a + m2
        aa = it * (b - it) * x / ((qam + m2) * a_m2)
        d = 1.0 + aa * d
        if d < tiny and neg_tiny < d:
            d = tiny
        c = 1.0 + aa / c
        if c < tiny and neg_tiny < c:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + it) * (qab + it) * x / (a_m2 * (qap + m2))
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


def _beta_start(x: float, y: float, a: float, b: float,
                log_b_ab: float) -> tuple[float, bool, float]:
    """The one start of the incomplete-beta fraction for I_x(a, b), given
    0 < x < 1, y = 1 - x computed by the caller and log_b_ab =
    log B(a, b): (cf, on_x, log_front).

    It takes the side by the one switch, x = a/(a + b).  Up to it, on_x
    is True, cf is _beta_cf(x, a, b) and I_x(a, b) = front*cf/a.  Past
    it, cf is _beta_cf(y, b, a), the fraction of the complement
    I_y(b, a), and I_x(a, b) = 1 - front*cf/b.  front = exp(log_front)
    is x^a*y^b/B(a, b) either way, its log formed on the side taken:
    a*log(x) + b*log1p(-x) on x, b*log(y) + a*log1p(-y) on y.
    reg_inc_beta and r2_sum's h at its top index take it."""
    if x <= a / (a + b):
        log_front = a * math.log(x) + b * math.log1p(-x) - log_b_ab
        return _beta_cf(x, a, b), True, log_front
    log_front = b * math.log(y) + a * math.log1p(-y) - log_b_ab
    return _beta_cf(y, b, a), False, log_front


def reg_inc_beta(x: float, y: float, a: float, b: float, log_b_ab: float) -> float:
    """I_x(a, b) from the fraction's one start, _beta_start, given
    y = 1 - x computed by the caller, as TOMS 708's BRATIO takes it, and
    log_b_ab = log B(a, b), which a caller summing many terms of one
    (a, b) pair takes once.  Past the switch x = a/(a + b) it is the
    complement 1 - I_y(b, a), its front factor and fraction taken on y."""
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    cf, on_x, log_front = _beta_start(x, y, a, b, log_b_ab)
    if on_x:
        return math.exp(log_front) * cf / a
    return 1.0 - math.exp(log_front) * cf / b


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


def mgf_power(m: float, b: float, c: float) -> tuple[float, float]:
    """(b/(b+c))^m as (power, log_power), the value power*exp(log_power).

    With c = 1 and b = m/(alpha*mean_snr) it is the Nakagami MGF
    (1 + alpha*mean_snr/m)^(-m) at -alpha, the peak that both
    correction-term kernels divide out of their integrands; with c = 2
    it is the z^m of the squared-Q sums.  Where b < 1 and the power
    stays above 1e-290 it is (z^m, 0.0), z = b/(b+c), by pow, which
    carries z's rounding m-fold, about m*eps/2.  Elsewhere it is
    (1.0, m*log(z)), for a caller to add to its own logs, so a power
    past the double range still scales a value back into it.  The log
    carries eps*|m*log(z)|, more than pow for z < 1/3, which b >= 1
    keeps out; below b = 1 only a power under 1e-290 takes it.  It is
    -m*log1p(c/b), and m*(log(b) - log(b+c)), which cancels for b near
    c, only where c/b overflows.  At b = inf it is (1.0, -0.0)."""
    if b < 1.0:
        power = (b / (b + c)) ** m
        if power > 1e-290:
            return power, 0.0
    ratio = c / b
    if ratio == math.inf:
        return 1.0, m * (math.log(b) - math.log(b + c))
    return 1.0, -m * math.log1p(ratio)


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


def r2_term_scaled(n_terms: int, m: float, b: float,
                   spec: quad.QuadratureSpec) -> quad.QuadratureResult:
    """Truncated squared-Q correction series R2_N as one integral.

    Term n of the series integrates the same theta-integrand times
    r^n, r = t/(1 + (1+b)*t) with t = cos^2(theta), so the sum over
    n <= N = n_terms - 1 is the integral of that integrand times the
    polynomial P_N(r) = sum_n c_n * r^n, c_n = (1-m)_n/(n! (n+1/2)):

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
    (1+b)*phi^2 = 4: when every closed(N) value ran this quadrature, a
    seed-601 perfbench series pass took 257,400 evaluations here,
    275,970 with k = m^(-1/4) on all of m >= 1, and 415,590 (failing
    acceptance check 8) with that rule at every m.
    It carries (b*t/(1 + b*t))^m over its peak, mgf_power(m, b, 1).

    P_N takes the exact c_n at 2^_FIXED_BITS (_fixed_coefs), summed by
    _horner_fixed to about 2^-110 absolute at each node, so the
    alternating c_n of m > 1 cancel without losing the value.  Where
    P_N at r_max = 1/(2+b), the largest r, keeps fewer than _FIXED_KEEP
    bits, it raises ConvergenceError.  r2_series runs the kernel only
    where r2_sum would cancel or run past its length cap.  At the capped
    points, m from about 220 at high mean SNR, a value takes 0.24 ms in
    integers where doubles took 0.12 ms.
    """
    rev = _fixed_coefs(n_terms, m)[::-1]
    if abs(_horner_fixed(rev, 1.0 / (2.0 + b))).bit_length() < _FIXED_KEEP:
        raise quad.ConvergenceError(
            f"correction polynomial keeps fewer than {_FIXED_KEEP} bits "
            f"at r_max in 2^{_FIXED_BITS} fixed point (m={m:g})")
    one_plus_b = 1.0 + b
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
        p = ldexp(_horner_fixed(rev, t / (1.0 + u)), -_FIXED_BITS)
        # (b*t/(1+b*t))^m / (b/(1+b))^m = (1 + sin^2/((1+b)*t))^-m
        return jac * ct * p * exp(neg_m * log1p(st * st / u) - 0.5 * log1p(u))

    res = quad.integrate_finite(h, 0.0, 1.0, spec)
    return _scaled(res, m, b, -log_beta(0.5, m))


def _scaled(res: quad.QuadratureResult, m: float, b: float,
            log_scale: float = 0.0) -> quad.QuadratureResult:
    """res with its value and error estimate times
    mgf_power(m, b, 1) * exp(log_scale)/(4*pi)."""
    peak, log_peak = mgf_power(m, b, 1.0)
    log_scale += log_peak
    return quad.QuadratureResult(peak * _scale(res.value, log_scale),
                                 peak * _scale(res.error_estimate, log_scale),
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

    The integrand carries M(pi/2 - theta) over its peak,
    mgf_power(m, b, 1): exp(-m*log1p(s^2/((1+b)*c^2))).  In
    v = tan(theta) on [0, 1] it is rational in v, with no trig call per
    node: s^2/c^2 = v^2,
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
    (DLMF 15.8.4), a series in y, summed to a term under
    _Q2_SERIES_TAIL of the sum:

        F_0 = (2m+1)*2F1(1, m; 1/2; y)
              - 2*sqrt(pi)*Gamma(m+3/2)/Gamma(m)*sqrt(y)*z^(-m-1/2).

    Its first part is at most 21 times F_0 there (at large m, where
    y*(m+2) = 1), so the difference loses at most 5 bits.  The Gamma
    ratio is (m+1/2)*sqrt(pi)/B(m, 1/2) by log_beta: an lgamma
    difference would carry eps*lgamma(m) into it, 7e-15 at m = 37.88
    and 1.9e-13 at m = 500.  At b = inf, y = 0, F_0 = 2m+1 and
    E[Q^2] = 1/4.  z^m is mgf_power(m, b, 2), multiplied into the final
    product, by pow or in logs, so nothing underflows before it; the
    connection's z^(-m-1/2) is mgf_power's log.

    Against 40-digit values (mpmath's 2F1 term by term, 160 terms) at
    term_tol = 1e-12 it is within 1.2e-14 relative on 597 random
    (m, b), log-uniform on [0.05, 50] x [1e-8, 1e8], whose value is a
    normal double; with z^m from logs alone it was 1.4e-13 off at
    m = 28.2, b = 2.1e-8.  On 118 with b < 1 and z^m above 1e-290 the
    worst fell from 6.2e-14 to 9.6e-15 and the 90th percentile from
    1.5e-14 to 4.9e-15.  With m in [50, 1e4] and z^m from logs it was
    within 8.4e-13 on 100.
    """
    n = math.ceil(math.log2(4.0 / term_tol)) + 1
    last = n - 1
    if b == math.inf:
        z, y = 1.0, 0.0
    else:
        y = 2.0 / (b + 2.0)
        z = b / (b + 2.0)
    f = [0.0] * n
    if y * (m + 2.0) <= 1.0:
        p = 0
        s = term = 1.0
        j = 0.0
        while term > _Q2_SERIES_TAIL * s:
            term *= (m + j) * y / (j + 0.5)
            s += term
            j += 1.0
        # b >= 2m + 2 here, so z^(-m-1/2) comes as its log
        f[0] = (2.0 * m + 1.0) * s - _TWO_PI * (m + 0.5) * math.sqrt(y) * math.exp(
            mgf_power(-m - 0.5, b, 2.0)[1] - log_beta(m, 0.5))
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
    zm, log_zm = mgf_power(m, b, 2.0)
    if log_zm == 0.0:
        return _INV_FOUR_PI * s * zm
    return _scale(s, log_zm)


def r2_sum(coefs, m: float, b: float) -> tuple[float, float] | None:
    """Truncated squared-Q correction series R2_N, with no quadrature:
    (R2_N, kappa), or None where the sum would take more than _R2_CAP
    terms.

    With x = 1/(2+b), y = 1 - x and z = b*x, t = cos^2(theta) and
    r = x*s in r2_term_scaled's integral,

        R2_N = z^m*x/(4*pi*B(1/2, m)) * int_0^1 s^m (1-s)^(-1/2)
               * (1-x*s)^(-m) * (1-y*s)^(-1) * P_N(x*s) ds.

    Expanding (1-x*s)^(-m) = sum_k e_k s^k, e_k = (m)_k x^k/k!, and
    integrating term by term (DLMF 15.6.1),

        R2_N = z^m*x/(4*pi) * sum_n coefs[n] x^n T_n,
        T_n = sum_k e_k h_(n+k),
        h_j = B(m+j+1, 1/2)/B(m, 1/2) * 2F1(1, m+j+1; m+j+3/2; y).

    h_j - y*h_(j+1) = beta_j = B(m+j+1, 1/2)/B(m, 1/2), so h runs
    backward from one incomplete-beta fraction at the top index, each
    step adding positive terms and shrinking an error by y < 1
    (Gautschi, SIAM Review 1967).  The fraction comes from _beta_start,
    the start reg_inc_beta takes too, for I_y(a - 1/2, 1/2) with x
    computed directly and log B(a - 1/2, 1/2) = log(pi/(a - 1/2)) -
    log B(a, 1/2), from the log B(a, 1/2) that beta at the top index
    takes.  Up to the switch y = (a - 1/2)/a the 2F1 in h is the
    fraction itself; past it the start gives the complement's fraction
    cf, of I_x(1/2, a - 1/2), and its front factor F, and the 2F1 is
    (a - 1/2)*(1/F - 2*cf).  At m in the thousands it carries that
    fraction's own error, as E[Q] does (lemma2_avg_q): R2_N was 3.3e-12
    off at m = 8,632, -2.7 dB.

    Of the N+1 sums T_n only T_N is a dot product.  With
    L_n = sum_k e_k beta_(n+k) = beta_n * 2F1(m, m+n+1; m+n+3/2; x),
    h_j = beta_j + y*h_(j+1) gives T_n = L_n + y*T_(n+1), and
    integrating d/ds[s^(m+n+1) (1-s)^(1/2) (1-x*s)^(1-m)] over [0, 1]
    by parts (DLMF 15.5(ii)) gives the three-term relation

        (m+n+1) L_n = (m+n+3/2 + x*(n+2)) L_(n+1) - x*(n+5/2) L_(n+2).

    For large n it reads L_n = (1+x) L_(n+1) - x L_(n+2), whose
    solutions go as a power of n, as L_n does, and as x^-n.  Run upward
    the second would swamp L_n; run downward it shrinks by x < 1/2 a
    step, so the relation runs from the top down.  L_(N-1) and L_(N-2)
    are dot products, and the relation gives L_(N-3) .. L_0, so R2_N
    takes min(N+1, 3) dot products at any N, and the beta/h
    ladder stops at j = N-2.  T_n and the sum over n run from n = N
    down.  Against every T_n its own dot product, on 1,000
    whole-domain draws with N up to 200, R2_N stays within 0.35 of the
    sum's rounding bound, 4(N+1)*eps*kappa + 1e-15, and r2_series'
    guard decides alike at every draw.

    The k-sum stops where e_k times its geometric tail bound is below
    2^-58 of the sum so far; beta and h fall with j, so that bounds
    every dot product's tail alike.  Each is taken by math.fsum,
    correctly rounded, so R2_N has the same bits on every Python: the
    built-in sum of floats is compensated from 3.12 on, and gave other
    bits at 562 of seed 601's 3,456 perfbench series points, up to
    1.6e-14 apart in closed(N=5).  At most _R2_CAP terms are taken:
    past that (from m = 220 at high mean SNR, where x -> 1/2) the sum
    is slower than the quadrature.  The check before the loop keeps
    m*x/y < _R2_CAP, so sum(e_k) = y^-m stays under e^_R2_CAP and cannot
    overflow.

    kappa = sum_n |coefs[n] x^n T_n| / |R2_N's sum| is how far the
    alternating coefficients of m > 1 cancel; r2_series falls back to
    r2_term_scaled, on the exact coefficients, where it is large.  z^m
    is mgf_power(m, b, 2), multiplied into the final product with x,
    in logs where it comes as one: its pow keeps R2_N within 6.3e-15 of
    40-digit values on 60 series points, where the logs were 4.9e-14
    off (m = 29.1, 54 dB).  At b = inf, the mean SNR -> 0 limit, R2_N
    is 0.
    """
    if b == math.inf:
        return 0.0, 1.0
    x = 1.0 / (2.0 + b)
    y = (1.0 + b) * x
    # e_k*y^m is the negative binomial distribution of mean m*x/y and
    # deviation sqrt(m*x)/y, and its stop lies more than 8 deviations
    # past the mean
    mx = m * x
    if mx + 8.0 * math.sqrt(mx) > y * _R2_CAP:
        return None
    e = [1.0]
    term = total = 1.0
    for k in map(float, range(_R2_CAP)):
        ratio = (m + k) * x / (k + 1.0)
        # every later ratio is at most the larger of this one and x
        bound = ratio if ratio > x else x
        if bound < 0.9 and term * bound <= _R2_TAIL * (1.0 - bound) * total:
            break
        term *= ratio
        total += term
        e.append(term)
    else:
        return None
    last = len(coefs) - 1
    top = len(e) + last - 1
    a = m + top + 1.0
    a_half = a - 0.5
    log_x = -math.log(2.0 + b)
    log_b_top = log_beta(a, 0.5)
    # B(a - 1/2, 1/2)*B(a, 1/2) = pi/(a - 1/2)
    g, on_y, log_front = _beta_start(y, x, a_half, 0.5,
                                     math.log(math.pi / a_half) - log_b_top)
    if not on_y:
        # g is the complement's fraction, of I_x(1/2, a - 1/2)
        g = a_half * (1.0 / math.exp(log_front) - 2.0 * g)
    beta = math.exp(log_b_top - log_beta(m, 0.5))
    betas = [0.0] * (top + 1)
    h = [0.0] * (top + 1)
    betas[top] = beta
    h[top] = hj = beta * g
    # the dot products read beta_j from j = N-2 up and h_j from j = N up
    for j in range(top - 1, max(last - 2, 0) - 1, -1):
        mj = m + j
        beta *= (mj + 1.5) / (mj + 1.0)
        betas[j] = beta
        hj = beta + y * hj
        h[j] = hj
    weights = []
    xn = 1.0
    for c in coefs:
        weights.append(c * xn)
        xn *= x
    t = math.fsum(map(operator.mul, e, h[last:]))
    s = weights[last] * t
    magnitude = abs(s)
    l_n = l_up = 0.0
    for n in range(last - 1, -1, -1):
        if n >= last - 2:
            l_n, l_up = math.fsum(map(operator.mul, e, betas[n:])), l_n
        else:
            l_n, l_up = ((m + n + 1.5 + x * (n + 2.0)) * l_n
                         - x * (n + 2.5) * l_up) / (m + n + 1.0), l_n
        t = l_n + y * t
        term = weights[n] * t
        s += term
        magnitude += abs(term)
    if s == 0.0:
        return s, math.inf
    kappa = magnitude / abs(s)
    zm, log_zm = mgf_power(m, b, 2.0)
    if log_zm == 0.0:
        return _INV_FOUR_PI * x * s * zm, kappa
    return _scale(s, log_zm + log_x), kappa
