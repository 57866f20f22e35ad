"""Special-function kernel tests.

Expected values were frozen from a 30-digit arbitrary-precision run so
the checks do not depend on the code under test.
"""

import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import reg_inc_beta

from nakaber._purekernels import _beta_cf, gauss_q, log_beta, log_gamma, mgf_power
from nakaber.quad import ConvergenceError, QuadratureSpec
from nakaber.specfun import appell_f1


# --- log_gamma -------------------------------------------------------------

LGAMMA_CASES = {
    0.5: 0.5723649429247000870717,
    1.0: 0.0,
    2.0: 0.0,
    4.1: 1.918777194764963010289,
    1e-3: 6.907178885383853682512,
    1e4: 82099.71749644237727265,
}


@pytest.mark.parametrize("x,expected", sorted(LGAMMA_CASES.items()))
def test_log_gamma_frozen(x, expected):
    got = log_gamma(x)
    if expected == 0.0:
        assert abs(got) <= 1e-15
    else:
        assert got == pytest.approx(expected, rel=1e-13)


@given(st.floats(min_value=1e-3, max_value=1e4))
@settings(max_examples=200)
def test_log_gamma_recurrence(x):
    # Gamma(x+1) = x*Gamma(x), in log form
    lhs = log_gamma(x + 1.0)
    rhs = log_gamma(x) + math.log(x)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# --- gauss_q ---------------------------------------------------------------

GAUSS_Q_CASES = {
    -8.0: 0.9999999999999993779039,
    -3.0: 0.9986501019683699054733,
    -1.0: 0.8413447460685429485852,
    0.0: 0.5,
    0.5: 0.3085375387259868963623,
    1.0: 0.1586552539314570514148,
    2.0: 0.02275013194817920720028,
    5.5: 1.898956246588771938385e-8,
    13.0: 6.117164399549879682275e-39,
    24.0: 1.390392118549703059566e-127,
    37.0: 5.725571222524576822683e-300,
}


@pytest.mark.parametrize("z,expected", sorted(GAUSS_Q_CASES.items()))
def test_gauss_q_frozen(z, expected):
    assert gauss_q(z) == pytest.approx(expected, rel=1e-14)


def test_gauss_q_far_tail_stays_positive():
    # beyond z ~ 37.5 the value is subnormal and carries only a few
    # significant digits; positivity and ordering still must hold
    q38 = gauss_q(38.0)
    assert 0.0 < q38 < gauss_q(37.0)


@given(st.floats(min_value=-8.0, max_value=8.0))
@settings(max_examples=200)
def test_gauss_q_reflection(z):
    assert gauss_q(-z) + gauss_q(z) == pytest.approx(1.0, abs=1e-15)


@given(st.floats(min_value=-8.0, max_value=36.0),
       st.floats(min_value=1e-6, max_value=1.0))
@settings(max_examples=200)
def test_gauss_q_monotone(z, dz):
    # non-strict: near z = -8 the tail saturates within one ulp of 1
    assert gauss_q(z + dz) <= gauss_q(z)


def test_gauss_q_strictly_decreasing_where_resolvable():
    zs = [-2.0 + 0.5 * k for k in range(25)]
    qs = [gauss_q(z) for z in zs]
    assert all(q2 < q1 for q1, q2 in zip(qs, qs[1:]))


# --- beta / log_beta -------------------------------------------------------

def test_log_beta_frozen():
    assert log_beta(0.3, 7.7) == pytest.approx(0.4971779900216656495754, rel=1e-12)


@pytest.mark.parametrize("a, b, expected", [
    (1e4, 0.5, -4.032792743063396489297586942025650975299),
    (3e3, 0.5, -3.430777174233949519214367318769133354305),
    (50.0, 0.5, -1.381146601451041125901144309989486223177),
    (1e6, 1e6, -1386300.003362921116326119813153253387869),
])
def test_log_beta_does_not_cancel_at_large_arguments(a, b, expected):
    # 40-digit mpmath loggamma(a) + loggamma(b) - loggamma(a + b); the
    # lgamma difference is off by 1.5e-11, 1.2e-12, 3.4e-14 and 9.8e-10
    # here, 4 or more ulps of log B, about eps*lgamma(a + b); Stirling's
    # form is within 2
    assert abs(log_beta(a, b) - expected) <= 3.0 * math.ulp(expected)
    assert log_beta(b, a) == log_beta(a, b)


@given(st.floats(min_value=0.1, max_value=50.0),
       st.floats(min_value=0.1, max_value=50.0))
@settings(max_examples=200)
def test_beta_symmetry(a, b):
    assert log_beta(a, b) == pytest.approx(log_beta(b, a), rel=1e-13, abs=1e-13)


# --- mgf_power -------------------------------------------------------------

def test_mgf_power_meets_40_digit_values_on_the_whole_domain():
    # (b/(b+c))^m against 40-digit mpmath, m log-uniform on [0.05, 1e4],
    # b log-uniform on [1e-300, 1e300], c = 1 (the MGF) or 2 (z^m), then
    # subnormal b, where c/b overflows, and b = inf.  The bounds follow
    # the rule.  By pow, z = b/(b+c) rounds twice and the power once, so
    # the power is within (m + 2)*eps relative.  In logs, c/b, log1p and
    # the product round once each, and log1p passes c/b's rounding on at
    # most in full, so the log is within 2*eps of its own size; where c/b
    # overflows, m*(log(b) - log(b+c)) does not cancel, as log(b) < -700
    import mpmath

    eps = sys.float_info.epsilon
    rng = random.Random(44)
    draws = [(math.exp(rng.uniform(math.log(0.05), math.log(1e4))),
              10.0 ** rng.uniform(-300.0, 300.0), c)
             for _ in range(1000) for c in (1.0, 2.0)]
    draws += [(math.exp(rng.uniform(math.log(0.05), math.log(1e4))), b, c)
              for b in (5e-324, 1e-320, 1e-310, math.inf) for c in (1.0, 2.0)]
    misses = []
    for m, b, c in draws:
        power, log_power = mgf_power(m, b, c)
        if b == math.inf:
            assert (power, log_power) == (1.0, 0.0)
            continue
        with mpmath.workdps(40):
            log_ref = -m * mpmath.log1p(c / mpmath.mpf(b))
        if log_power == 0.0:
            # pow only below b = 1 and above 1e-290
            assert b < 1.0 and power > 1e-290
            ref = float(mpmath.exp(log_ref))
            err, bound = abs(power - ref) / ref, (m + 2.0) * eps
        else:
            assert power == 1.0 and (b >= 1.0 or log_ref < math.log(1e-290))
            err, bound = float(abs(log_power - log_ref)), 2.0 * eps * float(abs(log_ref))
        if not err <= bound:
            misses.append((m, b, c, err / bound))
    assert misses == []
    # both paths and the overflow branch ran
    assert any(mgf_power(m, b, c)[1] == 0.0 for m, b, c in draws)
    assert all(1.0 / b == math.inf for b in (5e-324, 1e-320, 1e-310))


# --- reg_inc_beta ----------------------------------------------------------

def test_reg_inc_beta_endpoints_exact():
    assert reg_inc_beta(0.0, 2.0, 3.0) == 0.0
    assert reg_inc_beta(1.0, 2.0, 3.0) == 1.0


def test_reg_inc_beta_known_values():
    assert reg_inc_beta(0.5, 2.0, 2.0) == pytest.approx(0.5, rel=1e-13)
    # I_x(1,2) = 1 - (1-x)^2
    assert reg_inc_beta(1.0 / 3.0, 1.0, 2.0) == pytest.approx(5.0 / 9.0, rel=1e-13)
    assert reg_inc_beta(0.25, 0.6, 0.5) == pytest.approx(
        0.2754019097861366627984, rel=1e-12)
    assert reg_inc_beta(0.9, 4.1, 0.5) == pytest.approx(
        0.3671082442235715087361, rel=1e-12)


@given(st.floats(min_value=0.3, max_value=10.0),
       st.floats(min_value=0.3, max_value=10.0),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=300)
def test_reg_inc_beta_reflection(a, b, u):
    # the kernel's two representations of I_x(a, b), the fraction on x
    # and the complement 1 - I_y(b, a) on y = 1 - x, at one point
    # between its switch a/(a+b) and (a+1)/(a+b+2), where both
    # fractions converge: they share one front factor, so the gap is the
    # fractions' alone, and a wrong fraction on either side shows.
    # I_x(a, b) + I_{1-x}(b, a) = 1 would not: the switch sends both
    # calls through one fraction at nearly one point
    lo, hi = a / (a + b), (a + 1.0) / (a + b + 2.0)
    x = lo + (hi - lo) * u
    y = 1.0 - x
    front = math.exp(a * math.log(x) + b * math.log(y) - log_beta(a, b))
    on_x = front * _beta_cf(x, a, b) / a
    on_y = 1.0 - front * _beta_cf(y, b, a) / b
    assert abs(on_x - on_y) <= 1e-12


@given(st.floats(min_value=0.3, max_value=10.0),
       st.floats(min_value=0.3, max_value=10.0),
       st.floats(min_value=0.01, max_value=0.98),
       st.floats(min_value=1e-4, max_value=0.02))
@settings(max_examples=200)
def test_reg_inc_beta_monotone_in_x(a, b, x, dx):
    xh = x + dx
    lo, hi = reg_inc_beta(x, a, b), reg_inc_beta(xh, a, b)
    # near 1 the step can be finer than the double spacing and both values
    # round alike (a=1, b=10, x=0.977: 1 - 5e-17 -> 1.0); the complement
    # I_{1-x}(b, a) keeps those digits, and 1 - x is exact there, so a tie
    # is checked for strictness on it instead
    assert hi > lo or (hi == lo
                       and reg_inc_beta(1.0 - xh, b, a) < reg_inc_beta(1.0 - x, b, a))


def test_reg_inc_beta_against_scipy_grid():
    scipy_special = pytest.importorskip("scipy.special")
    worst = 0.0
    for a in (0.3, 0.5, 1.0, 2.7, 4.1, 10.0):
        for b in (0.3, 0.5, 1.0, 2.7, 4.1, 10.0):
            for x in (0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999):
                ref = float(scipy_special.betainc(a, b, x))
                got = reg_inc_beta(x, a, b)
                worst = max(worst, abs(got - ref) / ref)
    assert worst <= 1e-12


# --- reg_inc_beta's bits ----------------------------------------------------

# the kernel's continued fraction as the textbook modified Lentz loop,
# with abs() and int counters: the reference for the bits of the kernel,
# which compares without abs() and counts in floats.  Both take log B
# from the log_beta kernel
_CF_MAX_ITER = 400
_CF_EPS = 3e-16
_CF_TINY = 1e-300


def _beta_cf_plain(x, a, b):
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


def _reg_inc_beta_plain(x, a, b):
    # the complement takes its front factor and fraction on y = 1 - x,
    # as the kernel does on the y its caller passes
    y = 1.0 - x
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    if x <= a / (a + b):
        front = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta(a, b))
        return front * _beta_cf_plain(x, a, b) / a
    front = math.exp(b * math.log(y) + a * math.log1p(-y) - log_beta(a, b))
    return 1.0 - front * _beta_cf_plain(y, b, a) / b


def _lemma2_panel(seed, pairs):
    """(x, a, b) calls over Lemma 2's pairs (m, 1/2) and (1/2, m), m
    log-uniform on [0.05, 1e4], x log-uniform from 1e-12 up to the
    switch a/(a+b), the switch itself and one x past it; shuffled, so
    the pairs interleave.  Every x is asked twice in a row, then its
    neighbour one ulp down, which a memo of the last call must not
    answer."""
    rng = random.Random(seed)
    calls = []
    for _ in range(pairs):
        m = math.exp(rng.uniform(math.log(0.05), math.log(1e4)))
        for a, b in ((m, 0.5), (0.5, m)):
            switch = a / (a + b)
            xs = [math.exp(rng.uniform(math.log(1e-12), math.log(switch)))
                  for _ in range(6)]
            xs += [switch, switch + (1.0 - switch) * rng.random()]
            calls += [(x, a, b) for x in xs]
    rng.shuffle(calls)
    return [c for x, a, b in calls
            for c in ((x, a, b), (x, a, b), (math.nextafter(x, 0.0), a, b))]


def _sum_fractions(monkeypatch, seed, draws):
    """(x, a, b) of every _beta_cf call r2_sum and avg_q_squared make
    at `draws` whole-domain points (m log-uniform on [0.05, 50],
    -30 .. 80 dB, all six orders, N in 0..5 or 71): I_y(a - 1/2, 1/2)
    and its complement's I_x(1/2, a - 1/2) for the sum, and
    2F1(1, m; m+p+3/2; z) on b = -p-1/2 for E[Q^2]."""
    from nakaber import _purekernels
    from nakaber.channel import SUPPORTED_ORDERS, Modulation, db_to_linear

    calls = []
    cf = _purekernels._beta_cf
    monkeypatch.setattr(_purekernels, "_beta_cf",
                        lambda x, a, b: calls.append((x, a, b)) or cf(x, a, b))
    rng = random.Random(seed)
    for _ in range(draws):
        m = math.exp(rng.uniform(math.log(0.05), math.log(50.0)))
        b = m / (Modulation(rng.choice(SUPPORTED_ORDERS)).c1
                 * db_to_linear(rng.uniform(-30.0, 80.0)))
        # the fraction's arguments depend on N, not on the coefficients
        _purekernels.r2_sum([2.0] * rng.choice((1, 2, 3, 4, 5, 6, 72)), m, b)
        _purekernels.avg_q_squared(m, b, 1e-12)
    return calls


def test_reg_inc_beta_keeps_the_plain_loops_bits(monkeypatch):
    for x, a, b in _lemma2_panel(20, 60):
        assert reg_inc_beta(x, a, b) == _reg_inc_beta_plain(x, a, b), (x, a, b)
    # the fraction keeps its bits on the arguments the sums pass too
    calls = _sum_fractions(monkeypatch, 21, 300)
    assert {a == 0.5 for _, a, _ in calls} == {True, False}
    assert {b == 0.5 for _, _, b in calls} == {True, False}
    assert any(b < 0.0 for _, _, b in calls)
    for x, a, b in calls:
        assert _beta_cf(x, a, b) == _beta_cf_plain(x, a, b), (x, a, b)


@pytest.mark.parametrize("x, n", [(0.5, 1e6), (0.49995, 1e7)])
def test_reg_inc_beta_refuses_an_unconverged_fraction(x, n):
    # 400 steps leave I_0.5(1e6, 1e6) at 0.4999999996611189, where it is
    # 0.5, and I_0.49995(1e7, 1e7) 1.5e-8 off
    with pytest.raises(ConvergenceError, match="did not converge in 400 steps"):
        reg_inc_beta(x, n, n)


def _start_draws(seed, draws):
    """(x, y, a, b, log B(a, b)) in the two shapes the fraction's start
    serves, `draws` of each: (m, 1/2) at x = m/(m + c), y = c/(m + c),
    c = alpha*mean_snr, as E[Q] and lu pass it (m log-uniform on
    [0.05, 1e4], -30 .. 80 dB, all six orders), and (a - 1/2, 1/2) at
    x = (1+b)/(2+b), y = 1/(2+b), as r2_sum passes it, with its
    log B(a - 1/2, 1/2) = log(pi/(a - 1/2)) - log B(a, 1/2) (a uniform
    on [1, 620], b log-uniform on [1e-6, 1e6])."""
    from nakaber.channel import SUPPORTED_ORDERS, Modulation, db_to_linear

    rng = random.Random(seed)
    out = []
    for _ in range(draws):
        m = math.exp(rng.uniform(math.log(0.05), math.log(1e4)))
        c = (Modulation(rng.choice(SUPPORTED_ORDERS)).c1
             * db_to_linear(rng.uniform(-30.0, 80.0)))
        out.append((m / (m + c), c / (m + c), m, 0.5, log_beta(m, 0.5)))
    for _ in range(draws):
        a = rng.uniform(1.0, 620.0)
        b = math.exp(rng.uniform(math.log(1e-6), math.log(1e6)))
        a_half = a - 0.5
        out.append(((1.0 + b) / (2.0 + b), 1.0 / (2.0 + b), a_half, 0.5,
                    math.log(math.pi / a_half) - log_beta(a, 0.5)))
    return out


def test_beta_start_meets_30_digits_on_both_sides_of_the_switch():
    # I_x(a, b) from the start's fraction, side and front factor, against
    # mpmath's 30-digit betainc on the x the side reads (1 - y past the
    # switch).  Where I_x is at least 1e-300 it lies within
    # 3*(a + |log_front| + 8)*eps relative: the fraction's own error,
    # about 1.2*a*eps near the switch x = a/(a+b), plus the exp of the
    # front factor's log, eps*|log_front|.  On 10,000 draws of these
    # shapes the worst read 1.73*(a + |log_front| + 8)*eps
    import mpmath

    from nakaber import _purekernels

    eps = 2.220446049250313e-16
    per_shape = 100
    draws = _start_draws(46, per_shape)
    sides = set()
    with mpmath.workdps(30):
        for i, (x, y, a, b, log_b_ab) in enumerate(draws):
            cf, on_x, log_front = _purekernels._beta_start(x, y, a, b, log_b_ab)
            front = math.exp(log_front)
            got = front * cf / a if on_x else 1.0 - front * cf / b
            sides.add((i < per_shape, on_x))
            ref = mpmath.betainc(a, b, 0, x if on_x else 1 - mpmath.mpf(y),
                                 regularized=True)
            if ref < 1e-300:
                continue
            bound = 3.0 * (a + abs(log_front) + 8.0) * eps
            assert abs(got - ref) <= bound * ref, (x, y, a, b)
    # each shape takes both sides
    assert len(sides) == 4


# --- appell_f1 -------------------------------------------------------------

def test_appell_f1_at_origin_is_one():
    assert appell_f1(1.3, 0.7, 2.2, 2.0, 0.0, 0.0) == pytest.approx(1.0, rel=1e-12)


def test_appell_f1_log_closed_form():
    # F1(1,1,1;2;x,y) = (log((1-y)/(1-x)))/(x-y)
    got = appell_f1(1.0, 1.0, 1.0, 2.0, -1.0, -2.0)
    assert got == pytest.approx(0.405465108108164381978, rel=1e-10)


def test_appell_f1_frozen_general_case():
    got = appell_f1(2.0, 1.0, 0.5, 2.5, -0.6, -1.6)
    assert got == pytest.approx(0.46024614866852609153, rel=1e-10)


def test_appell_f1_zero_weight_drops_argument():
    # b2 = 0 makes the second variable inert
    a = appell_f1(1.5, 0.8, 0.0, 2.5, -0.4, -7.0)
    b = appell_f1(1.5, 0.8, 0.0, 2.5, -0.4, 0.0)
    assert a == pytest.approx(b, rel=1e-12)


def test_appell_f1_reduces_to_gauss_2f1():
    # with y = 0 the function collapses to 2F1(a,b1;c;x)
    scipy_special = pytest.importorskip("scipy.special")
    got = appell_f1(1.2, 0.9, 3.0, 2.8, -0.5, 0.0)
    ref = float(scipy_special.hyp2f1(1.2, 0.9, 2.8, -0.5))
    assert got == pytest.approx(ref, rel=1e-10)


def test_appell_f1_tiny_value_at_default_spec():
    # F1(a; b1, b2; c; x, x) = 2F1(a, b1 + b2; c; x), here the 30-digit
    # 2F1(3, 16; 4; -1e4): far below any fixed absolute floor, so only
    # relative convergence resolves it
    got = appell_f1(3.0, 8.0, 8.0, 4.0, -1e4, -1e4)
    assert got == pytest.approx(2.1978021978021978e-15, rel=1e-10, abs=0.0)


def test_appell_f1_positive_for_supported_signs():
    assert appell_f1(2.5, 1.1, 0.4, 3.0, -50.0, -51.0) > 0.0


def test_appell_f1_domain():
    with pytest.raises(ValueError):
        appell_f1(-1.0, 1.0, 1.0, 2.0, -1.0, -1.0)  # needs a > 0
    with pytest.raises(ValueError):
        appell_f1(2.0, 1.0, 1.0, 2.0, -1.0, -1.0)  # needs c > a
    with pytest.raises(ValueError):
        appell_f1(1.0, 1.0, 1.0, 2.0, 0.5, -1.0)  # x must be <= 0
    with pytest.raises(ValueError):
        appell_f1(1.0, 1.0, 1.0, 2.0, -1.0, 0.5)  # y must be <= 0
    with pytest.raises(ValueError):
        appell_f1(1.0, 1.0, 1.0, 2.0, float("inf"), -1.0)


def test_appell_f1_unreachable_accuracy_raises_with_payload(monkeypatch):
    # a 1.12e-14 relative request sits just above the summed per-panel
    # roundoff bound (50*eps*resabs, about 1.11e-14 relative): it takes
    # 1,170 evaluations here, so a budget of 20 bisections (600) starves it
    from nakaber import quad

    monkeypatch.setattr(quad, "_MAX_SUBDIVISIONS", 20)
    spec = QuadratureSpec(rel_tol=1.12e-14)
    with pytest.raises(ConvergenceError) as exc_info:
        appell_f1(2.0, 1.0, 0.5, 2.5, -0.6, -1.6, spec=spec)
    err = exc_info.value
    assert err.value == pytest.approx(0.46024614866852609153, rel=1e-10)
    assert err.error_estimate > 0.0
