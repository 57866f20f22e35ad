"""Special-function kernel tests.

Expected values were frozen from a 30-digit arbitrary-precision run so
the checks do not depend on the code under test.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import reg_inc_beta

from nakaber._purekernels import gauss_q, log_beta, log_gamma
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
       st.integers(min_value=0, max_value=2**53))
@settings(max_examples=300)
def test_reg_inc_beta_reflection(a, b, k):
    # x drawn dyadic so the complement 1 - x is exact; otherwise the
    # identity is limited by the rounding of 1 - x, not by the code
    x = k / 2.0**53
    gap = reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a) - 1.0
    assert abs(gap) <= 1e-12


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
_CF_EPS = 1e-16
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
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta(a, b))
    if x <= a / (a + b):
        return front * _beta_cf_plain(x, a, b) / a
    return 1.0 - front * _beta_cf_plain(1.0 - x, b, a) / b


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


def test_reg_inc_beta_keeps_the_plain_loops_bits():
    for x, a, b in _lemma2_panel(20, 60):
        assert reg_inc_beta(x, a, b) == _reg_inc_beta_plain(x, a, b), (x, a, b)


@pytest.mark.parametrize("x, n", [(0.5, 1e6), (0.49995, 1e7)])
def test_reg_inc_beta_refuses_an_unconverged_fraction(x, n):
    # 400 steps leave I_0.5(1e6, 1e6) at 0.4999999996611189, where it is
    # 0.5, and I_0.49995(1e7, 1e7) 1.5e-8 off
    with pytest.raises(ConvergenceError, match="did not converge in 400 steps"):
        reg_inc_beta(x, n, n)


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


def test_appell_f1_unreachable_accuracy_raises_with_payload():
    # a 1e-14 relative request sits below the summed per-panel roundoff
    # bound (50*eps*resabs, about 1.11e-14 relative), so the engine can
    # never certify it
    spec = QuadratureSpec(rel_tol=1e-14)
    with pytest.raises(ConvergenceError) as exc_info:
        appell_f1(2.0, 1.0, 0.5, 2.5, -0.6, -1.6, spec=spec)
    err = exc_info.value
    assert err.value == pytest.approx(0.46024614866852609153, rel=1e-10)
    assert err.error_estimate > 0.0
