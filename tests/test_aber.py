"""Average-BER engine tests.

Frozen decimals come from a 30-digit arbitrary-precision study of the
same formulas; quadrature cross-checks run against the independent
defining-average integrals.
"""

import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from nakaber.aber import (
    AberMethod,
    TruncationPolicy,
    aber_closed,
    aber_closed_with_terms,
    aber_expq_closed,
    aber_lu_closed,
    aber_oracle,
    discrepancy,
    lemma2_avg_q,
    oracle_result,
    r2_quadrature,
    r2_series,
)
from nakaber.channel import ChannelParams, Modulation, QApproxVariant
from nakaber.quad import ConvergenceError, QuadratureSpec
from nakaber.specfun import reg_inc_beta

RAYLEIGH_UNIT = ChannelParams(1.0, 1.0)
QPSK = Modulation(4)

# mean of Q(sqrt(2*snr)) under unit-mean Rayleigh fading: (1 - sqrt(1/2))/2
AVG_Q_RAYLEIGH = 0.5 * (1.0 - math.sqrt(0.5))

TIGHT = QuadratureSpec(rel_tol=1e-12)


# --- truncation policy -------------------------------------------------------

def test_truncation_policy_validation():
    TruncationPolicy.fixed(0)
    TruncationPolicy.fixed(200)
    TruncationPolicy.adaptive(1e-10)
    with pytest.raises(ValueError, match="mode must be 'fixed_terms' or 'adaptive'"):
        TruncationPolicy("bogus")
    with pytest.raises(ValueError, match=r"n_max must lie in \[0, 200\]"):
        TruncationPolicy.fixed(-1)
    with pytest.raises(ValueError, match=r"n_max must lie in \[0, 200\]"):
        TruncationPolicy.fixed(201)
    with pytest.raises(ValueError, match=r"term_tol must lie in \[1e-16, 1e-4\]"):
        TruncationPolicy.adaptive(1e-17)
    with pytest.raises(ValueError, match=r"term_tol must lie in \[1e-16, 1e-4\]"):
        TruncationPolicy.adaptive(1e-3)
    with pytest.raises(ValueError, match=r"n_max must lie in \[0, 200\]"):
        TruncationPolicy(n_max=-1)


def test_truncation_policy_defaults():
    t = TruncationPolicy()
    assert t.mode == "fixed_terms"
    assert t.n_max == 5


# --- averaged Q --------------------------------------------------------------

def test_avg_q_rayleigh_closed_form():
    assert lemma2_avg_q(RAYLEIGH_UNIT, 1.0) == pytest.approx(
        AVG_Q_RAYLEIGH, rel=1e-14)


def test_avg_q_frozen_value():
    ch = ChannelParams(0.6, 10.0)
    c1_256 = Modulation(256).c1
    assert lemma2_avg_q(ch, c1_256) == pytest.approx(
        0.24352123264548251852, rel=1e-13)


@pytest.mark.parametrize("snr_db, order, expected", [
    (10.0, 4, 3.8934150237704864483e-6),
    (5.44, 64, 0.15868025838332024458),
    (-30.0, 4096, 0.49881715374794805699),
    (0.0, 4096, 0.46264979870824552541),
])
def test_avg_q_holds_to_1e_10_at_the_largest_m_it_takes(snr_db, order, expected):
    # 50-digit quadrature of Craig's form, equal to 50-digit
    # (1/2)*I_x(m, 1/2); m = 1e4 is the largest m the closed form takes,
    # and 64-QAM at 5.44 dB is its worst point there on a 0.02 dB grid
    # over -30 to 40 dB and all six orders (3.3e-11 off)
    ch = ChannelParams(1e4, 10.0 ** (snr_db / 10.0))
    got = lemma2_avg_q(ch, Modulation(order).c1)
    assert got == pytest.approx(expected, rel=1e-10, abs=0.0)
    with pytest.raises(ConvergenceError, match="not accurate to 1e-10"):
        lemma2_avg_q(ChannelParams(math.nextafter(1e4, math.inf), ch.mean_snr),
                     Modulation(order).c1)


@pytest.mark.parametrize("m, snr_db, expected", [
    (1.0, -130.0, 0.4999998418861169915889366929503168646418),
    (1.0, -90.0, 0.4999841886117070637969921179974718503006),
    (1.0, -30.0, 0.4841965114689746506133454134515485677696),
    (10.0, -130.0, 0.4999998238029479980530392209378548826240),
    (10.0, -90.0, 0.4999823802948059715837692491401062940099),
    (10.0, -30.0, 0.4823864595696783947305129097498053189510),
    (100.0, -130.0, 0.4999998218104636445675301046031208996600),
    (100.0, -90.0, 0.4999821810463704255052573208293575240134),
    (100.0, -30.0, 0.4821870138967006583943780326114319203854),
    (2999.0, -130.0, 0.4999998215950245589817431693500545782161),
    (2999.0, -90.0, 0.4999821595024618454032320684531720374884),
    (2999.0, -30.0, 0.4821654484950671849472614692363660062053),
])
def test_avg_q_at_very_low_mean_snr(m, snr_db, expected):
    # 40-digit (1/2)*(1 - I_y(1/2, m)), y = c/(m + c), c = alpha*gbar
    # exactly; taking 1 - x in doubles instead keeps only the rounding
    # of x and misses these by up to 3.6e-7 (m = 2999, -130 dB)
    ch = ChannelParams(m, 10.0 ** (snr_db / 10.0))
    assert lemma2_avg_q(ch, QPSK.c1) == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_avg_q_rejects_bad_alpha():
    with pytest.raises(ValueError):
        lemma2_avg_q(RAYLEIGH_UNIT, 0.0)
    with pytest.raises(ValueError):
        lemma2_avg_q(RAYLEIGH_UNIT, float("inf"))


# --- correction term ---------------------------------------------------------

@pytest.mark.parametrize("ch, spec, expected, rel", [
    (RAYLEIGH_UNIT, TIGHT, 0.038245089301743883995, 1e-11),
    # 50-digit Craig form I_x(m, 1/2)/4 - (1/pi) int_0^{pi/4}
    # (1 + gbar/(m sin^2))^-m dtheta at the double m = 4.1
    (ChannelParams(4.1, 1000.0), None, 1.0551786267554558e-11, 1e-9),
    # the same 50-digit form where R2 is dozens of decades below 1: the
    # default spec converges on relative error alone
    (ChannelParams(50.0, 1000.0), None, 1.5783802198025831671e-68, 1e-9),
    (ChannelParams(20.5, 1000.0), None, 5.0737298221946191915e-37, 1e-9),
    # 40-digit quadrature of the phi-form at b = 1e-303, where b*cos^2
    # is subnormal over much of the range and 1/(b*cos^2) overflows;
    # (b*cos^2)^m is still about 0.5 there; reading it as 0 leaves the
    # value 3.0e-6 low
    (ChannelParams(0.001, 1e300), None, 1.448026277000501682589876e-4, 1e-10),
], ids=["rayleigh-tight", "m4.1-30dB-default", "m50-30dB-default",
        "m20.5-30dB-default", "m0.001-3000dB-default"])
def test_r2_quadrature_frozen_value(ch, spec, expected, rel):
    got = r2_quadrature(ch, 1.0, spec=spec)
    # abs=0: approx's default 1e-12 absolute slack would swallow a
    # relative error of any size at R2 ~ 1e-11
    assert got == pytest.approx(expected, rel=rel, abs=0.0)


def test_r2_quadrature_takes_subnormal_m():
    # 1.2/m overflows below m = 6.7e-309, and the kernel's endpoint map
    # must still pick its power.  As m -> 0, with b = m/(alpha*gbar)
    # going with it, R2 = m*G/pi + O(m^2), G Catalan's constant; at
    # m = 1e-309 the remainder is far below one subnormal ulp, so the
    # kernel must land within two ulps of m*G/pi (40-digit value)
    ref = 2.91560904030817e-310
    got = r2_quadrature(ChannelParams(1e-309, 1.0), 1.0)
    assert abs(got - ref) <= 2.0 * math.ulp(ref)


def test_r2_integral_resolves_the_low_snr_knee():
    # at b = 1e300 (m = 50, about -2,980 dB) the integrand falls from
    # its value at 0 where theta passes 1e-150; as b -> oo,
    # R2 -> m*C(2m, m)/(2*4^m*sqrt(b)) to relative O(1/b), here
    # 1.989730934679469e-150 (40 digits).  Nodes spread as theta = w^k
    # found the knee only after 14,955 evaluations
    from nakaber import _backend

    res = _backend.kernels.r2_integral(1e300, 50.0, None)
    assert res.converged
    assert res.evaluations <= 500
    assert res.value == pytest.approx(1.989730934679469e-150, rel=1e-13, abs=0.0)


def test_r2_integral_evaluation_budget(monkeypatch):
    # in Craig's angle, mapped by theta = w^k, the integrand is smooth at
    # both ends of its range, so no call on the selftest identity grid
    # needs deep bisection towards either (5,550 evaluations in all,
    # worst 225); no node pays an incomplete beta
    from nakaber import _backend
    from nakaber.harness import _IDENTITY_SPEC, _identity_grid

    def refuse(*args):
        raise AssertionError("reg_inc_beta was called")

    monkeypatch.setattr(_backend.kernels, "reg_inc_beta", refuse)
    spec = _IDENTITY_SPEC
    counts = []
    for ch, mod, _ in _identity_grid():
        b = ch.m / (mod.c1 * ch.mean_snr)
        res = _backend.kernels.r2_integral(b, ch.m, spec)
        assert res.converged
        counts.append(res.evaluations)
    assert max(counts) <= 240
    assert sum(counts) <= 5700


def _r2_tan_form(b, m, spec):
    # the second formula: the defining integral over p in [0, oo),
    # 1/(4 pi) int I_{1/(b+2+p)}(1/2, m) * (b/(b+1+p))^m
    # * dp/(sqrt(p)*(1+p)), in phi with p = tan^2(phi) and c = cos^2(phi):
    # 2 * I_{c/(1+(1+b)c)}(1/2, m) * (b*c/(1+b*c))^m on [0, pi/2); where
    # b*c is subnormal, 1/(b*c) overflows and the ratio is (b*c)^m
    from nakaber.quad import integrate_finite

    def f(phi):
        c = math.cos(phi) ** 2
        ib = reg_inc_beta(c / (1.0 + (1.0 + b) * c), 0.5, m)
        if ib == 0.0:
            return 0.0
        bc = b * c
        if bc < sys.float_info.min:
            return 2.0 * ib * math.exp(m * (math.log(b) + math.log(c)))
        return 2.0 * ib * math.exp(-m * math.log1p(1.0 / bc))

    res = integrate_finite(f, 0.0, 0.5 * math.pi, spec)
    assert res.converged
    return res.value / (4.0 * math.pi)


@pytest.mark.parametrize("m", [0.05, 0.2, 0.6, 1.0, 2.5, 4.1, 20.5, 50.0])
def test_r2_integral_meets_the_tan_form(m):
    # two formulas for R2, Craig's angle and the tan-mapped defining
    # integral, agree on m x {-30 .. 80} dB (measured gap 3.4e-14)
    from nakaber import _backend

    for snr_db in (-30, -10, 0, 10, 30, 50, 80):
        b = m / 10.0 ** (snr_db / 10.0)
        got = _backend.kernels.r2_integral(b, m, TIGHT)
        assert got.converged
        assert got.value == pytest.approx(_r2_tan_form(b, m, TIGHT),
                                          rel=1e-12, abs=0.0), snr_db


@pytest.mark.parametrize("order", [4, 16, 64, 256, 1024, 4096])
def test_r2_quadrature_rayleigh_closed_form(order):
    # at m = 1, with c = alpha*gbar and mu = sqrt(c/(1+c)),
    # R2 = (mu/pi) * atan((1-mu)/(1+mu)); 1 - mu is 1/((1+c)(1+mu)),
    # which does not cancel where mu is near 1
    alpha = Modulation(order).c1
    for snr_db in range(-30, 81, 2):
        c = alpha * 10.0 ** (snr_db / 10.0)
        mu = math.sqrt(c / (1.0 + c))
        one_minus_mu = 1.0 / ((1.0 + c) * (1.0 + mu))
        expected = mu / math.pi * math.atan(one_minus_mu / (1.0 + mu))
        got = r2_quadrature(ChannelParams(1.0, 10.0 ** (snr_db / 10.0)), alpha)
        assert got == pytest.approx(expected, rel=1e-13, abs=0.0), snr_db


def test_no_library_path_uses_the_half_line_fold(monkeypatch):
    # the correction-term reference and every selftest integral run on
    # the finite engine
    from nakaber import quad
    from nakaber.harness import run_selftest

    def refuse(*args, **kwargs):
        raise AssertionError("integrate_semi_infinite was called")

    monkeypatch.setattr(quad, "integrate_semi_infinite", refuse)
    for m, gbar in ((0.05, 0.1), (0.6, 10.0), (4.1, 1000.0), (50.0, 1e8)):
        assert r2_quadrature(ChannelParams(m, gbar), QPSK.c1) > 0.0
    assert all(r.passed for r in run_selftest())


def test_r2_term_scaled_evaluation_budget(monkeypatch):
    # for m < 1 the theta-integrand has a fractional-power endpoint at
    # theta = pi/2; the kernel's variable makes it smooth, so no call on
    # the small-m panel needs deep bisection there
    from nakaber import _backend

    kernel = _backend.kernels.r2_term_scaled
    counts = []

    def counted(*args):
        res = kernel(*args)
        assert args[3] == QuadratureSpec(rel_tol=1e-11)
        assert res.converged
        counts.append(res.evaluations)
        return res

    monkeypatch.setattr(_backend.kernels, "r2_term_scaled", counted)
    for m in (0.05, 0.2, 0.6, 0.95):
        for snr_db in (-30, -10, 0, 10, 30, 60, 80):
            ch = ChannelParams(m, 10.0 ** (snr_db / 10.0))
            for order in (4, 256):
                for trunc in (TruncationPolicy.fixed(5), TruncationPolicy.adaptive()):
                    r2_series(ch, Modulation(order).c1, trunc)
    assert len(counts) == 112
    assert max(counts) <= 300
    assert sum(counts) <= 12000


@pytest.mark.parametrize("m", [0.6, 2.5, 4.1])
@pytest.mark.parametrize("b", [0.3, 0.05, 1.7])
def test_r2_term_is_the_papers_appell_f1_term(m, b):
    # the one-integral series kernel, given a one-hot coefficient vector,
    # reproduces term n of the paper's series:
    # B(n+m+1, 1/2)/(4 pi B(1/2, m)) * c_n * b^m
    #     * F1(n+m+1; m, n+1/2; n+m+3/2; -b, -(1+b))
    from nakaber import _purekernels
    from nakaber.specfun import appell_f1, log_beta

    spec = QuadratureSpec(rel_tol=1e-13)
    c_n = 2.0  # c_n = (1-m)_n / (n! (n+1/2))
    for n in range(5):
        if n:
            c_n *= (n - m) / n * (n - 0.5) / (n + 0.5)
        got = _purekernels.r2_term_scaled((0.0,) * n + (c_n,), m, b, spec).value
        factor = math.exp(log_beta(n + m + 1, 0.5) - log_beta(0.5, m)) / (4 * math.pi)
        term = factor * c_n * b ** m * appell_f1(
            n + m + 1, m, n + 0.5, n + m + 1.5, -b, -(1 + b), spec)
        assert got == pytest.approx(term, rel=1e-12, abs=0.0), n


def test_r2_quadrature_closes_the_identity():
    # for m = 1 the series terminates at one term, so I/4 - R2 has an
    # independent closed form through the terminating series
    one_term = r2_series(RAYLEIGH_UNIT, 1.0, TruncationPolicy.fixed(0)).value
    got = r2_quadrature(RAYLEIGH_UNIT, 1.0, spec=TIGHT)
    assert got == pytest.approx(one_term, rel=1e-11)


def test_r2_vanishes_like_sqrt_mean_snr():
    # leading behavior for m = 1 is sqrt(mean_snr)/4
    small = r2_quadrature(ChannelParams(1.0, 1e-12), 1.0, spec=TIGHT)
    smaller = r2_quadrature(ChannelParams(1.0, 1e-14), 1.0, spec=TIGHT)
    assert small == pytest.approx(2.5e-7, rel=1e-3)
    assert small / smaller == pytest.approx(10.0, rel=1e-3)


def test_r2_sandwich():
    for m, gbar in ((0.6, 0.5), (1.0, 2.0), (2.5, 30.0), (4.1, 1000.0)):
        ch = ChannelParams(m, gbar)
        r2 = r2_quadrature(ch, 1.0, spec=TIGHT)
        x = m / (m + gbar)
        quarter_i = 0.25 * reg_inc_beta(x, m, 0.5)
        assert 0.0 <= r2 <= quarter_i


@pytest.mark.parametrize("m", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("gbar", [1.0, 10.0])
def test_r2_series_terminates_at_integer_m(m, gbar):
    ch = ChannelParams(m, gbar)
    alpha = Modulation(16).c1
    res = r2_series(ch, alpha, TruncationPolicy.fixed(50))
    assert res.terms_used == int(m)
    ref = r2_quadrature(ch, alpha, spec=TIGHT)
    assert res.value == pytest.approx(ref, rel=1e-9)


def test_r2_series_error_decreases_with_terms():
    ch = ChannelParams(4.1, 1.0)
    alpha = Modulation(256).c1
    ref = r2_quadrature(ch, alpha, spec=QuadratureSpec(rel_tol=1e-13))
    spec = QuadratureSpec(rel_tol=1e-13)
    errs = [abs(r2_series(ch, alpha, TruncationPolicy.fixed(n), spec).value - ref)
            for n in (0, 1, 2, 3, 5)]
    assert all(e2 <= e1 for e1, e2 in zip(errs, errs[1:]))
    assert errs[-1] < 1e-10 * ref


def test_r2_series_adaptive_stops_early():
    ch = ChannelParams(4.1, 10.0)
    alpha = 1.0
    res = r2_series(ch, alpha, TruncationPolicy.adaptive(1e-12))
    assert res.terms_used < 60
    ref = r2_quadrature(ch, alpha, spec=TIGHT)
    assert res.value == pytest.approx(ref, rel=1e-9)


def test_r2_series_fractional_m_stress():
    # small b (high mean SNR) is the slowest-converging corner
    ch = ChannelParams(0.6, 1000.0)
    alpha = Modulation(256).c1
    res = r2_series(ch, alpha, TruncationPolicy.adaptive(1e-13))
    ref = r2_quadrature(ch, alpha, spec=QuadratureSpec(rel_tol=1e-13))
    assert res.value == pytest.approx(ref, rel=1e-7)


def test_r2_series_tiny_mean_snr_uses_log_fold():
    # b is astronomically large here; the direct b^m * F1 product would
    # underflow, the folded path must still deliver the value
    ch = ChannelParams(2.5, 1e-200)
    res = r2_series(ch, 1.0, TruncationPolicy.fixed(3))
    assert res.value > 0.0
    x = ch.m / (ch.m + ch.mean_snr)
    quarter_i = 0.25 * reg_inc_beta(x, ch.m, 0.5)
    assert res.value <= quarter_i


def test_r2_series_large_b_terms_stay_accurate():
    # b = 932.75: each term multiplies a ~1e-13 F1 value by b^m ~ 1.5e12,
    # so the term evaluation must not let an absolute floor stand in for
    # relative convergence (that once froze the sum 6e-6 away from truth)
    ch = ChannelParams(4.1, 1.0)
    alpha = Modulation(4096).c1
    res = r2_series(ch, alpha, TruncationPolicy.fixed(5))
    assert res.value == pytest.approx(0.01671860004636374901, rel=1e-11)


# --- closed forms ------------------------------------------------------------

def test_aber_closed_frozen_rayleigh_value():
    got = aber_closed(RAYLEIGH_UNIT, QPSK)
    assert got == pytest.approx(0.13770205555632142915, rel=1e-12)


def test_aber_closed_reports_terms():
    value, terms = aber_closed_with_terms(RAYLEIGH_UNIT, QPSK,
                                          TruncationPolicy.fixed(50))
    assert terms == 1  # terminating series for m = 1
    ch3 = ChannelParams(3.0, 1.0)
    _, terms3 = aber_closed_with_terms(ch3, QPSK, TruncationPolicy.fixed(50))
    assert terms3 == 3


def test_aber_closed_low_snr_limit():
    ch = ChannelParams(1.0, 1e-10)
    assert aber_closed(ch, QPSK) == pytest.approx(0.4375, abs=1e-4)


def single_c0_weight_form(ch, mod, trunc=None):
    """c0 * I_x(m, 1/2) + 4*c0^2 * R2: the closed form with the
    incomplete-beta weight (2*c0 - c0^2) replaced by a bare c0, a
    deliberately wrong diagnostic form for any constellation with c0 != 1."""
    x = ch.m / (ch.m + mod.c1 * ch.mean_snr)
    r2 = r2_series(ch, mod.c1, trunc).value
    return mod.c0 * reg_inc_beta(x, ch.m, 0.5) + 4.0 * mod.c0 ** 2 * r2


def test_aber_closed_diagnostic_weight_differs():
    ch = ChannelParams(1.0, 1e-10)
    mod = Modulation(16)
    good = aber_closed(ch, mod)
    bad = single_c0_weight_form(ch, mod)
    assert abs(good - bad) > 0.1


def test_aber_closed_adaptive_large_m():
    # 30-digit value of the Craig-form average at m=45.5, 20 dB, QPSK;
    # the alternating correction series loses ~7 digits to cancellation
    # here, which a per-term sum in doubles could not recover
    ch = ChannelParams(45.5, 100.0)
    got = aber_closed(ch, QPSK, TruncationPolicy.adaptive())
    assert got == pytest.approx(5.3552545392030535e-25, rel=1e-10)


@pytest.mark.parametrize("m, snr_db, order, expected", [
    (0.05, -10.0, 4, 0.39421735413477998),
    (0.2, 30.0, 256, 0.059749272637879283),
    (0.6, 80.0, 4, 3.2712644822292165e-06),
], ids=["m0.05--10dB-M4", "m0.2-30dB-M256", "m0.6-80dB-M4"])
def test_aber_closed_adaptive_small_m(m, snr_db, order, expected):
    # 30-digit Craig-form averages; check 5's grid has no non-integer m
    # below 0.6, where the correction integrand's theta = pi/2 endpoint
    # is least smooth
    ch = ChannelParams(m, 10.0 ** (snr_db / 10.0))
    got = aber_closed(ch, Modulation(order), TruncationPolicy.adaptive())
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_r2_series_cancelling_coefficients_stay_accurate():
    # for m = 80.5 the alternating coefficients cancel by ~1e13 at r_max;
    # a sum with coefficients rounded to doubles is off by ~3e-6 here.
    # Reference: 50-digit quadrature of the N -> oo series weight
    ch = ChannelParams(80.5, 1000.0)
    res = r2_series(ch, QPSK.c1, TruncationPolicy.adaptive())
    assert res.value == pytest.approx(2.643414182312956982841031e-93, rel=1e-10)


def test_r2_series_cancellation_beyond_double_double_raises():
    # at m = 190.5 the adaptive bound sum cancels by ~1e33, so its
    # rounding in doubles would decide where the series stops: the stop
    # rule refuses; trusting it gives 4.8e-155 where R2 is 2.75e-154.
    # Five terms cancel far less, and the fixed-point polynomial keeps
    # its 64 bits there.  Reference: quadrature of the N = 5
    # theta-integral in 50-digit arithmetic, good to ~1e-13
    ch = ChannelParams(190.5, 1000.0)
    with pytest.raises(ConvergenceError, match="cancels past double precision"):
        r2_series(ch, QPSK.c1, TruncationPolicy.adaptive())
    res = r2_series(ch, QPSK.c1, TruncationPolicy.fixed(5))
    assert res.value == pytest.approx(-9.3285654361203e-147, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("m", [13.35, 30.5, 45.2, 80.5])
def test_fixed_point_correction_polynomial_is_correctly_rounded(m):
    # the series kernel's P_N(r) where its coefficients cancel, against
    # an exact rational evaluation at 101 r in [0, r_max]; with the
    # coefficients scaled by 2^53 instead, most of these points are off
    from fractions import Fraction

    from nakaber import _purekernels

    ch = ChannelParams(m, 1000.0)
    n_terms = r2_series(ch, QPSK.c1, TruncationPolicy.adaptive()).terms_used
    fixed = _purekernels._fixed_coefs(n_terms, m)[::-1]
    exact = [Fraction(2)]
    for k in range(1, n_terms):
        exact.append(exact[-1] * (k - Fraction(m)) * (2 * k - 1) / (k * (2 * k + 1)))
    r_max = 1.0 / (2.0 + ch.m / (QPSK.c1 * ch.mean_snr))
    for i in range(101):
        r = r_max * i / 100
        p = Fraction(0)
        for c in reversed(exact):
            p = p * Fraction(r) + c
        got = math.ldexp(_purekernels._horner_fixed(fixed, r), -_purekernels._FIXED_BITS)
        assert got == float(p), r


def test_fixed_point_path_refuses_foreign_coefficients():
    # one-hot term 12 at m = 2.5 cancels enough to take the fixed-point
    # path, which sums the exact series of m; it must refuse rather than
    # return the whole twelve-term series
    from nakaber import _purekernels

    m = 2.5
    c_n = 2.0
    for n in range(1, 13):
        c_n *= (n - m) / n * (n - 0.5) / (n + 0.5)
    with pytest.raises(ValueError, match="coefs"):
        _purekernels.r2_term_scaled((0.0,) * 12 + (c_n,), m, 0.3,
                                    QuadratureSpec(rel_tol=1e-13))


def test_adaptive_series_past_the_term_cap_raises():
    ch = ChannelParams(500.5, 1000.0)
    with pytest.raises(ConvergenceError):
        r2_series(ch, QPSK.c1, TruncationPolicy.adaptive())


def test_aber_lu_closed_frozen_value():
    assert aber_lu_closed(RAYLEIGH_UNIT, QPSK) == pytest.approx(
        0.1464466094067262378, rel=1e-13)


def test_aber_lu_closed_low_snr_limit():
    ch = ChannelParams(4.1, 1e-10)
    assert aber_lu_closed(ch, QPSK) == pytest.approx(0.5, abs=1e-4)


def test_aber_lu_closed_matches_its_own_average():
    ch = ChannelParams(2.5, 4.0)
    mod = Modulation(16)
    ref = aber_oracle(ch, mod, ber_kind="lu", spec=TIGHT)
    assert aber_lu_closed(ch, mod) == pytest.approx(ref, rel=1e-9)


# --- oracle ------------------------------------------------------------------

def test_oracle_matches_terminating_closed_form():
    got = aber_oracle(RAYLEIGH_UNIT, QPSK, spec=TIGHT)
    assert got == pytest.approx(0.13770205555632142915, rel=1e-11)


def test_oracle_result_fields():
    res = oracle_result(RAYLEIGH_UNIT, QPSK)
    assert res.converged
    assert res.error_estimate < 1e-9
    assert res.evaluations > 0
    assert res.value == pytest.approx(0.13770205555632142915, rel=1e-9)


def test_oracle_expq_kind_matches_closed_mgf_form():
    ch = ChannelParams(2.5, 4.0)
    mod = Modulation(16)
    closed = aber_expq_closed(ch, mod)
    quad_avg = aber_oracle(ch, mod, ber_kind="expq", spec=TIGHT)
    assert closed == pytest.approx(quad_avg, rel=1e-9)


def test_oracle_rejects_unknown_kind():
    with pytest.raises(ValueError):
        aber_oracle(RAYLEIGH_UNIT, QPSK, ber_kind="nope")


def test_oracle_sees_density_far_below_node_scale():
    # mean 1e-10 concentrates all the mass below the first panel's
    # nodes in raw units; the mean-scaled variable keeps it visible
    # (an unscaled integrand converges to exactly zero here)
    got = aber_oracle(ChannelParams(1.0, 1e-10), QPSK)
    assert got == pytest.approx(0.4375, abs=1e-4)


# 30-digit Craig-form values (perfbench/reference.py's `precise`),
# (m, dB, M, value) across the domain's corners
ORACLE_WHOLE_DOMAIN = [
    (0.6, 60.0, 4, 5.1846034842145436e-05),
    (50.0, 40.0, 4, 2.7611068993736395e-117),
    (20.5, 40.0, 4096, 1.5398785954880265e-12),
    (0.05, 80.0, 4096, 0.06640795956296394),
    (2.5, -20.0, 4, 0.3966085050292539),
]


@pytest.mark.parametrize("m,snr_db,order,expected", ORACLE_WHOLE_DOMAIN)
def test_oracle_frozen_whole_domain_values(m, snr_db, order, expected):
    res = oracle_result(ChannelParams(m, 10.0 ** (snr_db / 10.0)), Modulation(order))
    assert res.converged
    assert res.value == pytest.approx(expected, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("m,expected", [
    (1e6, 3.87231709350749e-06),
    (1e8, 3.872106593435388e-06),
    (1e12, 3.872104467429155e-06),
])
def test_oracle_huge_m_is_never_a_silent_zero(m, expected):
    # the density is a spike of width 1/sqrt(m) at its mode; quadrature
    # nodes that straddle it read a converged zero unless the integrand
    # is scaled to the spike (30-digit Craig values, 10 dB)
    got = aber_oracle(ChannelParams(m, 10.0), QPSK)
    assert got == pytest.approx(expected, rel=1e-8, abs=0.0)


def test_oracle_evaluation_budget():
    # evaluation counts are deterministic; a panel over the whole domain
    # (m x dB x M) and a small-m point, where the density's z^(m-1)
    # endpoint sets the cost
    total = 0
    for m in (0.05, 0.2, 0.6, 1.0, 2.5, 4.1, 20.5, 50.0):
        for snr_db in (-30.0, -10.0, 0.0, 10.0, 20.0, 30.0, 40.0, 60.0, 80.0):
            for order in (4, 256, 4096):
                res = oracle_result(ChannelParams(m, 10.0 ** (snr_db / 10.0)),
                                    Modulation(order))
                assert res.converged, (m, snr_db, order)
                total += res.evaluations
    assert total <= 100_000
    assert oracle_result(ChannelParams(0.05, 10.0),
                         Modulation(256)).evaluations <= 500


def test_oracle_calls_gauss_q_once_per_node(monkeypatch):
    # the exact kernel looks gauss_q up on the kernel module at call
    # time, once per node, so a wrapped kernel sees every evaluation;
    # at these points every node carries mass
    from nakaber import _backend

    gauss_q = _backend.kernels.gauss_q
    calls = []

    def counting(z):
        calls.append(z)
        return gauss_q(z)

    monkeypatch.setattr(_backend.kernels, "gauss_q", counting)
    for m, gbar, order in ((2.5, 100.0, 16), (50.0, 1e4, 4), (0.05, 1e8, 4096)):
        calls.clear()
        res = oracle_result(ChannelParams(m, gbar), Modulation(order))
        assert len(calls) == res.evaluations, (m, gbar, order)


# repr of oracle_result, bits and all, as the oracle gave them when each
# node still called ber_exact (or the lu or expq kernel) afresh
ORACLE_BITS = [
    (0.6, 10.0, 256, "exact", None,
     "QuadratureResult(value=0.10988539743730234, error_estimate=6.866394103573964e-12, "
     "evaluations=525, converged=True)"),
    (50.0, 1e4, 4, "exact", None,
     "QuadratureResult(value=2.7611068993735096e-117, error_estimate=2.3700100138846446e-127, "
     "evaluations=315, converged=True)"),
    (0.05, 1e8, 4096, "exact", None,
     "QuadratureResult(value=0.0664079595629639, error_estimate=5.249281879356739e-12, "
     "evaluations=255, converged=True)"),
    (4.1, 0.1, 64, "lu", None,
     "QuadratureResult(value=0.6379332524338382, error_estimate=6.353096043906814e-11, "
     "evaluations=285, converged=True)"),
    (0.6, 1e6, 16, "expq", QApproxVariant.from_pairs([(0.3, 0.6), (0.1, 0.4)]),
     "QuadratureResult(value=8.756328253387011e-05, error_estimate=2.234089099327563e-15, "
     "evaluations=375, converged=True)"),
]


@pytest.mark.parametrize("m,gbar,order,kind,variant,expected", ORACLE_BITS,
                         ids=["exact-m0.6", "exact-m50", "exact-m0.05", "lu", "expq"])
def test_oracle_keeps_its_bits(m, gbar, order, kind, variant, expected):
    res = oracle_result(ChannelParams(m, gbar), Modulation(order), kind, variant=variant)
    assert repr(res) == expected


@pytest.mark.parametrize("kind,variant", [
    ("lu", None),
    ("expq", QApproxVariant.from_pairs([(0.3, 0.6), (0.1, 0.4)])),
], ids=["lu", "expq-custom"])
def test_oracle_kernels_at_high_snr_match_their_closed_forms(kind, variant):
    # each kernel passes its own decay rate (c1, or 2*c1*min r_i for a
    # custom exponential sum), so the mass stays visible at 60 dB
    ch = ChannelParams(0.6, 1e6)
    mod = Modulation(16)
    closed = (aber_lu_closed(ch, mod) if kind == "lu"
              else aber_expq_closed(ch, mod, variant))
    got = aber_oracle(ch, mod, ber_kind=kind, variant=variant)
    assert got == pytest.approx(closed, rel=1e-9)


# 1e-14 lies below the 50*eps roundoff floor of every Kronrod panel, so
# these integrals spend the engine's whole budget of 2000 bisections
STARVED = QuadratureSpec(rel_tol=1e-14)


@pytest.mark.parametrize("route, message", [
    (lambda ch: aber_oracle(ch, QPSK, spec=STARVED),
     "average-BER quadrature did not reach its tolerance"),
    (lambda ch: r2_quadrature(ch, QPSK.c1, spec=STARVED),
     "squared-Q correction quadrature did not converge"),
    (lambda ch: r2_series(ch, QPSK.c1, spec=STARVED),
     "correction series quadrature did not converge"),
], ids=["oracle", "r2_quadrature", "r2_series"])
def test_starved_budget_raises_with_payload(route, message):
    with pytest.raises(ConvergenceError, match=message) as exc_info:
        route(ChannelParams(0.6, 10.0))
    err = exc_info.value
    # best-effort value is still in the right ballpark
    assert 0.0 < err.value < 0.5
    assert err.error_estimate > 0.0


# --- exponential-sum closed form ----------------------------------------------

def test_expq_closed_low_snr_limit():
    # Q(0) is approximated by 1/3, so the limit is 4*c0/3 - 4*c0^2/9
    ch = ChannelParams(1.0, 1e-12)
    expected = 4.0 * 0.25 / 3.0 - 4.0 * 0.0625 / 9.0
    assert aber_expq_closed(ch, QPSK) == pytest.approx(expected, rel=1e-5)


def test_expq_closed_custom_pairs():
    v = QApproxVariant.from_pairs([(1.0 / 12.0, 0.5), (0.25, 2.0 / 3.0)])
    assert aber_expq_closed(RAYLEIGH_UNIT, QPSK, v) == pytest.approx(
        aber_expq_closed(RAYLEIGH_UNIT, QPSK), rel=1e-15)


# --- discrepancy -------------------------------------------------------------

def test_discrepancy_decades():
    assert discrepancy(1.0, 1.1) == pytest.approx(-10.0, rel=1e-12)
    assert discrepancy(1.0, 1.001) == pytest.approx(-30.0, rel=1e-12)


def test_discrepancy_exact_match_is_minus_inf():
    assert discrepancy(0.25, 0.25) == -math.inf


def test_discrepancy_domain():
    with pytest.raises(ValueError):
        discrepancy(0.0, 0.1)
    with pytest.raises(ValueError):
        discrepancy(-1.0, 0.1)
    with pytest.raises(ValueError):
        discrepancy(1.0, float("nan"))
    with pytest.raises(ValueError):
        discrepancy(float("inf"), 0.1)


@given(st.floats(min_value=1e-6, max_value=1e6),
       st.floats(min_value=1e-6, max_value=0.5))
@settings(max_examples=200)
def test_discrepancy_scale_invariance(scale, rel_off):
    # depends only on the relative offset; the offset floor keeps the
    # rounding of 1 + rel_off itself out of the comparison
    base = discrepancy(1.0, 1.0 + rel_off)
    scaled = discrepancy(scale, scale * (1.0 + rel_off))
    assert scaled == pytest.approx(base, abs=1e-7)


# --- method selector ----------------------------------------------------------

def test_method_labels():
    assert AberMethod.closed_form().label() == "closed(N=5)"
    assert AberMethod.closed_form(TruncationPolicy.fixed(0)).label() == "closed(N=0)"
    assert AberMethod.closed_form(TruncationPolicy.adaptive()).label() == "closed(adaptive)"
    assert AberMethod.lu_closed().label() == "lu"
    assert AberMethod.oracle().label() == "oracle"
    assert AberMethod.expq_closed().label() == "expq(chiani)"
    custom = QApproxVariant.from_pairs([(0.5, 1.0)])
    assert AberMethod.expq_closed(custom).label() == "expq(custom)"


def test_method_dispatch_matches_direct_calls():
    ch = ChannelParams(2.5, 4.0)
    mod = Modulation(16)
    assert AberMethod.closed_form().evaluate(ch, mod).value == aber_closed(ch, mod)
    assert AberMethod.lu_closed().evaluate(ch, mod).value == aber_lu_closed(ch, mod)
    assert AberMethod.expq_closed().evaluate(ch, mod).value == aber_expq_closed(ch, mod)
    oracle_mv = AberMethod.oracle().evaluate(ch, mod)
    assert oracle_mv.value == pytest.approx(aber_oracle(ch, mod), rel=1e-12)
    assert oracle_mv.error_estimate is not None


def test_method_payload_validation():
    with pytest.raises(ValueError, match="tag must be closed_form, lu_closed, "
                                         "oracle, or expq_closed"):
        AberMethod("bogus")
    with pytest.raises(ValueError, match="lu_closed does not take trunc"):
        AberMethod("lu_closed", trunc=TruncationPolicy())
    with pytest.raises(ValueError, match="closed_form does not take spec"):
        AberMethod("closed_form", spec=QuadratureSpec())
    with pytest.raises(ValueError, match="oracle does not take variant"):
        AberMethod("oracle", variant=QApproxVariant.chiani_two_term())
    with pytest.raises(ValueError, match="expq_closed does not take spec"):
        AberMethod(tag="expq_closed", spec=QuadratureSpec())
