"""Fading model and modulation layer tests."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from nakaber.channel import (
    SUPPORTED_ORDERS,
    ChannelParams,
    Modulation,
    QApproxVariant,
    ber_exact,
    ber_kernel,
    ber_lu_approx,
    fading_average,
    mgf,
    pdf,
    q_exp_approx,
)
from nakaber.quad import QuadratureSpec
from nakaber._purekernels import gauss_q


# --- parameter containers ----------------------------------------------------

def test_channel_params_validation():
    ChannelParams(0.5, 1.0)
    with pytest.raises(ValueError, match="fading figure m must be positive and finite"):
        ChannelParams(0.0, 1.0)
    with pytest.raises(ValueError, match="fading figure m must be positive and finite"):
        ChannelParams(-1.0, 1.0)
    with pytest.raises(ValueError, match=r"mean_snr must be positive and finite \(linear scale\)"):
        ChannelParams(1.0, 0.0)
    with pytest.raises(ValueError, match=r"mean_snr must be positive and finite \(linear scale\)"):
        ChannelParams(1.0, float("inf"))
    with pytest.raises(ValueError, match="fading figure m must be positive and finite"):
        ChannelParams(m=math.nan, mean_snr=1.0)


def test_modulation_orders():
    assert SUPPORTED_ORDERS == (4, 16, 64, 256, 1024, 4096)
    for order in SUPPORTED_ORDERS:
        Modulation(order)
    with pytest.raises(ValueError, match=r"order must be one of \(4, 16, 64, 256, 1024, 4096\)"):
        Modulation(8)
    with pytest.raises(ValueError, match=r"order must be one of \(4, 16, 64, 256, 1024, 4096\)"):
        Modulation(2)
    with pytest.raises(ValueError, match=r"order must be one of \(4, 16, 64, 256, 1024, 4096\)"):
        Modulation(order=32)


def test_modulation_coefficients():
    qpsk = Modulation(4)
    assert qpsk.c0 == pytest.approx(0.25, rel=1e-15)
    assert qpsk.c1 == pytest.approx(1.0, rel=1e-15)
    m256 = Modulation(256)
    assert m256.c0 == pytest.approx(15.0 / 128.0, rel=1e-14)
    assert m256.c1 == pytest.approx(24.0 / 510.0, rel=1e-14)


# --- pdf ---------------------------------------------------------------------

def test_pdf_rayleigh_point():
    ch = ChannelParams(1.0, 1.0)
    assert pdf(ch, 0.5) == pytest.approx(math.exp(-0.5), rel=1e-14)


def test_pdf_at_origin_by_shape():
    assert pdf(ChannelParams(2.5, 1.0), 0.0) == 0.0
    assert pdf(ChannelParams(1.0, 2.0), 0.0) == 0.5
    assert math.isinf(pdf(ChannelParams(0.6, 1.0), 0.0))


def test_pdf_rejects_negative_snr():
    with pytest.raises(ValueError):
        pdf(ChannelParams(1.0, 1.0), -0.1)


@pytest.mark.parametrize("m,gbar", [(0.6, 0.5), (1.0, 1.0), (2.5, 10.0), (4.1, 100.0)])
def test_pdf_normalizes_and_has_mean_gbar(m, gbar):
    ch = ChannelParams(m, gbar)
    spec = QuadratureSpec(rel_tol=1e-11)
    total = fading_average(ch, lambda g: 1.0, spec)
    mean = fading_average(ch, lambda g: g, spec)
    assert total.value == pytest.approx(1.0, rel=1e-9)
    assert mean.value == pytest.approx(gbar, rel=1e-9)


@pytest.mark.parametrize("rate", [0.0, 0.7, 5.0])
def test_fading_average_rate_moves_nodes_not_value(rate):
    # rate only says where the mass is; the integral is the same
    ch = ChannelParams(2.5, 3.0)
    avg = fading_average(ch, lambda g: math.exp(-0.7 * g),
                         QuadratureSpec(rel_tol=1e-12), rate=rate)
    assert avg.converged
    assert avg.value == pytest.approx(mgf(ch, -0.7), rel=1e-11)


def test_fading_average_default_spec_is_relative():
    # the QPSK average BER at m=50, 40 dB is 2.8e-117 (30-digit Craig
    # form); the default spec must resolve it to its relative tolerance
    qpsk = Modulation(4)
    avg = fading_average(ChannelParams(50.0, 1e4), lambda g: ber_exact(qpsk, g),
                         rate=qpsk.c1)
    assert avg.converged
    assert avg.value == pytest.approx(2.7611068993736395e-117, rel=1e-9, abs=0.0)


def test_fading_average_reports_a_zero_as_unconverged():
    # with rate=0 no node sees the QPSK BER's mass at m=2.5, 100 dB, so
    # the quadrature sums to exactly 0.0
    qpsk = Modulation(4)
    missed = fading_average(ChannelParams(2.5, 1e10), lambda g: ber_exact(qpsk, g))
    assert missed.value == 0.0
    assert not missed.converged
    # at 60 and 80 dB the right rate finds the value (80 dB: the 30-digit
    # Craig value), and the x^p head's first panels reach the mass near
    # z = 0 even with rate=0
    for gbar, expected in ((1e6, 1.6567342475583142e-15), (1e8, 1.6567430956194855e-20)):
        ch = ChannelParams(2.5, gbar)
        found = fading_average(ch, lambda g: ber_exact(qpsk, g), rate=qpsk.c1)
        assert found.converged
        assert found.value == pytest.approx(expected, rel=1e-9, abs=0.0)
        unrated = fading_average(ch, lambda g: ber_exact(qpsk, g))
        assert unrated.converged
        assert unrated.value == pytest.approx(found.value, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("rate", [-1.0, math.inf, math.nan])
def test_fading_average_rejects_bad_rate(rate):
    with pytest.raises(ValueError, match="rate"):
        fading_average(ChannelParams(1.0, 1.0), lambda g: 1.0, rate=rate)


def test_pdf_survives_extreme_prefactors():
    # log-space evaluation has to cover huge shape and tiny mean
    assert pdf(ChannelParams(500.0, 1.0), 1.0) > 0.0
    assert pdf(ChannelParams(4.1, 1e-10), 1e-10) > 0.0
    # unbounded small-m densities saturate rather than raise
    assert math.isinf(pdf(ChannelParams(0.02, 1.0), 1e-320))


@pytest.mark.parametrize("m", [5000.0, 1e4])
def test_pdf_large_m_matches_high_precision(m):
    # m*log(m/gbar) and lgamma(m) cancel at large m; the density's
    # constant has to come from Stirling's series instead
    import mpmath

    with mpmath.workdps(40):
        for gbar in (1e-3, 1.0, 1e3, 1e8):
            for z in (0.9, 0.99, 1.0, 1.01, 1.1):
                snr = z * gbar
                mm, g, x = mpmath.mpf(m), mpmath.mpf(gbar), mpmath.mpf(snr)
                ref = mpmath.exp(mm * mpmath.log(mm / g) + (mm - 1) * mpmath.log(x)
                                 - mm * x / g - mpmath.loggamma(mm))
                got = pdf(ChannelParams(m, gbar), snr)
                assert got == pytest.approx(float(ref), rel=1e-12, abs=0.0), (gbar, z)


@pytest.mark.parametrize("m", [0.05, 1.0, 9.99, 10.0, 20.5, 50.0, 85.554, 99.9,
                               100.0, 1e3, 1e4, 1e6])
def test_density_constant_matches_high_precision(m):
    # at snr = mean_snr = 1 the density is exp of its constant,
    # m^m * e^-m / Gamma(m); on either side of the switch to Stirling's
    # series at m = 10 (the lgamma difference was 1.3e-13 off at 85.554)
    import mpmath

    with mpmath.workdps(40):
        mm = mpmath.mpf(m)
        ref = mpmath.exp(mm * mpmath.log(mm) - mm - mpmath.loggamma(mm))
    assert pdf(ChannelParams(m, 1.0), 1.0) == pytest.approx(float(ref), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("m", [0.5, 1.0, 2.5, 500.0])
@pytest.mark.parametrize("gbar", [1e-10, 1.0, 1e10])
def test_pdf_vanishes_at_infinite_snr(m, gbar):
    # the density's limit, not (m-1)*inf - m*inf = nan at m >= 1
    assert pdf(ChannelParams(m, gbar), math.inf) == 0.0


def test_pdf_where_snr_over_mean_leaves_double_range():
    # snr/mean_snr underflows to 0 or overflows to inf; the density's
    # logarithm still holds it, 1/mean_snr included
    assert pdf(ChannelParams(0.3, 1e300), 1e-300) == pytest.approx(
        2.329363971895541e+119, rel=1e-12, abs=0.0)
    assert pdf(ChannelParams(2.5, 1e300), 1e-300) == 0.0
    assert pdf(ChannelParams(2.5, 1e-10), 1e300) == 0.0
    assert pdf(ChannelParams(0.5, 1e-300), 1e-310) == pytest.approx(
        3.989422803814856e+304, rel=1e-12, abs=0.0)


# --- mgf ---------------------------------------------------------------------

def test_mgf_at_zero_is_one():
    assert mgf(ChannelParams(2.5, 3.0), 0.0) == 1.0


def test_mgf_frozen_value():
    assert mgf(ChannelParams(2.5, 2.0), -1.0) == pytest.approx(
        0.23004814583331169716, rel=1e-14)
    assert mgf(ChannelParams(2.5, 2.0), -0.7) == pytest.approx(
        0.3289943988434564708318, rel=1e-14)


def test_mgf_pole_rejected():
    # p*gbar/m >= 1 leaves the convergence strip
    with pytest.raises(ValueError):
        mgf(ChannelParams(1.0, 2.0), 0.5)
    with pytest.raises(ValueError):
        mgf(ChannelParams(1.0, 2.0), 0.6)
    assert mgf(ChannelParams(1.0, 2.0), 0.49) > 0.0


def test_mgf_matches_defining_average():
    ch = ChannelParams(1.7, 0.8)
    p = -0.7
    spec = QuadratureSpec(rel_tol=1e-11)
    avg = fading_average(ch, lambda g: math.exp(p * g), spec)
    assert mgf(ch, p) == pytest.approx(avg.value, rel=1e-8)


# --- instantaneous BER -------------------------------------------------------

def test_ber_exact_at_zero_snr():
    # Q(0) = 1/2 turns the two-term form into 4*c0/2 - 4*c0^2/4
    assert ber_exact(Modulation(4), 0.0) == pytest.approx(0.4375, rel=1e-14)


def test_ber_exact_frozen_value():
    assert ber_exact(Modulation(16), 1.0) == pytest.approx(
        0.13431863622674055768, rel=1e-13)


def test_ber_exact_matches_q_composition():
    mod = Modulation(4)
    g = 2.0
    q = gauss_q(math.sqrt(2.0 * g))
    assert ber_exact(mod, g) == pytest.approx(q - 0.25 * q * q, rel=1e-13)


@given(st.floats(min_value=0.0, max_value=50.0),
       st.floats(min_value=0.01, max_value=5.0))
@settings(max_examples=200)
def test_ber_exact_decreasing_in_snr(g, dg):
    mod = Modulation(16)
    assert ber_exact(mod, g + dg) <= ber_exact(mod, g)


def test_ber_lu_at_zero_snr():
    # every summand is Q(0) = 1/2
    assert ber_lu_approx(Modulation(4), 0.0) == pytest.approx(0.5, rel=1e-14)
    assert ber_lu_approx(Modulation(16), 0.0) == pytest.approx(0.75, rel=1e-14)


def test_ber_lu_single_term_case():
    # M = 4 keeps only j = 1, so the value is exactly Q(sqrt(2*g))
    assert ber_lu_approx(Modulation(4), 2.0) == pytest.approx(
        gauss_q(2.0), rel=1e-14)


def test_ber_lu_frozen_value():
    assert ber_lu_approx(Modulation(16), 1.0) == pytest.approx(
        0.14189389785533745573, rel=1e-13)


def test_ber_negative_snr_rejected():
    with pytest.raises(ValueError):
        ber_exact(Modulation(4), -1.0)
    with pytest.raises(ValueError):
        ber_lu_approx(Modulation(4), -1.0)


# --- BER kernels, built once per average --------------------------------------

# zero, two subnormals and every decade from 1e-3 to 1e300
KERNEL_SNRS = [0.0, 5e-324, 1e-310] + [10.0 ** e for e in range(-3, 301)]


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_built_ber_kernels_equal_the_scalar_functions(order):
    # bit for bit, against the scalar functions and against the two
    # expressions written out per call, as the oracle's nodes had them
    # before each kernel was built once per average
    mod = Modulation(order)
    exact, exact_rate = ber_kernel(mod)
    lu, lu_rate = ber_kernel(mod, "lu")
    assert exact_rate == lu_rate == mod.c1
    for snr in KERNEL_SNRS:
        q = gauss_q(math.sqrt(2.0 * mod.c1 * snr))
        written = 4.0 * mod.c0 * q - 4.0 * mod.c0 * mod.c0 * q * q
        assert exact(snr) == ber_exact(mod, snr) == written, snr
        base = math.sqrt(2.0 * mod.c1 * snr)
        total = 0.0
        for j in range(1, int(round(math.sqrt(order))) // 2 + 1):
            total += gauss_q((2.0 * j - 1.0) * base)
        assert lu(snr) == ber_lu_approx(mod, snr) == 4.0 * mod.c0 * total, snr


@pytest.mark.parametrize("variant", [
    QApproxVariant.chiani_two_term(),
    QApproxVariant.from_pairs([(0.3, 0.6), (0.1, 0.4)]),
], ids=["chiani", "custom"])
def test_built_expq_kernel_equals_the_per_call_form(variant):
    for order in SUPPORTED_ORDERS:
        mod = Modulation(order)
        kernel, rate = ber_kernel(mod, "expq", variant)
        assert rate == 2.0 * mod.c1 * min(r for _, r in variant.coefficients)
        # Chiani's pair is the default variant
        default = ber_kernel(mod, "expq")[0] if variant.is_chiani else kernel
        for snr in KERNEL_SNRS:
            q = q_exp_approx(variant, math.sqrt(2.0 * mod.c1 * snr))
            written = 4.0 * mod.c0 * q - 4.0 * mod.c0 * mod.c0 * q * q
            assert kernel(snr) == default(snr) == written, (order, snr)


def test_built_kernels_look_gauss_q_up_at_call_time(monkeypatch):
    # a kernel swapped or wrapped on the kernel module after a BER
    # kernel is built still serves that kernel's nodes: one call per
    # node for the exact BER, sqrt(M)/2 for the sum of Q
    from nakaber import _purekernels

    mod = Modulation(16)
    exact, _ = ber_kernel(mod)
    lu, _ = ber_kernel(mod, "lu")
    calls = []
    monkeypatch.setattr(_purekernels, "gauss_q", lambda z: calls.append(z) or 0.25)
    assert exact(1.0) == 4.0 * mod.c0 * 0.25 - 4.0 * mod.c0 * mod.c0 * 0.25 * 0.25
    assert len(calls) == 1
    assert lu(1.0) == 4.0 * mod.c0 * 0.5
    assert len(calls) == 3


def test_built_kernels_reject_negative_snr_at_the_node():
    mod = Modulation(16)
    for snr in (-1.0, -5e-324, math.nan):
        with pytest.raises(ValueError, match=r"ber_exact requires snr >= 0"):
            ber_kernel(mod)[0](snr)
        with pytest.raises(ValueError, match=r"ber_lu_approx requires snr >= 0"):
            ber_kernel(mod, "lu")[0](snr)


# --- exponential Q approximation ----------------------------------------------

def test_variant_constructors():
    two = QApproxVariant.chiani_two_term()
    assert two.is_chiani
    assert two.coefficients == ((1.0 / 12.0, 0.5), (0.25, 2.0 / 3.0))
    custom = QApproxVariant.from_pairs([(0.1, 0.5), (0.2, 1.0)])
    assert custom.coefficients == ((0.1, 0.5), (0.2, 1.0))
    assert not custom.is_chiani


def test_variant_validation():
    with pytest.raises(ValueError, match=r"an exponential sum needs at least one \(weight, rate\) pair"):
        QApproxVariant(())
    with pytest.raises(ValueError, match="weights and rates must be positive and finite"):
        QApproxVariant.from_pairs([(0.0, 1.0)])
    with pytest.raises(ValueError, match="weights and rates must be positive and finite"):
        QApproxVariant.from_pairs([(0.5, -1.0)])
    with pytest.raises(ValueError, match="weights and rates must be positive and finite"):
        QApproxVariant(coefficients=((0.5, math.inf),))


def test_q_exp_approx_values():
    v = QApproxVariant.chiani_two_term()
    assert q_exp_approx(v, 0.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    direct = math.exp(-4.5) / 12.0 + math.exp(-6.0) / 4.0
    assert q_exp_approx(v, 3.0) == pytest.approx(direct, rel=1e-15)
    assert q_exp_approx(v, 3.0) == pytest.approx(
        0.001545437755686781813773, rel=1e-14)


def test_q_exp_approx_rejects_negative_argument():
    with pytest.raises(ValueError):
        q_exp_approx(QApproxVariant.chiani_two_term(), -0.1)


def test_two_term_envelope_matches_measured_curve():
    # the approximation overshoots by up to ~30% across [0.5, 6]; the
    # measured maximum of the relative error curve is 0.29599 at x = 6
    v = QApproxVariant.chiani_two_term()
    worst = 0.0
    x = 0.5
    while x <= 6.0 + 1e-12:
        q = gauss_q(x)
        worst = max(worst, abs(q_exp_approx(v, x) - q) / q)
        x += 0.01
    assert worst == pytest.approx(0.295985, rel=1e-4)
    assert worst < 0.30
