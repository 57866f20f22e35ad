"""Adaptive quadrature engine tests.

Reference values are antiderivatives or gamma-function identities, so
every check here is independent of the module under test.
"""

import math

import pytest

from nakaber.quad import (
    ConvergenceError,
    QuadratureSpec,
    integrate_finite,
    integrate_semi_infinite,
)


def test_constant_on_unit_interval():
    res = integrate_finite(lambda t: 1.0, 0.0, 1.0)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-13)


def test_inverse_sqrt_endpoint_singularity():
    # antiderivative -2*sqrt(1-t)
    res = integrate_finite(lambda t: 1.0 / math.sqrt(1.0 - t), 0.0, 1.0 - 1e-15)
    assert res.converged
    assert res.value == pytest.approx(2.0, rel=1e-7)


def test_polynomial_is_near_exact():
    # degree 7 is inside the Gauss rule's exactness range
    res = integrate_finite(lambda t: 7.0 * t**6, 0.0, 2.0)
    assert res.value == pytest.approx(128.0, rel=1e-14)


def test_linearity():
    f = lambda t: math.sin(t)
    g = lambda t: t * t
    both = integrate_finite(lambda t: 3.0 * f(t) + g(t), 0.0, 2.0).value
    parts = 3.0 * integrate_finite(f, 0.0, 2.0).value + integrate_finite(g, 0.0, 2.0).value
    assert both == pytest.approx(parts, rel=1e-12)


def test_gamma_identity_rational_map():
    res = integrate_semi_infinite(lambda x: x**3.1 * math.exp(-x), 0.0)
    assert res.converged
    assert res.value == pytest.approx(math.gamma(4.1), rel=1e-10)


def test_unit_exponential():
    res = integrate_semi_infinite(lambda x: math.exp(-x), 0.0)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-11)


def test_shifted_lower_endpoint():
    res = integrate_semi_infinite(lambda x: math.exp(-(x - 3.0)), 3.0)
    assert res.value == pytest.approx(1.0, rel=1e-11)


def test_half_line_arctan_kernel():
    # substituting x = tan^2(u) gives pi
    res = integrate_semi_infinite(
        lambda x: 1.0 / (math.sqrt(x) * (1.0 + x)) if x > 0.0 else 0.0, 0.0)
    assert res.value == pytest.approx(math.pi, rel=1e-8)


def test_determinism_is_bitwise():
    f = lambda x: math.exp(-x) * math.cos(5.0 * x)
    a = integrate_semi_infinite(f, 0.0)
    b = integrate_semi_infinite(f, 0.0)
    assert a.value == b.value
    assert a.error_estimate == b.error_estimate
    assert a.evaluations == b.evaluations


# integrals with known closed forms; the estimate must not understate
# the true error by more than a small honesty factor
_HONESTY_CASES = [
    (lambda t: math.exp(t), 0.0, 1.0, math.e - 1.0),
    (lambda t: math.cos(t), 0.0, math.pi / 2.0, 1.0),
    (lambda t: 1.0 / (1.0 + t * t), 0.0, 1.0, math.pi / 4.0),
    (lambda t: math.log(t), 1e-300, 1.0, -1.0),
    (lambda t: math.sqrt(t), 0.0, 4.0, 16.0 / 3.0),
    (lambda t: t ** (-0.4), 1e-300, 1.0, 1.0 / 0.6),
    (lambda t: math.sin(21.0 * t), 0.0, math.pi, 2.0 / 21.0),
    (lambda t: math.exp(-t * t), 0.0, 10.0, math.sqrt(math.pi) / 2.0),
    (lambda t: t * math.exp(-3.0 * t), 0.0, 50.0, 1.0 / 9.0),
]


@pytest.mark.parametrize("f,lo,hi,truth", _HONESTY_CASES)
def test_error_estimate_honesty_finite(f, lo, hi, truth):
    res = integrate_finite(f, lo, hi)
    assert res.converged
    true_err = abs(res.value - truth)
    assert true_err <= max(10.0 * res.error_estimate, 1e-13 * abs(truth))


_HONESTY_SEMI = [
    (lambda x: math.exp(-x) / math.sqrt(x) if x > 0.0 else 0.0, math.sqrt(math.pi)),
    (lambda x: x * x * math.exp(-x), 2.0),
    (lambda x: math.exp(-0.5 * x * x), math.sqrt(0.5 * math.pi)),
    (lambda x: 1.0 / (1.0 + x * x), math.pi / 2.0),
]


@pytest.mark.parametrize("f,truth", _HONESTY_SEMI)
def test_error_estimate_honesty_semi_infinite(f, truth):
    res = integrate_semi_infinite(f, 0.0)
    assert res.converged
    true_err = abs(res.value - truth)
    assert true_err <= max(10.0 * res.error_estimate, 1e-13 * abs(truth))


def test_interior_cusp_value():
    # a cusp strictly inside a panel defeats nested-rule error
    # estimation (callers should split at known singular points), but
    # the refined value itself still lands close
    truth = 2.0 * (math.sqrt(0.3) + math.sqrt(0.7))
    res = integrate_finite(lambda t: 1.0 / math.sqrt(abs(t - 0.3) + 1e-308),
                           0.0, 1.0)
    assert res.value == pytest.approx(truth, rel=1e-7)


def test_starved_budget_reports_nonconvergence():
    spec = QuadratureSpec(rel_tol=1e-14, abs_tol=0.0, max_subdivisions=10)
    res = integrate_finite(lambda t: t ** (-0.9) if t > 0.0 else 0.0,
                           1e-300, 1.0, spec=spec)
    assert not res.converged
    # the value is still the best available estimate, not garbage
    assert 0.0 < res.value < 20.0
    assert res.error_estimate > 0.0


def test_convergence_error_carries_payload():
    err = ConvergenceError("no luck", value=0.25, error_estimate=1e-3)
    assert err.value == 0.25
    assert err.error_estimate == 1e-3
    assert isinstance(err, RuntimeError)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=1e-15)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=1e-2)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=9)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=10001)


def test_spec_defaults():
    spec = QuadratureSpec()
    assert spec.rel_tol == 1e-10
    assert spec.abs_tol == 1e-14
    assert spec.max_subdivisions == 2000


def test_bad_interval_rejected():
    with pytest.raises(ValueError):
        integrate_finite(lambda t: 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        integrate_finite(lambda t: 1.0, 2.0, 1.0)


def test_nonfinite_integrand_rejected():
    with pytest.raises(ConvergenceError):
        integrate_finite(lambda t: float("nan"), 0.0, 1.0)
    with pytest.raises(ConvergenceError):
        integrate_finite(lambda t: math.inf if t > 0.5 else 1.0, 0.0, 1.0)


def test_result_records_evaluations():
    res = integrate_finite(lambda t: math.exp(t), 0.0, 1.0)
    assert res.evaluations >= 15
    assert res.evaluations % 15 == 0
