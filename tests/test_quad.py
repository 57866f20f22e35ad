"""Adaptive quadrature engine tests.

Reference values are antiderivatives or gamma-function identities, so
every check here is independent of the module under test.
"""

import copy
import math
import pickle

import pytest

from nakaber.aber import AberMethod, TruncationPolicy
from nakaber.channel import ChannelParams, Modulation, QApproxVariant
from nakaber.quad import (
    DEFAULT_SPEC,
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


# one Kronrod panel's (value, error) to the last bit, as the summation
# order of the QUADPACK loop gives them.  exp and sqrt on [0, 1] and the
# correction-series integrand are the named cases; with the cosines
# cos(a*x + b) on [lo, hi] they catch every swap of two terms in any of
# the panel's four sums (but the first two, which commute exactly) and
# about 99% of the sums' random reorderings
_PANEL_BITS = [
    (math.exp, 0.0, 1.0, 1.718281828459045, 1.9076760487502454e-14),
    (math.sqrt, 0.0, 1.0, 0.6666801255484175, 0.022590647385225964),
]
_PANEL_COSINES = [
    (0.37, -0.79, 1.33, 1.36, 0.028726929796169982, 3.189329888649837e-16),
    (2.4, -1.51, 0.38, 2.71, -0.1656742929157676, 2.574052622280164e-10),
    (-0.26, 1.9, -0.69, 0.12, -0.31730472458770864, 3.522790110596182e-15),
    (2.75, -0.81, -1.45, 0.55, -0.12736453291596136, 1.0603590937034652e-10),
    (2.38, 0.26, -0.99, 0.92, 0.6315942388537708, 7.259607238055624e-12),
    (1.03, -1.74, 1.03, 1.33, 0.25862552535302935, 2.8713201300271035e-15),
]


def test_kronrod_panel_bits_are_pinned(monkeypatch):
    from nakaber import _purekernels, quad

    for f, lo, hi, value, error in _PANEL_BITS:
        assert quad._kronrod15(f, lo, hi) == (value, error), f
    for a, b, lo, hi, value, error in _PANEL_COSINES:
        got = quad._kronrod15(lambda x: math.cos(a * x + b), lo, hi)
        assert got == (value, error), (a, b)

    # the correction-series integrand at m = 0.6, b = 0.3, five terms in
    # fixed point (the same bits as the five doubles it once summed)
    integrands = []

    def first_panel(f, lo, hi, spec=None):
        integrands.append((f, lo, hi))
        return quad.QuadratureResult(1.0, 0.0, 15, True)

    monkeypatch.setattr(quad, "integrate_finite", first_panel)
    m = 0.6
    _purekernels.r2_term_scaled(6, m, 0.3, QuadratureSpec(rel_tol=1e-11))
    f, lo, hi = integrands[0]
    assert (lo, hi) == (0.0, 1.0)
    assert quad._kronrod15(f, lo, hi) == (2.387349130402698, 8.648716824109859e-09)


def _rule_sum(nodes, weights, centre_weight, k):
    """The symmetric rule's sum of x^k over [-1, 1]: the centre's term,
    then each node pair's."""
    total = centre_weight if k == 0 else 0.0
    for x, w in zip(nodes, weights):
        total += w * (x ** k + (-x) ** k)
    return total


@pytest.mark.parametrize("kronrod_degree, gauss_degree", [(23, 13)], ids=["15"])
def test_kronrod_rules_integrate_polynomials_exactly(kronrod_degree, gauss_degree):
    # the 7-point Gauss rule integrates x^k on [-1, 1] exactly for
    # k <= 13, and its 15-point Kronrod extension for k <= 23, by
    # symmetry.  The Gauss nodes are the Kronrod nodes at odd indices,
    # with the Gauss weights, and they are Gauss-Legendre's
    from scipy.special import roots_legendre

    from nakaber import quad

    xgk, wgk, wg = quad._XGK, quad._WGK, quad._WG
    assert len(wgk) == len(xgk) + 1
    # the 7-point rule has a centre node, the last of its weights
    gauss_centre = wg[-1]
    for k in range(kronrod_degree + 1):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert _rule_sum(xgk, wgk, wgk[-1], k) == pytest.approx(
            exact, rel=0.0, abs=4e-16), k
        if k <= gauss_degree:
            assert _rule_sum(xgk[1::2], wg, gauss_centre, k) == pytest.approx(
                exact, rel=0.0, abs=4e-16), k
    nodes, weights = roots_legendre((gauss_degree + 1) // 2)
    pairs = sorted(((x, w) for x, w in zip(nodes, weights) if x > 1e-9),
                   reverse=True)
    assert [x for x, _ in pairs] == pytest.approx(xgk[1::2], rel=0.0, abs=1e-15)
    assert [w for _, w in pairs] == pytest.approx(wg[:len(pairs)], rel=0.0, abs=1e-15)
    # one degree past each, the rules are off
    k = gauss_degree + 1
    assert abs(_rule_sum(xgk[1::2], wg, gauss_centre, k) - 2.0 / (k + 1)) > 1e-6
    k = kronrod_degree + 1
    assert abs(_rule_sum(xgk, wgk, wgk[-1], k) - 2.0 / (k + 1)) > 1e-12


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


# values far below any fixed absolute floor: the default spec converges
# on relative error alone, so a 1e-20 integral is resolved as finely as
# one of order 1
@pytest.mark.parametrize("integrate,truth", [
    (lambda: integrate_finite(
        lambda t: 1e-20 / math.sqrt(t) if t > 0.0 else 0.0, 0.0, 1.0), 2e-20),
    (lambda: integrate_semi_infinite(
        lambda x: 1e-20 * math.exp(-x) / math.sqrt(x) if x > 0.0 else 0.0, 0.0),
     1e-20 * math.sqrt(math.pi)),
], ids=["finite", "semi_infinite"])
def test_default_spec_resolves_tiny_integrals(integrate, truth):
    res = integrate()
    assert res.converged
    assert res.value == pytest.approx(truth, rel=1e-9, abs=0.0)


def test_interior_cusp_value():
    # a cusp strictly inside a panel defeats nested-rule error
    # estimation (callers should split at known singular points), but
    # the refined value itself still lands close.  A node lands on
    # t = 0.3, where the integrand is 1e154: splitting that panel leaves
    # its rounding residue in running totals, which must be summed
    # afresh, or the loop spends its whole budget (60,000 evaluations)
    truth = 2.0 * (math.sqrt(0.3) + math.sqrt(0.7))
    res = integrate_finite(lambda t: 1.0 / math.sqrt(abs(t - 0.3) + 1e-308),
                           0.0, 1.0)
    assert res.value == pytest.approx(truth, rel=1e-7)
    assert res.converged
    assert res.evaluations <= 6000


@pytest.mark.parametrize("f, lo, hi, spec, shown", [
    (lambda t: 1.0 / math.sqrt(abs(t - 0.3) + 1e-308), 0.0, 1.0, DEFAULT_SPEC,
     "QuadratureResult(value=2.768765155288553, "
     "error_estimate=2.7424203463729784e-10, evaluations=5640, converged=True)"),
    (lambda t: t ** (-0.9) if t > 0.0 else 0.0, 1e-300, 1.0,
     QuadratureSpec(rel_tol=1.12e-14),
     "QuadratureResult(value=9.999999999999998, "
     "error_estimate=1.1262757322868518e-13, evaluations=60000, converged=False)"),
], ids=["interior-cusp", "whole-budget"])
def test_bisection_order_is_pinned(f, lo, hi, spec, shown):
    # two deep trees, the cusp's and one that spends all 2000 bisections:
    # the worst panel is bisected first, ties going to the older panel,
    # so how the heap stores its panels changes no split and no bit.
    # The halves are the default opening
    assert repr(integrate_finite(f, lo, hi, spec)) == shown
    assert repr(integrate_finite(f, lo, hi, spec, pieces=2)) == shown


@pytest.mark.parametrize("f, lo, hi, spec", [
    (lambda t: 1.0 / math.sqrt(abs(t - 0.3) + 1e-308), 0.0, 1.0, DEFAULT_SPEC),
    (lambda t: t ** (-0.9) if t > 0.0 else 0.0, 1e-300, 1.0,
     QuadratureSpec(rel_tol=1.12e-14)),
], ids=["interior-cusp", "whole-budget"])
def test_quarters_grow_the_tree_the_halves_grow(f, lo, hi, spec):
    # both deep trees bisect each half first, so opening on the quarters
    # reaches the same panels, value and error bits and all, for the 30
    # evaluations of the two halves it never takes; at the budget's
    # 2000th bisection as well, the opening's three included
    halves = integrate_finite(f, lo, hi, spec)
    quarters = integrate_finite(f, lo, hi, spec, pieces=4)
    assert quarters == halves._replace(evaluations=halves.evaluations - 30)


def test_starved_budget_reports_nonconvergence(monkeypatch):
    # rel_tol 1.12e-14 lies just above the panels' 50*eps roundoff
    # floor, which t^-0.9 on [1e-300, 1] does not meet in 2000
    # bisections, so only the fixed budget of bisections ends the loop;
    # it is read at call time, so a budget of 20 shows the same as the
    # shipped 2000.  The opening split into two panels is the first of
    # the budget's bisections
    from nakaber import quad

    assert quad._MAX_SUBDIVISIONS == 2000
    budget = 20
    monkeypatch.setattr(quad, "_MAX_SUBDIVISIONS", budget)
    spec = QuadratureSpec(rel_tol=1.12e-14)
    res = integrate_finite(lambda t: t ** (-0.9) if t > 0.0 else 0.0,
                           1e-300, 1.0, spec=spec)
    assert not res.converged
    assert res.evaluations == 30 * budget
    # the value is still the best available estimate, not garbage
    assert 0.0 < res.value < 20.0
    assert res.error_estimate > 0.0


@pytest.mark.parametrize("budget", [3, 20])
def test_starved_budget_on_the_quarters(monkeypatch, budget):
    # the quarters' opening spends three bisections of the budget on 60
    # evaluations, so a budget of 3 stops on the opening, 15*(3+1)
    # evaluations, and every later bisection adds 30: 30*(budget - 1)
    from nakaber import quad

    monkeypatch.setattr(quad, "_MAX_SUBDIVISIONS", budget)
    res = integrate_finite(lambda t: t ** (-0.9) if t > 0.0 else 0.0,
                           1e-300, 1.0, QuadratureSpec(rel_tol=1.12e-14), pieces=4)
    assert not res.converged
    assert res.evaluations == 30 * (budget - 1)
    assert 0.0 < res.value < 20.0
    assert res.error_estimate > 0.0


@pytest.mark.parametrize("m, snr_db, order, evaluations", [
    (3897.092694642958, -27.40565330779026, 1024, 210),
    (6916.419545404253, 81.63657514173961, 4, 270),
])
def test_stops_only_where_the_reported_sums_converge(monkeypatch, m, snr_db,
                                                     order, evaluations):
    # closed(adaptive)'s R2 integrands at these points once stopped where
    # the running totals met rel_tol 1e-12 while the left-to-right sums
    # the result reports missed it by 1e-5 of itself (180 and 240
    # evaluations, converged=False).  With the knee at (1+b)*v^2 = 1 they
    # converge without that branch, which the stub panel test below
    # reaches; they stay as pins of value and count
    from nakaber import _purekernels, quad

    raw = []

    def spy(*args, **kwargs):
        raw.append(integrate_finite(*args, **kwargs))
        return raw[-1]

    monkeypatch.setattr(quad, "integrate_finite", spy)
    b = m / (Modulation(order).c1 * 10.0 ** (snr_db / 10.0))
    _purekernels.r2_integral(b, m, QuadratureSpec(rel_tol=1e-12))
    (res,) = raw
    assert res.converged
    assert res.error_estimate <= 1e-12 * res.value
    assert res.evaluations == evaluations


def test_bisects_on_where_only_the_running_totals_converge(monkeypatch):
    # a stub panel rule, looked up at call time: each panel's value is
    # its width, [0, 1/2] has error 2^-14, [1/2, 1] error e_b just above
    # the tolerance 1e-10, and every other panel none.  Once [0, 1/2]
    # splits, the running error total keeps e_b only on the 2^-66 grid
    # of 2^-14 + e_b, which rounds it to just below the tolerance, while the
    # left-to-right sum the result reports is e_b.  The loop takes those
    # sums as its totals and splits [1/2, 1]; a plain stop would report
    # converged=False after 60 evaluations
    from nakaber import quad

    e_b = 1e-10 * (1.0 + 1e-12)
    assert (2.0 ** -14 + e_b) - 2.0 ** -14 <= 1e-10 < e_b
    errors = {(0.0, 0.5): 2.0 ** -14, (0.5, 1.0): e_b}
    monkeypatch.setattr(quad, "_kronrod15",
                        lambda f, lo, hi: (hi - lo, errors.get((lo, hi), 0.0)))
    res = integrate_finite(lambda t: 1.0, 0.0, 1.0, QuadratureSpec(rel_tol=1e-10))
    assert res == (1.0, 0.0, 90, True)


def test_panel_at_float_resolution_is_kept_unsplit():
    # [1, 1 + 2^-52] is one float wide: its midpoint rounds onto an end,
    # so the engine opens on the whole interval as one panel, which
    # cannot be bisected, and the loop ends with it in the sum
    from nakaber import quad

    hi = math.nextafter(1.0, 2.0)
    spec = QuadratureSpec(rel_tol=1.12e-14)
    # t converges on that one panel: the exact value,
    # 2^-52 * (1 + 2^-53), lies 2^-105 from 2^-52
    res = integrate_finite(lambda t: t, 1.0, hi, spec)
    assert res.converged
    assert res.evaluations == 15
    assert abs(res.value - 2.0 ** -52) + 2.0 ** -105 <= res.error_estimate
    # t - 1 - 2^-53 integrates to 0 there, which no relative tolerance
    # meets: the loop tries to split the panel, keeps it unsplit and
    # reports it as it stands
    f = lambda t: t - 1.0 - 2.0 ** -53  # noqa: E731
    res = integrate_finite(f, 1.0, hi, spec)
    assert not res.converged
    assert res.evaluations == 15
    assert (res.value, res.error_estimate) == quad._kronrod15(f, 1.0, hi)


def test_convergence_error_carries_payload():
    err = ConvergenceError("no luck", value=0.25, error_estimate=1e-3)
    assert err.value == 0.25
    assert err.error_estimate == 1e-3
    assert isinstance(err, RuntimeError)


def test_spec_validation():
    # the floor is the engine's own, 50*eps: every panel's error is at
    # least that share of its resabs, so no tolerance at or below it
    # converges, while 1.12e-14 does (test_panel_at_float_resolution_...)
    floor = 50.0 * 2.220446049250313e-16
    message = (r"rel_tol must lie in \(50\*eps, 1e-3\]: 50\*eps = 1\.1102e-14 "
               r"is the quadrature's roundoff floor")
    for rel_tol in (1e-15, 1e-14, floor, 1e-2, math.nan):
        with pytest.raises(ValueError, match=message):
            QuadratureSpec(rel_tol=rel_tol)
    assert QuadratureSpec(math.nextafter(floor, 1.0)).rel_tol > floor
    assert QuadratureSpec(1e-3).rel_tol == 1e-3
    # the tolerance is the spec's one field; the subdivision budget is a
    # constant of the engine
    with pytest.raises(TypeError):
        QuadratureSpec(max_subdivisions=500)
    with pytest.raises(TypeError):
        QuadratureSpec(1e-10, 500)


# the package's six value objects: (class, positional args, the same
# fields as keywords, the repr)
_VALUE_OBJECTS = [
    (QuadratureSpec, (1e-8,), {"rel_tol": 1e-8}, "QuadratureSpec(rel_tol=1e-08)"),
    (ChannelParams, (0.6, 10.0), {"m": 0.6, "mean_snr": 10.0},
     "ChannelParams(m=0.6, mean_snr=10.0)"),
    (Modulation, (16,), {"order": 16},
     "Modulation(order=16, c0=0.1875, c1=0.4)"),
    (QApproxVariant, (((0.1, 0.5),),), {"coefficients": ((0.1, 0.5),)},
     "QApproxVariant(coefficients=((0.1, 0.5),))"),
    (TruncationPolicy, ("adaptive", 5, 1e-10), {"mode": "adaptive", "term_tol": 1e-10},
     "TruncationPolicy(mode='adaptive', n_max=5, term_tol=1e-10)"),
    (AberMethod, ("oracle", QuadratureSpec()), {"tag": "oracle", "payload": QuadratureSpec()},
     "AberMethod(tag='oracle', payload=QuadratureSpec(rel_tol=1e-10))"),
]


@pytest.mark.parametrize("cls,args,kwargs,shown", _VALUE_OBJECTS,
                         ids=[row[0].__name__ for row in _VALUE_OBJECTS])
def test_value_object_contract(cls, args, kwargs, shown):
    a, b = cls(*args), cls(**kwargs)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == shown
    # a value of another class with the same fields is never equal
    lookalike = type("Lookalike", (cls,), {})(*args)
    assert a != lookalike and lookalike != a
    field = next(iter(kwargs))
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


def test_spec_defaults():
    spec = QuadratureSpec()
    assert spec.rel_tol == 1e-10


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
    # the engine opens on the two halves of the interval, 15 nodes each,
    # and a smooth integrand converges there without a further bisection;
    # with pieces=4 it opens on the four quarters
    res = integrate_finite(lambda t: math.exp(t), 0.0, 1.0)
    assert res.converged
    assert res.evaluations == 30
    res = integrate_finite(lambda t: math.exp(t), 0.0, 1.0, pieces=4)
    assert res.converged
    assert res.evaluations == 60
    assert res.value == pytest.approx(math.e - 1.0, rel=1e-15)


def test_quarters_open_on_the_halves_of_a_narrow_interval():
    # [1, 1 + 2^-51] is two floats wide: its halves are one float wide
    # each and cannot be split again, so pieces=4 opens on the halves,
    # and [1, 1 + 2^-52], one float wide, on one panel, as the default
    # does; [1, 1 + 2^-50] quarters
    spec = QuadratureSpec(rel_tol=1.12e-14)
    for ulps, evaluations in ((1, 15), (2, 30), (4, 60)):
        hi = 1.0 + ulps * 2.0 ** -52
        res = integrate_finite(lambda t: t, 1.0, hi, spec, pieces=4)
        assert res.converged
        assert res.evaluations == evaluations, ulps
        if ulps < 4:
            assert res == integrate_finite(lambda t: t, 1.0, hi, spec)


@pytest.mark.parametrize("pieces", [0, 3, 2.0])
def test_pieces_other_than_2_or_4_is_refused(pieces):
    with pytest.raises(ValueError, match=r"pieces must be 2 or 4, not "):
        integrate_finite(lambda t: 1.0, 0.0, 1.0, pieces=pieces)


def test_evaluations_count_at_the_rules_size():
    # the opening costs two 15-point panels, and each bisection two more
    res = integrate_finite(lambda t: math.exp(t), 0.0, 1.0)
    assert res.converged
    assert res.evaluations == 30
    res = integrate_finite(lambda t: t ** (-0.9) if t > 0.0 else 0.0,
                           1e-300, 1.0)
    assert res.evaluations % 30 == 0 and res.evaluations > 30
