"""Sweep, discrepancy, bench, and selftest harness tests."""

import math

import pytest

from nakaber.aber import AberMethod, TruncationPolicy, aber_oracle
from nakaber.channel import ChannelParams, Modulation, db_to_linear
from nakaber.harness import (
    db_grid,
    run_bench,
    run_discrepancy,
    run_selftest,
    run_sweep,
    selftest_groups,
    stabilized_oracle_spec,
)
from nakaber.quad import QuadratureSpec

def three_method_sweep():
    return run_sweep(4.1, 256, db_grid(0.0, 30.0, 1.0),
                     (AberMethod.closed_form(TruncationPolicy.fixed(0)),
                      AberMethod.lu_closed(),
                      AberMethod.oracle()))


def test_db_to_linear():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-14)
    assert db_to_linear(-10.0) == pytest.approx(0.1, rel=1e-14)
    assert db_to_linear(3.0) == pytest.approx(10.0 ** 0.3, rel=1e-14)
    with pytest.raises(ValueError, match="4000 dB overflows a float"):
        db_to_linear(4000.0)
    with pytest.raises(ValueError, match="-4000 dB underflows a float to 0"):
        db_to_linear(-4000.0)
    assert 0.0 < db_to_linear(-3236.0) < 1e-323
    for bad in ("nan", "inf"):
        with pytest.raises(ValueError, match=f"^{bad} dB is not a finite number$"):
            db_to_linear(float(bad))


def test_db_grid_names_broken_condition():
    for grid, broken in (((5.0, 5.0, 1.0), "start is not below stop"),
                         ((5.0, 1.0, 1.0), "start is not below stop"),
                         ((0.0, 5.0, 0.0), "step is not positive"),
                         ((0.0, 5.0, -1.0), "step is not positive"),
                         ((0.0, math.nan, 1.0), "wants finite"),
                         ((-math.inf, 5.0, 1.0), "wants finite")):
        with pytest.raises(ValueError, match=broken):
            db_grid(*grid)


@pytest.mark.parametrize("runner", [run_sweep, run_discrepancy])
def test_runners_reject_empty_methods(runner):
    with pytest.raises(ValueError, match="at least one method"):
        runner(4.1, 4, db_grid(0.0, 5.0, 1.0), ())


def test_grid_includes_endpoint_despite_rounding():
    assert len(db_grid(0.0, 30.0, 1.0)) == 31
    grid = db_grid(0.0, 23.0, 0.25)
    assert len(grid) == 93
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(23.0, abs=1e-9)


def test_db_grid_caps_point_count():
    assert len(db_grid(0.0, 99999.0, 1.0)) == 100000
    with pytest.raises(ValueError, match="more than 100000 points"):
        db_grid(0.0, 100001.0, 1.0)


def test_sweep_produces_sorted_rows():
    rows = three_method_sweep()
    assert len(rows) == 93  # 31 grid points x 3 methods
    assert list(rows) == sorted(rows, key=lambda r: (r.snr_db, r.method))
    assert {r.method for r in rows} == {"closed(N=0)", "lu", "oracle"}
    for r in rows:
        assert 0.0 <= r.value <= 1.0
        assert r.wall_time_ns > 0
    # closed-form rows report the terminating term count, others zero
    closed_terms = {r.terms for r in rows if r.method == "closed(N=0)"}
    assert closed_terms == {1}
    assert {r.terms for r in rows if r.method == "lu"} == {0}


def test_sweep_values_decrease_with_snr():
    by_method = {}
    for r in three_method_sweep():
        by_method.setdefault(r.method, []).append((r.snr_db, r.value))
    for method, pts in by_method.items():
        values = [v for _, v in sorted(pts)]
        assert all(b < a for a, b in zip(values, values[1:])), method


def test_sweep_rejects_out_of_range_values():
    # the five-term closed form is -8.34e-6 at m = 50, 10 dB, QPSK (the
    # truth is 1.0248e-5): a closed-form value must be a probability
    with pytest.raises(ValueError, match=r"closed\(N=5\) produced a value outside \[0, 1\]"):
        run_sweep(50.0, 4, db_grid(8.0, 12.0, 2.0),
                  (AberMethod.closed_form(TruncationPolicy.fixed(5)),))
    # lu is an approximation, so its 3.18 at m = 0.6, -12 dB, 4096-QAM is kept
    rows = run_sweep(0.6, 4096, db_grid(-12.0, -8.0, 2.0), (AberMethod.lu_closed(),))
    assert [r.method for r in rows] == ["lu"] * 3
    assert all(r.value > 1.0 for r in rows)


def test_discrepancy_rows():
    rows = run_discrepancy(0.6, 256, db_grid(0.0, 4.0, 2.0),
                           (AberMethod.closed_form(TruncationPolicy.fixed(0)),
                            AberMethod.lu_closed()))
    assert len(rows) == 6
    assert [(r.snr_db, r.candidate_method) for r in rows] == [
        (0.0, "closed(N=0)"), (0.0, "lu"),
        (2.0, "closed(N=0)"), (2.0, "lu"),
        (4.0, "closed(N=0)"), (4.0, "lu"),
    ]
    for r in rows:
        assert r.epsilon_db < 0.0 or r.candidate_method == "lu"


def test_discrepancy_oracle_candidate_hits_sentinel():
    # an oracle candidate sharing the reference spec reproduces the
    # reference exactly, so the log-scaled gap is -inf
    rows = run_discrepancy(1.0, 4, db_grid(0.0, 2.0, 2.0), (AberMethod.oracle(),))
    assert all(r.epsilon_db == -math.inf for r in rows)


def test_stabilized_oracle_spec_is_reasonable():
    ch = ChannelParams(0.6, 10.0)
    spec = stabilized_oracle_spec(ch, Modulation(256))
    assert 1e-14 <= spec.rel_tol <= 1e-4


@pytest.mark.parametrize("stable_from, kept, calls", [
    (1e-7, 1e-7, 5),
    (0.0, 1e-13, 10),
], ids=["agrees-from-1e-7", "never-agrees"])
def test_stabilized_oracle_spec_tightens_until_two_values_agree(
        monkeypatch, stable_from, kept, calls):
    # a stand-in oracle whose value moves with rel_tol above stable_from
    # and holds still below it: the earlier spec of the first agreeing
    # pair is kept, and with no agreeing pair the tightest one tried,
    # 1e-13.  Divided by 10 step by step, the tenth decade was
    # 1.0000000000000002e-13, which passed a rel > 1e-13 test and asked
    # for 1.0000000000000002e-14, inside the engine's 50*eps roundoff
    # floor, where the real oracle cannot converge
    from nakaber import aber

    tried = []

    def fake_oracle(ch, mod, kernel, spec):
        tried.append(spec.rel_tol)
        return 1.0 + 1e3 * max(spec.rel_tol, stable_from) ** 0.5

    monkeypatch.setattr(aber, "aber_oracle", fake_oracle)
    spec = stabilized_oracle_spec(ChannelParams(0.6, 10.0), Modulation(256))
    assert spec.rel_tol == kept
    # one oracle call per exact decade, from 1e-4 down
    assert tried == [10.0 ** -k for k in range(4, 4 + calls)]


def test_stabilized_spec_value_matches_tight_oracle():
    # the value is 9e-47: an absolute floor above it (1e-18, say) ends
    # the quadrature after its first panel, 0.5% off
    ch = ChannelParams(25.0, db_to_linear(50.0))
    mod = Modulation(1024)
    got = aber_oracle(ch, mod, "exact", stabilized_oracle_spec(ch, mod))
    tight = aber_oracle(ch, mod, "exact", QuadratureSpec(rel_tol=1e-12))
    assert got == pytest.approx(tight, rel=1e-5)


def test_bench_rows():
    rows = run_bench(0.6, 256, [10.0], [0, 2], reps=10)
    assert len(rows) == 2
    for row in rows:
        assert row.snr_db == 10.0
        assert row.t_closed_ns > 0
        assert row.t_oracle_ns > 0
        assert row.epsilon_t == pytest.approx(
            row.t_oracle_ns / row.t_closed_ns, rel=1e-12)
    assert [r.n_terms for r in rows] == [0, 2]


def test_bench_rejects_thin_sampling():
    with pytest.raises(ValueError):
        run_bench(0.6, 256, [10.0], [0], reps=9)
    with pytest.raises(ValueError):
        run_bench(0.6, 256, [10.0], [], reps=10)


def test_selftest_group_names():
    assert selftest_groups() == ("lemma1", "lemma2", "lemma3",
                                 "reflection", "termination", "sandwich")


def test_selftest_all_groups_pass():
    results = run_selftest()
    assert results
    failing = [r for r in results if not r.passed]
    assert failing == []
    assert {r.group for r in results} == set(selftest_groups())


def test_selftest_checks_the_served_avg_q_squared(monkeypatch):
    # the self tests run no Craig-form quadrature, and lemma3 and
    # sandwich each take the served E[Q^2] at every grid point
    from nakaber import _purekernels, aber
    from nakaber.harness import _identity_grid

    calls = {"r2_integral": [], "avg_q_squared": []}
    for name, record in calls.items():
        kernel = getattr(_purekernels, name)

        def spy(*args, kernel=kernel, record=record):
            record.append(args[:2])
            return kernel(*args)

        monkeypatch.setattr(_purekernels, name, spy)
    results = run_selftest()
    assert results and all(r.passed for r in results)
    assert calls["r2_integral"] == []
    grid = [(ch.m, aber._ratio(ch, mod.c1)) for ch, mod, _ in _identity_grid()]
    assert len(set(grid)) == 80
    assert calls["avg_q_squared"] == grid + grid


@pytest.mark.parametrize("wrong", [lambda cf: 1.0, lambda cf: 1.7 * cf + 0.3],
                         ids=["constant", "affine"])
def test_selftest_reflection_fails_on_a_wrong_fraction(monkeypatch, wrong):
    # the group compares the incomplete beta's fraction on x with the
    # complement's fraction on 1 - x, so a wrong fraction shows.  The sum
    # I_x(a, b) + I_{1-x}(b, a) would not: the kernel's switch sends both
    # calls through one fraction at nearly one point, and with these two
    # it read 2.2e-16 and 8.9e-16
    from nakaber import _purekernels

    right = _purekernels._beta_cf
    monkeypatch.setattr(_purekernels, "_beta_cf",
                        lambda x, a, b, *eps: wrong(right(x, a, b, *eps)))
    (result,) = run_selftest(["reflection"])
    assert result.group == "reflection"
    assert not result.passed, result.detail


def test_selftest_lemma1_is_a_short_finite_quadrature(monkeypatch):
    # the tail identity in phi with x = tan^2(phi) is smooth on
    # [0, pi/2): 690 evaluations over the five z (765 on one opening
    # panel), errors at most 1.3e-15
    from nakaber import quad

    counts = []
    engine = quad.integrate_finite

    def counted(*args, **kwargs):
        res = engine(*args, **kwargs)
        counts.append(res.evaluations)
        return res

    monkeypatch.setattr(quad, "integrate_finite", counted)
    results = run_selftest(["lemma1"])
    assert len(results) == 5 and all(r.passed for r in results)
    for r in results:
        assert float(r.detail.split()[0].split("=")[1]) <= 2e-15, r
    assert len(counts) == 5
    assert sum(counts) <= 1000


def test_selftest_single_group():
    results = run_selftest(["termination"])
    assert all(r.group == "termination" for r in results)
    assert len(results) == 6


def test_selftest_unknown_group_rejected():
    with pytest.raises(ValueError):
        run_selftest(["lemma9"])
