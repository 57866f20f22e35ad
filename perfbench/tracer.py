"""Per-layer tracing of nakaber from the outside.

`install` wraps the public functions of every nakaber layer where their
callers look them up, so no nakaber module changes:

- cli imports the harness runners by name, so they are patched in cli;
- aber, channel and specfun read `_backend.kernels.<name>` at call time,
  and the pure kernels call their own module globals, so kernels are
  patched as attributes of the kernel module object;
- `quad.integrate_semi_infinite` calls the module global
  `integrate_finite`, so both are patched in quad.

Every wrapper keeps aggregates only (calls, total and self time, counts
read from the returned results); no span is stored per call, so
functions that run inside integrands stay cheap to trace: `channel.pdf`
and `channel.ber_exact` get a lighter span, and the kernels they call,
`gauss_q` and `log_gamma`, are only counted.  Self time is
a span's duration minus the time of the wrapped calls it made.  Route
spans also keep their durations, for percentiles.  Each thread has its
own stack and tables; `snapshot` merges them.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    """Span aggregates per thread.  A thread's state is (stack of open
    frames [child_ns, name], name -> measure -> count, name -> [ns])."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = ([], defaultdict(lambda: defaultdict(int)), defaultdict(list))
            self._local.state = st
            with self._lock:
                self._tables.append(st)
        return st

    def inside(self, name: str) -> bool:
        """Whether a span called `name` is open in this thread."""
        return any(frame[1] == name for frame in self._state()[0])

    def wrap(self, name, fn, on_result=None, on_error=None, keep_durations=False):
        """Wrap fn in a span.  name may be a callable of (args, kwargs)."""
        tracer = self
        named = callable(name)

        def wrapper(*args, **kwargs):
            stack, stats, durations = tracer._state()
            label = name(args, kwargs) if named else name
            frame = [0, label]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                dur = perf_counter_ns() - t0
                tracer._close(stack, stats, durations, frame, dur, keep_durations)
                stats[label]["fail"] += 1
                if on_error is not None:
                    on_error(tracer, stats[label], exc)
                raise
            dur = perf_counter_ns() - t0
            tracer._close(stack, stats, durations, frame, dur, keep_durations)
            if on_result is not None:
                on_result(tracer, stats[label], result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _close(stack, stats, durations, frame, dur, keep_durations):
        stack.pop()
        if stack:
            stack[-1][0] += dur
        row = stats[frame[1]]
        row["calls"] += 1
        row["total_ns"] += dur
        row["self_ns"] += dur - frame[0]
        if keep_durations:
            durations[frame[1]].append(dur)

    def leaf(self, name, fn):
        """A cheaper span for functions that run once per integrand
        evaluation and call no other span: no frame is pushed, so it must
        only wrap functions whose wrapped callees are `counted`."""
        tracer = self

        def wrapper(*args):
            t0 = perf_counter_ns()
            result = fn(*args)
            dur = perf_counter_ns() - t0
            stack, stats, _ = tracer._state()
            if stack:
                stack[-1][0] += dur
            row = stats[name]
            row["calls"] += 1
            row["total_ns"] += dur
            row["self_ns"] += dur
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        """Wrap fn in a call counter without a span, for leaf functions
        called once per integrand evaluation; their time stays in the
        caller's self time."""
        tracer = self

        def wrapper(*args):
            tracer._state()[1][name]["calls"] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, key: str, n: int = 1) -> None:
        self._state()[1][name][key] += n

    def snapshot(self):
        """(stats, durations) merged over every thread."""
        stats = defaultdict(lambda: defaultdict(int))
        durations = defaultdict(list)
        with self._lock:
            tables = list(self._tables)
        for _, st, du in tables:
            for name, row in st.items():
                for key, value in row.items():
                    stats[name][key] += value
            for name, values in du.items():
                durations[name].extend(values)
        return ({k: dict(v) for k, v in stats.items()},
                {k: sorted(v) for k, v in durations.items()})


def _closed_label(args, kwargs):
    trunc = kwargs.get("trunc", args[2] if len(args) > 2 else None)
    if trunc is None:
        return "aber.closed5"
    if trunc.mode == "adaptive":
        return "aber.closed_adaptive"
    return f"aber.closed{trunc.n_max}"


def _quad_result(tracer, row, res):
    row["evals"] += res.evaluations
    if not res.converged:
        row["unconverged"] += 1


def _kernel_tuple(tracer, row, res):
    row["evals"] += res[2]
    if not res[3]:
        row["unconverged"] += 1


def _scaled_term(tracer, row, res):
    _kernel_tuple(tracer, row, res)
    if tracer.inside("aber.r2_series"):
        tracer.count("aber.r2_series", "scaled_terms")


def _r2_series(tracer, row, res):
    row["terms"] += res.terms_used


def _r2_quadrature_start(tracer):
    if tracer.inside("aber.r2_series"):
        tracer.count("aber.r2_series", "fallbacks")


def _sweep_error(tracer, row, exc):
    if isinstance(exc, ValueError):
        row["aborted"] += 1


def _cli_exit(tracer, row, code):
    if code != 0:
        tracer.count("cli", "exit_nonzero")


KERNELS = ("appell_f1", "r2_term_scaled", "r2_integral", "reg_inc_beta")
LEAF_KERNELS = ("gauss_q", "log_gamma")


def install(tracer: Tracer, prefix: str = "") -> None:
    """Wrap every traced nakaber function.  prefix renames the kernel
    and route spans, so a compiled-backend run reports `c.kernels.*`."""
    from nakaber import _backend, aber, channel, cli, harness, quad, specfun

    kern = _backend.kernels
    on = {"appell_f1": _kernel_tuple, "r2_term_scaled": _scaled_term,
          "r2_integral": _kernel_tuple}
    for name in KERNELS:
        setattr(kern, name, tracer.wrap(prefix + "kernels." + name,
                                        getattr(kern, name), on.get(name)))
    for name in LEAF_KERNELS:
        setattr(kern, name, tracer.counted(prefix + "kernels." + name, getattr(kern, name)))

    quad.integrate_finite = tracer.wrap("quad.integrate_finite",
                                        quad.integrate_finite, _quad_result)
    quad.integrate_semi_infinite = tracer.wrap(
        "quad.integrate_semi_infinite", quad.integrate_semi_infinite, _quad_result)

    channel.pdf = tracer.leaf("channel.pdf", channel.pdf)
    channel.ber_exact = tracer.leaf("channel.ber_exact", channel.ber_exact)

    specfun.appell_f1 = tracer.wrap("specfun.appell_f1", specfun.appell_f1)

    route = lambda label: prefix + label  # noqa: E731
    aber.aber_closed_with_terms = tracer.wrap(
        lambda a, k: route(_closed_label(a, k)), aber.aber_closed_with_terms,
        keep_durations=True)
    aber.aber_lu_closed = tracer.wrap(route("aber.lu"), aber.aber_lu_closed,
                                      keep_durations=True)
    aber.aber_expq_closed = tracer.wrap(route("aber.expq"), aber.aber_expq_closed,
                                        keep_durations=True)
    aber.oracle_result = tracer.wrap(route("aber.oracle"), aber.oracle_result,
                                     _quad_result, keep_durations=True)
    aber.r2_series = tracer.wrap("aber.r2_series", aber.r2_series, _r2_series)
    r2_quadrature = tracer.wrap("aber.r2_quadrature", aber.r2_quadrature)

    def r2_quadrature_counted(*args, **kwargs):
        _r2_quadrature_start(tracer)
        return r2_quadrature(*args, **kwargs)

    aber.r2_quadrature = r2_quadrature_counted

    for name in ("run_sweep", "run_discrepancy", "run_bench", "run_selftest"):
        wrapped = tracer.wrap("harness." + name, getattr(harness, name),
                              on_error=_sweep_error if name == "run_sweep" else None)
        setattr(harness, name, wrapped)
        setattr(cli, name, wrapped)
    cli.main = tracer.wrap("cli.main", cli.main, _cli_exit)
