"""Runs one pass of operations inside a fresh interpreter.

Reads a JSON job on stdin and writes one JSON result on stdout.  The
parent starts it with PYTHONPATH=src and no backend override, so nakaber
is imported the way tier-1 imports it.  This process imports nothing
but nakaber and the standard library (and the tracer when asked), so
its peak resident memory is the program's.

Job keys:
  workload  "series" | "oracle" | "cli" (in-process `cli.main`) |
            "cli_spawned" (one `python -m nakaber` per op) | "ratio"
  ops       the pass (for "ratio": [m, M, dB] points)
  trace     install the tracer before the pass
  work_dir  where "cli_spawned" keeps the children's output
  fast_dir  directory holding a compiled nakaber._fastkernels; when set,
            the kernels are swapped to it before the pass
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter, perf_counter_ns

import speed


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _series():
    from nakaber import aber
    from nakaber.aber import TruncationPolicy
    from nakaber.channel import ChannelParams, Modulation

    fixed5 = TruncationPolicy.fixed(5)
    adaptive = TruncationPolicy.adaptive(1e-12)

    def one(op):
        routes = {}
        t0 = perf_counter_ns()
        ch = ChannelParams(op["m"], 10.0 ** (op["db"] / 10.0))
        mod = Modulation(op["M"])
        for route, call in (
                ("closed5", lambda: aber.aber_closed_with_terms(ch, mod, fixed5)),
                ("closed_adaptive",
                 lambda: aber.aber_closed_with_terms(ch, mod, adaptive)),
                ("lu", lambda: aber.aber_lu_closed(ch, mod)),
                ("expq", lambda: aber.aber_expq_closed(ch, mod))):
            try:
                value = call()
                routes[route] = list(value) if isinstance(value, tuple) else [value]
            except Exception as exc:
                routes[route] = _describe(exc)
        return {"ns": perf_counter_ns() - t0, "routes": routes}

    return one


def _oracle():
    from nakaber import aber
    from nakaber.channel import ChannelParams, Modulation

    def one(op):
        t0 = perf_counter_ns()
        try:
            res = aber.oracle_result(ChannelParams(op["m"], 10.0 ** (op["db"] / 10.0)),
                                     Modulation(op["M"]))
            routes = {"oracle": [res.value, res.evaluations, res.converged]}
        except Exception as exc:
            routes = {"oracle": _describe(exc)}
        return {"ns": perf_counter_ns() - t0, "routes": routes}

    return one


def _cli_in_process():
    from nakaber import cli

    def one(op):
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = perf_counter_ns()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(op["argv"])
            except Exception as exc:
                code = -1
                stderr.write(_describe(exc))
        return {"ns": perf_counter_ns() - t0, "rc": code,
                "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}

    return one


def _cli_spawned(work_dir):
    """Each op as its own `python -m nakaber` process, one at a time.

    This process imports no nakaber and stays small, because a child's
    peak resident memory as wait4 reports it includes the memory of the
    process that started it.
    """

    def one(op):
        with tempfile.TemporaryFile(dir=work_dir) as stdout, \
                tempfile.TemporaryFile(dir=work_dir) as stderr:
            t0 = perf_counter_ns()
            proc = subprocess.Popen([sys.executable, "-m", "nakaber", *op["argv"]],
                                    stdout=stdout, stderr=stderr)
            _, status, usage = os.wait4(proc.pid, 0)
            ns = perf_counter_ns() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            stdout.seek(0)
            stderr.seek(0)
            return {"ns": ns, "rc": proc.returncode, "maxrss_kb": usage.ru_maxrss,
                    "stdout": stdout.read().decode(), "stderr": stderr.read().decode()}

    return one


def _timed(ops, one, probe=speed.probe, reference=speed.REFERENCE_S, every_s=0.05,
           window=None):
    """Run every op, probing the host's speed at least every every_s.

    Each op's record gets the scale factor of the two probes around its
    segment or, when window is set, of the mean of the probes up to
    window segments either side of it (see speed.py).
    """
    out, probes, ends = [], [probe()], []
    t_last = perf_counter()
    for op in ops:
        out.append(one(op))
        if perf_counter() - t_last >= every_s or len(out) == len(ops):
            probes.append(probe())
            ends.append(len(out))
            t_last = perf_counter()
    start = 0
    for j, end in enumerate(ends):
        if window is None:
            factor = speed.factor(probes[j], probes[j + 1], reference)
        else:
            factor = speed.mean_factor(probes[max(0, j - window):j + 2 + window], reference)
        for rec in out[start:end]:
            rec["speed"] = factor
        start = end
    return out


def _peak_rss_kb() -> int:
    """This process's own high-water resident memory (VmHWM), which unlike
    getrusage's ru_maxrss does not carry over the parent's from before exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _run_ratio(points):
    """harness.run_bench over the points: epsilon_t per N, unseen by any
    tracer."""
    from nakaber import harness

    by_n = {}
    for m, order, db in points:
        for row in harness.run_bench(m, order, [db], [0, 1, 2, 3, 5], reps=10):
            by_n.setdefault(row.n_terms, []).append(row.epsilon_t)
    return [{"n": n, "min": min(v), "median": statistics.median(v), "values": v}
            for n, v in sorted(by_n.items())]


OPS = {"series": _series, "oracle": _oracle, "cli": _cli_in_process}


def main() -> int:
    job = json.load(sys.stdin)
    if job["workload"] == "cli_spawned":
        t0 = perf_counter_ns()
        results = _timed(job["ops"], _cli_spawned(job["work_dir"]), speed.spawn_probe,
                         speed.REFERENCE_SPAWN_S, every_s=1.0, window=2)
        json.dump({"results": results, "wall_ns": perf_counter_ns() - t0,
                   "maxrss_kb": max(r.pop("maxrss_kb") for r in results)}, sys.stdout)
        return 0
    import nakaber
    from nakaber import _backend

    if job.get("fast_dir"):
        nakaber.__path__.append(job["fast_dir"])
        _backend.kernels = _backend.load("c")
    tracer = None
    if job.get("trace"):
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer, prefix="c." if job.get("fast_dir") else "")
    if job["workload"] == "ratio":
        t0 = perf_counter_ns()
        results = _run_ratio(job["ops"])
    else:
        one = OPS[job["workload"]]()
        t0 = perf_counter_ns()
        results = _timed(job["ops"], one)
    wall_ns = perf_counter_ns() - t0
    reply = {"results": results, "wall_ns": wall_ns,
             "backend": _backend.kernels.BACKEND_NAME,
             "maxrss_kb": _peak_rss_kb()}
    if tracer is not None:
        reply["stats"], reply["durations"] = tracer.snapshot()
    json.dump(reply, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
