"""nakaber's benchmark: seeded workloads, independent accuracy checks,
end-to-end metrics, and per-layer numbers from a separate traced run.

    python3 perfbench/run.py --workload series|oracle|cli --seed N \
        --seconds S --trace 0|1

Run it from anywhere inside a checkout that has src/nakaber.  The last
line of standard output is one JSON object: with --trace 0 it carries the
end-to-end metrics, with --trace 1 the per-layer ones.  Everything before
it is a readable report; a fuller record goes to perfbench/_out/.  See
perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import checks
import reference
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
WORK = HERE / "_work"
BUILD = HERE / "_build"

ROUTES = ("closed5", "closed_adaptive", "lu", "expq", "oracle")
RATIO_NS = (0, 1, 2, 3, 5)
C_KERNELS = ("appell_f1", "r2_term_scaled", "reg_inc_beta", "r2_integral")
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
SETUP_SAMPLES = 15
# the compiled-kernel pass runs every C_STRIDE-th op of the pass
C_STRIDE = 4
# a cli pass runs in chunks with set-up samples between them; chunks are
# long enough for speed.mean_factor's window of probes
CLI_CHUNK = 48
SELFCHECK_POINTS = 3

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("goodput_ops", "ops/s", "higher"),
    ("ok_frac", "ratio", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def _per_layer():
    rows = []
    for r in ROUTES:
        rows += [(f"aber.{r}.calls", "count", "lower"), (f"aber.{r}.self_ms", "ms", "lower"),
                 (f"aber.{r}.p50_ms", "ms", "lower"), (f"aber.{r}.fail", "count", "lower")]
    rows += [("aber.r2_series.calls", "count", "lower"),
             ("aber.r2_series.terms", "count", "lower"),
             ("aber.r2_series.scaled_terms", "count", "lower"),
             ("aber.r2_series.fallbacks", "count", "lower"),
             ("specfun.appell_f1.calls", "count", "lower"),
             ("specfun.appell_f1.self_ms", "ms", "lower"),
             ("specfun.appell_f1.fail", "count", "lower")]
    for k in ("appell_f1", "r2_term_scaled"):
        rows += [(f"kernels.{k}.calls", "count", "lower"),
                 (f"kernels.{k}.self_ms", "ms", "lower"),
                 (f"kernels.{k}.evals", "count", "lower")]
    rows += [("aber.oracle.evals", "count", "lower"),
             ("aber.oracle.false_converged", "count", "lower"),
             ("quad.integrate_semi_infinite.calls", "count", "lower"),
             ("quad.integrate_semi_infinite.evals", "count", "lower"),
             ("channel.pdf.calls", "count", "lower"),
             ("channel.pdf.self_ms", "ms", "lower"),
             ("channel.ber_exact.calls", "count", "lower"),
             ("channel.ber_exact.self_ms", "ms", "lower"),
             ("kernels.gauss_q.calls", "count", "lower"),
             ("kernels.log_gamma.calls", "count", "lower"),
             ("quad.integrate_finite.calls", "count", "lower"),
             ("quad.integrate_finite.self_ms", "ms", "lower"),
             ("quad.integrate_finite.evals", "count", "lower"),
             ("quad.integrate_finite.unconverged", "count", "lower"),
             ("kernels.reg_inc_beta.calls", "count", "lower"),
             ("kernels.reg_inc_beta.self_ms", "ms", "lower"),
             ("kernels.r2_integral.calls", "count", "lower"),
             ("kernels.r2_integral.self_ms", "ms", "lower"),
             ("kernels.r2_integral.evals", "count", "lower"),
             ("aber.r2_quadrature.calls", "count", "lower"),
             ("aber.r2_quadrature.self_ms", "ms", "lower")]
    for h in ("run_sweep", "run_discrepancy", "run_bench", "run_selftest"):
        rows += [(f"harness.{h}.calls", "count", "lower"),
                 (f"harness.{h}.self_ms", "ms", "lower")]
    rows += [("harness.run_sweep.aborted", "count", "lower"),
             ("cli.main.calls", "count", "lower"),
             ("cli.main.self_ms", "ms", "lower"),
             ("cli.exit_nonzero", "count", "lower")]
    for n in RATIO_NS:
        rows += [(f"aber.epsilon_t.N{n}.min", "ratio", "higher"),
                 (f"aber.epsilon_t.N{n}.median", "ratio", "higher")]
    rows += [("aber.epsilon_t.check8.min", "ratio", "higher")]
    for k in C_KERNELS:
        rows += [(f"c.kernels.{k}.calls", "count", "lower"),
                 (f"c.kernels.{k}.self_ms", "ms", "lower")]
    rows += [("c.kernels.gauss_q.calls", "count", "lower"),
             ("c.kernels.log_gamma.calls", "count", "lower")]
    rows += [(f"c.aber.{r}.p50_ms", "ms", "lower") for r in ROUTES]
    rows += [("c.build_s", "s", "lower"),
             ("fail_frac", "ratio", "lower"),
             ("op_tail_ok_ms", "ms", "lower"),
             ("trace.goodput_untraced", "ops/s", "higher"),
             ("trace.goodput_traced", "ops/s", "higher"),
             ("trace.overhead_x", "ratio", "lower")]
    return tuple(rows)


PER_LAYER = _per_layer()


class BenchError(RuntimeError):
    """The benchmark itself could not run or could not vouch for a run."""


# ---------------------------------------------------------------------------
# processes


def _env() -> dict:
    env = dict(os.environ)
    env.pop("NAKABER_BACKEND", None)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def _worker(job: dict) -> dict:
    """Run one job in a fresh interpreter and return its reply."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                          input=json.dumps(job), capture_output=True, text=True,
                          env=_env(), cwd=ROOT, timeout=150)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def _setup_seconds(module: str) -> tuple[float, str]:
    """Fresh interpreter start until `import <module>` has finished, scaled
    to the reference CPU speed, and the kernel backend the import chose."""
    before = speed.spawn_probe(_env())
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", f"import {module}; print(nakaber.backend_name(), flush=True)"],
        stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)
    line = proc.stdout.readline()
    seconds = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait(timeout=30) != 0 or not line.strip():
        raise BenchError(f"import {module} failed in a fresh interpreter")
    after = speed.spawn_probe(_env())
    return seconds * speed.factor(before, after, speed.REFERENCE_SPAWN_S), line.strip()


def _build_fast() -> tuple[str | None, float, str]:
    """Compile the shipped _fastkernels.c with setup.py's flags into the
    benchmark's build directory.  Returns (dir, seconds, reason skipped)."""
    source = SRC / "nakaber" / "_fastkernels.c"
    if not source.is_file():
        return None, 0.0, "src/nakaber/_fastkernels.c is absent"
    target = BUILD / "nakaber"
    target.mkdir(parents=True, exist_ok=True)
    lib = target / ("_fastkernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd = ["gcc", "-shared", "-fPIC", "-O2", "-ffp-contract=off",
           "-I" + sysconfig.get_paths()["include"], str(source), "-o", str(lib)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return None, 0.0, f"gcc did not run: {exc}"
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        return None, seconds, "gcc failed: " + proc.stderr.strip()[-300:]
    return str(target), seconds, ""


# ---------------------------------------------------------------------------
# references and checks


def _references(ops: list[dict], seed: int) -> tuple[dict, dict]:
    t0 = time.perf_counter()
    refs, fallbacks = {}, 0
    for m, db, order in workloads.reference_points(ops):
        refs[(m, db, order)], fell_back = reference.fast(m, db, order)
        fallbacks += fell_back
    points = sorted(refs)
    step = max(1, len(points) // SELFCHECK_POINTS)
    sample = [(m, db, order) for m, db, order in points[seed % step::step]][:SELFCHECK_POINTS]
    verdict = reference.self_check(sample)
    info = {"points": len(refs), "mpmath_fallbacks": fallbacks,
            "selfcheck_points": sample, **verdict,
            "seconds": time.perf_counter() - t0}
    if not verdict["ok"]:
        raise BenchError(f"reference self-check failed: {verdict}")
    return refs, info


def _check(workload: str, checker: checks.Checker, ops, reply) -> list:
    if workload == "cli":
        return checker.cli(ops, reply["results"])
    return checker.in_process(ops, reply["results"])


def _fingerprint(workload: str, reply: dict, verdicts) -> list:
    """What must repeat exactly between two passes of one seed."""
    out = []
    for res, (ok, fails) in zip(reply["results"], verdicts):
        kinds = sorted((f[0], f[1]) for f in fails)
        if workload == "cli":
            bench = res["stdout"].startswith("snr_db,n_terms")
            out.append((ok, kinds, res["rc"], None if bench else res["stdout"]))
        else:
            out.append((ok, kinds, res["routes"]))
    return out


def _same_counts(a: dict, b: dict) -> list[str]:
    """Deterministic trace counters that differ between two traced passes."""
    diffs = []
    for name in sorted(set(a) | set(b)):
        ra, rb = a.get(name, {}), b.get(name, {})
        for key in sorted(set(ra) | set(rb)):
            if not key.endswith("_ns") and ra.get(key, 0) != rb.get(key, 0):
                diffs.append(f"{name}.{key}: {ra.get(key, 0)} != {rb.get(key, 0)}")
    return diffs


# ---------------------------------------------------------------------------
# metrics


def _tail_percentile(n: int) -> float:
    """Highest percentile of the ladder with at least ten ops beyond it."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) >= 1000.0 - 1e-6:
            return p
    return 50.0


def _ranked_ms(ok_ns: list[int], n: int, p: float) -> float | None:
    """Nearest-rank percentile in ms with failed ops ranked above every
    success; None when it falls among the failures."""
    rank = max(1, -(-int(round(p * n)) // 100))
    if rank > len(ok_ns):
        return None
    return sorted(ok_ns)[rank - 1] / 1e6


def _scaled_ns(rec: dict) -> float:
    return rec["ns"] * rec["speed"]


def _ok_tail_ms(ok_ns: list[float], n: int) -> float:
    """The tail ladder's percentile for n ops, taken over the successful
    ops only: unlike op_tail_ms it stays a latency while ops fail."""
    return _ranked_ms(ok_ns, len(ok_ns), _tail_percentile(n)) if ok_ns else 0.0


def _e2e(ops, runs: list[dict], setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics over passes that repeated one another exactly.

    Each op's latency is the median over the passes of its time scaled to
    the reference CPU speed (see speed.py).
    """
    verdicts = runs[0]["verdicts"]
    lat = [statistics.median(_scaled_ns(r["reply"]["results"][i]) for r in runs)
           for i in range(len(ops))]
    n, n_ok = len(ops), sum(ok for ok, _ in verdicts)
    ok_ns = [t for t, (ok, _) in zip(lat, verdicts) if ok]
    window_ms = sum(lat) / 1e6
    p_tail = _tail_percentile(n)
    p50 = _ranked_ms(ok_ns, n, 50.0)
    tail = _ranked_ms(ok_ns, n, p_tail)
    metrics = {
        "setup_s": statistics.median(setup),
        "goodput_ops": n_ok / (window_ms / 1e3),
        "ok_frac": n_ok / n,
        # a failed op never delivered a correct value within the timed
        # window; when the percentile lands on one, report the window
        "op_p50_ms": window_ms if p50 is None else p50,
        "op_tail_ms": window_ms if tail is None else tail,
        "peak_rss_mb": max(r["reply"]["maxrss_kb"] for r in runs) / 1024.0,
    }
    notes = {"attempted": n * len(runs), "failed": (n - n_ok) * len(runs),
             "fail_frac": (n - n_ok) / n, "tail_percentile": p_tail,
             "timed_window_s": window_ms / 1e3,
             "op_tail_ok_ms": _ok_tail_ms(ok_ns, n),
             "pass_wall_s": [r["reply"]["wall_ns"] / 1e9 for r in runs],
             "unscaled_goodput_ops": [
                 n_ok / (sum(x["ns"] for x in r["reply"]["results"]) / 1e9) for r in runs],
             "p50_unbounded": p50 is None, "tail_unbounded": tail is None,
             "setup_samples_s": setup}
    return metrics, notes


def _route_fails(verdicts) -> dict:
    counts = {}
    for _, fails in verdicts:
        for route, kind, *_ in fails:
            counts[route] = counts.get(route, 0) + 1
            if route == "oracle" and kind == "false_converged":
                counts["false_converged"] = counts.get("false_converged", 0) + 1
    return counts


def _layer_metrics(stats, durations, fails, c_stats, c_durations, ratio) -> dict:
    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    def ms(name, key="self_ns", table=None):
        return (table if table is not None else stats).get(name, {}).get(key, 0) / 1e6

    def p50(name, table):
        values = table.get(name, [])
        return statistics.median(values) / 1e6 if values else 0.0

    out = {}
    for name, _, _ in PER_LAYER:
        layer, _, measure = name.rpartition(".")
        if name == "aber.epsilon_t.check8.min":
            # the first ratio point is the one acceptance check 8 uses
            out[name] = min(r["values"][0] for r in ratio)
        elif name.startswith("aber.epsilon_t."):
            n = int(layer.rsplit(".N", 1)[1])
            out[name] = next((r[measure] for r in ratio if r["n"] == n), 0.0)
        elif name.startswith("c.kernels."):
            out[name] = ms(layer, table=c_stats) if measure == "self_ms" else \
                c_stats.get(layer, {}).get(measure, 0)
        elif name.startswith("c.aber."):
            out[name] = p50(layer, c_durations)
        elif name == "aber.oracle.false_converged":
            out[name] = fails.get("false_converged", 0)
        elif name.startswith("aber.") and measure == "fail" and layer[5:] in ROUTES:
            out[name] = fails.get(layer[5:], 0)
        elif measure == "p50_ms":
            out[name] = p50(layer, durations)
        elif measure == "self_ms":
            out[name] = ms(layer)
        elif name == "cli.exit_nonzero":
            out[name] = stat("cli", "exit_nonzero")
        elif measure in ("calls", "evals", "terms", "scaled_terms", "fallbacks",
                         "unconverged", "aborted", "fail"):
            out[name] = stat(layer, measure)
    return out


# ---------------------------------------------------------------------------
# provenance


def _provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "nakaber").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "nproc": os.cpu_count(), "cpu": cpu,
            "python": sys.version.split()[0], "commit": _commit(),
            "source_sha256": digest.hexdigest()[:16]}


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'none'."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


# ---------------------------------------------------------------------------
# the two kinds of run


def _run_pass(workload: str, ops, checker, trace=False, fast_dir=None, in_process=False):
    kind = "cli_spawned" if workload == "cli" and not in_process else workload
    reply = _worker({"workload": kind, "ops": ops, "trace": trace, "fast_dir": fast_dir,
                     "work_dir": str(WORK)})
    return {"reply": reply, "verdicts": _check(workload, checker, ops, reply)}


def _goodput(p: dict) -> float:
    """Correct ops per second of scaled op time in one pass."""
    return (sum(ok for ok, _ in p["verdicts"])
            / (sum(_scaled_ns(r) for r in p["reply"]["results"]) / 1e9))


def end_to_end(workload, seed, seconds, ops, checker, record) -> dict:
    """Passes of the op list with set-up samples spread between them.

    A cli pass runs in chunks, so its set-up samples spread over it too.
    """
    module = "nakaber.cli" if workload == "cli" else "nakaber"
    size = CLI_CHUNK if workload == "cli" else len(ops)
    chunks = [ops[i:i + size] for i in range(0, len(ops), size)]
    n_passes = workloads.passes(workload, seconds)
    per_chunk = -(-SETUP_SAMPLES // (n_passes * len(chunks)))
    setup, runs = [], []
    for _ in range(n_passes):
        replies = []
        for chunk in chunks:
            setup += [_setup_seconds(module) for _ in range(per_chunk)]
            replies.append(_run_pass(workload, chunk, checker)["reply"])
        reply = {"results": [r for rep in replies for r in rep["results"]],
                 "wall_ns": sum(rep["wall_ns"] for rep in replies),
                 "maxrss_kb": max(rep["maxrss_kb"] for rep in replies)}
        runs.append({"reply": reply, "verdicts": _check(workload, checker, ops, reply)})
    first = _fingerprint(workload, runs[0]["reply"], runs[0]["verdicts"])
    for i, p in enumerate(runs[1:], 2):
        if _fingerprint(workload, p["reply"], p["verdicts"]) != first:
            raise BenchError(f"pass {i} did not repeat pass 1 exactly")
    metrics, notes = _e2e(ops, runs, [seconds for seconds, _ in setup])
    record.update(notes, passes=len(runs), pass_ops=len(ops),
                  backend=",".join(sorted({backend for _, backend in setup})),
                  failures=checks.summarize(
                      [f for _, fails in runs[0]["verdicts"] for f in fails]))
    return metrics


def traced(workload, seed, seconds, ops, checker, record) -> dict:
    """One untraced and two traced passes in-process (for cli, through
    `cli.main`), the compiled-kernel pass, and the timing ratio."""
    plain = _run_pass(workload, ops, checker, in_process=True)
    a = _run_pass(workload, ops, checker, trace=True, in_process=True)
    b = _run_pass(workload, ops, checker, trace=True, in_process=True)
    want = _fingerprint(workload, plain["reply"], plain["verdicts"])
    for p in (a, b):
        if _fingerprint(workload, p["reply"], p["verdicts"]) != want:
            raise BenchError("a traced pass changed the program's outputs")
    diffs = _same_counts(a["reply"]["stats"], b["reply"]["stats"])
    if diffs:
        raise BenchError("two traced passes of one seed differ: " + "; ".join(diffs[:5]))

    c_stats, c_durations, build_s, skipped = {}, {}, 0.0, "not run on cli"
    if workload in ("series", "oracle"):
        fast_dir, build_s, skipped = _build_fast()
        if fast_dir is not None:
            c = _run_pass(workload, ops[::C_STRIDE], checker, trace=True, fast_dir=fast_dir)
            if c["reply"]["backend"] != "c":
                raise BenchError("the compiled kernels did not load")
            c_stats, c_durations = c["reply"]["stats"], c["reply"]["durations"]
            record["c_route_fails"] = _route_fails(c["verdicts"])
    ratio = _worker({"workload": "ratio", "ops": workloads.bench_points(seed)})["results"]

    fails = _route_fails(a["verdicts"])
    metrics = _layer_metrics(a["reply"]["stats"], a["reply"]["durations"], fails,
                             c_stats, c_durations, ratio)
    n = len(a["verdicts"])
    failed = sum(not ok for ok, _ in a["verdicts"])
    metrics["c.build_s"] = build_s
    metrics["fail_frac"] = failed / n
    metrics["op_tail_ok_ms"] = _ok_tail_ms(
        [_scaled_ns(r) for r, (ok, _) in zip(plain["reply"]["results"], plain["verdicts"])
         if ok], n)
    metrics["trace.goodput_untraced"] = _goodput(plain)
    metrics["trace.goodput_traced"] = _goodput(a)
    metrics["trace.overhead_x"] = _goodput(plain) / _goodput(a)
    record.update(attempted=n, failed=failed,
                  backend=a["reply"]["backend"],
                  c_backend=skipped or "built and run",
                  ratio_points=ratio,
                  failures=checks.summarize([f for _, fs in a["verdicts"] for f in fs]))
    return metrics


# ---------------------------------------------------------------------------


def _report(record: dict, metrics: dict, units: dict) -> None:
    prov = record["provenance"]
    print(f"nakaber benchmark: workload={prov['workload']} seed={prov['seed']} "
          f"trace={prov['trace']} backend={record.get('backend')} "
          f"nproc={prov['nproc']} cpu={prov['cpu']!r} python={prov['python']} "
          f"commit={prov['commit'][:12]} source={prov['source_sha256']}")
    ref = record["reference"]
    print(f"reference: {ref['points']} points, {ref['mpmath_fallbacks']} mpmath "
          f"fallbacks, fast vs 30-digit max rel {ref['fast_vs_precise_max_rel']:.1e}, "
          f"anchors max rel {ref['anchor_max_rel']:.1e}")
    print(f"ops: {record['attempted']} attempted, {record['failed']} failed "
          f"(fail_frac {record['failed'] / record['attempted']:.4f})")
    for f in record["failures"]:
        m = f"m {f['m'][0]:.3g}..{f['m'][1]:.3g}" if f["m"] else ""
        db = f"dB {f['db'][0]:.1f}..{f['db'][1]:.1f}" if f["db"] else ""
        print(f"  fail {f['route']:<16} {f['kind']:<34} x{f['count']:<5} {m} {db} "
              f"M {f['orders']}")
    if "tail_percentile" in record:
        for key, flag in (("op_p50_ms", "p50_unbounded"), ("op_tail_ms", "tail_unbounded")):
            if record[flag]:
                print(f"  {key}: unbounded (failed ops rank above every success); "
                      f"reported as the timed window")
        print(f"  op_tail_ms is p{record['tail_percentile']:g}; over successful ops "
              f"only it is {record['op_tail_ok_ms']:.6g} ms")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nakaber benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.MAKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nakaber" / "__init__.py").is_file():
        print(f"error: no nakaber sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)

    record = {"provenance": _provenance(args.workload, args.seed, args.seconds, args.trace)}
    try:
        ops = workloads.MAKERS[args.workload](args.seed)
        refs, record["reference"] = _references(ops, args.seed)
        checker = checks.Checker(refs)
        run = traced if args.trace else end_to_end
        metrics = run(args.workload, args.seed, args.seconds, ops, checker, record)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    table = PER_LAYER if args.trace else END_TO_END
    units = {name: unit for name, unit, _ in table}
    metrics = {name: metrics[name] for name, _, _ in table}
    record["metrics"] = metrics
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str))
    _report(record, metrics, units)
    print(json.dumps({"correct": True, "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
