"""Command-line front end.

Subcommands: aber (single point), sweep (SNR grid to CSV), discrepancy
(accuracy vs the quadrature reference), bench (timing ratios), selftest
(invariant suite).  Exit codes: 0 success, 1 selftest failure, 2 usage
error, 3 numerical non-convergence, 4 I/O failure.

Each command imports what it runs: aber needs only the routes, so the
harness (and csv) load inside the commands and helpers that use them.
A CLI process pays for every module it imports, every time.
"""

from __future__ import annotations

import argparse
import sys

from .aber import AberMethod, TruncationPolicy
from .channel import ChannelParams, Modulation, QApproxVariant, db_to_linear
from .quad import DEFAULT_SPEC, ConvergenceError, QuadratureSpec

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_USAGE = 2
EXIT_NONCONVERGED = 3
EXIT_IO = 4


def _fmt(x) -> str:
    """CSV cell formatting: floats at 17 significant digits."""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _parse_range(text: str) -> list[float]:
    from .harness import db_grid

    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--snr-db-range wants a:b:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"--snr-db-range wants numeric a:b:step, got {text!r}") from None
    try:
        return db_grid(start, stop, step)
    except ValueError as exc:
        raise ValueError(f"--snr-db-range {exc}") from None


def _parse_expq(text: str | None) -> QApproxVariant | None:
    if text is None:
        return None
    pairs = []
    for item in text.split(","):
        w, sep, r = item.partition(":")
        if not sep:
            raise ValueError(f"--expq wants w1:r1,w2:r2,..., got {text!r}")
        try:
            pairs.append((float(w), float(r)))
        except ValueError:
            raise ValueError(f"--expq pair {item!r} is not numeric") from None
    try:
        return QApproxVariant.from_pairs(pairs)
    except ValueError as exc:
        raise ValueError(f"--expq: {exc}") from None


def _parse_terms_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise ValueError(f"--terms wants integers, got {text!r}") from None


def _check_jobs(jobs: int) -> None:
    # grids run in one thread; --jobs stays accepted (and range-checked)
    # while the perfbench cli workload still passes it
    if not 1 <= jobs <= 64:
        raise ValueError(f"jobs must lie in [1, 64], got {jobs}")


def _oracle_spec(args) -> QuadratureSpec:
    return QuadratureSpec(rel_tol=args.rel_tol)


def _truncation(args) -> TruncationPolicy:
    if args.adaptive_tol is not None:
        return TruncationPolicy.adaptive(args.adaptive_tol)
    return TruncationPolicy.fixed(args.terms)


def _parse_methods(text: str, args) -> tuple[AberMethod, ...]:
    methods = []
    for raw in text.split(","):
        name = raw.strip()
        if name == "closed":
            methods.append(AberMethod.closed_form(_truncation(args)))
        elif name == "lu":
            methods.append(AberMethod.lu_closed())
        elif name == "oracle":
            methods.append(AberMethod.oracle(_oracle_spec(args)))
        elif name == "expq":
            methods.append(AberMethod.expq_closed(_parse_expq(args.expq)))
        else:
            raise ValueError(f"unknown method {name!r} "
                             "(choose from closed, lu, oracle, expq)")
    return tuple(methods)


# ---------------------------------------------------------------------------
# config file support: simple key=value lines mirroring the flags; flags
# given on the command line win on conflict


def _config_tokens(path: str) -> list[str]:
    tokens: list[str] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key = key.strip().replace("_", "-")
            value = value.strip()
            if not key:
                raise ValueError(f"{path}:{lineno}: empty key")
            if value.lower() in ("true", "yes", "on") and key in ("no-timing", "list"):
                tokens.append(f"--{key}")
            elif value.lower() in ("false", "no", "off") and key in ("no-timing", "list"):
                continue
            else:
                # one token, so a value such as -12:-8:2 is not read as a flag
                tokens.append(f"--{key}={value}")
    return tokens


def _merge_config(argv: list[str]) -> list[str]:
    """Splice config-derived tokens in right after the subcommand so any
    explicit flags, parsed later, override them."""
    # argparse finds the path as the full parser does, under any prefix
    # of --config; one without a value is left to the full parser
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", nargs="?")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return argv
    tokens = _config_tokens(path)
    for i, tok in enumerate(argv):
        if not tok.startswith("-"):
            return argv[: i + 1] + tokens + argv[i + 1:]
    return argv + tokens


# ---------------------------------------------------------------------------
# output: a plot script and CSV, both from a harness row type


_PLOT_TEMPLATE = '''"""Self-contained result plot; data inlined below.

Usage: python {script_name} [--save out.png]
"""
import argparse
from math import inf

import matplotlib.pyplot as plt

ROWS = {rows!r}

def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--save", default=None, help="write the figure instead of showing it")
    opts = ap.parse_args()
    fig, ax = plt.subplots(figsize=(7.2, 4.8))
    series = {{}}
    for row in ROWS:
        if row[{y}] == -inf:
            continue  # an exact match has no place on a dB axis
        xs, ys = series.setdefault(row[{key}], ([], []))
        xs.append(row[{x}])
        ys.append(row[{y}])
    for key in sorted(series):
        ax.{draw}(*series[key], marker={marker!r}, markersize={size}, label={legend!r}.format(key))
    for level in {lines!r}:
        ax.axhline(level, color="k", linewidth=0.8, linestyle="--")
    ax.set_xlabel({xlabel!r})
    ax.set_ylabel({ylabel!r})
    ax.grid(True, which="both", alpha=0.3)
    ax.legend()
    fig.tight_layout()
    if opts.save:
        fig.savefig(opts.save, dpi=150)
    else:
        plt.show()

if __name__ == "__main__":
    main()
'''

# per command: one series per value of the key column, y against x
# drawn by an Axes method (which sets the y scale), the legend's format
# for a key, and dashed horizontal lines (bench's break-even ratio)
_PLOTS = {
    "sweep": dict(key="method", x="snr_db", y="value", draw="semilogy",
                  marker="o", size=3, legend="{}", lines=(),
                  xlabel="mean SNR (dB)", ylabel="average BER"),
    "discrepancy": dict(key="candidate_method", x="snr_db", y="epsilon_db",
                        draw="plot", marker="o", size=3, legend="{}", lines=(),
                        xlabel="mean SNR (dB)",
                        ylabel="discrepancy vs reference (dB)"),
    "bench": dict(key="snr_db", x="n_terms", y="epsilon_t", draw="plot",
                  marker="s", size=4, legend="{:g} dB", lines=(1.0,),
                  xlabel="series terms kept (N)",
                  ylabel="oracle/closed time ratio"),
}


def _emit_plot(path: str, kind: str, fields: tuple[str, ...], rows) -> None:
    plot = dict(_PLOTS[kind])
    for column in ("key", "x", "y"):
        plot[column] = fields.index(plot[column])
    src = _PLOT_TEMPLATE.format(script_name=path.rsplit("/", 1)[-1],
                                rows=[tuple(r) for r in rows], **plot)
    with open(path, "w") as fh:
        fh.write(src)


def _write_outputs(args, row_type, rows, *, no_timing: bool = False) -> int:
    """End a grid command: the plot script from the full rows, if one
    was asked for, then the CSV, headed by the row type's fields.
    no_timing drops the last column, the wall time."""
    import csv

    fields = row_type._fields
    if args.emit_plot:
        _emit_plot(args.emit_plot, args.command, fields, rows)
    width = len(fields) - no_timing

    def emit(fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields[:width])
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row[:width]])

    if args.out is None or args.out == "-":
        emit(sys.stdout)
    else:
        with open(args.out, "w", newline="") as fh:
            emit(fh)
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands


def _cmd_aber(args) -> int:
    methods = _parse_methods(args.method, args)
    if len(methods) != 1:
        raise ValueError("aber evaluates exactly one method; use sweep for several")
    method = methods[0]
    ch = ChannelParams(args.m, db_to_linear(args.snr_db))
    mod = Modulation(args.mod)
    rv = method.evaluate(ch, mod)
    extra = ""
    if rv.kind in ("truncated", "untruncated"):
        extra = f" terms={rv.terms_used}"
    elif rv.kind == "exact":
        # evaluate raises rather than return an unconverged oracle value
        extra = f" error_estimate={rv.error_estimate:.3e} converged=True"
    print(f"aber={_fmt(rv.value)} method={method.label()} m={args.m:g} "
          f"mod={args.mod} snr_db={args.snr_db:g}{extra}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from .harness import SweepRow, run_sweep

    _check_jobs(args.jobs)
    rows = run_sweep(args.m, args.mod, _parse_range(args.snr_db_range),
                     _parse_methods(args.method, args))
    return _write_outputs(args, SweepRow, rows, no_timing=args.no_timing)


def _cmd_discrepancy(args) -> int:
    from .harness import DiscrepancyRow, run_discrepancy

    _check_jobs(args.jobs)
    rows = run_discrepancy(args.m, args.mod, _parse_range(args.snr_db_range),
                           _parse_methods(args.method, args),
                           _oracle_spec(args))
    return _write_outputs(args, DiscrepancyRow, rows)


def _cmd_bench(args) -> int:
    from .harness import BenchRow, run_bench

    if args.snr_db_range:
        snr_dbs = _parse_range(args.snr_db_range)
    elif args.snr_db is not None:
        snr_dbs = [args.snr_db]
    else:
        raise ValueError("bench needs --snr-db or --snr-db-range")
    rows = run_bench(args.m, args.mod, snr_dbs,
                     _parse_terms_list(args.terms), args.reps)
    return _write_outputs(args, BenchRow, rows)


def _cmd_selftest(args) -> int:
    from .harness import run_selftest, selftest_groups

    if args.list:
        for name in selftest_groups():
            print(name)
        return EXIT_OK
    groups = None
    if args.group:
        groups = [g.strip() for item in args.group for g in item.split(",")]
    results = run_selftest(groups)
    failures = 0
    for res in results:
        mark = "ok  " if res.passed else "FAIL"
        print(f"[{mark}] {res.group} :: {res.name} | {res.detail}")
        failures += 0 if res.passed else 1
    print(f"selftest: {len(results)} checks, {failures} failures")
    return EXIT_OK if failures == 0 else EXIT_SELFTEST


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nakaber",
        description="Average BER of square M-QAM over Nakagami-m fading: "
                    "series closed forms vs quadrature reference.")
    subs = parser.add_subparsers(dest="command", required=True)
    p_aber = subs.add_parser("aber", help="evaluate one ABER value")
    p_aber.set_defaults(func=_cmd_aber)
    p_sweep = subs.add_parser("sweep", help="ABER over a dB grid, CSV out")
    p_sweep.set_defaults(func=_cmd_sweep)
    p_disc = subs.add_parser("discrepancy",
                             help="per-method deviation from the quadrature "
                                  "reference, CSV out")
    p_disc.set_defaults(func=_cmd_discrepancy)
    p_bench = subs.add_parser("bench",
                              help="closed-form vs oracle timing at matched "
                                   "5-digit precision, CSV out")
    p_bench.set_defaults(func=_cmd_bench)
    p_self = subs.add_parser("selftest", help="run the invariant suite")
    p_self.set_defaults(func=_cmd_selftest)

    # --method's default and help, per command that evaluates methods
    evaluating = {p_aber: ("closed", "closed | lu | oracle | expq"),
                  p_sweep: ("closed,lu,oracle",
                            "comma list of closed | lu | oracle | expq"),
                  p_disc: ("closed,lu", "comma list of candidate methods")}
    grids = (p_sweep, p_disc, p_bench)

    # each flag is declared once for the commands it serves, in the
    # order --help lists them
    for sub, snr_point, snr_range in ((p_aber, True, False),
                                      (p_sweep, False, True),
                                      (p_disc, False, True),
                                      (p_bench, True, True)):
        sub.add_argument("--m", type=float, required=True,
                         help="Nakagami fading figure m > 0")
        sub.add_argument("--mod", type=int, required=True,
                         help="QAM order (4, 16, 64, 256, 1024, 4096)")
        if snr_point:
            sub.add_argument("--snr-db", type=float, required=not snr_range,
                             help="mean SNR in dB")
        if snr_range:
            sub.add_argument("--snr-db-range", type=str,
                             required=not snr_point,
                             help="dB grid as start:stop:step")
    for sub in evaluating:
        sub.add_argument("--adaptive-tol", type=float, default=None,
                         help="untruncated series: E[Q^2] as one "
                              "hypergeometric sum, its tail below this "
                              "relative tolerance, in [1e-13, 1e-4]; "
                              "overrides --terms")
        sub.add_argument("--rel-tol", type=float,
                         default=DEFAULT_SPEC.rel_tol,
                         help="relative tolerance for oracle quadrature")
        sub.add_argument("--expq", type=str, default=None,
                         help="exponential Q-approx pairs w1:r1,w2:r2,... "
                              "(default: the two-term set)")
    p_self.add_argument("--group", action="append", default=None,
                        help="run only these groups (repeatable or comma list)")
    p_self.add_argument("--list", action="store_true",
                        help="list group names without running")
    for sub in subs.choices.values():
        sub.add_argument("--config", type=str, default=None,
                         help="key=value file mirroring these flags; "
                              "explicit flags win")
    for sub, (methods, methods_help) in evaluating.items():
        sub.add_argument("--method", type=str, default=methods,
                         help=methods_help)
        sub.add_argument("--terms", type=int, default=5,
                         help="series terms kept: n = 0..N")
    p_bench.add_argument("--terms", type=str, default="0,1,2,3,5",
                         help="comma list of series term counts to time")
    p_bench.add_argument("--reps", type=int, default=30,
                         help="timing repetitions per point (>= 10)")
    for sub in grids:
        sub.add_argument("--out", type=str, default=None,
                         help="CSV path (default: stdout)")
    for sub in (p_sweep, p_disc):
        sub.add_argument("--jobs", type=int, default=1,
                         help="accepted and checked to lie in [1, 64], then "
                              "ignored: grids run in one thread")
    p_sweep.add_argument("--no-timing", action="store_true",
                         help="drop the wall-time column (byte-stable CSV)")
    for sub in grids:
        sub.add_argument("--emit-plot", type=str, default=None,
                         help="write a self-contained plot script here")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        argv = _merge_config(argv)
        args = parser.parse_args(argv)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        # argparse reports its own usage errors (and --help) this way
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    try:
        return args.func(args)
    except ConvergenceError as exc:
        detail = ""
        if exc.value is not None:
            detail = (f" (best value {exc.value:.12g}, "
                      f"error estimate {exc.error_estimate:.3e})")
        print(f"error: did not converge: {exc}{detail}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
