"""Correctness checks of every output against the independent reference.

An operation fails when it raises, returns a non-finite value, exits
non-zero, or gives a value outside its route's check.  Each failure is
recorded as (route, kind, m, M, dB) so the summary can trace it to a
defect.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections import defaultdict

# relative tolerance per route; closed(N=5) sits above its 9e-6
# truncation residue so only real defects count
TOL = {"closed5": 1e-3, "closed_adaptive": 1e-8, "lu": 1e-8, "expq": 1e-8,
       "oracle": 1e-8}
REF_KEY = {"closed5": "exact", "closed_adaptive": "exact", "oracle": "exact",
           "lu": "lu", "expq": "expq"}
# routes that approximate nothing: their value is a probability
EXACT_ROUTES = ("closed5", "closed_adaptive", "oracle")
# doubles carry no relative accuracy below the normal range
ATOL = 1e-300
LABELS = {"closed(N=5)": "closed5", "closed(adaptive)": "closed_adaptive",
          "lu": "lu", "oracle": "oracle", "expq(chiani)": "expq"}
METHOD_LABEL = {"closed": "closed(N=5)", "lu": "lu", "oracle": "oracle",
                "expq": "expq(chiani)"}


def value_kind(route: str, value: float, ref: dict) -> str | None:
    """None when value passes route's check at a point with reference ref."""
    if not math.isfinite(value):
        return "nonfinite"
    if route in EXACT_ROUTES and not 0.0 <= value <= 1.0:
        return "out_of_range"
    truth = ref[REF_KEY[route]]
    if abs(value - truth) > TOL[route] * abs(truth) + ATOL:
        return "out_of_tol"
    return None


class Checker:
    def __init__(self, refs: dict):
        self.refs = refs

    def route(self, route: str, result, point) -> str | None:
        """Kind of failure of one route evaluation, or None."""
        if isinstance(result, str):
            return "raised " + result.split(":", 1)[0]
        kind = value_kind(route, result[0], self.refs[point])
        if route == "oracle" and len(result) > 2:
            if not result[2]:
                return "unconverged"
            if kind is not None:
                return "false_converged"
        return kind

    def in_process(self, ops, results):
        """[(ok, failures)] for a series or oracle pass."""
        out = []
        for op, res in zip(ops, results, strict=True):
            point = (op["m"], op["db"], op["M"])
            fails = []
            for route, value in res["routes"].items():
                kind = self.route(route, value, point)
                if kind is not None:
                    fails.append((route, kind, op["m"], op["M"], op["db"]))
            out.append((not fails, fails))
        return out

    def cli(self, ops, results):
        out = []
        for op, res in zip(ops, results, strict=True):
            fails = self._cli_op(op, res)
            out.append((not fails, fails))
        return out

    def _cli_op(self, op, res):
        m, order = op.get("m"), op.get("M")
        where = (m, order, op.get("db", op.get("grid", [None])[0]))
        if res["rc"] != 0:
            return [(_blame(op, res["stderr"]), f"exit {res['rc']}: "
                     + _reason(res["stderr"]), *where)]
        try:
            return getattr(self, "_" + op["cmd"])(op, res["stdout"])
        except (ValueError, KeyError, IndexError) as exc:
            return [(op["cmd"], f"bad output: {exc}", *where)]

    def _aber(self, op, text):
        match = re.search(r"aber=(\S+) method=(\S+)", text)
        if match is None or LABELS.get(match.group(2)) != op["route"]:
            raise ValueError(f"unexpected aber line {text.strip()!r}")
        result = [float(match.group(1))]
        if op["route"] == "oracle":
            result += [0, "converged=True" in text]
        kind = self.route(op["route"], result, (op["m"], op["db"], op["M"]))
        return [] if kind is None else [(op["route"], kind, op["m"], op["M"], op["db"])]

    def _sweep(self, op, text):
        rows = _csv(text, ["snr_db", "method", "value", "terms"])
        want = {(db, METHOD_LABEL[meth]) for db in op["grid"] for meth in op["methods"]}
        got = {(float(r[0]), r[1]) for r in rows}
        if got != want or len(rows) != len(want):
            raise ValueError("sweep rows do not match the requested grid")
        fails = []
        for db, label, value, _ in rows:
            route, db = LABELS[label], float(db)
            # a sweep row is only written for a converged evaluation
            kind = self.route(route, [float(value), 0, True], (op["m"], db, op["M"]))
            if kind is not None:
                fails.append((route, kind, op["m"], op["M"], db))
        return fails

    def _discrepancy(self, op, text):
        rows = _csv(text, ["snr_db", "candidate_method", "epsilon_db"])
        want = {(db, METHOD_LABEL[meth]) for db in op["grid"] for meth in op["methods"]}
        if {(float(r[0]), r[1]) for r in rows} != want or len(rows) != len(want):
            raise ValueError("discrepancy rows do not match the requested grid")
        fails = []
        for db, label, eps in rows:
            route, db, eps = LABELS[label], float(db), float(eps)
            ref = self.refs[(op["m"], db, op["M"])]
            exact, cand = ref["exact"], ref[REF_KEY[route]]
            d = 0.0 if eps == -math.inf else 10.0 ** (eps / 10.0)
            slack = TOL["oracle"] * exact * (1.0 + d) + TOL[route] * cand + ATOL
            if not (math.isfinite(d) and abs(d * exact - abs(exact - cand)) <= slack):
                fails.append(("discrepancy", "epsilon_db off the reference",
                              op["m"], op["M"], db))
        return fails

    def _bench(self, op, text):
        rows = _csv(text, ["snr_db", "n_terms", "t_closed_ns", "t_oracle_ns",
                           "epsilon_t"])
        if [int(r[1]) for r in rows] != [0, 1, 2, 3, 5]:
            raise ValueError("bench rows do not cover N = 0,1,2,3,5")
        for _, _, t_closed, t_oracle, eps in rows:
            t_closed, t_oracle, eps = int(t_closed), int(t_oracle), float(eps)
            if not (t_closed > 0 and t_oracle > 0
                    and abs(eps - t_oracle / t_closed) <= 1e-12 * eps):
                raise ValueError("bench timings are not positive and consistent")
        return []

    def _selftest(self, op, text):
        if not re.search(r"^selftest: \d+ checks, 0 failures$", text, re.M):
            raise ValueError("selftest summary missing")
        return []


def _csv(text: str, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise ValueError(f"expected CSV header {header}")
    return rows[1:]


def _blame(op, stderr: str) -> str:
    match = re.search(r"method (\S+) produced", stderr)
    if match and match.group(1) in LABELS:
        return LABELS[match.group(1)]
    return op.get("route", op["cmd"])


def _reason(stderr: str) -> str:
    line = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    for pattern, reason in (("outside [0, 1]", "value outside [0, 1]"),
                            ("reference must be positive", "reference not positive"),
                            ("did not converge", "did not converge")):
        if pattern in line:
            return reason
    return line[:80]


def summarize(failures) -> list[dict]:
    """Failures grouped by (route, kind) with the region they fall in."""
    groups = defaultdict(list)
    for route, kind, m, order, db in failures:
        groups[(route, kind)].append((m, order, db))
    out = []
    for (route, kind), pts in sorted(groups.items()):
        ms = [p[0] for p in pts if p[0] is not None]
        dbs = [p[2] for p in pts if p[2] is not None]
        out.append({"route": route, "kind": kind, "count": len(pts),
                    "m": [min(ms), max(ms)] if ms else None,
                    "db": [min(dbs), max(dbs)] if dbs else None,
                    "orders": sorted({p[1] for p in pts if p[1] is not None})})
    return out
