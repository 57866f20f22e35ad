"""perfbench's per-layer tracer against the current library.

The tracer wraps nakaber's kernels and routes by name and reads their
results (a kernel's evaluation count and convergence flag), so a
renamed kernel or a changed return type breaks `perfbench/run.py
--trace 1`.  `install` patches module globals for good, so it runs in a
fresh interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import tracer
t = tracer.Tracer()
tracer.install(t)
from nakaber import aber, harness, specfun
from nakaber.aber import TruncationPolicy
from nakaber.channel import ChannelParams, Modulation
ch, mod = ChannelParams(0.6, 10.0), Modulation(16)
aber.aber_closed_with_terms(ch, mod, TruncationPolicy.fixed(5))
# 72 terms cancel at m = 80.5: the fixed-point series quadrature
aber.r2_series(ChannelParams(80.5, 1000.0), Modulation(4).c1, 71)
aber.aber_lu_closed(ch, mod)
aber.aber_expq_closed(ch, mod)
aber.oracle_result(ch, mod)
aber.r2_quadrature(ch, mod.c1)
specfun.appell_f1(2.0, 1.0, 0.5, 2.5, -0.6, -1.6)
harness.run_selftest(["termination"])
print(json.dumps(t.snapshot()[0]))
"""


def test_tracer_counts_kernel_and_oracle_evaluations():
    probe = PROBE.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True)
    stats = json.loads(out.stdout)
    for span in ("kernels.r2_term_scaled", "kernels.r2_integral",
                 "kernels.appell_f1", "aber.oracle"):
        assert stats[span]["evals"] > 0, span
    for span in ("aber.closed5", "aber.lu", "aber.expq"):
        assert stats[span]["calls"] == 1, span
