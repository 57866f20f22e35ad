"""Shared test plumbing.

Collects one line per acceptance check so the end of the run shows a
compact pass/fail table with the measured values, and gives the tests
the three-argument incomplete beta.
"""

from nakaber import _purekernels as kernels

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(index: int, ok: bool, detail: str) -> None:
    line = f"criterion {index:2d} {'PASS' if ok else 'FAIL'} | {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b) from the kernel, with log B(a, b) taken for the call."""
    return kernels.reg_inc_beta(x, a, b, kernels.log_beta(a, b))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
