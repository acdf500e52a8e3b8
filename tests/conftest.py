"""Shared test configuration.

The terminal summary prints one PASS/FAIL line per acceptance criterion so
a full run ends with an explicit checklist. The fixtures set the CPUs that
a run may fork over, count its forks and pins, and bound a test's time.
"""

import os
import re
import signal

import pytest

from matscale import BLAS_THREAD_ENV, _workers


@pytest.fixture
def pins(monkeypatch):
    """The CPU sets that this process pins itself to; no pin takes effect."""
    calls = []
    monkeypatch.setattr(_workers.os, "sched_setaffinity",
                        lambda pid, cpus: calls.append(set(cpus)), raising=False)
    return calls


@pytest.fixture
def cpus(monkeypatch, pins):
    """cpus(k): the process may use k CPUs, and the BLAS runs on one thread."""
    def set_cpus(k):
        for name in BLAS_THREAD_ENV:
            monkeypatch.setenv(name, "1")
        monkeypatch.setattr(_workers.os, "sched_getaffinity", lambda pid: set(range(k)),
                            raising=False)
    return set_cpus


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls that the run makes; each still forks."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(_workers.os, "fork", counting_fork)
    return calls


@pytest.fixture
def deadline():
    """The test fails with TimeoutError, not a hang, when it runs past 20 s."""
    def expire(signum, frame):
        raise TimeoutError("the test ran past its 20 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


_ACCEPTANCE_FILE = "test_acceptance.py"


def _criterion_name(nodeid: str) -> str:
    name = nodeid.split("::")[-1]
    name = re.sub(r"^test_", "", name)
    name = re.sub(r"\[.*\]$", "", name)
    return name.replace("_", " ")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if _ACCEPTANCE_FILE in nodeid and getattr(report, "when", "call") == "call":
                status = "PASS" if outcome == "passed" else "FAIL"
                lines.append((nodeid, f"acceptance {status}: {_criterion_name(nodeid)}"))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)
