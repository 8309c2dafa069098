import time

import pytest

from oddbalanced import genfunc

# Build times of the shared exact expansions, recorded so the acceptance
# budget check can report the real cost paid in this session.
BUILD_TIMES = {}

# (status, criterion, detail) lines collected by the acceptance suite and
# echoed after the run.
ACCEPTANCE_RESULTS = []


def expand_partition(order):
    """Partition counts p(n) for n <= order, the coefficients of
    prod 1/(1-q^k), by Euler's pentagonal recurrence
    p(n) = sum_{k>=1} (-1)^(k+1) (p(n - k(3k-1)/2) + p(n - k(3k+1)/2)).
    No command needs p(n): it is the acceptance suite's comparison for the
    overpartition growth."""
    if order < 0:
        raise ValueError("order must be >= 0")
    p = [1] + [0] * order
    for n in range(1, order + 1):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= n:
            term = p[n - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= n:
                term += p[n - k * (3 * k + 1) // 2]
            total += term if k & 1 else -term
            k += 1
        p[n] = total
    return p


def _timed(name, builder):
    t0 = time.perf_counter()
    out = builder()
    BUILD_TIMES[name] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def rank_table_604():
    return _timed("rank_table_604", lambda: genfunc.expand_V_rank(604))


@pytest.fixture(scope="session")
def totals_3600():
    return _timed("totals_3600", lambda: genfunc.expand_v_totals(3600))


@pytest.fixture(scope="session")
def overpartitions_3601():
    return _timed("overpartitions_3601", lambda: genfunc.expand_overpartition(3601))


@pytest.fixture(scope="session")
def partitions_3600():
    return _timed("partitions_3600", lambda: expand_partition(3600))


@pytest.fixture(scope="session")
def rank_table_60():
    return genfunc.expand_V_rank(60)


@pytest.fixture(scope="session")
def acceptance_log():
    def log(criterion, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        ACCEPTANCE_RESULTS.append(f"[{status}] {criterion}" + (f" ({detail})" if detail else ""))
    return log


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
