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
    """Partition counts: coefficients of prod 1/(1-q^k), the reciprocal of
    the pentagonal series sum_k (-1)^k q^{k(3k-1)/2}, one sparse division
    by genfunc's routine.  No command needs p(n): it is the acceptance
    suite's comparison for the overpartition growth."""
    if order < 0:
        raise ValueError("order must be >= 0")
    pentagonal = []
    k = 0
    while k * (3 * k - 1) // 2 <= order:
        sign = genfunc._sign(k)
        pentagonal += [(k * (3 * k - 1) // 2, sign), (k * (3 * k + 1) // 2, sign)]
        k += 1
    return genfunc._div_sparse([int(n == 0) for n in range(order + 1)],
                               genfunc._sparse(pentagonal[1:], order + 1))


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
