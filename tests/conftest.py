"""Shared fixtures: cached eigen solves, bump cache, probe family.

The profile solves are among the expensive parts of the suite, so they
are computed once per session and handed out through a callable fixture.  Wall time per pair is
recorded because two of the end-to-end checks assert runtime budgets.
"""

from __future__ import annotations

import functools
import time

import numpy as np
import pytest
from hypothesis import settings

from gevreylab import (
    OperatorParams,
    SampledFunction,
    make_gevrey_bump,
    probe_family,
    solve_nonlinear_eigen,
)

settings.register_profile("lab", deadline=None, max_examples=50)
settings.load_profile("lab")

#: The CLI's default growth ladder (--n-ladder), N = 10^2 .. 10^6.
LADDER = (10**2, 10**3, 10**4, 10**5, 10**6)

def with_sample(u: SampledFunction, value: float, at: int = 2000) -> SampledFunction:
    """``u`` with its sample ``at`` set to ``value``."""
    values = np.array(u.values)
    values[at] = value
    return SampledFunction(u.origin, u.spacing, values, support_radius=u.support_radius)


#: Wall-clock seconds of the first solve per (p, q), for budget checks.
SOLVE_SECONDS: dict[tuple[int, int], float] = {}

#: The end-to-end gate also carries a whole-suite wall-clock budget.
_SESSION_T0 = time.perf_counter()
_SUITE_BUDGET_SECONDS = 600.0


def pytest_sessionfinish(session, exitstatus):
    elapsed = time.perf_counter() - _SESSION_T0
    if exitstatus == 0 and elapsed > _SUITE_BUDGET_SECONDS:
        session.exitstatus = 1
        print(
            f"\nsuite wall time {elapsed:.0f}s exceeds the "
            f"{_SUITE_BUDGET_SECONDS:.0f}s budget"
        )


def pytest_terminal_summary(terminalreporter):
    elapsed = time.perf_counter() - _SESSION_T0
    terminalreporter.write_line(
        f"suite wall time {elapsed:.0f} s of the {_SUITE_BUDGET_SECONDS:.0f} s budget"
    )


@functools.lru_cache(maxsize=None)
def _solve(p: int, q: int):
    start = time.perf_counter()
    pairs = tuple(solve_nonlinear_eigen(OperatorParams(p, q)))
    SOLVE_SECONDS[(p, q)] = time.perf_counter() - start
    return pairs


@functools.lru_cache(maxsize=None)
def _bump(s: float):
    return make_gevrey_bump(s)


@pytest.fixture(scope="session")
def solve():
    """Callable (p, q) -> tuple of eigenpairs, cached across the session."""
    return _solve


@pytest.fixture(scope="session")
def bump_of():
    """Callable s -> order-s test bump on the default grid, cached."""
    return _bump


@pytest.fixture(scope="session")
def probes():
    return probe_family()


@pytest.fixture(scope="session")
def gaussian_probe():
    """Smooth unit Gaussian on a wide grid, comfortably zero at the ends."""
    from gevreylab import sample

    return sample(
        lambda x: np.exp(-(x**2) / 2.0), [(-8.0, 8.0, 4001)], support_radius=8.0
    )
