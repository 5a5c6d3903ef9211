"""Session-scoped solution stacks shared by the unit and acceptance tests.

Everything here is deterministic, so building once per run is safe; the
res-512, 401-level stacks are the ones the quantitative checks are
stated against.
"""
import pytest

from lglab.stacker import ALL_MAXIMAL, midpoint_levels, stack
from lglab.weights import make_weight

RES = 512
LEVELS = midpoint_levels(401)

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def stack_constant():
    return stack(make_weight("constant"), levels=LEVELS, res=RES)


@pytest.fixture(scope="session")
def stack_heavy():
    return stack(make_weight("heavy_diamond", 2.0), levels=LEVELS, res=RES)


@pytest.fixture(scope="session")
def stack_disk():
    return stack(make_weight("heavy_disk", 2.0), levels=LEVELS, res=RES)


@pytest.fixture(scope="session")
def stack_tight():
    return stack(make_weight("light_diamond_tight", 0.5), levels=LEVELS,
                 res=RES)


@pytest.fixture(scope="session")
def stack_core_min():
    return stack(make_weight("lite_dmd_heavy_core"), levels=LEVELS, res=RES)


@pytest.fixture(scope="session")
def stack_core_max():
    return stack(make_weight("lite_dmd_heavy_core"), levels=LEVELS, res=RES,
                 policy=ALL_MAXIMAL)


@pytest.fixture(scope="session")
def stack_three_min():
    return stack(make_weight("three_heavy_diamonds", 2.0), levels=LEVELS,
                 res=RES)


@pytest.fixture(scope="session")
def stack_three_max():
    return stack(make_weight("three_heavy_diamonds", 2.0), levels=LEVELS,
                 res=RES, policy=ALL_MAXIMAL)
