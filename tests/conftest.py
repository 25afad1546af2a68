import re

import pytest
from hypothesis import HealthCheck, settings

from actionlab import minimize

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def lockstep_runs(monkeypatch) -> list[int]:
    """The number of paths of each lockstep minimizer run the test makes, read
    from the last-stage calls of `minimize._stage` (one per run)."""
    runs = []
    stage = minimize._stage

    def counting(obj, Z, cfg, last):
        if last:
            runs.append(len(Z))
        return stage(obj, Z, cfg, last)

    monkeypatch.setattr(minimize, "_stage", counting)
    return runs


_CRITERION = re.compile(r"test_criterion_(\d+)\w*")
_outcomes: dict[str, tuple[int, str]] = {}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    m = _CRITERION.search(report.nodeid)
    if not m:
        return
    _outcomes[report.nodeid] = (int(m.group(1)), report.outcome)


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid, (num, outcome) in sorted(_outcomes.items(),
                                         key=lambda kv: (kv[1][0], kv[0])):
        short = nodeid.split("::")[-1]
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{status}  criterion {num}: {short}")
