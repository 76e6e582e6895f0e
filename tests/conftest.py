from pathlib import Path

import pytest
from hypothesis import strategies as st

from relhoare import machine, specfile

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

_PROBLEMS: dict = {}


def load_problem(name: str) -> specfile.Problem:
    """Parse and build a corpus spec, cached for the whole session."""
    if name not in _PROBLEMS:
        spec = specfile.parse_spec((CORPUS / name).read_text())
        _PROBLEMS[name] = specfile.build_problem(spec, CORPUS)
    return _PROBLEMS[name]


# Small machine states for differential tests: two values per label, so
# random sets of a few states share projections and keys often.
SMALL_LABELS = (
    tuple(machine.reg_label(i) for i in range(3))
    + tuple(machine.mem_label(a) for a in range(3))
    + (machine.FLAG_N, machine.FLAG_Z))
SMALL_STATE_VALUES = st.tuples(
    st.sampled_from((0, 4)), st.booleans(),
    *[st.integers(min_value=0, max_value=1)] * len(SMALL_LABELS))


def small_state(values) -> machine.MachineState:
    """A fresh state from one draw of SMALL_STATE_VALUES: pc, whether the
    trace holds one branch event, and a value for each SMALL_LABELS."""
    pc, branched, *rest = values
    s = machine.zeroed_state()._replace(
        pc=pc, events=(machine.branch_event(0, 8),) if branched else ())
    for label, value in zip(SMALL_LABELS, rest):
        s = s.with_label(label, value)
    return s


@pytest.fixture(scope="session")
def corpus() -> Path:
    return CORPUS


@pytest.fixture(scope="session")
def problems():
    return load_problem


def pytest_runtest_logreport(report):
    # one pass/fail line per acceptance criterion, outside capture
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if not name.startswith("test_criterion"):
        return
    label = name.removeprefix("test_").replace("_", " ")
    print(f"\n[acceptance] {label}: {'PASS' if report.passed else 'FAIL'}")
