"""Property test: run_plan results do not depend on the worker count."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cbcnoise import ExperimentPlan, run_plan  # noqa: E402
from cbcnoise.amplifier import KINDS  # noqa: E402
from cbcnoise.engine import EXPERIMENTS  # noqa: E402

# small records for every experiment in the table
RECORDS = {
    "cbc": st.fixed_dictionaries({"N": st.integers(2, 40), "n": st.sampled_from([100.0, 1000.0]),
                                  "xi": st.floats(1.0, 4.0)}),
    "amp": st.fixed_dictionaries({"G": st.floats(1.0, 9.0), "kind": st.sampled_from(KINDS)}),
    "cascade": st.fixed_dictionaries({"G": st.floats(1.0, 9.0), "stages": st.integers(1, 3)}),
    "lock": st.fixed_dictionaries({"N": st.integers(2, 6), "n": st.sampled_from([100.0, 1e4]),
                                   "drift_var": st.sampled_from([0.0, 1e-4]),
                                   "intervals": st.integers(1, 20),
                                   "init_spread": st.sampled_from([0.0, 0.05])}),
    "gamma": st.fixed_dictionaries({"N": st.integers(1, 40),
                                    "phase_var": st.floats(1e-3, 0.05)}),
}


def test_hypothesis_covers_the_table():
    assert set(RECORDS) == set(EXPERIMENTS)


@st.composite
def plans(draw):
    experiment = draw(st.sampled_from(sorted(EXPERIMENTS)))
    grid = draw(st.lists(RECORDS[experiment], min_size=1, max_size=3))
    # 70 000 trials span two chunks at every width drawn here
    trials = draw(st.sampled_from([2, 1500, 5000, 70_000]))
    return ExperimentPlan(experiment, tuple(grid), trials, draw(st.integers(0, 2**32)))


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(plans())
def test_run_plan_identical_for_any_worker_count(plan):
    serial = run_plan(plan, workers=1).points
    for workers in (2, 3):
        assert run_plan(plan, workers=workers).points == serial
