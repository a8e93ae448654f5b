import pytest

from sectorsearch.errors import InputError
from sectorsearch.geometry import grid
from sectorsearch.traffic import FlightPlan, dwell_values, validate, visited_path


@pytest.fixture
def path_geometry():
    return grid(4, 1, dim=2)


def test_valid_plan(path_geometry):
    plan = FlightPlan(((0, 0, 50), (1, 50, 130)))
    validate(plan, path_geometry)


def test_zero_dwell_rejected(path_geometry):
    with pytest.raises(InputError, match="leg 0"):
        validate(FlightPlan(((0, 0, 0),)), path_geometry)


def test_time_gap_rejected(path_geometry):
    with pytest.raises(InputError, match="leg 1"):
        validate(FlightPlan(((0, 0, 50), (1, 60, 130))), path_geometry)


def test_non_adjacent_rejected(path_geometry):
    with pytest.raises(InputError, match="not adjacent"):
        validate(FlightPlan(((0, 0, 50), (2, 50, 130))), path_geometry)


def test_revisit_rejected():
    g = grid(3, 1, dim=2)
    plan = FlightPlan(((0, 0, 50), (1, 50, 90), (0, 90, 130)))
    with pytest.raises(InputError, match="revisited"):
        validate(plan, g)


def test_empty_plan_rejected(path_geometry):
    with pytest.raises(InputError, match="empty"):
        validate(FlightPlan(()), path_geometry)


def test_dwell_values():
    plan = FlightPlan(((0, 0, 50), (1, 50, 130), (2, 130, 260)))
    assert dwell_values(plan) == [50, 80, 130]
    assert dwell_values(FlightPlan(((0, 0, 120),))) == [120]
    assert dwell_values(FlightPlan(())) == []


def test_visited_path():
    plan = FlightPlan(((0, 0, 50), (1, 50, 130), (2, 130, 260)))
    p = visited_path(plan)
    assert p.interior == (0, 1, 2)
    assert visited_path(FlightPlan(((5, 0, 9),))).interior == (5,)


def test_dwell_sum_equals_span(path_geometry):
    plan = FlightPlan(((0, 7, 50), (1, 50, 130), (2, 130, 260)))
    validate(plan, path_geometry)
    assert sum(dwell_values(plan)) == plan.legs[-1][2] - plan.legs[0][1]
    assert len(visited_path(plan).interior) == len(plan.legs)
