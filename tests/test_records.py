"""The record contract: every record class of the package is a plain class
whose constructor parameters are its fields, in order. Positional and
keyword construction agree, defaults hold (a default list is a new list
per record), the read-only records refuse assignment and deletion with
AttributeError, equality and hashing are by identity, and the repr names
the class and the fields that are not arrays. A record keeps its own
copy of every array the caller passed."""

import inspect

import numpy as np
import pytest

from mfkalman import (
    BarQuantities,
    EmpiricalStats,
    GainSchedule,
    GradientField,
    InitialMeasure,
    OptimizationReport,
    PathEnsemble,
    RiccatiSolution,
    Scenario,
    ScenarioError,
    TimeGrid,
    build_scenario,
    classical_scenario,
    dirac_measure,
    make_grid,
    measure_averages,
)
from mfkalman.covariance import _Averaged
from mfkalman.simulation import _Moments
from mfkalman.validation import CriterionResult

GRID = make_grid(1.0, 4)
ARR = np.linspace(0.0, 1.0, 5)
SCEN = classical_scenario(steps=4)


def _fields(record):
    return [getattr(record, name) for name in vars(record)]


# class -> (positional arguments of every field, the defaults of the
# fields left out when only the required ones are given)
RECORDS = {
    TimeGrid: ([1.0, 4, GRID.nodes, 0.25], {}),
    InitialMeasure: ([[[0.0], [1.0]], [0.25, 0.75]], {}),
    Scenario: (_fields(SCEN), {}),
    BarQuantities: (_fields(measure_averages(SCEN)), {}),
    GainSchedule: ([GRID, ARR], {}),
    GradientField: ([GRID, ARR, ARR + 1, ARR + 2, 3.0],
                    {"curvature": None, "diagonal_step": None, "cost": None}),
    _Averaged: ([object(), ARR, ARR + 1, ARR + 2, 3.0], {}),
    OptimizationReport: ([GainSchedule(GRID, ARR), [2.0, 1.0], [0.5, 0.1], [1.0], [2],
                          [0.01], 0.1, 1, True, 1.0, "done", [["armijo"]]],
                         {"message": "", "rejected_trials": []}),
    RiccatiSolution: ([GRID, ARR, ARR + 1, ARR + 2], {"mean_variance": None}),
    PathEnsemble: ([GRID, 7, 20, np.arange(5)] + [np.zeros((1, 1, 5, 1))] * 4
                   + [np.zeros((1, 5, 1)), np.zeros((1, 5, 1, 1)), np.zeros((1, 5, 1))], {}),
    EmpiricalStats: ([np.zeros((1, 5, 1)), np.zeros((1, 5, 1, 1)), np.ones((1, 5, 1)),
                      np.ones((1, 5, 1))], {}),
    _Moments: ([20, np.zeros((1, 5, 1)), np.zeros((1, 5, 1, 1)), np.zeros((1, 5, 1)),
                np.zeros((1, 5, 1))], {}),
    CriterionResult: (["C1", "kernel correctness", True, ["semigroup ok"]], {"details": []}),
}
MUTABLE = {_Moments, CriterionResult}
# constructor arguments that the checks of a record refuse
REFUSED = {
    GainSchedule: [{"grid": GRID, "values": np.zeros((5, 2))},
                   {"grid": GRID, "values": np.zeros(4)},
                   {"grid": GRID, "values": np.where(ARR > 0.5, np.nan, ARR)},
                   {"grid": GRID, "values": np.where(ARR > 0.5, np.inf, ARR)}],
    InitialMeasure: [{"points": [[0.0], [1.0]], "weights": [1.0, -0.5]}],
}


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b, equal_nan=True)
    return a is b or a == b


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    args, defaults = RECORDS[cls]
    names = list(inspect.signature(cls).parameters)
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    # the fields are the constructor's parameters, in order
    assert list(vars(by_position)) == list(vars(by_keyword)) == names
    assert all(_same(getattr(by_position, n), getattr(by_keyword, n)) for n in names)

    required = len(names) - len(defaults)
    assert names[required:] == list(defaults)
    first, second = cls(*args[:required]), cls(*args[:required])
    for name, value in defaults.items():
        assert getattr(first, name) == value
        if isinstance(value, list):
            assert getattr(first, name) is not getattr(second, name)

    # equality and hashing by identity
    assert by_position == by_position and by_position != by_keyword
    assert len({by_position, by_keyword}) == 2

    shown = ", ".join(f"{n}={getattr(by_position, n)!r}" for n in names
                      if not isinstance(getattr(by_position, n), np.ndarray))
    assert repr(by_position) == f"{cls.__name__}({shown})"

    if cls in MUTABLE:
        setattr(by_position, names[-1], args[-1])
        return
    for name in names + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(by_position, name, None)
        with pytest.raises(AttributeError):
            delattr(by_position, name)
    assert all(_same(getattr(by_position, n), getattr(by_keyword, n)) for n in names)


@pytest.mark.parametrize("cls, kwargs", [pytest.param(cls, kwargs, id=f"{cls.__name__}-{k}")
                                         for cls, cases in REFUSED.items()
                                         for k, kwargs in enumerate(cases)])
def test_record_checks_hold_in_both_forms(cls, kwargs):
    with pytest.raises(ScenarioError):
        cls(*kwargs.values())
    with pytest.raises(ScenarioError):
        cls(**kwargs)


def _caller_cases():
    """case -> (the caller's arrays, the record built from them, the
    record's fields that hold them)."""
    flat, cube = np.linspace(0.1, 0.5, 5), np.full((5, 1, 1), 0.5)
    points, weights = np.array([[-1.0], [1.0]]), np.array([0.25, 0.75])
    Q, Q0 = np.array([[2.0]]), np.array([[3.0]])
    return {
        "GainSchedule-flat": ((flat,), GainSchedule(GRID, flat), ("values",)),
        "GainSchedule-cube": ((cube,), GainSchedule(GRID, cube), ("values",)),
        "InitialMeasure": ((points, weights), InitialMeasure(points, weights),
                           ("points", "weights")),
        "Scenario": ((Q, Q0), build_scenario(GRID, measure=dirac_measure(0.0), Q=Q, Q0=Q0),
                     ("Q", "Q0")),
    }


@pytest.mark.parametrize("case", sorted(_caller_cases()))
def test_record_keeps_no_caller_array(case):
    # a flat gain and the measure's weights were views of the caller's
    # arrays, a 3-D gain and the atom points were frozen in the caller's
    # hands, and build_scenario kept the caller's Q and Q0 writeable, so
    # Q[0, 0] = -5 made the scenario's Q indefinite after its SPD check
    given, record, fields = _caller_cases()[case]
    kept = [getattr(record, name).copy() for name in fields]
    for arr in given:
        assert arr.flags.writeable
        arr *= -5.0
    for name, before in zip(fields, kept):
        np.testing.assert_array_equal(getattr(record, name), before)
        assert not getattr(record, name).flags.writeable
