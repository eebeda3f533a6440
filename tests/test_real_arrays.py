"""The package's one real-array rule (`ski_rental._floats`) at every input it guards.

Each row below is an input the rule now covers: job values, `prr_batch`'s
lambda, uniform draws, sigma grids and the bounds' eta, opt and n.  A row
either raises the stated `ValueError` or equals the same call made with a
float64 array.
"""

import re

import numpy as np
import pytest

from onlinepred import bounds
from onlinepred.experiments import SchedSweepConfig, SkiSweepConfig
from onlinepred.scheduling import JobSet, prr_batch
from onlinepred.ski_demand import DemandInstance, demand_algorithm_cost
from onlinepred.ski_rental import PolicyKind, SkiPolicy, randomized_buy_day, ski_cost

RANDOMIZED = SkiPolicy(PolicyKind.RANDOMIZED, 0.5)
DEMAND = DemandInstance(10, (2, 1, 2), (1.0, 2.0, 0.0))  # two demand levels
LENGTHS, PREDICTED = np.array([1.0, 2.0]), np.array([2.0, 1.0])
DRAWS = "uniform draws u must lie in [0, 1), got "
LAMBDA = "combination parameter lambda must lie in [0, 1), got "

# (call, what it must give): a str is the whole ValueError message, anything
# else the call it must equal
ROWS = {
    # bytes were read as byte codes: lengths [49, 50]
    "bytes-jobset": (lambda: JobSet.from_lengths(b"12"), "job values must be real numbers, got b'12'"),
    "bytes-prr-batch": (lambda: prr_batch(b"12", b"21", 0.5), "job values must be real numbers, got b'12'"),
    # a str was read as its characters, and the first one named
    "str-jobset": (lambda: JobSet.from_lengths("12"), "job values must be real numbers, got '12'"),
    # prr_batch ran "0.5" as PRR at 0.5 and False as round-robin
    "str-lambda": (lambda: prr_batch(LENGTHS, PREDICTED, "0.5"), LAMBDA + "'0.5'"),
    "bool-lambda": (lambda: prr_batch(LENGTHS, PREDICTED, False), LAMBDA + "False"),
    # a list of draws met "can't multiply sequence by non-int of type 'float'"
    "list-draws-ski-cost": (
        lambda: ski_cost(RANDOMIZED, 10, 5, 20.0, [0.1, 0.2]),
        lambda: ski_cost(RANDOMIZED, 10, 5, 20.0, np.array([0.1, 0.2])),
    ),
    "list-draws-buy-day": (
        lambda: randomized_buy_day(10, 0.5, True, [0.1, 0.9]),
        lambda: randomized_buy_day(10, 0.5, True, np.array([0.1, 0.9])),
    ),
    "list-draws-demand": (
        lambda: demand_algorithm_cost(DEMAND, RANDOMIZED, [0.1, 0.2]),
        lambda: demand_algorithm_cost(DEMAND, RANDOMIZED, np.array([0.1, 0.2])),
    ),
    # False was priced as the draw 0.0, and "0.3" met numpy's UFuncTypeError
    "bool-draw-ski-cost": (lambda: ski_cost(RANDOMIZED, 10, 5, 20.0, False), DRAWS + "False"),
    "str-draw-ski-cost": (lambda: ski_cost(RANDOMIZED, 10, 5, 20.0, "0.3"), DRAWS + "'0.3'"),
    "bool-draw-buy-day": (lambda: randomized_buy_day(10, 0.5, True, False), DRAWS + "False"),
    "str-draw-buy-day": (lambda: randomized_buy_day(10, 0.5, True, "0.3"), DRAWS + "'0.3'"),
    # a scalar grid met "'float' object is not iterable"
    "scalar-ski-grid": (
        lambda: SkiSweepConfig(sigma_grid=5.0), "sigma grid must be a sequence of numbers, got 5.0"
    ),
    "scalar-sched-grid": (
        lambda: SchedSweepConfig(sigma_grid=5.0), "sigma grid must be a sequence of numbers, got 5.0"
    ),
    # the bounds compared eta, opt and n as given: a list met "'>=' not
    # supported between instances of 'list' and 'int'", and a bool array
    # was counted as 1
    "list-eta-naive": (
        lambda: bounds.naive_ski_bound([1.0], 2.0),
        lambda: bounds.naive_ski_bound(np.array([1.0]), 2.0),
    ),
    "list-opt-det": (
        lambda: bounds.det_ski_bound(0.5, 1.0, [2, 4.0]),
        lambda: bounds.det_ski_bound(0.5, 1.0, np.array([2.0, 4.0])),
    ),
    "list-n-round-robin": (
        lambda: bounds.sched_guarantee("round-robin", [1, 3], 0.0),
        lambda: bounds.sched_guarantee("round-robin", np.array([1.0, 3.0]), 0.0),
    ),
    "list-eta-spjf": (
        lambda: bounds.spjf_bound(2, [0.0, 1.0]),
        lambda: bounds.spjf_bound(2, np.array([0.0, 1.0])),
    ),
    "bool-n-spjf": (
        lambda: bounds.spjf_bound(np.array([True]), 1.0), "n must be a real number, got True"
    ),
    "bool-eta-prr": (
        lambda: bounds.sched_guarantee("prr", 2, False, 0.5), "eta must be a real number, got False"
    ),
    "str-opt-rand": (
        lambda: bounds.rand_ski_bound(10, 0.5, 1.0, "2"), "opt must be a real number, got '2'"
    ),
    "bool-eta-break-even": (
        lambda: bounds.ski_guarantee(SkiPolicy(PolicyKind.DETERMINISTIC, 1.0), 10, [True], 2.0),
        "eta must be a real number, got True",
    ),
}


@pytest.mark.parametrize("name", sorted(ROWS))
def test_every_real_input_follows_one_rule(name):
    call, expected = ROWS[name]
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            call()
    else:
        np.testing.assert_array_equal(call(), expected())


def test_draws_are_taken_in_float64():
    """A float32 draw picks the day of its float64 value; in float32 it picked day 52."""
    draw = np.float32(0.10358763)
    assert randomized_buy_day(100, 0.5, False, draw) == 51
    assert randomized_buy_day(100, 0.5, False, float(draw)) == 51
    for draws in (np.array([draw]), np.array([float(draw)])):
        assert ski_cost(RANDOMIZED, 100, 60, 0.0, draws).tolist() == [150.0]  # b + 51 - 1
