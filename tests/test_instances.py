"""The two instance types, `JobSet` and `DemandInstance`: what their constructors
take, and that every instance owns its arrays.

Each row of ``ACCEPTED`` pins the arrays an odd input gives, and each row of
``REFUSED`` the exact `ValueError` message it raises.  Copies and pickles are
built again through the constructor, so a tampered pickle is refused too.
"""

import copy
import pickle

import numpy as np
import pytest

from onlinepred.scheduling import JobSet
from onlinepred.ski_demand import DEMAND_MAX, DemandInstance, decompose


def read_only(array):
    array.flags.writeable = False
    return array


def fields(instance):
    if isinstance(instance, JobSet):
        return instance.lengths, instance.predicted
    return instance.demand, instance.predicted


def jobs(lengths):
    return JobSet.from_lengths(lengths)


def demand(days, predicted=(1.0, 2.0)):
    return DemandInstance(3, days, predicted)


def predicted(values):
    return DemandInstance(3, [1, 2], values)


# (build, fields): a job set's lengths and predictions in float64, or an
# instance's demand in int64 and predictions in float64
ACCEPTED = {
    "jobs-numpy-int": (lambda: jobs([np.int64(3), 2]), ([3.0, 2.0], [3.0, 2.0])),
    "jobs-2-to-63": (lambda: jobs([2**63, 1]), ([2.0**63, 1.0], [2.0**63, 1.0])),
    "jobs-2-to-70": (lambda: jobs([2**70, 1]), ([2.0**70, 1.0], [2.0**70, 1.0])),
    "jobs-int64": (lambda: jobs(np.array([2, 3])), ([2.0, 3.0], [2.0, 3.0])),
    "jobs-uint64": (lambda: jobs(np.array([2, 3], np.uint64)), ([2.0, 3.0], [2.0, 3.0])),
    "jobs-uint64-2-to-63": (lambda: jobs(np.array([2**63], np.uint64)), ([2.0**63], [2.0**63])),
    "jobs-int8": (lambda: jobs(np.array([2, 3], np.int8)), ([2.0, 3.0], [2.0, 3.0])),
    "jobs-float32": (lambda: jobs(np.array([1.5, 2.0], np.float32)), ([1.5, 2.0], [1.5, 2.0])),
    "jobs-read-only": (lambda: jobs(read_only(np.array([1.0, 2.0]))), ([1.0, 2.0], [1.0, 2.0])),
    "jobs-range": (lambda: jobs(range(1, 4)), ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])),
    "jobs-dict-keys": (lambda: jobs({1.0: "a", 2.0: "b"}), ([1.0, 2.0], [1.0, 2.0])),
    "jobs-generator": (lambda: jobs(x for x in [1.0, 2.0]), ([1.0, 2.0], [1.0, 2.0])),
    "demand-numpy-int": (lambda: demand([np.int64(1), 2]), ([1, 2], [1.0, 2.0])),
    "demand-int64": (lambda: demand(np.array([1, 2])), ([1, 2], [1.0, 2.0])),
    "demand-uint64": (lambda: demand(np.array([1, 2], np.uint64)), ([1, 2], [1.0, 2.0])),
    "demand-int8": (lambda: demand(np.array([1, 2], np.int8)), ([1, 2], [1.0, 2.0])),
    "demand-object": (lambda: demand(np.array([1, 2], object)), ([1, 2], [1.0, 2.0])),
    "demand-read-only": (lambda: demand(read_only(np.array([1, 2]))), ([1, 2], [1.0, 2.0])),
    "demand-range": (lambda: demand(range(2)), ([0, 1], [1.0, 2.0])),
    "demand-dict-keys": (lambda: demand({1: "a", 2: "b"}), ([1, 2], [1.0, 2.0])),
    "predicted-int": (lambda: predicted(np.array([1, 2])), ([1, 2], [1.0, 2.0])),
    "predicted-float32": (lambda: predicted(np.array([1.5, 2.0], np.float32)), ([1, 2], [1.5, 2.0])),
    "predicted-range": (lambda: predicted(range(2)), ([1, 2], [0.0, 1.0])),
    "predicted-dict-keys": (lambda: predicted({1.0: "a", 2.5: "b"}), ([1, 2], [1.0, 2.5])),
}

NOT_REAL = "job values must be real numbers, got "
NOT_DAY = "daily demand must be an integer, got "
LENGTHS = "demand and predicted must be non-empty vectors of equal length"
OVER = f"exceeds the limit of {DEMAND_MAX}"
BAD_PREDICTION = "predicted demand must be a finite real >= 0, got "
REFUSED = {
    "jobs-bool": (lambda: jobs([True, 2.0]), NOT_REAL + "True"),
    "jobs-numpy-bool": (lambda: jobs([np.True_, 2.0]), NOT_REAL + "True"),
    "jobs-str": (lambda: jobs("12"), NOT_REAL + "'12'"),
    "jobs-bytes": (lambda: jobs(b"12"), NOT_REAL + "b'12'"),
    "jobs-bool-array": (lambda: jobs(np.array([True, False])), NOT_REAL + "True"),
    "jobs-object-array": (lambda: jobs(np.array([1.5, 2.0], object)), NOT_REAL + "1.5"),
    "jobs-2-d": (lambda: jobs(np.ones((1, 2))), "job values must form a vector, got shape (1, 2)"),
    "jobs-scalar": (lambda: jobs(5.0), "job values must form a vector, got shape ()"),
    "jobs-0-d": (lambda: jobs(np.array(5.0)), "job values must form a vector, got shape ()"),
    "jobs-10-to-400": (lambda: jobs([10**400, 2]), f"job values must fit in a float64, got {10**400}"),
    "jobs-below-1": (lambda: jobs([0.5, 2.0]), "job length must be finite and >= 1, got 0.5"),
    "demand-bool": (lambda: demand([True, 2]), NOT_DAY + "True"),
    "demand-numpy-bool": (lambda: demand([np.True_, 2]), NOT_DAY + "np.True_"),
    # a str or bytes is one day, named whole
    "demand-str": (lambda: demand("12"), NOT_DAY + "'12'"),
    "demand-bytes": (lambda: demand(b"12"), NOT_DAY + "b'12'"),
    "demand-float": (lambda: demand([1.0, 2]), NOT_DAY + "1.0"),
    "demand-2-to-63": (lambda: demand([2**63, 1]), f"daily demand = {2**63} {OVER}"),
    "demand-2-to-70": (lambda: demand([2**70, 1]), f"daily demand = {2**70} {OVER}"),
    "demand-uint64-2-to-63": (
        lambda: demand(np.array([2**63, 1], np.uint64)), f"daily demand = {2**63} {OVER}"
    ),
    "demand-int8-negative": (
        lambda: demand(np.array([-1, 2], np.int8)), "daily demand must be >= 0, got np.int8(-1)"
    ),
    "demand-bool-array": (lambda: demand(np.array([True, False])), NOT_DAY + "np.True_"),
    "demand-float-array": (lambda: demand(np.array([1.0, 2.0])), NOT_DAY + "np.float64(1.0)"),
    "demand-2-d": (lambda: demand(np.array([[1], [2]])), NOT_DAY + "array([1])"),
    # a scalar, a 0-d array or a generator has no length
    "demand-scalar": (lambda: demand(5), LENGTHS),
    "demand-0-d": (lambda: demand(np.array(5)), LENGTHS),
    "demand-generator": (lambda: demand(d for d in [1, 2]), LENGTHS),
    "predicted-scalar": (lambda: predicted(1.0), LENGTHS),
    "predicted-generator": (lambda: predicted(y for y in [1.0, 2.0]), LENGTHS),
    "predicted-str": (lambda: predicted("12"), BAD_PREDICTION + "'12'"),
    "predicted-bool": (lambda: predicted([True, 1.0]), BAD_PREDICTION + "True"),
    "predicted-object-array": (lambda: predicted(np.array([1.5, 2], object)), BAD_PREDICTION + "1.5"),
    "predicted-2-d": (
        lambda: predicted(np.array([[1.0], [2.0]])), BAD_PREDICTION + "array([[1.],\n       [2.]])"
    ),
    "predicted-2-to-1024": (
        lambda: predicted([2**1024, 1]), f"predicted demand must fit in a float64, got {2**1024}"
    ),
}


@pytest.mark.parametrize("name", ACCEPTED)
def test_accepted_input(name):
    build, values = ACCEPTED[name]
    got = build()
    assert tuple(array.tolist() for array in fields(got)) == values
    dtypes = (np.float64, np.float64) if isinstance(got, JobSet) else (np.int64, np.float64)
    assert tuple(array.dtype for array in fields(got)) == dtypes


@pytest.mark.parametrize("name", REFUSED)
def test_refused_input(name):
    build, message = REFUSED[name]
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message


# (a fresh instance, a value of its arrays, that value edited into one it refuses, the message)
INSTANCES = {
    "JobSet": (
        lambda: JobSet.from_lengths([3.0, 2.0], [7.0, 9.0]),
        3.0, 0.5, "job length must be finite and >= 1, got 0.5",
    ),
    "DemandInstance": (
        lambda: DemandInstance(3, (2, 1), (1.5, 0.25)),
        1.5, -0.5, "predicted demand must be a finite real >= 0, got -0.5",
    ),
}
REBUILDS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda instance: pickle.loads(pickle.dumps(instance)),
}


@pytest.mark.parametrize("rebuild", REBUILDS)
@pytest.mark.parametrize("kind", INSTANCES)
def test_copies_own_fresh_read_only_arrays(kind, rebuild):
    instance = INSTANCES[kind][0]()
    if isinstance(instance, DemandInstance):
        decompose(instance)
        assert "_level_counts" in vars(instance)
    again = REBUILDS[rebuild](instance)
    assert type(again) is type(instance) and "_level_counts" not in vars(again)
    for kept, made in zip(fields(instance), fields(again)):
        assert made.tolist() == kept.tolist() and made.dtype == kept.dtype
        assert not made.flags.writeable and not np.shares_memory(made, kept)


@pytest.mark.parametrize("kind", INSTANCES)
def test_tampered_pickle_is_refused(kind):
    build, value, edited, message = INSTANCES[kind]
    blob = pickle.dumps(build())
    old = np.float64(value).tobytes()
    assert blob.count(old) == 1
    with pytest.raises(ValueError) as refused:
        pickle.loads(blob.replace(old, np.float64(edited).tobytes()))
    assert str(refused.value) == message


@pytest.mark.parametrize("kind", INSTANCES)
def test_a_read_only_view_is_copied(kind):
    days = np.array([1, 2], np.float64 if kind == "JobSet" else np.int64)
    view = read_only(days.view())
    instance = JobSet(view, view) if kind == "JobSet" else DemandInstance(3, view, (1.0, 2.0))
    days[:] = -7  # the caller can still write through the view's base
    assert [field.tolist() for field in fields(instance)] == [[1, 2], [1.0, 2.0]]
    assert kind == "JobSet" or instance.max_demand == 2
