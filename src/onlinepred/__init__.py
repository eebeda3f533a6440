"""Online rent-or-buy and non-clairvoyant scheduling with predictions."""

from .bounds import (
    E_OVER_E_MINUS_1,
    det_consistency,
    det_robustness,
    det_ski_bound,
    prr_bound,
    prr_perfect_bound,
    rand_consistency,
    rand_robustness,
    rand_ski_bound,
    spjf_bound,
)
from .experiments import (
    DEFAULT_SEED,
    LAMBDA_RAND_DEFAULT,
    SchedSweepConfig,
    SkiSweepConfig,
    TrialReport,
    run_scheduling_sweep,
    run_ski_sweep,
)
from .scheduling import (
    JobSet,
    ScheduleResult,
    objectives,
    prediction_error,
    prr,
    prr_batch,
    round_robin,
    sequential_batch,
    sjf_opt,
    spjf,
)
from .ski_demand import (
    DemandInstance,
    decompose,
    demand_algorithm_cost,
    demand_opt,
)
from .ski_rental import (
    PolicyKind,
    SkiInstance,
    SkiPolicy,
    buy_day,
    policy_cost,
    ski_cost,
    ski_opt,
)

__version__ = "0.1.0"
