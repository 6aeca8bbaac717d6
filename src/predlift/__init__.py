"""predlift: fully dynamic algorithms from offline, incremental, and
decremental ones, given predictions of update times."""

from .model import (
    DELETE,
    END_OF_HORIZON,
    INSERT,
    Event,
    Prediction,
    PredictionBundle,
    l1_error,
    validate_bundle_sequence,
)
from .engine import Engine, ScheduleBug, WorkCounters, drain, run_offline, run_predicted
from .incremental import lift_incremental
from .decremental import DecrementalRun
from .boosting import Backstop, BoostConfig, SteppableEngine, boost_run
from .timetree import PartitionTree
from .scheduling import SlotLine, fix_ordering
from .problems import (
    connectivity_contract,
    counter_contract,
    decremental_max_contract,
    msf_problem,
    oracle_daily_outputs,
)

__all__ = [
    "DELETE",
    "END_OF_HORIZON",
    "INSERT",
    "Event",
    "Prediction",
    "PredictionBundle",
    "l1_error",
    "validate_bundle_sequence",
    "Engine",
    "ScheduleBug",
    "WorkCounters",
    "drain",
    "run_offline",
    "run_predicted",
    "lift_incremental",
    "DecrementalRun",
    "Backstop",
    "BoostConfig",
    "SteppableEngine",
    "boost_run",
    "PartitionTree",
    "SlotLine",
    "fix_ordering",
    "connectivity_contract",
    "counter_contract",
    "decremental_max_contract",
    "msf_problem",
    "oracle_daily_outputs",
]
