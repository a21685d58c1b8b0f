"""repro.tuning: online autotuner — measure, fit, switch knobs mid-run."""

from repro.tuning.plan import KnobSettings, TuningDecision, TuningPlan
from repro.tuning.tuner import TunedRun, Tuner, TuningSample

__all__ = [
    "KnobSettings",
    "TuningDecision",
    "TuningPlan",
    "Tuner",
    "TuningSample",
    "TunedRun",
]
