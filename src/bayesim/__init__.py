"""Behavioral simulator for logarithmic and stochastic Bayesian machines."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DomainError,
    FormatError,
    TrainingError,
    ValidationError,
)
from .logprob import LogCode, decode, encode, sat_add
from .stochastic import run_stochastic
from .machine import (
    InferenceResult,
    MachineConfig,
    MemoryImage,
    infer_logarithmic,
    infer_stochastic,
    inject_errors,
    load_image,
    run_filter,
    save_image,
)
from .modelkit import (
    BayesModel,
    compile_model,
    estimate_transitions,
    load_model,
    oracle_filter,
    oracle_infer,
    save_model,
    train_model,
)
from .tasks import (
    Dataset,
    SyntheticTaskSpec,
    generate,
    gesture_features,
    gesture_like_spec,
    psd_at,
    signal_power,
    sleep_like_spec,
)
from .energy import CostTable, EventCounts, count_events, crossover, energy_of, example_cost_table
