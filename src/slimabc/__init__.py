"""Committee-based asynchronous atomic broadcast with a deterministic
adversarial network simulator for property checking at desk scale."""

from .config import BehaviorSpec, ConfigError, SimConfig, load_scenario
from .crypto import key_setup, ThresholdProvider, PartyCrypto
from .metrics import RunReport, duplicate_ratio, scaling_fit
from .protocol import Party, RequestBatch
from .simnet import abba_harness_run, replay_trace, sim_run

__version__ = "0.1.0"

__all__ = [
    "key_setup",
    "ThresholdProvider",
    "PartyCrypto",
    "RunReport",
    "duplicate_ratio",
    "scaling_fit",
    "Party",
    "RequestBatch",
    "BehaviorSpec",
    "ConfigError",
    "SimConfig",
    "abba_harness_run",
    "load_scenario",
    "replay_trace",
    "sim_run",
    "__version__",
]
