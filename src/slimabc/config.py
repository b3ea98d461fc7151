"""Run configuration: `SimConfig`, its byzantine behavior specs, and scenario
files (`scenario_dict(cfg)` as JSON, read back by `config_from_dict`).
`SimConfig.validate` is the one checked entry for `sim_run`, the agreement
harness, CLI overrides and scenario files: each field's JSON type, then its
range."""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import List, Tuple

from .adversary import BEHAVIORS, POLICIES

SCENARIO_FORMAT = "slimabc-scenario-1"

POLICY_PARAMS = {"fairness_bound": 1, "budget": 0}  # key -> least allowed value

# JSON type of each config field other than `byzantine`; any field not named
# here is an integer.  bool is never accepted where a number is meant.
FIELD_TYPES = {"policy": str, "policy_params": dict, "overlap": (int, float), "kind": str}


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class BehaviorSpec:
    party: int
    kind: str
    at_step: int = 0  # crash only


@dataclass
class SimConfig:
    n: int
    f: int
    seed: int = 0
    instances: int = 1
    policy: str = "fifo"
    policy_params: dict = field(default_factory=dict)
    byzantine: Tuple[BehaviorSpec, ...] = ()
    pool_size: int = 16
    batch_size: int = 4
    request_size: int = 32
    overlap: float = 0.0
    max_steps: int = 200_000
    security_param: int = 128

    def validate(self) -> None:
        """Raise ConfigError unless this config can run: every field, and each
        behavior spec's, has its JSON type, and every value is in range."""
        for obj in (self, *self.byzantine):
            for name in obj.__dataclass_fields__:  # every one a plain field
                if name == "byzantine":
                    continue
                value = getattr(obj, name)
                want = FIELD_TYPES.get(name, int)
                if type(value) is bool or not isinstance(value, want):
                    raise ConfigError(f"config field {name} has the wrong type: {value!r}")
        n, f = self.n, self.f
        if f < 1 or n != 3 * f + 1:
            raise ConfigError(f"need n = 3f+1 with f >= 1, got n={n} f={f}")
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}")
        for key in self.policy_params:
            if key not in POLICY_PARAMS:
                raise ConfigError(f"unknown policy_params key {key!r}")
        for key, least in POLICY_PARAMS.items():
            value = self.policy_params.get(key, least)
            if type(value) is not int or value < least:
                raise ConfigError(
                    f"policy_params {key} must be an integer >= {least}, got {value!r}")
        if len(self.byzantine) > f:
            raise ConfigError(f"at most f={f} byzantine parties")
        seen = set()
        for spec in self.byzantine:
            if spec.kind not in BEHAVIORS:
                raise ConfigError(f"unknown behavior {spec.kind!r}")
            if not 0 <= spec.party < n:
                raise ConfigError(f"behavior party {spec.party} out of range")
            if spec.party in seen:
                raise ConfigError(f"duplicate behavior for party {spec.party}")
            seen.add(spec.party)
        if self.instances < 1:
            raise ConfigError("instances must be >= 1")
        if min(self.pool_size, self.batch_size, self.request_size) < 1:
            raise ConfigError("pool, batch and request sizes must be >= 1")
        if not 0.0 <= self.overlap <= 1.0:
            raise ConfigError("overlap must be within [0, 1]")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be >= 1")
        if not 1 <= self.security_param < 2**32:
            raise ConfigError("security_param must be in 1..2**32-1")

    def honest(self) -> List[int]:
        byz = {b.party for b in self.byzantine}
        return [p for p in range(self.n) if p not in byz]


def scenario_dict(cfg: SimConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["byzantine"] = [dataclasses.asdict(b) for b in cfg.byzantine]
    d["format"] = SCENARIO_FORMAT
    return d


def config_from_dict(d: dict) -> SimConfig:
    d = dict(d)
    fmt = d.pop("format", SCENARIO_FORMAT)
    if fmt != SCENARIO_FORMAT:
        raise ConfigError(f"unsupported scenario format {fmt!r}")
    byz_list = d.pop("byzantine", [])
    if not isinstance(byz_list, list):
        raise ConfigError("scenario field byzantine must be a list")
    try:
        byz = tuple(BehaviorSpec(**b) for b in byz_list)
        cfg = SimConfig(byzantine=byz, **d)
    except TypeError as e:
        raise ConfigError(f"bad scenario fields: {e}") from e
    cfg.validate()
    return cfg


def load_scenario(path: str) -> SimConfig:
    try:
        with open(path, encoding="utf-8") as fh:  # JSON text is UTF-8
            data = json.load(fh)
    except (OSError, ValueError) as e:  # unreadable, undecodable or malformed JSON
        raise ConfigError(f"cannot read scenario {path}: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError("scenario must be a JSON object")
    return config_from_dict(data)
