"""Typed run configuration: YAML sections, model defaults, canonical hashing.

One YAML file maps 1:1 onto the config dataclasses below; every field has the
model's default value, so a minimal file only names the data, the window
dates, and the agents.  Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

import yaml

__all__ = [
    "DEFAULT_TAUS",
    "DataConfig",
    "AgentConfig",
    "SynthesisConfig",
    "FactorConfig",
    "PlanConfig",
    "EvalConfig",
    "RunConfig",
    "config_from_dict",
    "config_to_dict",
    "config_hash",
    "load_config",
]

DEFAULT_TAUS = tuple(round(0.05 * k, 10) for k in range(1, 20))

WEIGHT_SCHEMES = ("none", "right", "left")


@dataclass(frozen=True)
class DataConfig:
    """Input panel location and response-transform settings.

    ``h`` is the growth horizon in quarters for the annualized log-growth
    transform; ``predictor_lag`` is how many quarters every predictor column
    (and the reserved ``y_lag`` regressor) is lagged when design matrices are
    built, and must be at least 1 so forecasts never touch same-dated inputs.
    """

    panel_csv: str = ""
    h: int = 1
    predictor_lag: int = 1

    def __post_init__(self):
        if self.h < 1:
            raise ValueError(f"data.h must be >= 1, got {self.h}")
        if self.predictor_lag < 1:
            raise ValueError(f"data.predictor_lag must be >= 1, got {self.predictor_lag}")


@dataclass(frozen=True)
class AgentConfig:
    """One agent quantile-regression model.

    ``predictors`` names panel columns; the reserved name ``y_lag`` adds the
    lagged response itself.  An intercept column is always included.
    """

    name: str
    predictors: tuple = ()
    delta: float = 0.95
    prior_scale: float = 1000.0
    sigma_shape: float = 0.01
    sigma_rate: float = 0.01
    draws: int = 3000
    burn: int = 1000

    def __post_init__(self):
        if not self.name:
            raise ValueError("every agent needs a nonempty name")
        if self.draws < 50:
            raise ValueError(f"agent {self.name}: need at least 50 retained draws, got {self.draws}")
        if self.burn < 0:
            raise ValueError(f"agent {self.name}: burn must be >= 0")


@dataclass(frozen=True)
class SynthesisConfig:
    """Univariate synthesis model settings."""

    delta: float = 0.9
    beta: float = 0.9
    draws: int = 3000
    burn: int = 1000

    def __post_init__(self):
        if self.draws < 1 or self.burn < 0:
            raise ValueError("synthesis.draws must be >= 1 and synthesis.burn >= 0")


@dataclass(frozen=True)
class FactorConfig:
    """Factor synthesis model settings.

    ``L`` is the number of factors per agent block; left unset it resolves to
    ``min(5, N - 1)`` for an N-series panel.  ``write_joint_draws`` controls
    whether the aligned cross-series forecast draws are written to disk.
    """

    L: int | None = None
    delta: float = 0.85
    beta: float = 0.85
    nu: float = 3.0
    a1: float = 2.5
    a2: float = 3.5
    n0: float = 0.001
    s0: float = 0.001
    draws: int = 3000
    burn: int = 1000
    write_joint_draws: bool = False

    def __post_init__(self):
        if self.L is not None and self.L < 1:
            raise ValueError(f"factor.L must be >= 1, got {self.L}")
        if self.draws < 1 or self.burn < 0:
            raise ValueError("factor.draws must be >= 1 and factor.burn >= 0")


@dataclass(frozen=True)
class PlanConfig:
    """Backtest window layout, quantile grid, and root seed.

    Dates may be quarter labels (``1990Q1``) or plain integers; they are
    dataset-specific and therefore required, with no defaults.  ``factor``
    switches the synthesis stage from per-series to joint factor modeling.
    """

    agent_fit_start: str | int = ""
    agent_forecast_start: str | int = ""
    synth_fit_start: str | int = ""
    synth_forecast_start: str | int = ""
    end: str | int = ""
    taus: tuple = DEFAULT_TAUS
    seed: int = 0
    factor: bool = False

    def __post_init__(self):
        taus = tuple(float(t) for t in self.taus)
        if not taus:
            raise ValueError("plan.taus must be nonempty")
        if any(not 0.0 < t < 1.0 for t in taus):
            raise ValueError("plan.taus must lie strictly inside (0, 1)")
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise ValueError("plan.taus must be strictly increasing")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class EvalConfig:
    """Scoring settings: weight schemes, reference model, reconstruction size."""

    schemes: tuple = WEIGHT_SCHEMES
    reference: str = ""
    reconstruction_draws: int = 10000

    def __post_init__(self):
        schemes = tuple(str(s) for s in self.schemes)
        unknown = sorted(set(schemes) - set(WEIGHT_SCHEMES))
        if unknown:
            raise ValueError(f"unknown weight scheme(s) {unknown}; choose from {WEIGHT_SCHEMES}")
        if not schemes:
            raise ValueError("evaluation.schemes must be nonempty")
        object.__setattr__(self, "schemes", schemes)
        if self.reconstruction_draws < 1:
            raise ValueError("evaluation.reconstruction_draws must be >= 1")


@dataclass(frozen=True)
class RunConfig:
    """Top-level run configuration: all sections plus execution settings."""

    data: DataConfig = DataConfig()
    plan: PlanConfig = PlanConfig()
    agents: tuple = ()
    synthesis: SynthesisConfig = SynthesisConfig()
    factor: FactorConfig = FactorConfig()
    evaluation: EvalConfig = EvalConfig()
    workers: int = 1
    out_dir: str = "out"

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        names = [a.name for a in self.agents]
        if len(set(names)) != len(names):
            raise ValueError(f"agent names must be unique, got {names}")

    @property
    def agent_names(self) -> list:
        return [a.name for a in self.agents]

    @property
    def synth_model_name(self) -> str:
        return "fdrqs" if self.plan.factor else "drqs"

    @property
    def reference_model(self) -> str:
        if self.evaluation.reference:
            return self.evaluation.reference
        if not self.agents:
            raise ValueError("no agents configured; cannot pick a reference model")
        return self.agents[0].name


def _build(cls, data, where: str):
    """Instantiate a config dataclass from a mapping, rejecting unknown keys."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a mapping, got {type(data).__name__}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ValueError(f"unknown key(s) {unknown} in {where}")
    kwargs = {}
    for key, value in data.items():
        kwargs[key] = tuple(value) if isinstance(value, list) else value
    return cls(**kwargs)


_SECTIONS = ("data", "plan", "agents", "synthesis", "factor", "evaluation", "workers", "out_dir")


def config_from_dict(raw: dict) -> RunConfig:
    """Build a validated :class:`RunConfig` from a plain nested mapping."""
    raw = dict(raw or {})
    unknown = sorted(set(raw) - set(_SECTIONS))
    if unknown:
        raise ValueError(f"unknown top-level section(s) {unknown}; expected {_SECTIONS}")
    agents_raw = raw.get("agents") or []
    if not isinstance(agents_raw, (list, tuple)):
        raise ValueError("agents must be a list of agent mappings")
    agents = tuple(_build(AgentConfig, a, f"agents[{i}]") for i, a in enumerate(agents_raw))
    return RunConfig(
        data=_build(DataConfig, raw.get("data"), "data"),
        plan=_build(PlanConfig, raw.get("plan"), "plan"),
        agents=agents,
        synthesis=_build(SynthesisConfig, raw.get("synthesis"), "synthesis"),
        factor=_build(FactorConfig, raw.get("factor"), "factor"),
        evaluation=_build(EvalConfig, raw.get("evaluation"), "evaluation"),
        workers=int(raw.get("workers", 1)),
        out_dir=str(raw.get("out_dir", "out")),
    )


def load_config(path) -> RunConfig:
    """Read a YAML run configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValueError(f"config file {path} is not valid YAML: {exc}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} must contain a mapping at the top level")
    return config_from_dict(raw)


def config_to_dict(cfg: RunConfig) -> dict:
    """Plain JSON-compatible mapping (tuples become lists)."""
    return json.loads(json.dumps(dataclasses.asdict(cfg)))


def config_hash(cfg: RunConfig) -> str:
    """Stable digest of the fully resolved configuration."""
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def dump_config(cfg: RunConfig, path) -> None:
    """Write the resolved configuration back out as YAML."""
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config_to_dict(cfg), fh, sort_keys=False)
