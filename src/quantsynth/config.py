"""Typed run configuration: YAML sections, model defaults, canonical hashing.

One YAML file maps 1:1 onto the config dataclasses below; every field has the
model's default value, so a minimal file only names the data, the window
dates, and the agents.  Unknown keys are rejected so typos fail loudly, and
so is a value that is not of its field's type.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
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

# Fewest retained draws an agent fit may keep: its forecast variance is the
# variance of that many predictive draws.
MIN_AGENT_DRAWS = 50

WEIGHT_SCHEMES = ("none", "right", "left")


def _check_unique(name: str, values) -> None:
    """Refuse a list that holds one value twice, naming the list and the value."""
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ValueError(f"{name} must be unique, got {repeated[0]!r} twice")


def tau_key(tau) -> float:
    """The key a quantile level is stored and matched under: ``tau`` rounded to 10 decimals."""
    return round(float(tau), 10)


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
    predictors: tuple[str, ...] = ()
    delta: float = 0.95
    prior_scale: float = 1000.0
    sigma_shape: float = 0.01
    sigma_rate: float = 0.01
    draws: int = 3000
    burn: int = 1000

    def __post_init__(self):
        if not self.name:
            raise ValueError("every agent needs a nonempty name")
        if self.draws < MIN_AGENT_DRAWS:
            raise ValueError(
                f"agent {self.name}: need at least {MIN_AGENT_DRAWS} retained draws, got {self.draws}"
            )
        if self.burn < 0:
            raise ValueError(f"agent {self.name}: burn must be >= 0")
        _check_unique(f"agent {self.name}: predictors", self.predictors)


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
    ``min(5, N - 1)`` for an N-series panel.  ``write_joint_draws`` also writes the aligned
    cross-series forecast draws to ``joint_draws.csv``; their correlations go to
    ``plots/correlation.csv`` either way.
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
    taus: tuple[float, ...] = DEFAULT_TAUS
    seed: int = 0
    factor: bool = False

    def __post_init__(self):
        # task_stream keys every generator by the seed's low 32 bits, so a
        # seed outside [0, 2**32) would alias one inside it.
        if not 0 <= self.seed < 2**32:
            raise ValueError(f"plan.seed must lie in [0, 2**32), got {self.seed}")
        if not self.taus:
            raise ValueError("plan.taus must be nonempty")
        if any(not 0.0 < t < 1.0 for t in self.taus):
            raise ValueError("plan.taus must lie strictly inside (0, 1)")
        for a, b in zip(self.taus, self.taus[1:]):
            if tau_key(b) <= tau_key(a):
                raise ValueError(
                    f"plan.taus must be strictly increasing at 10 decimals, got {a!r} then {b!r}"
                )


@dataclass(frozen=True)
class EvalConfig:
    """Scoring settings: weight schemes, reference model, reconstruction size."""

    schemes: tuple[str, ...] = WEIGHT_SCHEMES
    reference: str = ""
    reconstruction_draws: int = 10000

    def __post_init__(self):
        unknown = sorted(set(self.schemes) - set(WEIGHT_SCHEMES))
        if unknown:
            raise ValueError(f"unknown weight scheme(s) {unknown}; choose from {WEIGHT_SCHEMES}")
        if not self.schemes:
            raise ValueError("evaluation.schemes must be nonempty")
        _check_unique("evaluation.schemes", self.schemes)
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
        _check_unique("agent names", [a.name for a in self.agents])

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


_TYPE_NAMES = {int: "an int", float: "a number", str: "a string", bool: "a boolean",
               tuple: "a list", type(None): "null"}


def _accepts(kind: type, value) -> bool:
    """Whether ``value`` has field type ``kind``; an int counts as a float, a bool as no number."""
    if kind is type(None):
        return value is None
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    if kind is tuple:
        return isinstance(value, (list, tuple))
    return isinstance(value, kind)


def _check_type(name: str, value, hint) -> None:
    """Refuse a value or list element not of the field's declared type, naming it; never convert."""
    if typing.get_origin(hint) is tuple:
        _check_type(name, value, tuple)
        for i, item in enumerate(value):
            _check_type(f"{name}[{i}]", item, typing.get_args(hint)[0])
        return
    kinds = typing.get_args(hint) or (hint,)
    if not any(_accepts(kind, value) for kind in kinds):
        expected = " or ".join(_TYPE_NAMES[kind] for kind in kinds)
        raise ValueError(f"{name} must be {expected}, got {value!r}")


def _build(cls, data, where: str):
    """Instantiate a config dataclass from a mapping, rejecting unknown keys and mistyped values."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a mapping, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(data) - set(hints))
    if unknown:
        raise ValueError(f"unknown key(s) {unknown} in {where}")
    kwargs = {}
    for key, value in data.items():
        _check_type(f"{where}.{key}", value, hints[key])
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
    workers, out_dir = raw.get("workers", 1), raw.get("out_dir", "out")
    _check_type("workers", workers, int)
    _check_type("out_dir", out_dir, str)
    return RunConfig(
        data=_build(DataConfig, raw.get("data"), "data"),
        plan=_build(PlanConfig, raw.get("plan"), "plan"),
        agents=agents,
        synthesis=_build(SynthesisConfig, raw.get("synthesis"), "synthesis"),
        factor=_build(FactorConfig, raw.get("factor"), "factor"),
        evaluation=_build(EvalConfig, raw.get("evaluation"), "evaluation"),
        workers=workers,
        out_dir=out_dir,
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
