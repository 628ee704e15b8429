"""Seeded inputs for the benchmark workloads.

Every input file is made here from the benchmark seed alone: the level panel,
the run configuration and, for the stage-only ``factor`` workload, the
stored ``agent_forecasts.csv`` that the stage reads.  Nothing is produced by
running quantsynth, so a change to the agents code cannot change the inputs
(or the reference digests) of ``factor``.  This module imports NumPy but not
quantsynth.

A seed selects one of ``INPUT_SETS`` input sets (``seed % INPUT_SETS``), so
that ``reference.json`` holds the reference digests of every seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

GRID19 = tuple(round(0.05 * k, 10) for k in range(1, 20))
GRID4 = (0.1, 0.35, 0.65, 0.9)
FIRST_QUARTER = 1990 * 4  # 1990Q1
INPUT_SETS = 32  # distinct input sets; reference.json holds the digests of each
AGENT_PREDICTORS = (("base", ["y_lag"]), ("zlag", ["y_lag", "z"]), ("zonly", ["z"]))


@dataclass(frozen=True)
class Workload:
    """Shape of one workload: the command it runs and the size of its inputs."""

    command: str  # quantsynth subcommand
    workers: int
    series: int
    agents: int
    taus: tuple
    agent_train: int  # quarters before the first agent target
    synth_train: int  # agent targets the synthesizer trains on before its first target
    targets: int  # synthesis targets
    agent_mcmc: tuple = (50, 10)
    synth_mcmc: tuple = (50, 10)
    reconstruction_draws: int = 10000
    stored: tuple = ()  # stage inputs written by the generator
    gated: tuple = ()  # outputs whose bytes the gate checks
    stream: int = 0  # keeps each workload's random inputs apart at one seed

    @property
    def factor(self) -> bool:
        return self.command == "synth-factor"

    @property
    def sweeps(self) -> int:
        """Gibbs sweeps one command runs, across all samplers."""
        synth_fits = len(self.taus) * self.targets * (1 if self.factor else self.series)
        total = synth_fits * sum(self.synth_mcmc)
        if self.command == "backtest":
            agent_fits = len(self.taus) * (self.synth_train + self.targets) * self.series * self.agents
            total += agent_fits * sum(self.agent_mcmc)
        return total

    @property
    def cells(self) -> int:
        """Scored (model, series, time) cells one command produces."""
        if self.command != "backtest":
            return 0
        return (self.agents + 1) * self.series * self.targets


# Why each workload exists is recorded in BENCHMARK.json; the shapes are sized
# so that a 50 s run holds at least three commands on a 2-CPU host while the
# sampler that workload is for takes most of the command's wall time.
WORKLOADS = {
    "grid19": Workload(
        command="backtest",
        workers=2,
        series=1,
        agents=3,
        taus=GRID19,
        agent_train=12,
        synth_train=2,
        targets=2,
        agent_mcmc=(100, 40),
        gated=("agent_forecasts.csv", "forecasts.csv", "scores.csv", "pit.csv"),
        stream=1,
    ),
    "factor": Workload(
        command="synth-factor",
        workers=1,
        series=6,
        agents=3,
        taus=GRID4,
        agent_train=16,
        synth_train=16,
        targets=1,
        synth_mcmc=(150, 50),
        stored=("agent_forecasts.csv",),
        gated=("forecasts.csv",),
        stream=2,
    ),
}


def input_set(seed: int) -> int:
    """The input set a benchmark seed selects."""
    return seed % INPUT_SETS


def quarter_label(t: int) -> str:
    return f"{t // 4}Q{t % 4 + 1}"


@dataclass(frozen=True)
class Layout:
    """Quarter indices of the plan windows."""

    agent_fit_start: int
    agent_forecast_start: int
    synth_fit_start: int
    synth_forecast_start: int
    end: int

    @classmethod
    def of(cls, w: Workload) -> "Layout":
        afs = FIRST_QUARTER + 2  # one quarter for the growth transform, one for the lag
        afos = afs + w.agent_train
        sfos = afos + w.synth_train
        return cls(afs, afos, afos, sfos, sfos + w.targets - 1)


def _growth(rng: np.random.Generator, n_series: int, n_quarters: int):
    """Annualized growth (percent) per series driven by a lagged predictor ``z``."""
    z = rng.normal(0.0, 1.0, (n_series, n_quarters))
    drift = rng.uniform(1.0, 3.0, (n_series, 1))
    lagged = np.concatenate([np.zeros((n_series, 1)), z[:, :-1]], axis=1)
    growth = drift + 0.8 * lagged + rng.normal(0.0, 1.6, (n_series, n_quarters))
    return growth, z


def _tau_text(tau: float) -> str:
    return f"{tau:.2f}" if abs(tau - round(tau, 2)) < 1e-12 else repr(tau)


def write_inputs(name: str, case: int, work: Path) -> Path:
    """Write input set ``case``: the panel, the configuration and any stored stage inputs.

    Returns the configuration path.  The files go into ``work``;
    ``work/out`` is the run's output directory, and stored stage inputs are
    placed there, where the stage reads them.
    """
    w = WORKLOADS[name]
    layout = Layout.of(w)
    rng = np.random.default_rng(np.random.SeedSequence([case, w.stream]))
    n_quarters = layout.end - FIRST_QUARTER + 1
    growth, z = _growth(rng, w.series, n_quarters)
    sids = [f"s{i:02d}" for i in range(w.series)]

    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)
    panel_path = work / "levels.csv"
    lines = ["series,time,Y,z"]
    for i, sid in enumerate(sids):
        levels = 100.0 * np.exp(np.cumsum(growth[i] / 400.0))
        for k in range(n_quarters):
            lines.append(
                f"{sid},{quarter_label(FIRST_QUARTER + k)},{float(levels[k])!r},{float(z[i, k])!r}"
            )
    panel_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    agents = [
        {"name": nm, "predictors": preds, "draws": w.agent_mcmc[0], "burn": w.agent_mcmc[1]}
        for nm, preds in AGENT_PREDICTORS[: w.agents]
    ]
    mcmc = {"draws": w.synth_mcmc[0], "burn": w.synth_mcmc[1]}
    config = {
        "data": {"panel_csv": str(panel_path), "h": 1, "predictor_lag": 1},
        "plan": {
            "agent_fit_start": quarter_label(layout.agent_fit_start),
            "agent_forecast_start": quarter_label(layout.agent_forecast_start),
            "synth_fit_start": quarter_label(layout.synth_fit_start),
            "synth_forecast_start": quarter_label(layout.synth_forecast_start),
            "end": quarter_label(layout.end),
            "taus": list(w.taus),
            "seed": int(case),
            "factor": w.factor,
        },
        "agents": agents,
        "synthesis": mcmc,
        "factor": mcmc,
        "evaluation": {"reconstruction_draws": w.reconstruction_draws},
        "workers": w.workers,
        "out_dir": str(out),
    }
    config_path = work / "run.yaml"
    config_path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")

    z_tau = np.array([NormalDist().inv_cdf(t) for t in w.taus])
    if "agent_forecasts.csv" in w.stored:
        _write_agent_forecasts(rng, out / "agent_forecasts.csv", w, layout, sids, growth, z_tau)
    return config_path


def _realized(growth: np.ndarray, i: int, t: int) -> float:
    return float(growth[i, t - FIRST_QUARTER])


def _write_agent_forecasts(rng, path, w, layout, sids, growth, z_tau) -> None:
    """Normal quantile reports ``(a, A)`` per (series, time, agent, tau)."""
    names = [nm for nm, _ in AGENT_PREDICTORS[: w.agents]]
    scale = rng.uniform(1.2, 2.4, (len(sids), len(names)))
    bias = rng.normal(0.0, 0.5, (len(sids), len(names)))
    rows = []
    for i, sid in enumerate(sids):
        for t in range(layout.agent_forecast_start, layout.end + 1):
            label = quarter_label(t)
            centre = _realized(growth, i, t) + rng.normal(0.0, 1.0, len(names))
            for j, nm in enumerate(names):
                a = centre[j] + bias[i, j] + scale[i, j] * z_tau
                A = (0.25 * scale[i, j]) ** 2 * rng.uniform(0.5, 1.5, z_tau.size)
                for k, tau in enumerate(w.taus):
                    rows.append((sid, t, nm, tau, label, a[k], A[k]))
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    lines = ["series,time,agent,tau,a,A"]
    lines += [
        f"{sid},{label},{nm},{_tau_text(tau)},{float(a)!r},{float(A)!r}"
        for sid, _, nm, tau, label, a, A in rows
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
