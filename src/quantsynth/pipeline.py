"""Expanding-window backtest: ingestion, window bookkeeping, parallel jobs, artifacts.

The protocol has three stages.  For every window end t*-1 the agent models
are fit per (series, quantile level) on data through t*-1 and report a
one-step forecast for t*; the synthesizer is then fit per quantile level on
the realized values and accumulated agent forecasts and emits its own
forecast for t*; finally everything is scored and written as CSV artifacts
plus a JSON run manifest.

The stages are rows of one table, :data:`STAGES`: ``agents``,
``synthesis``, ``evaluate`` and ``reconstruct``, each with the artifacts it
reads, the artifacts it writes and the function that runs it.  One runner,
:func:`run_stages`, executes any sequence of them: it ingests the panel and
builds the plan, checks that every input is either produced earlier in the
same call or present in ``out_dir``, runs the stages, writes their
artifacts, and writes ``manifest.json``.  :func:`run_backtest` runs the
first three; each stage subcommand of the CLI runs one.

Jobs are independent across (tau, window).  With ``workers > 1`` they run
on one process pool per run, opened with the platform's default start
method when the first stage that submits jobs starts and shut down when the
run ends; the workers inherit the thread limits the CLI set (under fork, as
copies of the planned parent with NumPy and the package loaded).  Every job
derives its generator from the root seed and its own logical identity, so
outputs are bit-identical across worker counts, start methods and
scheduling orders.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import hashlib
import json
import time as _time
from collections.abc import Callable
from concurrent.futures import Executor, ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .agents import AgentForecastSet, DQLMSpec, _read_rows, _write_csv, fit_dqlm, forecast_dqlm
from .config import AgentConfig, RunConfig, _check_unique, config_hash, tau_key
from .dlm import DiscountConfig
from .drqs import DRQSConfig, forecast_drqs, gibbs_drqs
from .evaluation import QuantileGrid, ScorePanel, crps_quantile_weighted, pit, reconstruct_predictive
from .fdrqs import FDRQSConfig, forecast_fdrqs, gibbs_fdrqs
from .quarters import format_time, is_quarter_label, parse_time

__all__ = [
    "SeriesRecord",
    "SeriesPanel",
    "BacktestPlan",
    "RunManifest",
    "JobError",
    "MissingInputError",
    "RunRefusedError",
    "Stage",
    "STAGES",
    "ingest",
    "write_panel",
    "make_plan",
    "build_design",
    "task_stream",
    "stage_fit_agents",
    "stage_synthesize",
    "stage_evaluate",
    "stage_reconstruct",
    "run_stages",
    "run_backtest",
    "emit_plots_data",
    "audit_lookahead",
]

FORECAST_COLUMNS = ("series", "time", "tau", "point", "lo95", "hi95", "n_draws")
SCORE_COLUMNS = ("series", "time", "model", "scheme", "crps")
RATIO_COLUMNS = ("model", "scheme", "t_star", "rcs")
PIT_COLUMNS = ("model", "series", "time", "pit")
JOINT_COLUMNS = ("time", "tau", "draw", "series", "Q")
RECONSTRUCTED_COLUMNS = ("series", "time", "draw", "value")
PLOT_COLUMNS = {
    "plots/rcs_curve.csv": ("model", "scheme", "series", "t_star", "rcs"),
    "plots/fan.csv": ("series", "time", "tau", "point", "lo95", "hi95"),
    "plots/pit_ecdf.csv": ("model", "series", "u", "ecdf"),
    "plots/correlation.csv": ("time", "tau", "series_row", "series_col", "corr"),
}


def _repr_float(x) -> str:
    """Shortest exact round-trip rendering, for machine-consumed columns."""
    return repr(float(x))


def _report_float(x) -> str:
    """Fixed 12-significant-digit rendering, for report columns."""
    return format(float(x), ".12g")


# ---------------------------------------------------------------------------
# Panel ingestion


@dataclass
class SeriesRecord:
    """One transformed series: consecutive integer times, response, predictors."""

    series: str
    times: np.ndarray
    y: np.ndarray
    predictors: dict

    def positions(self, times) -> np.ndarray:
        """Array positions of the given time indices; KeyError if any is missing."""
        times = np.atleast_1d(np.asarray(times, dtype=int))
        pos = times - int(self.times[0])
        bad = (pos < 0) | (pos >= self.times.size)
        if np.any(bad):
            raise KeyError(f"series {self.series} has no observation at time {times[bad][0]}")
        return pos

    def y_at(self, t: int) -> float:
        return float(self.y[self.positions(t)[0]])


@dataclass
class SeriesPanel:
    """Transformed panel: per-series records sharing the horizon and time convention."""

    h: int
    quarterly: bool
    records: dict

    @property
    def series_ids(self) -> list:
        return sorted(self.records)

    def record(self, series: str) -> SeriesRecord:
        if series not in self.records:
            raise KeyError(f"panel has no series {series!r}; available: {self.series_ids}")
        return self.records[series]

    def time_label(self, t: int) -> str:
        return format_time(t, self.quarterly)


def ingest(panel_csv, h: int) -> SeriesPanel:
    """Load a level panel and apply the annualized h-quarter log-growth transform.

    The CSV needs columns ``series,time,Y``; any further columns, each named
    once, are carried as predictors.  Each series becomes
    ``y_t = 400 log(Y_t / Y_{t-h}) / h`` with its first h observations
    consumed by the transform; predictor columns pass through untransformed,
    aligned to the remaining times.  An empty ``panel_csv`` (a config with no
    ``data.panel_csv``) is refused before any file is opened.
    """
    h = int(h)
    if h < 1:
        raise ValueError(f"transform horizon h must be >= 1, got {h}")
    if panel_csv == "":
        raise ValueError("data.panel_csv is required: the config names no level panel")
    path = Path(panel_csv)
    with open(path, newline="", encoding="utf-8") as fh:
        header = tuple(next(csv.reader(fh), ()))
    if header[:3] != ("series", "time", "Y"):
        raise ValueError(f"{path}: header must start with series,time,Y; got {','.join(header)}")
    _check_unique(f"{path}: header columns", header)
    predictor_names = list(header[3:])
    for name, role in (("y", "the transformed response"), ("y_lag", "the lagged response")):
        if name in predictor_names:
            raise ValueError(f"{path}: column name {name} is reserved for {role}")
    quarterly = None  # the first row's time format, which every row must share

    def parse(cells):
        nonlocal quarterly
        sid, cell = cells[0].strip(), cells[1].strip()
        if not sid:
            raise ValueError("empty series id")
        if quarterly is None:
            quarterly = is_quarter_label(cell)
        if is_quarter_label(cell) != quarterly:
            raise ValueError("mixed quarter-label and integer time formats")
        t = parse_time(cell)
        try:
            level = float(cells[2])
        except ValueError:
            raise ValueError(f"level {cells[2]!r} is not a number") from None
        if not np.isfinite(level) or level <= 0.0:
            raise ValueError(f"series {sid} at {cell} has nonpositive level {cells[2]}")
        preds = {}
        for name, raw in zip(predictor_names, cells[3:]):
            try:
                value = float(raw)
            except ValueError:
                raise ValueError(f"predictor {name}={raw!r} is not a number") from None
            if not np.isfinite(value):
                raise ValueError(f"predictor {name} is not finite")
            preds[name] = value
        return sid, t, level, preds

    grouped: dict = {}
    for sid, t, level, preds in _read_rows(path, header, parse):
        grouped.setdefault(sid, []).append((t, level, preds))
    if not grouped:
        raise ValueError(f"{path}: no data rows")

    records = {}
    for sid, items in grouped.items():
        times = np.array([it[0] for it in items], dtype=int)
        diffs = np.diff(times)
        if np.any(diffs <= 0):
            k = int(np.argmax(diffs <= 0))
            raise ValueError(
                f"series {sid}: times not strictly increasing at "
                f"{format_time(times[k + 1], quarterly)}"
            )
        if np.any(diffs > 1):
            k = int(np.argmax(diffs > 1))
            raise ValueError(
                f"series {sid}: gap between {format_time(times[k], quarterly)} "
                f"and {format_time(times[k + 1], quarterly)}"
            )
        if times.size <= h:
            raise ValueError(f"series {sid}: needs more than h={h} observations, got {times.size}")
        levels = np.array([it[1] for it in items], dtype=float)
        y = 400.0 * (np.log(levels[h:]) - np.log(levels[:-h])) / h
        predictors = {
            name: np.array([it[2][name] for it in items], dtype=float)[h:]
            for name in predictor_names
        }
        records[sid] = SeriesRecord(series=sid, times=times[h:], y=y, predictors=predictors)
    return SeriesPanel(h=h, quarterly=quarterly, records=records)


def write_panel(panel: SeriesPanel, path) -> None:
    """Write the transformed panel as ``series,time,y,<predictors>``."""
    names = list(panel.record(panel.series_ids[0]).predictors) if panel.series_ids else []
    _write_csv(path, ("series", "time", "y", *names), (
        (sid, panel.time_label(t), *map(_repr_float, values))
        for sid, rec in sorted(panel.records.items())
        for t, *values in zip(rec.times.tolist(), rec.y, *(rec.predictors[n] for n in names))
    ))


# ---------------------------------------------------------------------------
# Plan construction and window bookkeeping


@dataclass(frozen=True)
class BacktestPlan:
    """Validated window layout plus resolved model settings for every stage."""

    cfg: RunConfig
    agent_fit_start: int
    agent_forecast_start: int
    synth_fit_start: int
    synth_forecast_start: int
    end: int
    taus: tuple
    quarterly: bool
    agent_specs: dict  # tau -> {agent name: DQLMSpec}
    synth_configs: dict  # tau -> DRQSConfig, or FDRQSConfig when plan.factor

    @property
    def seed(self) -> int:
        return self.cfg.plan.seed

    @property
    def agent_targets(self) -> np.ndarray:
        """Forecast target times of the agent stage."""
        return np.arange(self.agent_forecast_start, self.end + 1)

    @property
    def synth_targets(self) -> np.ndarray:
        """Forecast target times of the synthesis stage."""
        return np.arange(self.synth_forecast_start, self.end + 1)

    def agent_fit_times(self, target: int) -> np.ndarray:
        """Training times for an agent forecasting ``target``."""
        return np.arange(self.agent_fit_start, int(target))

    def synth_input_times(self, target: int) -> tuple[np.ndarray, np.ndarray]:
        """Realized-value times and agent-report times the synthesis of ``target`` reads.

        The reports cover the realized-value (training) times and ``target``.
        """
        fit_times = np.arange(self.synth_fit_start, int(target))
        return fit_times, np.append(fit_times, int(target))

    def time_label(self, t: int) -> str:
        return format_time(t, self.quarterly)


def _per_level(taus, section: str, build: Callable, issues: list) -> dict:
    """``{tau: build(tau)}``; a ``ValueError`` becomes one plan issue naming ``section``."""
    try:
        return {tau: build(tau) for tau in taus}
    except ValueError as exc:
        issues.append(f"{section}: {exc}")
        return {}


def make_plan(cfg: RunConfig, panel: SeriesPanel) -> BacktestPlan:
    """Parse and validate the window layout against the panel before any compute.

    Also builds every sampler setting the stages use, so a bad hyperparameter
    is refused here: one :class:`DQLMSpec` per (agent, level) and one
    :class:`DRQSConfig`, or :class:`FDRQSConfig` under ``plan.factor``, per
    level.
    """
    issues = []
    dates = {}
    for name in ("agent_fit_start", "agent_forecast_start", "synth_fit_start",
                 "synth_forecast_start", "end"):
        raw = getattr(cfg.plan, name)
        if raw == "" or raw is None:
            issues.append(f"plan.{name} is required")
            continue
        try:
            dates[name] = parse_time(raw)
        except ValueError as exc:
            issues.append(f"plan.{name}: {exc}")
    if not cfg.agents:
        issues.append("at least one agent must be configured")
    if issues:
        raise ValueError("invalid plan:\n  - " + "\n  - ".join(issues))

    afs, afos = dates["agent_fit_start"], dates["agent_forecast_start"]
    sfs, sfos, end = dates["synth_fit_start"], dates["synth_forecast_start"], dates["end"]
    if not afs < afos:
        issues.append(
            f"agent_fit_start {panel.time_label(afs)} must precede "
            f"agent_forecast_start {panel.time_label(afos)}: "
            "agents need at least one training observation"
        )
    else:
        for agent in cfg.agents:
            p = 1 + len(agent.predictors)
            if afos - afs < p:
                issues.append(
                    f"agent {agent.name}: the first window "
                    f"{panel.time_label(afs)}..{panel.time_label(afos - 1)} has {afos - afs} "
                    f"observation(s) but the design has p={p} columns (intercept and predictors)"
                )
    if not afos <= sfs:
        issues.append(
            f"synth_fit_start {panel.time_label(sfs)} precedes "
            f"agent_forecast_start {panel.time_label(afos)}: "
            "the synthesizer can only train on times where agent forecasts exist"
        )
    if not sfs < sfos:
        issues.append(
            f"synth_fit_start {panel.time_label(sfs)} must precede "
            f"synth_forecast_start {panel.time_label(sfos)}"
        )
    if not sfos <= end:
        issues.append(
            f"synth_forecast_start {panel.time_label(sfos)} must not exceed end {panel.time_label(end)}"
        )

    lag = cfg.data.predictor_lag
    any_predictors = any(a.predictors for a in cfg.agents)
    earliest_needed = afs - lag if any_predictors else afs
    for sid in panel.series_ids:
        rec = panel.record(sid)
        t0, t1 = int(rec.times[0]), int(rec.times[-1])
        if t0 > earliest_needed:
            issues.append(
                f"series {sid} starts at {panel.time_label(t0)} "
                f"but the plan needs data from {panel.time_label(earliest_needed)}"
            )
        if t1 < end:
            issues.append(
                f"series {sid} ends at {panel.time_label(t1)} before plan end {panel.time_label(end)}"
            )
        for agent in cfg.agents:
            for name in agent.predictors:
                if name != "y_lag" and name not in rec.predictors:
                    issues.append(
                        f"agent {agent.name}: predictor {name!r} missing from series {sid} "
                        f"(available: {sorted(rec.predictors)})"
                    )

    taus = tuple(cfg.plan.taus)
    specs = {
        agent.name: _per_level(
            taus,
            f"agent {agent.name}",
            lambda tau, a=agent: DQLMSpec(
                tau=tau, delta=a.delta, prior_scale=a.prior_scale,
                sigma_shape=a.sigma_shape, sigma_rate=a.sigma_rate,
            ),
            issues,
        )
        for agent in cfg.agents
    }
    J = len(cfg.agents)
    synth_configs = {}
    if not cfg.plan.factor:
        syn = cfg.synthesis
        synth_configs = _per_level(
            taus,
            "synthesis",
            lambda tau: DRQSConfig(tau=tau, J=J, disc=DiscountConfig(delta=syn.delta, beta=syn.beta)),
            issues,
        )
    elif len(panel.series_ids) < 2:
        issues.append("factor synthesis needs at least 2 series")
    else:
        fc, N = cfg.factor, len(panel.series_ids)
        L = fc.L if fc.L is not None else min(5, N - 1)
        if L >= N:
            issues.append(f"factor.L={L} must be smaller than the number of series N={N}")
        else:
            synth_configs = _per_level(
                taus,
                "factor",
                lambda tau: FDRQSConfig(
                    tau=tau, N=N, J=J, L=L, n0=fc.n0, s0=fc.s0, nu=fc.nu,
                    a1=fc.a1, a2=fc.a2, delta=fc.delta, beta=fc.beta,
                ),
                issues,
            )

    if issues:
        raise ValueError("invalid plan:\n  - " + "\n  - ".join(issues))
    return BacktestPlan(
        cfg=cfg,
        agent_fit_start=afs,
        agent_forecast_start=afos,
        synth_fit_start=sfs,
        synth_forecast_start=sfos,
        end=end,
        taus=taus,
        quarterly=panel.quarterly,
        agent_specs={tau: {name: by_tau[tau] for name, by_tau in specs.items()} for tau in taus},
        synth_configs=synth_configs,
    )


def build_design(
    record: SeriesRecord,
    fit_times: np.ndarray,
    predictors,
    lag: int,
    target: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Regression arrays ``(y, X, x_next)`` for one agent window.

    Columns: intercept first, then each named predictor lagged ``lag``
    quarters; the reserved name ``y_lag`` refers to the response itself.
    """
    fit_times = np.asarray(fit_times, dtype=int)
    if fit_times.size == 0:
        raise ValueError(f"series {record.series}: empty training window for target {target}")
    all_times = np.append(fit_times, int(target))
    y = record.y[record.positions(fit_times)]
    cols = [np.ones(all_times.size)]
    for name in predictors:
        pos = record.positions(all_times - int(lag))
        vals = record.y[pos] if name == "y_lag" else record.predictors[name][pos]
        cols.append(vals)
    X = np.column_stack(cols)
    return y, X[:-1], X[-1]


def task_stream(seed: int, *labels) -> np.random.Generator:
    """Generator keyed by the logical task identity, not scheduling order."""
    text = "\x1f".join(str(x) for x in labels)
    digest = hashlib.sha256(text.encode()).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in (0, 4, 8, 12)]
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, *words]))


# ---------------------------------------------------------------------------
# Parallel job execution


class JobError(RuntimeError):
    """A (tau, window) job failed; names the job, the fit and sweep within it, and keeps the cause.

    ``series`` and ``agent`` name the failing fit when the job runs several;
    they are None where the job has no such axis.  ``sweep`` is the Gibbs
    sweep (0-based, burn-in included) the failure happened in, or None when
    it happened outside a sampler's sweep loop.
    """

    def __init__(self, stage: str, tau: float, target_label: str, cause: BaseException,
                 series: str | None = None, agent: str | None = None, sweep: int | None = None):
        self.stage = stage
        self.tau = tau
        self.target_label = target_label
        self.cause = cause
        self.series = series
        self.agent = agent
        self.sweep = sweep
        where = (("series", series), ("agent", agent), ("sweep", sweep))
        fit = "".join(f", {k}={v}" for k, v in where if v is not None)
        super().__init__(f"{stage} stage failed at tau={tau}, window={target_label}{fit}: {cause}")

    @property
    def failed_job(self) -> dict:
        """This failure as the manifest's ``failed_job`` record."""
        return {"stage": self.stage, "tau": self.tau, "window": self.target_label, "series": self.series,
                "agent": self.agent, "sweep": self.sweep, "error": str(self.cause)}


def _run_agent_window(payload: dict) -> list:
    """Fit every (series, agent) pair for one (tau, window) task."""
    tau, target, seed = payload["tau"], payload["target"], payload["seed"]
    rows = []
    for job in payload["jobs"]:
        agent: AgentConfig = job["agent"]
        rng = task_stream(seed, "agents", job["series"], agent.name, tau, target)
        try:
            fit = fit_dqlm(
                job["y"], job["X"], payload["specs"][agent.name], mcmc=(agent.draws, agent.burn), rng=rng
            )
            a, A = forecast_dqlm(fit, job["x_next"], rng)
        except Exception as exc:
            exc.quantsynth_fit = (job["series"], agent.name)  # travels with the exception out of a worker
            raise
        rows.append((job["series"], target, agent.name, tau, a, A))
    return rows


def _run_synth_window(payload: dict) -> tuple:
    """Fit the univariate synthesizer per series for one (tau, window) task; no joint draws."""
    tau, target, seed = payload["tau"], payload["target"], payload["seed"]
    names = payload["agent_names"]
    Y, a, A = payload["Y"], payload["a"], payload["A"]
    rows = []
    for i, sid in enumerate(payload["series_ids"]):
        rng = task_stream(seed, "synthesis", sid, tau, target)
        try:
            draws = gibbs_drqs(
                Y[:, i],
                (a[:, i], A[:, i]),
                payload["cfg"],
                mcmc=payload["mcmc"],
                rng=rng,
                agent_names=names,
            )
            fc = forecast_drqs(draws, (payload["a_next"][i], payload["A_next"][i]), rng)
        except Exception as exc:
            exc.quantsynth_fit = (sid, None)
            raise
        rows.append((sid, target, tau, fc.point, fc.interval[0], fc.interval[1], fc.draws.size))
    return rows, None, None


def _run_factor_window(payload: dict) -> tuple:
    """Fit the factor synthesizer jointly over all series for one (tau, window).

    Returns the forecast rows, the (N, N) correlation of the (R, N) joint draws, and the draws
    themselves only under ``write_joint_draws``.
    """
    tau, target, seed = payload["tau"], payload["target"], payload["seed"]
    series_ids = payload["series_ids"]
    rng = task_stream(seed, "synthesis-factor", tau, target)
    draws = gibbs_fdrqs(
        payload["Y"],
        (payload["a"], payload["A"]),
        payload["cfg"],
        mcmc=payload["mcmc"],
        rng=rng,
        series_ids=series_ids,
    )
    ff = forecast_fdrqs(draws, (payload["a_next"], payload["A_next"]), rng)
    rows = []
    for i, sid in enumerate(series_ids):
        fc = ff.forecasts[i]
        rows.append((sid, target, tau, fc.point, fc.interval[0], fc.interval[1], fc.draws.size))
    corr = np.atleast_2d(np.corrcoef(np.ascontiguousarray(ff.joint.T)))
    return rows, corr, ff.joint if payload["write_joint_draws"] else None


def _timed(fn, payload: dict) -> tuple:
    """Run one job and time it where it runs: ``(result, seconds)``."""
    t0 = _time.perf_counter()
    result = fn(payload)
    return result, _time.perf_counter() - t0


def _run_pool(
    fn, payloads: list, pool: Executor | None, stage: str, plan: BacktestPlan
) -> tuple[list, list]:
    """Execute independent job payloads, fail-fast.

    Jobs go to ``pool``, the run's one process pool that :func:`run_stages`
    opens on first use, or run inline in this process when it is None.
    Returns the job results in payload order and one timing record per job.
    """
    timed = [None] * len(payloads)

    def failure(i: int, exc: Exception) -> JobError:
        p = payloads[i]
        series, agent = getattr(exc, "quantsynth_fit", (None, None))
        sweep = getattr(exc, "quantsynth_sweep", None)
        return JobError(stage, p["tau"], plan.time_label(p["target"]), exc, series, agent, sweep)

    if pool is None:
        for i, payload in enumerate(payloads):
            try:
                timed[i] = _timed(fn, payload)
            except Exception as exc:
                raise failure(i, exc) from exc
    else:
        futures = {pool.submit(_timed, fn, payload): i for i, payload in enumerate(payloads)}
        for fut in as_completed(futures):
            try:
                timed[futures[fut]] = fut.result()
            except Exception as exc:
                for other in futures:
                    other.cancel()
                raise failure(futures[fut], exc) from exc
    timings = [
        {"stage": stage, "tau": p["tau"], "window": plan.time_label(p["target"]),
         "seconds": round(seconds, 6)}
        for p, (_, seconds) in zip(payloads, timed)
    ]
    return [result for result, _ in timed], timings


# ---------------------------------------------------------------------------
# Stages


def _agent_jobs(plan: BacktestPlan, panel: SeriesPanel, target: int) -> list:
    """The (series, agent) fits of one agent window."""
    cfg = plan.cfg
    fit_times = plan.agent_fit_times(target)
    jobs = []
    for sid in panel.series_ids:
        rec = panel.record(sid)
        for agent in cfg.agents:
            y, X, x_next = build_design(rec, fit_times, agent.predictors, cfg.data.predictor_lag, target)
            jobs.append({"series": sid, "agent": agent, "y": y, "X": X, "x_next": x_next})
    return jobs


def _agent_payloads(plan: BacktestPlan, panel: SeriesPanel) -> list:
    jobs = {target: _agent_jobs(plan, panel, target) for target in plan.agent_targets.tolist()}
    return [
        {"tau": float(tau), "target": target, "seed": plan.seed, "jobs": target_jobs,
         "specs": plan.agent_specs[tau]}
        for tau in plan.taus
        for target, target_jobs in jobs.items()
    ]


def stage_fit_agents(
    plan: BacktestPlan, panel: SeriesPanel, pool: Executor | None = None
) -> tuple[AgentForecastSet, list]:
    """Fit every agent over the expanding windows; forecasts plus job timings.

    Jobs run on ``pool``, or inline when it is None.
    """
    payloads = _agent_payloads(plan, panel)
    results, timings = _run_pool(_run_agent_window, payloads, pool, "agents", plan)
    return AgentForecastSet.from_rows((row for rows in results for row in rows), plan.quarterly), timings


def _synth_payloads(plan: BacktestPlan, panel: SeriesPanel, fset: AgentForecastSet) -> list:
    """Synthesis inputs per (tau, window), as a panel both synthesizers read.

    ``Y`` is (T, N) realized values over the fit times; ``a``/``A`` are the
    (T, N, J) agent means and variances there, ``a_next``/``A_next`` the
    (N, J) reports for the target.  ``Y``, ``a`` and ``A`` are C-contiguous
    prefix slices of one array over the last window's times.  The univariate
    synthesizer fits one column at a time.
    """
    cfg = plan.cfg
    names = cfg.agent_names
    sids = panel.series_ids
    syn = cfg.factor if cfg.plan.factor else cfg.synthesis
    fit_all, report_all = plan.synth_input_times(plan.end)  # every window's times are a prefix of these
    Y_all = np.stack([rec.y[rec.positions(fit_all)] for rec in map(panel.record, sids)], axis=1)  # (T, N)
    a_all, A_all = fset.reports(plan.taus, report_all, sids, names)  # (levels, T, N, J) each
    payloads = []
    for level, tau in enumerate(plan.taus):
        for target in plan.synth_targets:
            fit_times, all_times = plan.synth_input_times(target)
            a, A = a_all[level, : all_times.size], A_all[level, : all_times.size]
            payloads.append(
                {
                    "tau": float(tau),
                    "target": int(target),
                    "seed": plan.seed,
                    "agent_names": names,
                    "series_ids": sids,
                    "cfg": plan.synth_configs[tau],
                    "mcmc": (syn.draws, syn.burn),
                    "write_joint_draws": cfg.factor.write_joint_draws,
                    "Y": Y_all[: fit_times.size],
                    "a": a[:-1],
                    "A": A[:-1],
                    "a_next": a[-1],
                    "A_next": A[-1],
                }
            )
    return payloads


def stage_synthesize(
    plan: BacktestPlan,
    panel: SeriesPanel,
    fset: AgentForecastSet,
    pool: Executor | None = None,
) -> tuple[list, list, list, list]:
    """Run the synthesis stage; returns (forecast rows, joint draws, correlation rows, timings).

    Joint draws, one ``(target, tau, series_ids, (R, N) draws)`` per factor window, are kept
    only under ``factor.write_joint_draws``; the correlation rows, ordered by (time, tau), fill
    ``plots/correlation.csv`` for every factor run.  Jobs run on ``pool``, or inline when it is None.
    """
    fn = _run_factor_window if plan.cfg.plan.factor else _run_synth_window
    payloads = _synth_payloads(plan, panel, fset)
    results, timings = _run_pool(fn, payloads, pool, "synthesis", plan)
    rows = sorted((row for res, _, _ in results for row in res), key=lambda r: (r[0], r[1], r[2]))
    windows = [(p["target"], p["tau"], p["series_ids"], *res[1:]) for p, res in zip(payloads, results)]
    joint = [(t, tau, sids, draws) for t, tau, sids, _, draws in windows if draws is not None]
    corr_rows = [
        (plan.time_label(t), _repr_float(tau), si, sj, _report_float(c))
        for t, tau, sids, corr, _ in sorted(windows, key=lambda w: w[:2]) if corr is not None
        for si, corr_row in zip(sids, corr.tolist()) for sj, c in zip(sids, corr_row)
    ]
    return rows, joint, corr_rows, timings


def _forecast_curves(plan: BacktestPlan, rows: list) -> dict:
    """Point forecasts as ``{(series, time): curve over plan.taus}``; refuses a missing or repeated level."""
    levels = [tau_key(t) for t in plan.taus]
    maps: dict = {}
    for series, t, tau, point, *_ in rows:
        curve_map = maps.setdefault((series, int(t)), {})
        if tau_key(tau) in curve_map:
            raise ValueError(f"repeated forecast for series {series} at {plan.time_label(t)}, tau {tau}")
        curve_map[tau_key(tau)] = float(point)
    curves = {}
    for (series, t), curve_map in maps.items():
        if sorted(curve_map) != levels:
            raise ValueError(
                f"forecasts for series {series} at {plan.time_label(t)} have levels "
                f"{sorted(curve_map)}, not the plan's {list(plan.taus)}"
            )
        curves[(series, t)] = np.array([curve_map[k] for k in levels])
    return curves


def stage_evaluate(
    plan: BacktestPlan,
    panel: SeriesPanel,
    fset: AgentForecastSet,
    synth_rows: list,
) -> tuple[dict, list, list]:
    """Score every model on the synthesis targets.

    Returns ``(panels, pit_rows, ratio_rows)``: per-(model, scheme)
    :class:`ScorePanel` objects, PIT rows per (model, series, time), and
    cumulative-ratio rows per (model, scheme, t_star) against the reference
    model, summed over series.
    """
    cfg = plan.cfg
    grid = QuantileGrid(np.asarray(plan.taus, dtype=float))
    synth_name = cfg.synth_model_name
    models = cfg.agent_names + [synth_name]

    synth_curves = _forecast_curves(plan, synth_rows)
    sids, targets = panel.series_ids, plan.synth_targets
    agent_a, _ = fset.reports(plan.taus, targets, sids, cfg.agent_names)  # (levels, targets, series, agents)
    scores = {
        (model, scheme): np.empty((len(sids), targets.size))
        for model in models
        for scheme in cfg.evaluation.schemes
    }
    pit_rows = []
    for i, sid in enumerate(sids):
        rec = panel.record(sid)
        for k, target in enumerate(targets.tolist()):
            y = rec.y_at(target)
            for j, model in enumerate(models):
                if model == synth_name:
                    curve = synth_curves.get((sid, target))
                    if curve is None:
                        raise ValueError(
                            f"missing synthesized forecasts for series {sid} at "
                            f"{plan.time_label(target)}"
                        )
                else:
                    curve = agent_a[:, k, i, j]
                for scheme in cfg.evaluation.schemes:
                    scores[(model, scheme)][i, k] = crps_quantile_weighted(y, curve, grid, scheme)
                rng = task_stream(plan.seed, "eval-pit", model, sid, target)
                try:
                    rp = reconstruct_predictive(
                        curve, grid, R=cfg.evaluation.reconstruction_draws, rng=rng
                    )
                except ValueError as exc:
                    raise ValueError(
                        f"PIT reconstruction failed for model {model}, series {sid}, "
                        f"time {plan.time_label(target)}: {exc}"
                    ) from exc
                pit_rows.append((model, sid, target, pit(y, rp.draws)))

    panels = {
        (model, scheme): ScorePanel(model, scheme, sids, targets, crps)
        for (model, scheme), crps in scores.items()
    }
    ratio_rows = []
    for (model, scheme), score_panel in panels.items():
        curve = score_panel.rtcs_vs(panels[(cfg.reference_model, scheme)])
        ratio_rows += [(model, scheme, t, v) for t, v in zip(targets.tolist(), curve.tolist())]
    return panels, pit_rows, ratio_rows


def stage_reconstruct(plan: BacktestPlan, rows: list) -> tuple[list, np.ndarray]:
    """Predictive draws rebuilt from every stored synthesized quantile curve.

    Returns the sorted ``(series, time)`` keys and an (n, R) array holding
    each key's ``evaluation.reconstruction_draws`` draws in its row.
    """
    curves = _forecast_curves(plan, rows)
    grid = QuantileGrid(np.asarray(plan.taus, dtype=float))
    keys = sorted(curves)
    draws = np.empty((len(keys), plan.cfg.evaluation.reconstruction_draws))
    for i, (series, t) in enumerate(keys):
        rng = task_stream(plan.seed, "reconstruct", series, t)
        try:
            draws[i] = reconstruct_predictive(curves[(series, t)], grid, R=draws.shape[1], rng=rng).draws
        except ValueError as exc:
            raise ValueError(
                f"reconstruction failed for series {series} at {plan.time_label(t)}: {exc}"
            ) from exc
    return keys, draws


# ---------------------------------------------------------------------------
# Artifacts


@dataclass
class RunManifest:
    """Reproducibility record: input hash, seed, environment, timings, outputs."""

    config_hash: str
    seed: int
    versions: dict
    windows: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    complete: bool = False
    failed_job: dict | None = None
    started_at: str = ""
    finished_at: str = ""

    def write(self, path) -> None:
        payload = dataclasses.asdict(self)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _versions() -> dict:
    import platform

    from . import __version__

    return {"quantsynth": __version__, "python": platform.python_version(), "numpy": np.__version__}


def _forecast_cells(rows, time_label: Callable) -> list:
    """Forecast rows as ``FORECAST_COLUMNS`` cells, sorted by (series, time, tau)."""
    return [
        (series, time_label(t), *map(_repr_float, (tau, point, lo, hi)), int(n))
        for series, t, tau, point, lo, hi, n in sorted(rows, key=lambda r: (r[0], r[1], r[2]))
    ]


def write_forecasts(rows, path, time_label: Callable) -> None:
    """Forecast summary rows: ``series,time,tau,point,lo95,hi95,n_draws``."""
    _write_csv(path, FORECAST_COLUMNS, _forecast_cells(rows, time_label))


def read_forecasts(path) -> list:
    """Inverse of :func:`write_forecasts`; returns tuples with integer times.

    A row whose point or interval end is not finite is refused, naming the row.
    """
    def parse(cells):
        series, label, tau, point, lo95, hi95, n_draws = cells
        rec = (series, parse_time(label), float(tau), float(point), float(lo95), float(hi95), int(n_draws))
        if not np.all(np.isfinite(rec[3:6])):
            raise ValueError(f"point, lo95 and hi95 must be finite, got {rec[3:6]}")
        return rec

    return list(_read_rows(path, FORECAST_COLUMNS, parse))


def write_joint_draws(windows, path, time_label: Callable) -> None:
    """Joint draws from :func:`stage_synthesize` as ``time,tau,draw,series,Q``.

    One row per (window, draw, series), in window order; each window's time and
    tau cells are formatted once, and its rows stream to the file as they are made.
    """
    labelled = ((time_label(t), _repr_float(tau), sids, draws) for t, tau, sids, draws in windows)
    _write_csv(path, JOINT_COLUMNS, (
        (label, tau_cell, r, sid, _repr_float(q))
        for label, tau_cell, sids, draws in labelled
        for r, values in enumerate(draws.tolist()) for sid, q in zip(sids, values)
    ))


def write_reconstructed(keys, draws, path, time_label: Callable) -> None:
    """Reconstructed predictive draws: ``series,time,draw,value``, streamed row by row."""
    labelled = ((series, time_label(t)) for series, t in keys)
    _write_csv(path, RECONSTRUCTED_COLUMNS, (
        (series, label, r, _repr_float(v))
        for (series, label), values in zip(labelled, draws) for r, v in enumerate(values.tolist())
    ))


def write_scores(panels: dict, path, time_label: Callable) -> None:
    """Score rows: ``series,time,model,scheme,crps``."""
    rows = sorted(  # (series, time, model, scheme) is unique, so the score never decides
        (series, t, model, scheme, value)
        for (model, scheme), panel in panels.items()
        for series, row in zip(panel.series, panel.crps.tolist())
        for t, value in zip(panel.times.tolist(), row)
    )
    _write_csv(path, SCORE_COLUMNS, (
        (series, time_label(t), model, scheme, _report_float(v)) for series, t, model, scheme, v in rows
    ))


def write_ratios(ratio_rows, path, time_label: Callable) -> None:
    """Cumulative score ratios: ``model,scheme,t_star,rcs``."""
    _write_csv(path, RATIO_COLUMNS, (
        (model, scheme, time_label(t), _report_float(v))
        for model, scheme, t, v in sorted(ratio_rows, key=lambda r: (r[0], r[1], r[2]))
    ))


def write_pit(pit_rows, path, time_label: Callable) -> None:
    """PIT rows: ``model,series,time,pit``."""
    _write_csv(path, PIT_COLUMNS, (
        (model, series, time_label(t), _report_float(v))
        for model, series, t, v in sorted(pit_rows, key=lambda r: (r[0], r[1], r[2]))
    ))


def emit_plots_data(plan: BacktestPlan, panels: dict, rows: list, pit_rows: list) -> tuple:
    """Plot-ready long-format tables from the evaluate stage's own results.

    Returns ``(rcs_curve, fan, pit_ecdf)`` as rows of CSV cells: cumulative
    score-ratio curves per series from the full-precision score ``panels``,
    the forecast fan (point and 95% band) of the synthesized forecast
    ``rows``, whose cells are those of ``forecasts.csv`` without ``n_draws``
    (one formatter makes both), and PIT empirical CDFs of ``pit_rows``.  It
    reads no file; the fourth plot table, ``plots/correlation.csv``, comes
    from :func:`stage_synthesize`, where the joint draws are.
    """
    reference = plan.cfg.reference_model

    # Score curves: per-series cumulative ratio of every model to the reference.
    rcs_rows = [
        (model, scheme, series, plan.time_label(t), _report_float(v))
        for (model, scheme), panel in sorted(panels.items())
        for series, curve in zip(panel.series, panel.rcs_vs(panels[(reference, scheme)]).tolist())
        for t, v in zip(panel.times.tolist(), curve)
    ]

    fan_rows = [cells[:-1] for cells in _forecast_cells(rows, plan.time_label)]  # without n_draws

    # PIT empirical CDF on a fixed grid of u values.
    pit_values: dict = {}
    for model, series, _, value in pit_rows:
        pit_values.setdefault((model, series), []).append(value)
    ecdf_rows = []
    u_grid = np.array([round(0.01 * k, 10) for k in range(101)])
    for (model, series), values in sorted(pit_values.items()):
        ecdf = np.searchsorted(np.sort(values), u_grid, side="right") / len(values)
        ecdf_rows += [(model, series, _report_float(u), _report_float(e)) for u, e in zip(u_grid, ecdf)]
    return rcs_rows, fan_rows, ecdf_rows


# ---------------------------------------------------------------------------
# Orchestration


def _normalized_config_hash(cfg: RunConfig) -> str:
    """Hash of the run-defining configuration: execution-only settings pinned."""
    return config_hash(dataclasses.replace(cfg, workers=1, out_dir="out"))


class RunRefusedError(Exception):
    """The named stages cannot run with this config or ``out_dir``; nothing was run or written."""


class MissingInputError(RunRefusedError, FileNotFoundError):
    """A stage input is neither produced earlier in the run nor present in ``out_dir``."""


@dataclass(frozen=True)
class Stage:
    """One protocol step: the artifacts it reads and writes, and its function.

    ``run(plan, panel, pool, *inputs)`` gets one input per entry of ``reads``
    and returns one value per entry of ``writes``, then the stage's per-job
    timings.  ``pool`` is the run's process pool, or None to run inline; only
    a ``pooled`` stage gets a pool opened for it.  Each ``run`` calls its
    stage function by name when it runs, so a wrapper installed on this
    module's attribute is the one called.  No ``run`` reads ``out_dir``.  The
    ``synthesis`` row writes ``plots/correlation.csv`` from its jobs' joint draws
    and the ``evaluate`` row the other plot tables: it calls
    :func:`stage_evaluate`, then :func:`emit_plots_data` on its results.
    """

    name: str
    reads: tuple
    writes: tuple
    run: Callable
    pooled: bool = False


def _run_evaluate(plan, panel, pool, fset, rows) -> tuple:
    """Score, then build the plot tables from the scores, PIT rows and forecast rows."""
    panels, pit_rows, ratio_rows = stage_evaluate(plan, panel, fset, rows)
    return panels, pit_rows, ratio_rows, *emit_plots_data(plan, panels, rows, pit_rows), []


STAGES = {
    stage.name: stage
    for stage in (
        Stage(
            "agents",
            reads=(),
            writes=("agent_forecasts.csv",),
            run=lambda plan, panel, pool: stage_fit_agents(plan, panel, pool),
            pooled=True,
        ),
        Stage(
            "synthesis",
            reads=("agent_forecasts.csv",),
            writes=("forecasts.csv", "joint_draws.csv", "plots/correlation.csv"),
            run=lambda plan, panel, pool, fset: stage_synthesize(plan, panel, fset, pool),
            pooled=True,
        ),
        Stage(
            "evaluate",
            reads=("agent_forecasts.csv", "forecasts.csv"),
            writes=("scores.csv", "pit.csv", "ratios.csv",
                    "plots/rcs_curve.csv", "plots/fan.csv", "plots/pit_ecdf.csv"),
            run=_run_evaluate,
        ),
        Stage(
            "reconstruct",
            reads=("forecasts.csv",),
            writes=("reconstructed_draws.csv",),
            run=lambda plan, panel, pool, rows: (stage_reconstruct(plan, rows), []),
        ),
    )
}

# Artifact readers and writers, also looked up by name when they run.
_READERS = {
    "agent_forecasts.csv": lambda path: AgentForecastSet.from_csv(path),
    "forecasts.csv": lambda path: read_forecasts(path),
}
_WRITERS = {  # each called with the artifact, its path and the plan's time formatter
    "agent_forecasts.csv": lambda fset, path, label: fset.to_csv(path),
    "forecasts.csv": lambda rows, path, label: write_forecasts(rows, path, label),
    "joint_draws.csv": lambda rows, path, label: write_joint_draws(rows, path, label),
    "scores.csv": lambda panels, path, label: write_scores(panels, path, label),
    "pit.csv": lambda rows, path, label: write_pit(rows, path, label),
    "ratios.csv": lambda rows, path, label: write_ratios(rows, path, label),
    "reconstructed_draws.csv": lambda value, path, label: write_reconstructed(*value, path, label),
    **{
        name: lambda rows, path, label, header=header: _write_csv(path, header, rows)
        for name, header in PLOT_COLUMNS.items()
    },
}


def run_stages(cfg: RunConfig, names) -> RunManifest:
    """Run the named stages of :data:`STAGES` in order and write their artifacts.

    Each stage takes its inputs from an earlier stage of the same call, or
    else from ``cfg.out_dir``; if one is in neither place,
    :class:`MissingInputError` is raised before any stage runs, as is
    :class:`RunRefusedError` for an invalid plan, when ``evaluate`` or
    ``reconstruct`` is asked for with fewer than 4 quantile levels
    (reconstruction fits both tails), or when ``evaluate`` is asked for with a
    reference model that is neither an agent nor the synthesizer.  Every
    artifact, the plot tables under ``plots/`` included, is written by its
    entry in ``_WRITERS`` and listed in the manifest's ``outputs``; a stage
    that writes no joint draws removes a stale ``joint_draws.csv``.
    ``manifest.json`` records the per-job timings and the files written; any
    failure aborts the run, and the manifest is still written with
    ``complete`` false and the failing job identified.

    With ``cfg.workers > 1`` the first stage that submits jobs opens one
    process pool (the platform's default start method), which every later
    stage reuses; it is shut down, pending jobs cancelled, before the
    manifest is written, so no worker outlives the call.
    """
    panel = ingest(cfg.data.panel_csv, cfg.data.h)
    try:
        plan = make_plan(cfg, panel)
    except ValueError as exc:
        raise RunRefusedError(str(exc)) from None
    out = Path(cfg.out_dir)
    stages = [STAGES[name] for name in names]

    for name in ("evaluate", "reconstruct"):
        if name in names and len(plan.taus) < 4:
            raise RunRefusedError(
                f"the {name} stage needs at least 4 quantile levels for tail fitting, "
                f"got {len(plan.taus)}"
            )
    if "evaluate" in names:
        models = cfg.agent_names + [cfg.synth_model_name]
        if cfg.reference_model not in models:
            raise RunRefusedError(
                f"reference model {cfg.reference_model!r} is not one of {models}"
            )
    produced, missing = set(), []
    for stage in stages:
        for name in stage.reads:
            if name not in produced and not (out / name).exists():
                missing.append(str(out / name))
        produced.update(stage.writes)
    if missing:
        raise MissingInputError(f"{', '.join(missing)} not found; run the earlier stages first")
    out.mkdir(parents=True, exist_ok=True)

    manifest = RunManifest(
        config_hash=_normalized_config_hash(cfg),
        seed=plan.seed,
        versions=_versions(),
        started_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )
    artifacts = {}
    pool = None
    try:
        for stage in stages:
            if stage.pooled and cfg.workers > 1 and pool is None:
                pool = ProcessPoolExecutor(max_workers=cfg.workers)
            inputs = [artifacts[a] if a in artifacts else _READERS[a](out / a) for a in stage.reads]
            *values, timings = stage.run(plan, panel, pool, *inputs)
            manifest.windows.extend(timings)
            for name, value in zip(stage.writes, values):
                artifacts[name] = value
                if name == "joint_draws.csv" and not value:
                    # Only a factor run with write_joint_draws keeps draws; an
                    # earlier run's file must not sit beside this run's forecasts.
                    (out / name).unlink(missing_ok=True)
                    continue
                _WRITERS[name](value, out / name, plan.time_label)
                manifest.outputs.append(name)
        manifest.complete = True
    except Exception as exc:
        manifest.failed_job = exc.failed_job if isinstance(exc, JobError) else {"error": str(exc)}
        raise
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        manifest.finished_at = datetime.datetime.now(datetime.timezone.utc).isoformat()
        manifest.outputs.sort()
        manifest.write(out / "manifest.json")
    return manifest


def run_backtest(cfg: RunConfig) -> RunManifest:
    """Execute the full expanding-window protocol and write all artifacts.

    Artifacts in ``cfg.out_dir``: ``agent_forecasts.csv``, ``forecasts.csv``,
    ``scores.csv``, ``ratios.csv``, ``pit.csv``, the plot tables under
    ``plots/``, optionally ``joint_draws.csv``, and
    ``manifest.json``.  Any job failure aborts the run; the manifest is
    still written with ``complete`` false and the failing job identified.
    """
    return run_stages(cfg, ("agents", "synthesis", "evaluate"))


def audit_lookahead(cfg: RunConfig) -> list:
    """Check that every job's payload reads exactly the times the protocol names.

    The stages' own payload builders run on stamped inputs: the real panel's series,
    times and predictor names with every value equal to its time, and reports whose
    ``a`` is their time, with one spare period each side; so each payload array holds
    the times its job reads.  An agent fit for target t reads y at
    ``agent_fit_start .. t-1`` and its predictors ``predictor_lag`` earlier, through t.
    A synthesis window reads Y at ``synth_fit_start .. t-1`` and the reports through t
    (a report is fit on data through its time - 1).  One record per agent (window,
    series, agent) fit and per synthesis window: the newest time consumed, and ``ok``
    if every level's payload reads exactly the protocol's times.  Scoring reads the
    realized value at the target by definition, so it is not audited.
    """
    panel = ingest(cfg.data.panel_csv, cfg.data.h)
    plan = make_plan(cfg, panel)
    stamped = SeriesPanel(panel.h, panel.quarterly, {
        sid: SeriesRecord(sid, r.times, r.times, dict.fromkeys(r.predictors, r.times))
        for sid, r in panel.records.items()
    })
    reports = AgentForecastSet.from_rows(
        (sid, t, name, tau, t, 1.0)
        for tau in plan.taus for sid in panel.series_ids for name in cfg.agent_names
        for t in range(plan.synth_fit_start - 1, plan.end + 2)
    )
    found: dict = {}  # (stage, series, model, target) -> [newest time consumed, ok]

    def check(key, newest, reads):
        """``reads`` pairs an array with the times its slices along the first axis must hold."""
        ok = all(got.shape[:1] == times.shape and np.all(got.T == times) for got, times in reads)
        row = found.setdefault(key, [newest, ok])
        row[:] = max(row[0], newest), row[1] and ok

    lag = cfg.data.predictor_lag
    for p in _agent_payloads(plan, stamped):
        fit = np.arange(plan.agent_fit_start, p["target"])
        for job in p["jobs"]:
            X = np.vstack([job["X"], job["x_next"]])[:, 1:]  # the predictors, without the intercept
            check(("agents", job["series"], job["agent"].name, p["target"]),
                  max(job["y"].max(), X.max(initial=-np.inf)),
                  [(job["y"], fit), (X, np.append(fit, p["target"]) - lag)])
    for p in _synth_payloads(plan, stamped, reports):
        fit = np.arange(plan.synth_fit_start, p["target"])
        a = np.concatenate([p["a"], p["a_next"][None]])
        check(("synthesis", "*", cfg.synth_model_name, p["target"]),
              max(p["Y"].max(), a.max() - 1),
              [(p["Y"], fit), (a, np.append(fit, p["target"]))])
    return [
        {"stage": stage, "series": series, "model": model, "target": plan.time_label(target),
         "max_input_time": plan.time_label(int(newest)), "ok": ok}
        for (stage, series, model, target), (newest, ok) in found.items()
    ]
