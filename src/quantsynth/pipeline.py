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

Jobs are independent across (tau, window) and run under a bounded process
pool.  Every job derives its generator from the root seed and its own
logical identity, so outputs are bit-identical across worker counts and
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
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from ._worker import limit_worker_threads
from .agents import AgentForecastSet, DQLMSpec, fit_dqlm, forecast_dqlm
from .config import AgentConfig, RunConfig, config_hash
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

    The CSV needs columns ``series,time,Y``; any further columns are carried
    as predictors.  Each series becomes ``y_t = 400 log(Y_t / Y_{t-h}) / h``
    with its first h observations consumed by the transform; predictor
    columns pass through untransformed, aligned to the remaining times.
    """
    h = int(h)
    if h < 1:
        raise ValueError(f"transform horizon h must be >= 1, got {h}")
    path = Path(panel_csv)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = tuple(reader.fieldnames or ())
        if header[:3] != ("series", "time", "Y"):
            raise ValueError(f"{path}: header must start with series,time,Y; got {','.join(header)}")
        predictor_names = list(header[3:])
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: no data rows")

    quarterly = is_quarter_label(rows[0]["time"])
    grouped: dict = {}
    for i, row in enumerate(rows, start=2):
        sid = str(row["series"]).strip()
        if not sid:
            raise ValueError(f"{path}, row {i}: empty series id")
        cell = str(row["time"]).strip()
        if is_quarter_label(cell) != quarterly:
            raise ValueError(f"{path}, row {i}: mixed quarter-label and integer time formats")
        t = parse_time(cell)
        try:
            level = float(row["Y"])
        except (TypeError, ValueError):
            raise ValueError(f"{path}, row {i}: level {row['Y']!r} is not a number") from None
        if not np.isfinite(level) or level <= 0.0:
            raise ValueError(
                f"{path}, row {i}: series {sid} at {cell} has nonpositive level {row['Y']}"
            )
        preds = {}
        for name in predictor_names:
            try:
                value = float(row[name])
            except (TypeError, ValueError):
                raise ValueError(f"{path}, row {i}: predictor {name}={row[name]!r} is not a number") from None
            if not np.isfinite(value):
                raise ValueError(f"{path}, row {i}: predictor {name} is not finite")
            preds[name] = value
        grouped.setdefault(sid, []).append((t, level, preds))

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
    names = []
    if panel.series_ids:
        names = list(panel.record(panel.series_ids[0]).predictors)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["series", "time", "y", *names])
        for sid in panel.series_ids:
            rec = panel.record(sid)
            for i, t in enumerate(rec.times):
                row = [sid, panel.time_label(t), _repr_float(rec.y[i])]
                row += [_repr_float(rec.predictors[n][i]) for n in names]
                writer.writerow(row)


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

    def synth_fit_times(self, target: int) -> np.ndarray:
        """Training times for the synthesizer forecasting ``target``."""
        return np.arange(self.synth_fit_start, int(target))

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
    lbl = lambda t: format_time(t, panel.quarterly)
    if not afs < afos:
        issues.append(
            f"agent_fit_start {lbl(afs)} must precede agent_forecast_start {lbl(afos)}: "
            "agents need at least one training observation"
        )
    else:
        for agent in cfg.agents:
            p = 1 + len(agent.predictors)
            if afos - afs < p:
                issues.append(
                    f"agent {agent.name}: the first window {lbl(afs)}..{lbl(afos - 1)} has "
                    f"{afos - afs} observation(s) but the design has p={p} columns "
                    "(intercept and predictors)"
                )
    if not afos <= sfs:
        issues.append(
            f"synth_fit_start {lbl(sfs)} precedes agent_forecast_start {lbl(afos)}: "
            "the synthesizer can only train on times where agent forecasts exist"
        )
    if not sfs < sfos:
        issues.append(
            f"synth_fit_start {lbl(sfs)} must precede synth_forecast_start {lbl(sfos)}"
        )
    if not sfos <= end:
        issues.append(f"synth_forecast_start {lbl(sfos)} must not exceed end {lbl(end)}")

    lag = cfg.data.predictor_lag
    any_predictors = any(a.predictors for a in cfg.agents)
    earliest_needed = afs - lag if any_predictors else afs
    for sid in panel.series_ids:
        rec = panel.record(sid)
        t0, t1 = int(rec.times[0]), int(rec.times[-1])
        if t0 > earliest_needed:
            issues.append(
                f"series {sid} starts at {lbl(t0)} but the plan needs data from {lbl(earliest_needed)}"
            )
        if t1 < end:
            issues.append(f"series {sid} ends at {lbl(t1)} before plan end {lbl(end)}")
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Regression arrays for one agent window.

    Columns: intercept first, then each named predictor lagged ``lag``
    quarters; the reserved name ``y_lag`` refers to the response itself.
    Returns ``(y, X, x_next, max_input_time)`` where ``max_input_time`` is
    the largest time index of any consumed value, used by the look-ahead
    audit.
    """
    fit_times = np.asarray(fit_times, dtype=int)
    if fit_times.size == 0:
        raise ValueError(f"series {record.series}: empty training window for target {target}")
    all_times = np.append(fit_times, int(target))
    y = record.y[record.positions(fit_times)]
    cols = [np.ones(all_times.size)]
    max_input = int(fit_times[-1])
    for name in predictors:
        src_times = all_times - int(lag)
        pos = record.positions(src_times)
        vals = record.y[pos] if name == "y_lag" else record.predictors[name][pos]
        cols.append(vals)
        max_input = max(max_input, int(src_times.max()))
    X = np.column_stack(cols)
    return y, X[:-1], X[-1], max_input


def task_stream(seed: int, *labels) -> np.random.Generator:
    """Generator keyed by the logical task identity, not scheduling order."""
    text = "\x1f".join(str(x) for x in labels)
    digest = hashlib.sha256(text.encode()).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in (0, 4, 8, 12)]
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, *words]))


# ---------------------------------------------------------------------------
# Parallel job execution


class JobError(RuntimeError):
    """A (tau, window) job failed; identifies the job, and the fit within it, and keeps the cause.

    ``series`` and ``agent`` name the failing fit when the job runs several;
    they are None where the job has no such axis.
    """

    def __init__(self, stage: str, tau: float, target_label: str, cause: BaseException,
                 series: str | None = None, agent: str | None = None):
        self.stage = stage
        self.tau = tau
        self.target_label = target_label
        self.cause = cause
        self.series = series
        self.agent = agent
        fit = "".join(f", {k}={v}" for k, v in (("series", series), ("agent", agent)) if v is not None)
        super().__init__(f"{stage} stage failed at tau={tau}, window={target_label}{fit}: {cause}")


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
            fc = forecast_dqlm(fit, job["x_next"], rng, t_next=target)
        except Exception as exc:
            exc.quantsynth_fit = (job["series"], agent.name)  # travels with the exception out of a worker
            raise
        rows.append((job["series"], target, agent.name, tau, fc.a, fc.A))
    return rows


def _run_synth_window(payload: dict) -> tuple[list, list]:
    """Fit the univariate synthesizer per series for one (tau, window) task."""
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
            fc = forecast_drqs(draws, (payload["a_next"][i], payload["A_next"][i]), rng, t_next=target)
        except Exception as exc:
            exc.quantsynth_fit = (sid, None)
            raise
        rows.append((sid, target, tau, fc.point, fc.interval[0], fc.interval[1], fc.draws.size))
    return rows, []


def _run_factor_window(payload: dict) -> tuple[list, list]:
    """Fit the factor synthesizer jointly over all series for one (tau, window)."""
    tau, target, seed = payload["tau"], payload["target"], payload["seed"]
    names, series_ids = payload["agent_names"], payload["series_ids"]
    rng = task_stream(seed, "synthesis-factor", tau, target)
    draws = gibbs_fdrqs(
        payload["Y"],
        (payload["a"], payload["A"]),
        payload["cfg"],
        mcmc=payload["mcmc"],
        rng=rng,
        series_ids=series_ids,
        agent_names=names,
    )
    ff = forecast_fdrqs(draws, (payload["a_next"], payload["A_next"]), rng, t_next=target)
    rows = []
    for i, sid in enumerate(series_ids):
        fc = ff.forecasts[i]
        rows.append((sid, target, tau, fc.point, fc.interval[0], fc.interval[1], fc.draws.size))
    joint = []
    if payload["write_joint_draws"]:
        R = ff.joint.shape[0]
        for r in range(R):
            for i, sid in enumerate(series_ids):
                joint.append((target, tau, r, sid, ff.joint[r, i]))
    return rows, joint


def _timed(fn, payload: dict) -> tuple:
    """Run one job and time it where it runs: ``(result, seconds)``."""
    t0 = _time.perf_counter()
    result = fn(payload)
    return result, _time.perf_counter() - t0


def _run_pool(fn, payloads: list, workers: int, stage: str, plan: BacktestPlan) -> tuple[list, list]:
    """Execute independent job payloads, fail-fast.

    Returns the job results in payload order and one timing record per job.
    """
    timed = [None] * len(payloads)

    def failure(i: int, exc: Exception) -> JobError:
        p = payloads[i]
        series, agent = getattr(exc, "quantsynth_fit", (None, None))
        return JobError(stage, p["tau"], plan.time_label(p["target"]), exc, series, agent)

    if workers <= 1:
        for i, payload in enumerate(payloads):
            try:
                timed[i] = _timed(fn, payload)
            except Exception as exc:
                raise failure(i, exc) from exc
    else:
        ctx = get_context("spawn")
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=ctx, initializer=limit_worker_threads
        ) as pool:
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
    """The (series, agent) fits of one agent window, each with the newest time its design reads."""
    cfg = plan.cfg
    fit_times = plan.agent_fit_times(target)
    jobs = []
    for sid in panel.series_ids:
        rec = panel.record(sid)
        for agent in cfg.agents:
            y, X, x_next, max_input = build_design(
                rec, fit_times, agent.predictors, cfg.data.predictor_lag, target
            )
            jobs.append(
                {"series": sid, "agent": agent, "y": y, "X": X, "x_next": x_next,
                 "max_input": max_input}
            )
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
    plan: BacktestPlan, panel: SeriesPanel, workers: int = 1
) -> tuple[AgentForecastSet, list]:
    """Fit every agent over the expanding windows; forecasts plus job timings."""
    payloads = _agent_payloads(plan, panel)
    results, timings = _run_pool(_run_agent_window, payloads, workers, "agents", plan)
    fset = AgentForecastSet(quarterly=plan.quarterly)
    for rows in results:
        for row in rows:
            fset.add(*row)
    return fset, timings


def _synth_payloads(plan: BacktestPlan, panel: SeriesPanel, fset: AgentForecastSet) -> list:
    """Synthesis inputs per (tau, window), as a panel both synthesizers read.

    ``Y`` is (T, N) realized values over the fit times; ``a``/``A`` are the
    (T, N, J) agent means and variances there, ``a_next``/``A_next`` the
    (N, J) reports for the target.  The univariate synthesizer fits one
    column at a time.
    """
    cfg = plan.cfg
    names = cfg.agent_names
    sids = panel.series_ids
    syn = cfg.factor if cfg.plan.factor else cfg.synthesis
    payloads = []
    for tau in plan.taus:
        for target in plan.synth_targets:
            fit_times = plan.synth_fit_times(target)
            all_times = np.append(fit_times, target)
            Y = np.empty((fit_times.size, len(sids)))
            a = np.empty((all_times.size, len(sids), len(names)))
            A = np.empty_like(a)
            for i, sid in enumerate(sids):
                rec = panel.record(sid)
                Y[:, i] = rec.y[rec.positions(fit_times)]
                a[:, i], A[:, i] = fset.panel(sid, tau, all_times, names)
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
                    "Y": Y,
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
    workers: int = 1,
) -> tuple[list, list, list]:
    """Run the synthesis stage; returns (forecast rows, joint draw rows, timings)."""
    fn = _run_factor_window if plan.cfg.plan.factor else _run_synth_window
    results, timings = _run_pool(fn, _synth_payloads(plan, panel, fset), workers, "synthesis", plan)
    rows = sorted((row for res, _ in results for row in res), key=lambda r: (r[0], r[1], r[2]))
    joint = [row for _, res in results for row in res]
    return rows, joint, timings


def _forecast_curves(plan: BacktestPlan, rows: list) -> dict:
    """Point forecasts as ``{(series, time): curve over plan.taus}``; refuses a curve missing a level."""
    levels = [round(float(t), 10) for t in plan.taus]
    maps: dict = {}
    for series, t, tau, point, *_ in rows:
        maps.setdefault((series, int(t)), {})[round(float(tau), 10)] = float(point)
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
    reference = cfg.reference_model

    synth_curves = _forecast_curves(plan, synth_rows)
    panels = {
        (model, scheme): ScorePanel(model=model, scheme=scheme)
        for model in models
        for scheme in cfg.evaluation.schemes
    }
    pit_rows = []
    for sid in panel.series_ids:
        rec = panel.record(sid)
        for target in plan.synth_targets:
            target = int(target)
            y = rec.y_at(target)
            for model in models:
                if model == synth_name:
                    curve = synth_curves.get((sid, target))
                    if curve is None:
                        raise ValueError(
                            f"missing synthesized forecasts for series {sid} at "
                            f"{plan.time_label(target)}"
                        )
                else:
                    curve = np.array([fset.get(sid, target, model, t).a for t in plan.taus])
                for scheme in cfg.evaluation.schemes:
                    score = crps_quantile_weighted(y, curve, grid, scheme)
                    panels[(model, scheme)].add(sid, target, score)
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

    ratio_rows = []
    t_start = int(plan.synth_forecast_start)
    for model in models:
        for scheme in cfg.evaluation.schemes:
            ref_panel = panels[(reference, scheme)]
            for t_star in plan.synth_targets:
                value = panels[(model, scheme)].rtcs_vs(ref_panel, int(t_star), t_start)
                ratio_rows.append((model, scheme, int(t_star), value))
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

    import scipy

    from . import __version__

    return {
        "quantsynth": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_forecasts(rows, path, quarterly: bool) -> None:
    """Forecast summary rows: ``series,time,tau,point,lo95,hi95,n_draws``."""
    out = [
        (
            series,
            format_time(t, quarterly),
            _repr_float(tau),
            _repr_float(point),
            _repr_float(lo),
            _repr_float(hi),
            int(n),
        )
        for series, t, tau, point, lo, hi, n in sorted(rows, key=lambda r: (r[0], r[1], r[2]))
    ]
    _write_csv(path, FORECAST_COLUMNS, out)


def read_forecasts(path) -> list:
    """Inverse of :func:`write_forecasts`; returns tuples with integer times."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        got = tuple(reader.fieldnames or ())
        if got != FORECAST_COLUMNS:
            raise ValueError(
                f"{path}: expected header {','.join(FORECAST_COLUMNS)}, got {','.join(got)}"
            )
        for i, row in enumerate(reader, start=2):
            try:
                rows.append(
                    (
                        row["series"],
                        parse_time(row["time"]),
                        float(row["tau"]),
                        float(row["point"]),
                        float(row["lo95"]),
                        float(row["hi95"]),
                        int(row["n_draws"]),
                    )
                )
            except (TypeError, ValueError, KeyError) as exc:
                raise ValueError(f"{path}, row {i}: {exc}") from None
    return rows


def write_joint_draws(joint_rows, path, quarterly: bool) -> None:
    """Aligned joint forecast draws: ``time,tau,draw,series,Q``."""
    out = [
        (format_time(t, quarterly), _repr_float(tau), int(r), sid, _repr_float(q))
        for t, tau, r, sid, q in joint_rows
    ]
    _write_csv(path, JOINT_COLUMNS, out)


def write_reconstructed(keys, draws, path, quarterly: bool) -> None:
    """Reconstructed predictive draws: ``series,time,draw,value``, streamed row by row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RECONSTRUCTED_COLUMNS)
        for (series, t), values in zip(keys, draws):
            label = format_time(t, quarterly)
            writer.writerows((series, label, r, _repr_float(v)) for r, v in enumerate(values))


def write_scores(panels: dict, path, quarterly: bool) -> None:
    """Score rows: ``series,time,model,scheme,crps``."""
    rows = []
    for (model, scheme), panel in panels.items():
        for (series, t), value in panel.crps.items():
            rows.append((series, t, model, scheme, value))
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    out = [
        (series, format_time(t, quarterly), model, scheme, _report_float(v))
        for series, t, model, scheme, v in rows
    ]
    _write_csv(path, SCORE_COLUMNS, out)


def write_ratios(ratio_rows, path, quarterly: bool) -> None:
    """Cumulative score ratios: ``model,scheme,t_star,rcs``."""
    out = [
        (model, scheme, format_time(t, quarterly), _report_float(v))
        for model, scheme, t, v in sorted(ratio_rows, key=lambda r: (r[0], r[1], r[2]))
    ]
    _write_csv(path, RATIO_COLUMNS, out)


def write_pit(pit_rows, path, quarterly: bool) -> None:
    """PIT rows: ``model,series,time,pit``."""
    out = [
        (model, series, format_time(t, quarterly), _report_float(v))
        for model, series, t, v in sorted(pit_rows, key=lambda r: (r[0], r[1], r[2]))
    ]
    _write_csv(path, PIT_COLUMNS, out)


def emit_plots_data(out_dir, reference: str) -> list:
    """Derive plot-ready long-format CSVs from a completed run's artifacts.

    Writes into ``out_dir/plots``: cumulative score-ratio curves per series
    (``rcs_curve.csv``), the forecast fan (``fan.csv``), PIT empirical CDFs
    (``pit_ecdf.csv``), and cross-series predictive correlations
    (``correlation.csv``, filled only when joint draws were written).
    Returns the list of written paths.
    """
    out = Path(out_dir)
    scores_path = out / "scores.csv"
    if not scores_path.exists():
        raise FileNotFoundError(f"missing score panel {scores_path}; run the evaluate stage first")
    plots = out / "plots"
    plots.mkdir(parents=True, exist_ok=True)
    written = []

    # Score curves: per-series cumulative ratio of every model to the reference.
    by_panel: dict = {}
    time_labels = {}
    with open(scores_path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            t = parse_time(row["time"])
            time_labels[t] = row["time"]
            key = (row["model"], row["scheme"])
            by_panel.setdefault(key, ScorePanel(model=row["model"], scheme=row["scheme"])).add(
                row["series"], t, float(row["crps"])
            )
    rcs_rows = []
    for (model, scheme), panel in sorted(by_panel.items()):
        ref_panel = by_panel.get((reference, scheme))
        if ref_panel is None:
            raise ValueError(f"reference model {reference!r} absent from {scores_path}")
        for series in panel.series_ids():
            times = panel.times(series)
            for t_star in times:
                value = panel.rcs_vs(ref_panel, series, int(t_star), int(times.min()))
                rcs_rows.append(
                    (model, scheme, series, time_labels[int(t_star)], _report_float(value))
                )
    path = plots / "rcs_curve.csv"
    _write_csv(path, ("model", "scheme", "series", "t_star", "rcs"), rcs_rows)
    written.append(path)

    # Forecast fan: point and 95% band per (series, time, tau).
    fan_rows = []
    forecasts_path = out / "forecasts.csv"
    if forecasts_path.exists():
        with open(forecasts_path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                fan_rows.append(
                    (row["series"], row["time"], row["tau"], row["point"], row["lo95"], row["hi95"])
                )
    path = plots / "fan.csv"
    _write_csv(path, ("series", "time", "tau", "point", "lo95", "hi95"), fan_rows)
    written.append(path)

    # PIT empirical CDF on a fixed grid of u values.
    pit_values: dict = {}
    pit_path = out / "pit.csv"
    if pit_path.exists():
        with open(pit_path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                pit_values.setdefault((row["model"], row["series"]), []).append(float(row["pit"]))
    ecdf_rows = []
    u_grid = [round(0.01 * k, 10) for k in range(101)]
    for (model, series), values in sorted(pit_values.items()):
        arr = np.sort(np.asarray(values))
        for u in u_grid:
            ecdf = float(np.searchsorted(arr, u, side="right")) / arr.size
            ecdf_rows.append((model, series, _report_float(u), _report_float(ecdf)))
    path = plots / "pit_ecdf.csv"
    _write_csv(path, ("model", "series", "u", "ecdf"), ecdf_rows)
    written.append(path)

    # Cross-series correlation of aligned joint forecast draws, when present.
    corr_rows = []
    joint_path = out / "joint_draws.csv"
    if joint_path.exists():
        cells: dict = {}
        with open(joint_path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                key = (row["time"], row["tau"])
                cells.setdefault(key, {}).setdefault(row["series"], []).append(float(row["Q"]))
        for (t_label, tau_label), per_series in sorted(cells.items()):
            sids = sorted(per_series)
            mat = np.corrcoef(np.array([per_series[s] for s in sids]))
            mat = np.atleast_2d(mat)
            for i, si in enumerate(sids):
                for j, sj in enumerate(sids):
                    corr_rows.append(
                        (t_label, tau_label, si, sj, _report_float(mat[i, j]))
                    )
    path = plots / "correlation.csv"
    _write_csv(path, ("time", "tau", "series_row", "series_col", "corr"), corr_rows)
    written.append(path)
    return written


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

    ``run(plan, panel, workers, *inputs)`` gets one input per entry of
    ``reads`` and returns one value per entry of ``writes``, then the stage's
    per-job timings.  Each ``run`` calls its stage function by name when it
    runs, so a wrapper installed on this module's attribute is the one called.
    """

    name: str
    reads: tuple
    writes: tuple
    run: Callable


STAGES = {
    stage.name: stage
    for stage in (
        Stage(
            "agents",
            reads=(),
            writes=("agent_forecasts.csv",),
            run=lambda plan, panel, workers: stage_fit_agents(plan, panel, workers),
        ),
        Stage(
            "synthesis",
            reads=("agent_forecasts.csv",),
            writes=("forecasts.csv", "joint_draws.csv"),
            run=lambda plan, panel, workers, fset: stage_synthesize(plan, panel, fset, workers),
        ),
        Stage(
            "evaluate",
            reads=("agent_forecasts.csv", "forecasts.csv"),
            writes=("scores.csv", "pit.csv", "ratios.csv"),
            run=lambda plan, panel, workers, fset, rows: (
                *stage_evaluate(plan, panel, fset, rows), []
            ),
        ),
        Stage(
            "reconstruct",
            reads=("forecasts.csv",),
            writes=("reconstructed_draws.csv",),
            run=lambda plan, panel, workers, rows: (stage_reconstruct(plan, rows), []),
        ),
    )
}

# Artifact readers and writers, also looked up by name when they run.
_READERS = {
    "agent_forecasts.csv": lambda path: AgentForecastSet.from_csv(path),
    "forecasts.csv": lambda path: read_forecasts(path),
}
_WRITERS = {
    "agent_forecasts.csv": lambda fset, path, quarterly: fset.to_csv(path, quarterly=quarterly),
    "forecasts.csv": lambda rows, path, quarterly: write_forecasts(rows, path, quarterly),
    "joint_draws.csv": lambda rows, path, quarterly: write_joint_draws(rows, path, quarterly),
    "scores.csv": lambda panels, path, quarterly: write_scores(panels, path, quarterly),
    "pit.csv": lambda rows, path, quarterly: write_pit(rows, path, quarterly),
    "ratios.csv": lambda rows, path, quarterly: write_ratios(rows, path, quarterly),
    "reconstructed_draws.csv": lambda value, path, quarterly: write_reconstructed(
        *value, path, quarterly
    ),
}


def run_stages(
    cfg: RunConfig,
    names,
    panel: SeriesPanel | None = None,
    workers: int | None = None,
    out_dir=None,
) -> RunManifest:
    """Run the named stages of :data:`STAGES` in order and write their artifacts.

    Each stage takes its inputs from an earlier stage of the same call, or
    else from ``out_dir``; if one is in neither place,
    :class:`MissingInputError` is raised before any stage runs, as is
    :class:`RunRefusedError` for an invalid plan, when ``evaluate`` or
    ``reconstruct`` is asked for with fewer than 4 quantile levels
    (reconstruction fits both tails), or when ``evaluate`` is asked for with a
    reference model that is neither an agent nor the synthesizer.  Plot data
    under ``plots/`` follows the scores.  ``manifest.json`` records the
    per-job timings and the files written; any failure aborts the run, and
    the manifest is still written with ``complete`` false and the failing
    job identified.
    """
    if panel is None:
        panel = ingest(cfg.data.panel_csv, cfg.data.h)
    try:
        plan = make_plan(cfg, panel)
    except ValueError as exc:
        raise RunRefusedError(str(exc)) from None
    workers = cfg.workers if workers is None else int(workers)
    out = Path(cfg.out_dir if out_dir is None else out_dir)
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
    try:
        for stage in stages:
            inputs = [artifacts[a] if a in artifacts else _READERS[a](out / a) for a in stage.reads]
            *values, timings = stage.run(plan, panel, workers, *inputs)
            manifest.windows.extend(timings)
            for name, value in zip(stage.writes, values):
                artifacts[name] = value
                if name == "joint_draws.csv" and not value:
                    continue  # only a factor run with write_joint_draws keeps draws
                _WRITERS[name](value, out / name, plan.quarterly)
                manifest.outputs.append(name)
            if "scores.csv" in stage.writes:
                for path in emit_plots_data(out, reference=cfg.reference_model):
                    manifest.outputs.append(str(Path(path).relative_to(out)))
        manifest.complete = True
    except JobError as exc:
        manifest.failed_job = {
            "stage": exc.stage,
            "tau": exc.tau,
            "window": exc.target_label,
            "series": exc.series,
            "agent": exc.agent,
            "error": str(exc.cause),
        }
        raise
    except Exception as exc:
        manifest.failed_job = {"error": str(exc)}
        raise
    finally:
        manifest.finished_at = datetime.datetime.now(datetime.timezone.utc).isoformat()
        manifest.outputs.sort()
        manifest.write(out / "manifest.json")
    return manifest


def run_backtest(
    cfg: RunConfig,
    panel: SeriesPanel | None = None,
    workers: int | None = None,
    out_dir=None,
) -> RunManifest:
    """Execute the full expanding-window protocol and write all artifacts.

    Artifacts in ``out_dir``: ``agent_forecasts.csv``, ``forecasts.csv``,
    ``scores.csv``, ``ratios.csv``, ``pit.csv``, plot data under ``plots/``,
    optionally ``joint_draws.csv``, and ``manifest.json``.  Any job failure
    aborts the run; the manifest is still written with ``complete`` false
    and the failing job identified.
    """
    return run_stages(cfg, ("agents", "synthesis", "evaluate"), panel, workers, out_dir)


def audit_lookahead(cfg: RunConfig, panel: SeriesPanel | None = None) -> list:
    """Re-derive each job's inputs and check none is dated past target-1.

    Returns one record per audited job with the largest consumed time index.
    Agent jobs are audited from the job inputs the agent stage runs;
    synthesis jobs consume realized values through target-1 and agent
    forecasts whose own inputs end at their target-1.  Scoring consumes the
    realized value at the target and is retrospective by definition, so it
    is not part of the audit.
    """
    if panel is None:
        panel = ingest(cfg.data.panel_csv, cfg.data.h)
    plan = make_plan(cfg, panel)
    rows = []
    for target in plan.agent_targets:
        target = int(target)
        for job in _agent_jobs(plan, panel, target):
            rows.append(
                {
                    "stage": "agents",
                    "series": job["series"],
                    "model": job["agent"].name,
                    "target": plan.time_label(target),
                    "max_input_time": plan.time_label(job["max_input"]),
                    "ok": job["max_input"] <= target - 1,
                }
            )
    for target in plan.synth_targets:
        target = int(target)
        fit_times = plan.synth_fit_times(target)
        consumed = int(fit_times[-1])  # realized y through target-1
        # Agent forecasts consumed at times fit_times + [target]; each is a
        # function of data through its own target-1.
        consumed = max(consumed, target - 1)
        rows.append(
            {
                "stage": "synthesis",
                "series": "*",
                "model": plan.cfg.synth_model_name,
                "target": plan.time_label(target),
                "max_input_time": plan.time_label(consumed),
                "ok": consumed <= target - 1,
            }
        )
    return rows
