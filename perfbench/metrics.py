"""Metric tables: names, units, what each per-layer metric should move, and how it is derived.

End-to-end metrics come from untraced commands.  Per-layer ``pipeline.*``
metrics come from the untraced command at the workload's worker count (stage
clocks only, a few spans per command, so the pool runs as users run it); the
other layers come from the traced command at ``workers=1``.  A layer that a
workload never calls reports 0.
"""

from __future__ import annotations

import statistics

# name -> (unit, better, what it is); the JSON reports the run's median.  The
# times are host-normalized (hostspeed.py): each is measured, then scaled by
# the host-speed probe sampled over the interval it covers.
END_TO_END = {
    "setup_s": ("s", "lower", "command launch to the end of make_plan: interpreter, imports, config, ingest, plan; host-normalized"),
    "wall_s": ("s", "lower", "the whole command, launch to exit; host-normalized"),
    "cpu_s": ("s", "lower", "user+system CPU of the command and its reaped workers; host-normalized"),
    "stage_s": ("s", "lower", "wall time inside the stage calls the command makes (agents, synthesis, evaluate); host-normalized"),
    "peak_rss_mb": ("MB", "lower", "peak RSS of the command's process plus that of its largest worker"),
}

# name -> (unit, better, end-to-end metric and workload it should move)
PER_LAYER = {
    "pipeline.jobs": ("count", "lower", "stage_s, wall_s on grid19"),
    "pipeline.agent_jobs": ("count", "lower", "stage_s on grid19 (agents stage)"),
    "pipeline.synth_jobs": ("count", "lower", "stage_s on grid19 and factor (synthesis stage)"),
    "pipeline.job_p50_s": ("s", "lower", "stage_s on grid19, where the slowest job sets stage time"),
    "pipeline.job_p90_s": ("s", "lower", "stage_s on grid19, where the slowest job sets stage time"),
    "pipeline.pool_overhead_s": ("s", "lower", "stage_s, wall_s on grid19"),
    "pipeline.agents_s": ("s", "lower", "stage_s on grid19"),
    "pipeline.synth_s": ("s", "lower", "stage_s on grid19 and factor"),
    "pipeline.evaluate_s": ("s", "lower", "stage_s on grid19 (evaluate stage)"),
    "pipeline.read_s": ("s", "lower", "wall_s on factor (I/O)"),
    "pipeline.write_s": ("s", "lower", "wall_s on grid19 (I/O)"),
    "pipeline.plots_s": ("s", "lower", "wall_s on grid19 (I/O)"),
    "pipeline.artifact_bytes": ("B", "lower", "wall_s on grid19 (I/O)"),
    "pipeline.ingest_s": ("s", "lower", "setup_s on every workload"),
    "pipeline.plan_s": ("s", "lower", "setup_s on every workload"),
    "agents.fits": ("count", "lower", "stage_s on grid19"),
    "agents.sweeps": ("count", "lower", "stage_s on grid19"),
    "agents.us_per_sweep": ("us", "lower", "stage_s, cpu_s on grid19"),
    "agents.forecast_us": ("us", "lower", "stage_s on grid19"),
    "agents.retained_bytes": ("B", "lower", "peak_rss_mb on grid19 (computed: draws x T x p x 8 of the largest live fit)"),
    "dlm.scalar_steps": ("count", "lower", "stage_s on grid19 (agents stage)"),
    "dlm.scalar_us_per_step": ("us", "lower", "stage_s on grid19 (agents stage)"),
    "dlm.conjugate_steps": ("count", "lower", "stage_s on grid19 (synthesis stage)"),
    "dlm.conjugate_us_per_step": ("us", "lower", "stage_s on grid19 (synthesis stage)"),
    "dlm.vector_steps": ("count", "lower", "stage_s on factor"),
    "dlm.vector_us_per_step": ("us", "lower", "stage_s on factor"),
    "dlm.gbrw_us": ("us", "lower", "stage_s on factor"),
    "dlm.psd_sqrt_calls": ("count", "lower", "stage_s on grid19 and factor"),
    "dlm.psd_sqrt_us": ("us", "lower", "stage_s on grid19 and factor"),
    "distributions.gig_draws": ("count", "lower", "stage_s on grid19 and factor"),
    "distributions.gig_us": ("us", "lower", "stage_s on grid19 and factor"),
    "drqs.fits": ("count", "lower", "stage_s on grid19 (synthesis stage)"),
    "drqs.sweeps": ("count", "lower", "stage_s on grid19 (synthesis stage)"),
    "drqs.us_per_sweep": ("us", "lower", "stage_s on grid19 (synthesis stage)"),
    "drqs.latent_us": ("us", "lower", "stage_s on grid19 (synthesis stage)"),
    "fdrqs.fits": ("count", "lower", "stage_s on factor"),
    "fdrqs.sweeps": ("count", "lower", "stage_s on factor"),
    "fdrqs.us_per_sweep": ("us", "lower", "stage_s, cpu_s on factor"),
    "fdrqs.latent_us": ("us", "lower", "stage_s on factor"),
    "evaluation.cells": ("count", "lower", "stage_s on grid19 (evaluate stage)"),
    "evaluation.reconstruct_us": ("us", "lower", "stage_s on grid19 (evaluate stage)"),
    "evaluation.reconstruct_draws": ("count", "lower", "stage_s on grid19 (evaluate stage)"),
    "evaluation.pit_us": ("us", "lower", "stage_s on grid19 (evaluate stage)"),
    "evaluation.crps_us": ("us", "lower", "stage_s on grid19 (evaluate stage)"),
    "evaluation.ratio_calls": ("count", "lower", "stage_s and wall_s (plots) on grid19"),
    "evaluation.ratio_us": ("us", "lower", "stage_s and wall_s (plots) on grid19"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced wall time at workers=1, host-normalized"),
}

# ROADMAP baselines for the sampler kernels: (us per sweep, shape, T of that shape).
BASELINES = {
    "agents.us_per_sweep": (1800.0, "T=60, p=3", 60),
    "drqs.us_per_sweep": (2900.0, "T=60, J=3", 60),
    "fdrqs.us_per_sweep": (6300.0, "T=40, N=4, J=3, L=2", 40),
}
SAMPLER_SPANS = {"agents.us_per_sweep": "agents.fit_dqlm", "drqs.us_per_sweep": "drqs.gibbs_drqs",
                 "fdrqs.us_per_sweep": "fdrqs.gibbs_fdrqs"}

STAGES = {"agents_s": "pipeline.stage_agents", "synth_s": "pipeline.stage_synth",
          "evaluate_s": "pipeline.stage_evaluate"}
IO_SPANS = ("pipeline.read", "pipeline.write", "pipeline.plots")


def total_s(spans: dict, name: str) -> float:
    return spans[name]["total_ns"] / 1e9 if name in spans else 0.0


def calls(spans: dict, name: str) -> int:
    return spans[name]["calls"] if name in spans else 0


def count(spans: dict, name: str, key: str, how: str = "sum") -> int:
    return spans[name][how].get(key, 0) if name in spans else 0


def per(spans: dict, name: str, key: str | None = None) -> float:
    """Microseconds of a span name per call, or per unit of one of its counts."""
    n = calls(spans, name) if key is None else count(spans, name, key)
    return spans[name]["total_ns"] / 1e3 / n if n else 0.0


def percentile(values: list, p: float) -> float:
    """Linear-interpolation percentile (NumPy's default method)."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def describe(values: list) -> str:
    """Median, quartiles, n and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    q1, median, q3 = statistics.quantiles(values, n=4) if n > 1 else (values[0],) * 3
    tail = [p for p in (50, 90, 99, 99.9) if n * (1 - p / 100.0) >= 10]
    high = (f"p{tail[-1]:g} {percentile(values, tail[-1]):.6g}" if tail
            else "no percentile has 10 samples beyond it")
    return f"median {median:.6g}; q1 {q1:.6g}; q3 {q3:.6g}; n={n}; {high}"


def pipeline_layer(record: dict, workers: int, artifact_bytes: int) -> dict:
    s, jobs = record["spans"], record["job_seconds"]
    every = jobs.get("agents", []) + jobs.get("synthesis", [])
    overhead = 0.0
    for stage, span in (("agents", "pipeline.stage_agents"), ("synthesis", "pipeline.stage_synth")):
        if stage in jobs:
            overhead += total_s(s, span) - sum(jobs[stage]) / workers
    return {
        "pipeline.jobs": len(every),
        "pipeline.agent_jobs": len(jobs.get("agents", [])),
        "pipeline.synth_jobs": len(jobs.get("synthesis", [])),
        "pipeline.job_p50_s": percentile(every, 50),
        "pipeline.job_p90_s": percentile(every, 90),
        "pipeline.pool_overhead_s": overhead,
        "pipeline.agents_s": total_s(s, "pipeline.stage_agents"),
        "pipeline.synth_s": total_s(s, "pipeline.stage_synth"),
        "pipeline.evaluate_s": total_s(s, "pipeline.stage_evaluate"),
        "pipeline.read_s": total_s(s, "pipeline.read"),
        "pipeline.write_s": total_s(s, "pipeline.write"),
        "pipeline.plots_s": total_s(s, "pipeline.plots"),
        "pipeline.artifact_bytes": artifact_bytes,
        "pipeline.ingest_s": total_s(s, "pipeline.ingest"),
        "pipeline.plan_s": total_s(s, "pipeline.make_plan"),
    }


def module_layers(s: dict) -> dict:
    return {
        "agents.fits": calls(s, "agents.fit_dqlm"),
        "agents.sweeps": count(s, "agents.fit_dqlm", "sweeps"),
        "agents.us_per_sweep": per(s, "agents.fit_dqlm", "sweeps"),
        "agents.forecast_us": per(s, "agents.forecast_dqlm"),
        "agents.retained_bytes": count(s, "agents.fit_dqlm", "retained_bytes", "max"),
        "dlm.scalar_steps": count(s, "dlm.ffbs_scalar", "steps"),
        "dlm.scalar_us_per_step": per(s, "dlm.ffbs_scalar", "steps"),
        "dlm.conjugate_steps": count(s, "dlm.ffbs_conjugate", "steps"),
        "dlm.conjugate_us_per_step": per(s, "dlm.ffbs_conjugate", "steps"),
        "dlm.vector_steps": count(s, "dlm.ffbs_vector", "steps"),
        "dlm.vector_us_per_step": per(s, "dlm.ffbs_vector", "steps"),
        "dlm.gbrw_us": per(s, "dlm.gbrw"),
        "dlm.psd_sqrt_calls": calls(s, "dlm.psd_sqrt"),
        "dlm.psd_sqrt_us": per(s, "dlm.psd_sqrt"),
        "distributions.gig_draws": count(s, "distributions.gig", "draws"),
        "distributions.gig_us": per(s, "distributions.gig"),
        "drqs.fits": calls(s, "drqs.gibbs_drqs"),
        "drqs.sweeps": count(s, "drqs.gibbs_drqs", "sweeps"),
        "drqs.us_per_sweep": per(s, "drqs.gibbs_drqs", "sweeps"),
        "drqs.latent_us": per(s, "drqs.latent"),
        "fdrqs.fits": calls(s, "fdrqs.gibbs_fdrqs"),
        "fdrqs.sweeps": count(s, "fdrqs.gibbs_fdrqs", "sweeps"),
        "fdrqs.us_per_sweep": per(s, "fdrqs.gibbs_fdrqs", "sweeps"),
        "fdrqs.latent_us": per(s, "fdrqs.latent"),
        "evaluation.cells": calls(s, "evaluation.pit"),
        "evaluation.reconstruct_us": per(s, "evaluation.reconstruct"),
        "evaluation.reconstruct_draws": count(s, "evaluation.reconstruct", "draws"),
        "evaluation.pit_us": per(s, "evaluation.pit"),
        "evaluation.crps_us": per(s, "evaluation.crps"),
        "evaluation.ratio_calls": calls(s, "evaluation.ratio"),
        "evaluation.ratio_us": per(s, "evaluation.ratio"),
    }
