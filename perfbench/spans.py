"""Spans and exact counts recorded around quantsynth's public functions.

The benchmark installs these wrappers from its own files, inside the process
that runs one quantsynth command, so no source file of the program changes.
A wrapper only reads the clock, the shapes of its arguments and the value it
returns; it never changes an argument or draws from a generator, so a traced
command writes the same bytes as an untraced one.  Wrappers installed in one
process do not reach spawned pool workers, so a traced command runs at
``workers=1``.

Callers import with ``from .x import f``, so each name is wrapped in the
module where it is looked up: ``quantsynth.agents.ffbs_known_variance`` and
``quantsynth.fdrqs.ffbs_known_variance`` are wrapped separately, and
wrapping ``quantsynth.dlm.ffbs_known_variance`` alone would record nothing.
"""

from __future__ import annotations

import functools
import importlib
import time

_now = time.monotonic_ns  # CLOCK_MONOTONIC: comparable with the parent's launch time


class Recorder:
    """Spans kept in memory: name, start, end, parent and per-span counts."""

    def __init__(self):
        self.name: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.counts: list = []
        self._stack: list = []
        self.job_seconds: dict = {}  # stage -> per-job seconds the stage returned

    def open(self, name: str, counts: dict) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.counts.append(counts)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(_now())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _now()
        self._stack.pop()

    def summary(self) -> dict:
        """Per span name: calls, total and self nanoseconds, summed and largest counts.

        Self time is a span's duration minus the time its child spans cover;
        children of one span never overlap, so that is the sum of their
        durations.
        """
        child_ns = [0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        out: dict = {}
        for i, name in enumerate(self.name):
            s = out.setdefault(
                name,
                {"calls": 0, "total_ns": 0, "self_ns": 0, "sum": {}, "max": {},
                 "first_start": self.start[i], "last_end": 0},
            )
            dur = self.end[i] - self.start[i]
            s["calls"] += 1
            s["total_ns"] += dur
            s["self_ns"] += dur - child_ns[i]
            s["last_end"] = max(s["last_end"], self.end[i])
            for key, value in self.counts[i].items():
                s["sum"][key] = s["sum"].get(key, 0) + value
                s["max"][key] = max(s["max"].get(key, value), value)
        return out

    def raw(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end, "parent": self.parent}


def _arg(args, kwargs, pos: int, key: str, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _sweeps(args, kwargs) -> int:
    return int(sum(_arg(args, kwargs, 3, "mcmc", (3000, 1000))))


def _fit_dqlm(args, kwargs) -> dict:
    y, X = args[0], args[1]
    draws = int(_arg(args, kwargs, 3, "mcmc", (3000, 1000))[0])
    T, p = len(y), X.shape[1]
    # Computed, not measured: the retained coefficient draws of one live fit.
    return {"sweeps": _sweeps(args, kwargs), "T": T, "p": p, "retained_bytes": draws * T * p * 8}


def _gibbs_drqs(args, kwargs) -> dict:
    return {"sweeps": _sweeps(args, kwargs), "T": len(args[0]), "J": args[2].J}


def _gibbs_fdrqs(args, kwargs) -> dict:
    T, N = args[0].shape
    cfg = args[2]
    return {"sweeps": _sweeps(args, kwargs), "T": T, "N": N, "J": cfg.J, "L": cfg.L}


def _ffbs_name(args, kwargs) -> str:
    y = args[0]
    return "dlm.ffbs_scalar" if getattr(y, "ndim", 1) == 1 or y.shape[1] == 1 else "dlm.ffbs_vector"


def _steps(args, kwargs) -> dict:
    return {"steps": len(args[0])}


def _gig(args, kwargs) -> dict:
    return {"draws": int(getattr(args[0], "size", 1))}


def _reconstruct(args, kwargs) -> dict:
    return {"draws": int(_arg(args, kwargs, 2, "R", 10000))}


# (module, attribute, span name or a function of the arguments giving it,
#  function of the arguments giving the span's counts)
STAGE_PROBES = (
    ("quantsynth.pipeline", "ingest", "pipeline.ingest", None),
    ("quantsynth.pipeline", "make_plan", "pipeline.make_plan", None),
    ("quantsynth.pipeline", "stage_fit_agents", "pipeline.stage_agents", None),
    ("quantsynth.pipeline", "stage_synthesize", "pipeline.stage_synth", None),
    ("quantsynth.pipeline", "stage_evaluate", "pipeline.stage_evaluate", None),
    ("quantsynth.pipeline", "read_forecasts", "pipeline.read", None),
    ("quantsynth.agents", "AgentForecastSet.from_csv", "pipeline.read", None),
    ("quantsynth.agents", "AgentForecastSet.to_csv", "pipeline.write", None),
    ("quantsynth.pipeline", "write_forecasts", "pipeline.write", None),
    ("quantsynth.pipeline", "write_joint_draws", "pipeline.write", None),
    ("quantsynth.pipeline", "write_scores", "pipeline.write", None),
    ("quantsynth.pipeline", "write_ratios", "pipeline.write", None),
    ("quantsynth.pipeline", "write_pit", "pipeline.write", None),
    ("quantsynth.pipeline", "emit_plots_data", "pipeline.plots", None),
)

LAYER_PROBES = (
    ("quantsynth.pipeline", "fit_dqlm", "agents.fit_dqlm", _fit_dqlm),
    ("quantsynth.pipeline", "forecast_dqlm", "agents.forecast_dqlm", None),
    ("quantsynth.pipeline", "gibbs_drqs", "drqs.gibbs_drqs", _gibbs_drqs),
    ("quantsynth.pipeline", "forecast_drqs", "drqs.forecast_drqs", None),
    ("quantsynth.drqs", "latent_predictor_moments", "drqs.latent", None),
    ("quantsynth.pipeline", "gibbs_fdrqs", "fdrqs.gibbs_fdrqs", _gibbs_fdrqs),
    ("quantsynth.pipeline", "forecast_fdrqs", "fdrqs.forecast_fdrqs", None),
    ("quantsynth.fdrqs", "latent_predictor_moments", "fdrqs.latent", None),
    ("quantsynth.agents", "ffbs_known_variance", _ffbs_name, _steps),
    ("quantsynth.fdrqs", "ffbs_known_variance", _ffbs_name, _steps),
    ("quantsynth.drqs", "ffbs_conjugate", "dlm.ffbs_conjugate", _steps),
    ("quantsynth.fdrqs", "gbrw_filter_sample", "dlm.gbrw", _steps),
    ("quantsynth.dlm", "psd_sqrt", "dlm.psd_sqrt", None),
    ("quantsynth.agents", "psd_sqrt", "dlm.psd_sqrt", None),
    ("quantsynth.drqs", "psd_sqrt", "dlm.psd_sqrt", None),
    ("quantsynth.fdrqs", "psd_sqrt", "dlm.psd_sqrt", None),
    ("quantsynth.agents", "sample_gig_half", "distributions.gig", _gig),
    ("quantsynth.drqs", "sample_gig_half", "distributions.gig", _gig),
    ("quantsynth.fdrqs", "sample_gig_half", "distributions.gig", _gig),
    ("quantsynth.pipeline", "crps_quantile_weighted", "evaluation.crps", None),
    ("quantsynth.pipeline", "reconstruct_predictive", "evaluation.reconstruct", _reconstruct),
    ("quantsynth.pipeline", "pit", "evaluation.pit", None),
    ("quantsynth.evaluation", "ScorePanel.rcs_vs", "evaluation.ratio", None),
    ("quantsynth.evaluation", "ScorePanel.rtcs_vs", "evaluation.ratio", None),
)

_STAGE_OF = {"pipeline.stage_agents": "agents", "pipeline.stage_synth": "synthesis"}


def _wrap(rec: Recorder, fn, name, count):
    job_stage = _STAGE_OF.get(name) if isinstance(name, str) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(
            name if isinstance(name, str) else name(args, kwargs),
            count(args, kwargs) if count is not None else {},
        )
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if job_stage is not None:
            # Both stages return the per-job timings as their last element.
            rec.job_seconds.setdefault(job_stage, []).extend(t["seconds"] for t in result[-1])
        return result

    return wrapper


def install(rec: Recorder, traced: bool) -> None:
    """Wrap the stage boundaries always, and every layer probe when ``traced``."""
    for module_name, attr, name, count in STAGE_PROBES + (LAYER_PROBES if traced else ()):
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(_wrap(rec, raw.__func__, name, count)))
        else:
            setattr(owner, attr, _wrap(rec, raw, name, count))
