"""Command-line front end: ingest, fit, synthesize, evaluate, backtest, audit.

Thread limits are applied before the numerical stack loads so that runs are
reproducible bit-for-bit at any worker count; heavyweight imports happen
inside the command handlers to keep ``--help`` fast.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from ._worker import limit_worker_threads

_COMMANDS = (
    ("ingest", "transform the level panel and write a series,time,y CSV"),
    ("fit-agents", "fit agent models over the expanding windows and write agent_forecasts.csv"),
    ("synth", "fit the per-series synthesizer on stored agent forecasts and write forecasts.csv"),
    ("synth-factor", "fit the joint factor synthesizer on stored agent forecasts and write forecasts.csv"),
    ("evaluate", "score stored forecasts and write scores, ratios, PIT and plot data"),
    ("reconstruct", "draw predictive samples from stored quantile forecasts"),
    ("backtest", "run the full pipeline: agents, synthesis, evaluation, artifacts"),
    ("audit-lookahead", "check that no job consumes values dated later than its target-1"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantsynth",
        description="Expanding-window quantile forecast synthesis and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMANDS:
        sp = sub.add_parser(name, help=help_text, description=help_text)
        sp.add_argument("--config", required=True, help="YAML run configuration file")
        sp.add_argument("--seed", type=int, default=None, help="override plan.seed")
        sp.add_argument("--tau", type=float, default=None,
                        help="restrict the stage to a single quantile level")
        sp.add_argument("--h", type=int, default=None, help="override data.h")
        sp.add_argument("--workers", type=int, default=None, help="override workers")
        sp.add_argument("--out-dir", default=None, help="override out_dir")
    return parser


def _load_config(args):
    from .config import load_config

    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, plan=replace(cfg.plan, seed=int(args.seed)))
    if args.tau is not None:
        cfg = replace(cfg, plan=replace(cfg.plan, taus=(float(args.tau),)))
    if args.h is not None:
        cfg = replace(cfg, data=replace(cfg.data, h=int(args.h)))
    if args.workers is not None:
        cfg = replace(cfg, workers=int(args.workers))
    if args.out_dir is not None:
        cfg = replace(cfg, out_dir=str(args.out_dir))
    return cfg


def _cmd_ingest(cfg) -> int:
    from .pipeline import ingest, write_panel

    panel = ingest(cfg.data.panel_csv, cfg.data.h)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "panel.csv"
    write_panel(panel, path)
    spans = []
    for sid in panel.series_ids:
        rec = panel.record(sid)
        spans.append(
            f"{sid}: {panel.time_label(rec.times[0])}..{panel.time_label(rec.times[-1])} "
            f"({rec.times.size} obs)"
        )
    print(f"wrote {path} with {len(panel.series_ids)} series (h={panel.h})")
    for line in spans:
        print(f"  {line}")
    return 0


# command -> (stages it runs, the plan.factor it requires or None for either)
_STAGE_COMMANDS = {
    "fit-agents": (("agents",), None),
    "synth": (("synthesis",), False),
    "synth-factor": (("synthesis",), True),
    "evaluate": (("evaluate",), None),
    "reconstruct": (("reconstruct",), None),
    "backtest": (("agents", "synthesis", "evaluate"), None),
}


def _cmd_stages(cfg, command: str) -> int:
    from .pipeline import RunRefusedError, run_stages

    stages, factor = _STAGE_COMMANDS[command]
    if factor is not None and cfg.plan.factor != factor:
        other = "synth" if factor else "synth-factor"
        raise RunRefusedError(
            f"{command} needs plan.factor: {str(factor).lower()}, but the config sets "
            f"plan.factor: {str(cfg.plan.factor).lower()}; change it or run {other}"
        )
    manifest = run_stages(cfg, stages)
    out = Path(cfg.out_dir)
    print(f"{command} complete: {len(manifest.windows)} jobs")
    for name in (*manifest.outputs, "manifest.json"):
        print(f"wrote {out / name}")
    return 0


def _cmd_audit(cfg) -> int:
    from .pipeline import audit_lookahead

    rows = audit_lookahead(cfg)
    violations = [r for r in rows if not r["ok"]]
    print(f"{len(rows)} jobs audited; {len(violations)} look-ahead violations")
    for row in violations:
        print(
            f"  VIOLATION {row['stage']} series={row['series']} model={row['model']} "
            f"target={row['target']} consumes input at {row['max_input_time']}"
        )
    return 1 if violations else 0


_HANDLERS = {
    "ingest": _cmd_ingest,
    "audit-lookahead": _cmd_audit,
}


def main(argv=None) -> int:
    """Run one command; a refused run, bad input or failed job prints ``error: ...`` and returns 1."""
    limit_worker_threads()
    args = _build_parser().parse_args(argv)
    from .pipeline import JobError, RunRefusedError

    try:
        cfg = _load_config(args)
        if args.command in _STAGE_COMMANDS:
            return _cmd_stages(cfg, args.command)
        return _HANDLERS[args.command](cfg)
    except (RunRefusedError, JobError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
