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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantsynth",
        description="Expanding-window quantile forecast synthesis and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        # No prefix matching: an unknown option such as --h is refused, not read as --help.
        sp = sub.add_parser(name, help=help_text, description=help_text, allow_abbrev=False)
        sp.add_argument("--config", required=True, help="YAML run configuration file")
        sp.add_argument("--workers", type=int, default=None, help="override workers")
        sp.add_argument("--out-dir", default=None, help="override out_dir")
    return parser


def _load_config(args):
    from .config import load_config

    cfg = load_config(args.config)
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


def _cmd_stages(cfg, command: str, stages: tuple, factor: bool | None) -> int:
    from .pipeline import RunRefusedError, run_stages

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
    failed = "job reads" if len(violations) == 1 else "jobs read"
    print(f"{len(rows)} jobs audited; {len(violations)} {failed} other times than the protocol's")
    for row in violations:
        print(
            f"  VIOLATION {row['stage']} series={row['series']} model={row['model']} "
            f"target={row['target']} reads times up to {row['max_input_time']}, "
            "not exactly the protocol's times up to target-1"
        )
    return 1 if violations else 0


# command -> (help, the stages it runs or its handler, the plan.factor it needs or None for either)
_COMMANDS = {
    "ingest": ("transform the level panel and write a series,time,y CSV", _cmd_ingest, None),
    "fit-agents": ("fit agent models over the expanding windows and write agent_forecasts.csv",
                   ("agents",), None),
    "synth": ("fit the per-series synthesizer on stored agent forecasts and write forecasts.csv",
              ("synthesis",), False),
    "synth-factor": ("fit the joint factor synthesizer on stored agent forecasts and write forecasts.csv",
                     ("synthesis",), True),
    "evaluate": ("score stored forecasts and write scores, ratios, PIT and plot data", ("evaluate",), None),
    "reconstruct": ("draw predictive samples from stored quantile forecasts", ("reconstruct",), None),
    "backtest": ("run the full pipeline: agents, synthesis, evaluation, artifacts",
                 ("agents", "synthesis", "evaluate"), None),
    "audit-lookahead": ("check that every job reads exactly its window's times, none past target-1",
                        _cmd_audit, None),
}


def main(argv=None) -> int:
    """Run one command; a refused run, bad input or failed job prints ``error: ...`` and returns 1."""
    limit_worker_threads()
    args = _build_parser().parse_args(argv)
    from .pipeline import JobError, RunRefusedError

    try:
        cfg = _load_config(args)
        _, run, factor = _COMMANDS[args.command]
        return run(cfg) if callable(run) else _cmd_stages(cfg, args.command, run, factor)
    except (RunRefusedError, JobError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
