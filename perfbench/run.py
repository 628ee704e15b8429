"""Backtest benchmark for quantsynth: one workload per run, untraced or traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload grid19 --seed 1 --seconds 30 --trace 0

The inputs of the workload are generated from ``--seed`` into
``perfbench/_work``: the seed selects one of ``inputs.INPUT_SETS`` input sets.
Each quantsynth command runs as its own process (``perfbench/child.py``), as a
user's command would, built from the checkout's ``src``.  The output digests
of every command must equal those of a ``workers=1`` command on the same
input set, stored in ``reference.json``.  Then, for ``--seconds`` (and at
least three commands untraced, one round traced):

* ``--trace 0`` runs the workload's command and reports the median of every
  end-to-end metric.  The times in the JSON are host-normalized: each is
  measured, then scaled by a host-speed probe sampled while the command runs
  (``hostspeed.py``), because the shared host's speed drifts by more than the
  bounds.  The measured times are printed beside them;
* ``--trace 1`` runs the command untraced at the workload's worker count
  (pool and I/O metrics), untraced at ``workers=1`` and traced at
  ``workers=1`` (module metrics, and the tracing overhead as the difference
  of the last two), and reports the per-layer metrics.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The variables quantsynth._worker.limit_worker_threads pins, set before NumPy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORK_COUNTS = ("sweeps", "steps", "draws")  # span counts that add up; the others are shapes
MIN_REPEATS = 3
RUN_BUDGET_S = 165.0  # no command starts if it could end after this
COMMAND_TIMEOUT_S = 150.0


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class Runner:
    """Runs the workload's quantsynth command as a child process and measures it."""

    def __init__(self, name: str, work: Path, config: Path, speed):
        import inputs

        self.w = inputs.WORKLOADS[name]
        self.work = work
        self.out = work / "out"
        self.config = config
        self.speed = speed  # hostspeed.HostSpeed, sampling while the commands run
        self.n = 0

    def _clear_outputs(self) -> None:
        for path in self.out.iterdir():
            if path.name in self.w.stored:
                continue
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink()

    def _artifact_bytes(self) -> int:
        return sum(
            p.stat().st_size
            for p in self.out.rglob("*")
            if p.is_file() and p.name not in self.w.stored and p.name != "manifest.json"
        )

    def run(self, workers: int, traced: bool) -> dict:
        import gate
        import metrics

        self._clear_outputs()
        self.n += 1
        record_path = self.work / f"record-{self.n}.json"
        argv = [sys.executable, str(HERE / "child.py"), str(record_path), "1" if traced else "0",
                "--", self.w.command, "--config", str(self.config), "--workers", str(workers)]
        ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            log, _ = proc.communicate(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the command and its pool workers
            log, _ = proc.communicate()
        t1 = time.monotonic_ns()
        ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        raw = {"wall_s": (t1 - t0) / 1e9,
               "cpu_s": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime)}
        result = {"workers": workers, "traced": traced, "ok": proc.returncode == 0, "raw": raw}
        if not result["ok"]:
            tail = log.decode(errors="replace")[-2000:]
            print(f"command failed with status {proc.returncode}: {' '.join(argv)}\n{tail}",
                  file=sys.stderr)
            return result
        rec = json.loads(record_path.read_text(encoding="utf-8"))
        s = rec["spans"]
        stages = {k: metrics.total_s(s, v) for k, v in metrics.STAGES.items()}
        ran = [s[v] for v in metrics.STAGES.values() if v in s]
        stage_window = (min(x["first_start"] for x in ran), max(x["last_end"] for x in ran))
        plan_end = s["pipeline.make_plan"]["last_end"]
        raw.update(setup_s=(plan_end - t0) / 1e9, stage_s=sum(stages.values()))
        whole = self.speed.scale(t0, t1)
        result.update(
            record=rec,
            # Host-normalized end-to-end times; see hostspeed.py.
            wall_s=raw["wall_s"] * whole,
            cpu_s=raw["cpu_s"] * whole,
            setup_s=raw["setup_s"] * self.speed.scale(t0, plan_end),
            stage_s=raw["stage_s"] * self.speed.scale(*stage_window),
            host_scale=whole,
            io_s=sum(metrics.total_s(s, name) for name in metrics.IO_SPANS),
            peak_rss_mb=(rec["rss_self_kb"] + rec["rss_worker_kb"]) / 1024.0,
            digests=gate.digests(self.out, self.w.gated),
            artifact_bytes=self._artifact_bytes(),
            **stages,
        )
        print(f"command {self.n}: workers={workers} traced={int(traced)} measured: wall"
              f" {raw['wall_s']:.3f} s cpu {raw['cpu_s']:.3f} s setup {raw['setup_s']:.3f} s"
              f" stages {raw['stage_s']:.3f} s io {result['io_s']:.4f} s; host scale {whole:.4f}",
              flush=True)
        return result


def _check_benchmark_json(metrics) -> list:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return []
    spec = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        listed = [m["name"] for m in spec.get(key, [])]
        if listed != list(table):
            problems.append(f"BENCHMARK.json {key} names differ from perfbench/metrics.py")
    return problems


def _stage_detail(w, timed: list) -> dict:
    """Stage walls, I/O and throughputs for the human-readable report.

    They are not in the JSON: a stage that does not run leaves its figures
    undefined on that workload, and I/O takes a few milliseconds on grid19,
    too little to time steadily.
    """
    ok = [r for r in timed if r["ok"]]
    detail = {}
    for key in ("agents_s", "synth_s", "evaluate_s", "io_s"):
        values = [r[key] for r in ok if r[key] > 0.0]
        if values:
            detail[key] = ("s", values)
    if w.sweeps:
        detail["sweeps_per_s"] = ("1/s", [w.sweeps / (r["agents_s"] + r["synth_s"]) for r in ok])
    if w.cells:
        detail["cells_per_s"] = ("1/s", [w.cells / r["evaluate_s"] for r in ok])
    return detail


def _report_untraced(w, timed: list, reference: dict) -> dict:
    """Print every end-to-end metric and the stage detail; return the JSON values."""
    import metrics

    ok = [r for r in timed if r["ok"]]
    values = {}
    for name, (unit, _, what) in metrics.END_TO_END.items():
        series = [r[name] for r in ok]
        values[name] = (statistics.median(series) if series else 0.0, unit)
        if not series:
            continue
        print(f"{name} [{unit}] {metrics.describe(series)}  -- {what}")
        if name in ok[0]["raw"]:
            print(f"  measured {name} [{unit}] {metrics.describe([r['raw'][name] for r in ok])}")
    if ok:
        print(f"host scale [ratio] {metrics.describe([r['host_scale'] for r in ok])}"
              f"  -- normalized / measured wall time")
    for name, (unit, series) in _stage_detail(w, timed).items():
        print(f"{name} [{unit}] {metrics.describe(series)}")
    matched = sum(1 for r in timed if r["ok"] and r["digests"] == reference)
    print(f"outputs_ok [share] {matched / len(timed):.6g} ({matched} of {len(timed)} timed commands)")
    print(f"failed_frac [share] {1 - matched / len(timed):.6g}")
    return values


def _report_traced(w, rounds: list, commands: list, problems: list) -> dict:
    """Print every per-layer metric, self times and the baseline check; return the JSON values."""
    import metrics

    good = [r for r in rounds if r is not None]
    if len(good) != len(rounds):
        problems.append("a traced round failed")
    values = {}
    for name, (unit, _, target) in metrics.PER_LAYER.items():
        series = [r[name] for r in good]
        if not series:
            values[name] = (0.0, unit)
            continue
        exact = unit in ("count", "B")
        if exact and len(set(series)) > 1:
            problems.append(f"{name} is not exact across rounds: {series}")
        values[name] = (series[0] if exact else statistics.median(series), unit)
        print(f"{name} [{unit}] {metrics.describe(series)}  -> moves {target}")
    if not good:
        return values
    g = good[0]
    sweeps = g["agents.sweeps"] + g["drqs.sweeps"] + g["fdrqs.sweeps"]
    if sweeps != w.sweeps or g["evaluation.cells"] != w.cells:
        problems.append(f"traced sweeps {sweeps} / cells {g['evaluation.cells']} differ "
                        f"from the workload's {w.sweeps} / {w.cells}")
    traced = [r["record"]["spans"] for r in commands if r["traced"] and r["ok"]][-1]
    print("self time by span (last traced command):")
    for name, s in sorted(traced.items(), key=lambda kv: -kv[1]["self_ns"]):
        work = {k: v for k, v in s["sum"].items() if k in WORK_COUNTS}
        shape = {k: v for k, v in s["max"].items() if k not in WORK_COUNTS}
        print(f"  {name:28s} calls {s['calls']:7d}  total {s['total_ns'] / 1e9:9.4f} s"
              f"  self {s['self_ns'] / 1e9:9.4f} s  work {work}  largest {shape}")
    for name, (baseline, shape, T) in metrics.BASELINES.items():
        got = values[name][0]
        span = traced.get(metrics.SAMPLER_SPANS[name])
        if got and span:
            mean_T = span["sum"]["T"] / span["calls"]
            here = ", ".join(f"{k}={v}" for k, v in span["max"].items() if k not in WORK_COUNTS
                             and k != "retained_bytes")
            print(f"baseline check: {name} {got:.0f} us per sweep here (largest {here}, "
                  f"mean T {mean_T:.1f}) vs ROADMAP {baseline:.0f} us at {shape}; "
                  f"per time step {got / mean_T:.1f} us here vs {baseline / T:.1f} us")
    return values


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(HERE))
    import gate
    import hostspeed
    import inputs
    import metrics

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "quantsynth" / "cli.py").is_file():
        print(f"error: no quantsynth source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    problems = _check_benchmark_json(metrics)
    if problems:
        print("error: " + "; ".join(problems), file=sys.stderr)
        return 2

    case = inputs.input_set(args.seed)
    reference = gate.stored_reference(args.workload, case)
    if reference is None:
        print(f"error: reference.json has no digests for {args.workload} input set {case}; "
              "run perfbench/make_reference.py", file=sys.stderr)
        return 2

    run_start = time.monotonic()
    w = inputs.WORKLOADS[args.workload]
    work = HERE / "_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = inputs.write_inputs(args.workload, case, work)
    env = _environment()
    # The command, its pool and the host-speed probe share the first
    # ``workers`` usable CPUs, so that the probe samples the CPUs the command
    # runs on; threads and children inherit the mask.
    env["cpus_pinned"] = sorted(os.sched_getaffinity(0))[: w.workers]
    os.sched_setaffinity(0, env["cpus_pinned"])
    speed = hostspeed.HostSpeed()
    runner = Runner(args.workload, work, config, speed)
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}: quantsynth {w.command} at workers={w.workers}, "
          f"seed {args.seed} (input set {case}), {args.seconds:g} s, trace {args.trace}")

    commands, problems = [], []
    timed, rounds = [], []
    with speed:
        loop_start = time.monotonic()
        while True:
            # Start no command that would end after --seconds once the minimum
            # is met, nor any that could end after the run's budget.
            done = len(timed) if args.trace == 0 else len(rounds)
            step = sum(r["raw"]["wall_s"] for r in commands[-(1 if args.trace == 0 else 3):])
            end = time.monotonic() + step
            if done >= (MIN_REPEATS if args.trace == 0 else 1) and end > loop_start + args.seconds:
                break
            if done and end + 0.5 * step > run_start + RUN_BUDGET_S:
                break
            if args.trace == 0:
                timed.append(runner.run(w.workers, False))
                commands.append(timed[-1])
                continue
            u = runner.run(w.workers, False)
            u1 = u if w.workers == 1 else runner.run(1, False)
            t = runner.run(1, True)
            commands += [u, t] if u1 is u else [u, u1, t]
            if u["ok"] and u1["ok"] and t["ok"]:
                layer = metrics.pipeline_layer(u["record"], w.workers, u["artifact_bytes"])
                layer.update(metrics.module_layers(t["record"]["spans"]))
                layer["trace.overhead_s"] = t["wall_s"] - u1["wall_s"]
                rounds.append(layer)
            else:
                rounds.append(None)

    passed = next((r for r in commands if r["ok"] and r["digests"] == reference), None)
    if passed is None:
        problems.append("no command wrote the reference outputs")
    else:
        try:
            problems += gate.check_outputs(args.workload, work)  # outputs of the last command
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"outputs could not be read: {exc!r}")
    failed = sum(1 for r in commands if not r["ok"] or r["digests"] != reference)
    for r in commands:
        if r["ok"] and r["digests"] != reference:
            problems.append(f"digests at workers={r['workers']} traced={r['traced']} differ: {r['digests']}")
    print(f"reference digests (workers=1): {json.dumps(reference, sort_keys=True)}")

    if args.trace == 0:
        values = _report_untraced(w, timed, reference)
    else:
        values = _report_traced(w, rounds, commands, problems)
    for p in problems:
        print(f"problem: {p}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(commands),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
