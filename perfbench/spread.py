"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --seeds 1-10 --workloads grid19,factor --seconds 50

Runs ``perfbench/run.py`` once per (seed, workload), interleaving the
workloads within each seed, and prints for every end-to-end metric the
median over seeds and the distance between the first and third quartiles
as a share of the median, next to the metric's bound in BENCHMARK.json and
the spread of the measured times before host normalization.
``--save`` writes the per-run results as JSON; ``--against`` compares the
medians with such a file, made by an earlier set of runs.

The set passes when every run is correct, every spread except that of
``setup_s`` is within its bound, and, with ``--against``, no median is worse
than the earlier one by more than its bound (``setup_s`` included).  A spread
below a third of its bound, the target for a steady metric, is marked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="grid19,factor")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--save", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")
    runs: dict = {w: [] for w in workloads}
    for seed in _seeds(args.seeds):
        for w in workloads:
            cmd = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            last = json.loads(lines[-1])
            values = {k: v["value"] for k, v in last["metrics"].items()}
            # The measured (not host-normalized) medians, from the report lines.
            measured = {line.split()[1]: float(line.split("median ")[1].split(";")[0])
                        for line in lines if line.startswith("  measured ")}
            runs[w].append({"seed": seed, "correct": last["correct"], "exit": proc.returncode,
                            "measured": measured, **values})
            print(f"seed {seed} {w}: correct={last['correct']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)
    if args.save:
        args.save.write_text(json.dumps(runs, indent=1), encoding="utf-8")
    before = json.loads(args.against.read_text(encoding="utf-8")) if args.against else {}
    passed = True
    for w, rows in runs.items():
        for name, bound in bounds.items():
            values = [r[name] for r in rows]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            line = f"{w:7s} {name:12s} median {med:10.5g}  spread {spread:6.3f}  bound {bound}"
            if name in rows[0]["measured"]:
                raw = [r["measured"][name] for r in rows]
                q1, _, q3 = statistics.quantiles(raw, n=4)
                line += f"  (measured: spread {(q3 - q1) / statistics.median(raw):6.3f})"
            line += "  below bound/3" if spread < bound / 3 else ""
            if name != "setup_s" and spread > bound:
                passed = False
                line += "  SPREAD OVER BOUND"
            if w in before:
                change = med / statistics.median(r[name] for r in before[w]) - 1
                line += f"  vs before {change:+.3f}"
                if change > bound:  # every metric is lower-is-better
                    passed = False
                    line += "  WORSE THAN BOUND"
            print(line)
        passed &= all(r["correct"] and r["exit"] == 0 for r in rows)
    print("passed" if passed else "failed")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
