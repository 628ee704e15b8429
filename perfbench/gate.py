"""Output gate: artifact digests, shape checks and two independent oracles.

The digests are compared with the reference stored in ``reference.json``
for the run's input set, taken from a ``workers=1`` command by
``make_reference.py``.  The oracles check content independently of the
digests: every CRPS in ``scores.csv`` is recomputed from the realized values
and the stored quantile curves, and every PIT value is compared with the
survival function of the reconstructed law (uniform between quantiles,
truncated Gaussian tails), of which the program's draw-based PIT is an
estimate.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from statistics import NormalDist

from inputs import WORKLOADS, Layout

REFERENCE = Path(__file__).resolve().parent / "reference.json"
SCHEMES = ("none", "right", "left")
PIT_TOLERANCE = 0.02  # 10000 stratified draws: the estimator's error is far below this
CRPS_TOLERANCE = 1e-9  # scores.csv carries 12 significant digits
_N = NormalDist()


def digests(out: Path, names) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def stored_reference(workload: str, case: int) -> dict | None:
    table = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    return table.get(workload, {}).get(str(case))


def _rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _quarter(label: str) -> int:
    year, q = label.split("Q")
    return int(year) * 4 + int(q) - 1


def _realized(work: Path) -> dict:
    """(series, quarter) -> annualized log growth, as ingest computes it for h=1."""
    levels: dict = {}
    for row in _rows(work / "levels.csv"):
        levels.setdefault(row["series"], []).append((_quarter(row["time"]), float(row["Y"])))
    out = {}
    for sid, items in levels.items():
        for (_, prev), (t, cur) in zip(items, items[1:]):
            out[(sid, t)] = 400.0 * (math.log(cur) - math.log(prev))
    return out


def _crps(y: float, curve: list, taus: list, scheme: str) -> float:
    nu = {"none": lambda t: 1.0, "right": lambda t: t * t, "left": lambda t: (1.0 - t) ** 2}[scheme]
    g = [2.0 * ((1.0 if y < q else 0.0) - t) * (q - y) * nu(t) for q, t in zip(curve, taus)]
    return sum(0.5 * (g[k] + g[k + 1]) * (taus[k + 1] - taus[k]) for k in range(len(taus) - 1))


def _survival(y: float, curve: list, taus: list) -> float:
    """P(X >= y) under the reconstructed law of a quantile curve."""
    q = sorted(curve)
    z = [_N.inv_cdf(t) for t in taus]
    if y <= q[0]:
        s1 = (q[1] - q[0]) / (z[1] - z[0])
        return 1.0 - _N.cdf((y - (q[0] - s1 * z[0])) / s1)
    if y >= q[-1]:
        s2 = (q[-1] - q[-2]) / (z[-1] - z[-2])
        return 1.0 - _N.cdf((y - (q[-1] - s2 * z[-1])) / s2)
    k = next(k for k in range(1, len(q)) if y <= q[k])
    frac = (y - q[k - 1]) / (q[k] - q[k - 1])
    return 1.0 - (taus[k - 1] + (taus[k] - taus[k - 1]) * frac)


def check_outputs(workload: str, work: Path) -> list:
    """Problems found in the outputs of one command; empty when they pass.

    Raises ValueError or KeyError when a file cannot be parsed at all.
    """
    w = WORKLOADS[workload]
    lay = Layout.of(w)
    out = work / "out"
    taus = [float(t) for t in w.taus]
    sids = [f"s{i:02d}" for i in range(w.series)]
    agents = json.loads((work / "run.yaml").read_text(encoding="utf-8"))["agents"]
    agent_names = [a["name"] for a in agents]
    synth_targets = range(lay.synth_forecast_start, lay.end + 1)
    problems = []

    def expect(cond: bool, text: str) -> None:
        if not cond:
            problems.append(text)

    curves: dict = {}  # (model, series, quarter) -> quantile curve in tau order
    fc_rows = _rows(out / "agent_forecasts.csv")
    n_agent_targets = lay.end - lay.agent_forecast_start + 1
    expect(len(fc_rows) == w.series * n_agent_targets * w.agents * len(taus),
           f"agent_forecasts.csv has {len(fc_rows)} rows")
    for r in fc_rows:
        expect(float(r["A"]) > 0.0 and math.isfinite(float(r["a"])), f"bad agent forecast {r}")
        key = (r["agent"], r["series"], _quarter(r["time"]))
        curves.setdefault(key, {})[float(r["tau"])] = float(r["a"])

    synth = "fdrqs" if w.factor else "drqs"
    s_rows = _rows(out / "forecasts.csv")
    expect(len(s_rows) == w.series * w.targets * len(taus), f"forecasts.csv has {len(s_rows)} rows")
    for r in s_rows:
        point, lo, hi = float(r["point"]), float(r["lo95"]), float(r["hi95"])
        expect(all(map(math.isfinite, (point, lo, hi))) and lo <= hi,
               f"bad synthesized forecast {r}")
        curves.setdefault((synth, r["series"], _quarter(r["time"])), {})[float(r["tau"])] = point
    draws = {int(r["n_draws"]) for r in s_rows}
    expect(draws == {w.synth_mcmc[0]}, f"forecasts.csv n_draws {sorted(draws)}")
    if "scores.csv" not in w.gated:
        return problems

    y = _realized(work)
    models = agent_names + [synth]
    cells = [(m, s, t) for m in models for s in sids for t in synth_targets]
    scores = {(r["model"], r["series"], _quarter(r["time"]), r["scheme"]): float(r["crps"])
              for r in _rows(out / "scores.csv")}
    expect(len(scores) == len(cells) * len(SCHEMES), f"scores.csv has {len(scores)} cells")
    pits = {(r["model"], r["series"], _quarter(r["time"])): float(r["pit"])
            for r in _rows(out / "pit.csv")}
    expect(len(pits) == len(cells), f"pit.csv has {len(pits)} cells")
    for m, s, t in cells:
        points = curves.get((m, s, t), {})
        if sorted(points) != taus:
            problems.append(f"no full quantile curve for {m} {s} {t}")
            continue
        curve = [points[tau] for tau in taus]
        for scheme in SCHEMES:
            got, want = scores.get((m, s, t, scheme)), _crps(y[(s, t)], curve, taus, scheme)
            expect(got is not None and abs(got - want) <= CRPS_TOLERANCE * max(1.0, abs(want)),
                   f"crps {m} {s} {t} {scheme}: {got} vs {want}")
        got, want = pits.get((m, s, t)), _survival(y[(s, t)], curve, taus)
        expect(got is not None and abs(got - want) <= PIT_TOLERANCE,
               f"pit {m} {s} {t}: {got} vs {want}")
    return problems
