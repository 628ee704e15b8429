"""Seconds to read, write and query agent-report files, one source tree against another.

Writes an ``agent_forecasts.csv`` of ``TIMES`` quarterly times x ``AGENTS``
agents x ``LEVELS`` levels for each panel size in ``SERIES``, then prints the
median over ``REPS`` timed calls of:

* ``from_csv`` -- ``AgentForecastSet.from_csv`` on the file;
* ``to_csv`` -- writing the loaded set back;
* ``reports`` -- every report as dense (level, time, series, agent) ``a`` and
  ``A`` arrays, in one ``reports`` call.

With ``--base DIR`` it also loads the package from ``DIR/src/quantsynth``
under a second name in the same process (``sweep_cost.load_trees``) and times
the two trees in alternating order, rep by rep.  Each row then adds the base
tree's median, the median of the per-rep ratios base/this, and whether both
trees wrote the same bytes and read the same arrays in every rep.

    python scripts/report_cost.py
    python scripts/report_cost.py --base ../parent-checkout
"""

from __future__ import annotations

import importlib
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from sweep_cost import cost_cells, cost_header, load_trees  # noqa: E402

SERIES = (5, 20, 40)
TIMES = 71
AGENTS = 4
LEVELS = 19
REPS = 5  # timed calls per operation, size and tree


def _write_reports(path: Path, n_series: int) -> None:
    """A valid agent-report file, its rows in the order ``to_csv`` writes them."""
    rng = np.random.default_rng(n_series)
    taus = [round(0.05 * (k + 1), 2) for k in range(LEVELS)]
    lines = ["series,time,agent,tau,a,A"]
    for s in range(n_series):
        for t in range(8000, 8000 + TIMES):  # 2000Q1 onwards
            label = f"{t // 4}Q{t % 4 + 1}"
            for j in range(AGENTS):
                a = np.sort(rng.normal(0.0, 2.0, LEVELS)).tolist()
                A = rng.uniform(0.1, 1.0, LEVELS).tolist()
                lines += [f"s{s:02d},{label},m{j},{tau:.2f},{x!r},{v!r}" for tau, x, v in zip(taus, a, A)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_all(fset) -> tuple[np.ndarray, np.ndarray]:
    """Every report of a set as (level, time, series, agent) ``a`` and ``A`` arrays."""
    return fset.reports(fset.taus, range(fset.t0, fset.t0 + fset.a.shape[1]), fset.series, fset.agents)


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def main(argv=None) -> None:
    trees = load_trees(argv, __doc__)
    sets = {side: importlib.import_module(f"{pkg.__name__}.agents").AgentForecastSet
            for side, pkg in trees.items()}
    print(cost_header(f"{'op':<9} {'series':>6}", "s", 8, "base" in trees))
    with tempfile.TemporaryDirectory() as tmp:
        for n_series in SERIES:
            path = Path(tmp) / "agent_forecasts.csv"
            _write_reports(path, n_series)
            times = {op: {side: [] for side in trees} for op in ("from_csv", "to_csv", "reports")}
            same = True
            for rep in range(REPS):
                written, read = {}, {}
                for side in list(trees)[:: 1 if rep % 2 == 0 else -1]:
                    out = Path(tmp) / f"{side}.csv"
                    seconds, fset = _timed(sets[side].from_csv, path)
                    times["from_csv"][side].append(seconds)
                    times["to_csv"][side].append(_timed(fset.to_csv, out)[0])
                    seconds, read[side] = _timed(_read_all, fset)
                    times["reports"][side].append(seconds)
                    written[side] = out.read_bytes()
                    del fset
                if "base" in trees:
                    same &= written["this"] == written["base"] == path.read_bytes() and all(
                        np.array_equal(x, y) for x, y in zip(read["this"], read["base"])
                    )
            for op, op_times in times.items():
                print(f"{op:<9} {n_series:>6}" + cost_cells(op_times, ">8.3f", same), flush=True)


if __name__ == "__main__":
    main()
