"""Microseconds per Gibbs sweep of the three samplers, one source tree against another.

Prints µs per sweep for ``fit_dqlm`` (at p = 2 and p = 3), ``gibbs_drqs``
and ``gibbs_fdrqs`` at window lengths T = 15, 60, 120 and 250 (the paper's
length): the median of ``REPS`` timed calls of ``SWEEPS`` sweeps
(``FACTOR_SWEEPS`` for FDRQS).
With ``--base DIR`` it also loads the package from ``DIR/src/quantsynth``
under a second name in the same process, and times the two trees in
alternating order, rep by rep: on a shared host the speed of one process
drifts too much between processes for two separate runs to compare.  Each
row then adds the base tree's median, the median of the per-rep ratios
base/this, and whether both trees returned the same draws bit for bit:
every array field of the draws object, in every rep.

    python scripts/sweep_cost.py
    python scripts/sweep_cost.py --base ../parent-checkout

Shapes: the agent model has an intercept and one predictor (p = 2, the
grid19 ``base`` and ``zonly`` agents) or two (p = 3, the grid19 ``zlag``
agent); DRQS synthesizes J = 3 agents; FDRQS has N = 6 series, J = 3
agents and L = 5 factors per block (K = 20, the factor benchmark's shape).
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parents[1]
T_VALUES = (15, 60, 120, 250)
REPS = 9  # timed calls per sampler, T and tree
SWEEPS = 40  # sweeps per agent or DRQS call
FACTOR_SWEEPS = 8  # sweeps per FDRQS call


def load_tree(root: Path, name: str):
    """Import ``root/src/quantsynth`` as the package ``name``, with its own submodules."""
    pkg_dir = root / "src" / "quantsynth"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_trees(argv, doc: str) -> dict:
    """``{"this": HERE's package}``, plus ``"base"`` loaded from the ``--base DIR`` option."""
    ap = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    ap.add_argument("--base", type=Path, help="checkout to compare against (its src/quantsynth)")
    args = ap.parse_args(argv)
    trees = {"this": load_tree(HERE, "quantsynth_this")}
    if args.base is not None:
        trees["base"] = load_tree(args.base.resolve(), "quantsynth_base")
    return trees


def cost_header(keys: str, unit: str, width: int, base: bool) -> str:
    """The ``keys`` columns, then ``this_<unit>`` and, with a base tree, its three columns."""
    cols = f"{keys} {'this_' + unit:>{width}}"
    return cols + (f" {'base_' + unit:>{width}} {'base/this':>9} {'same':>5}" if base else "")


def cost_cells(times: dict, spec: str, same: bool) -> str:
    """Median of ``times["this"]``; with ``times["base"]``, its median, per-rep base/this and ``same``."""
    cells = f" {statistics.median(times['this']):{spec}}"
    if "base" in times:
        ratio = statistics.median(b / t for b, t in zip(times["base"], times["this"]))
        cells += f" {statistics.median(times['base']):{spec}} {ratio:>9.2f} {str(same):>5}"
    return cells


def _inputs(T: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(T), rng.normal(size=(T, 2))])
    y = X @ np.array([0.5, 1.0, -0.3]) + rng.normal(size=T)
    J, N = 3, 6
    a = y[:, None] + rng.normal(0.0, 0.5, (T, J))
    Y = rng.normal(size=(T, N))
    aa = Y[:, :, None] + rng.normal(0.0, 0.5, (T, N, J))
    return {"X": X, "y": y, "a": a, "A": np.full((T, J), 0.3),
            "Y": Y, "aa": aa, "AA": np.full((T, N, J), 0.3)}


def _runners(pkg, inp: dict) -> dict:
    """Per sampler: a function of (sweeps, seed) returning its draws object."""
    agents = importlib.import_module(f"{pkg.__name__}.agents")
    drqs = importlib.import_module(f"{pkg.__name__}.drqs")
    fdrqs = importlib.import_module(f"{pkg.__name__}.fdrqs")
    spec = agents.DQLMSpec(tau=0.25)
    cfg = drqs.DRQSConfig(tau=0.25, J=3)
    fcfg = fdrqs.FDRQSConfig(tau=0.25, N=6, J=3, L=5)

    def fit(X):
        return lambda sweeps, seed: agents.fit_dqlm(
            inp["y"], X, spec, (sweeps, 0), np.random.default_rng(seed)
        )

    def synth(sweeps, seed):
        return drqs.gibbs_drqs(inp["y"], (inp["a"], inp["A"]), cfg, (sweeps, 0),
                               np.random.default_rng(seed))

    def factor(sweeps, seed):
        return fdrqs.gibbs_fdrqs(inp["Y"], (inp["aa"], inp["AA"]), fcfg, (sweeps, 0),
                                 np.random.default_rng(seed))

    return {"fit_dqlm_p2": fit(np.ascontiguousarray(inp["X"][:, :2])), "fit_dqlm": fit(inp["X"]),
            "gibbs_drqs": synth, "gibbs_fdrqs": factor}


def _same_draws(a, b) -> bool:
    """Whether two draws objects hold the same array fields, bit for bit."""
    arrays_a, arrays_b = ({k: x for k, x in vars(d).items() if isinstance(x, np.ndarray)}
                          for d in (a, b))
    return arrays_a.keys() == arrays_b.keys() and all(
        np.array_equal(x, arrays_b[k]) for k, x in arrays_a.items()
    )


def _time(run, sweeps: int, seed: int):
    start = time.perf_counter()
    out = run(sweeps, seed)
    return (time.perf_counter() - start) / sweeps * 1e6, out


def main(argv=None) -> None:
    trees = load_trees(argv, __doc__)
    print(cost_header(f"{'sampler':<12} {'T':>4}", "us", 10, "base" in trees))
    for T in T_VALUES:
        inp = _inputs(T, seed=T)
        runners = {side: _runners(pkg, inp) for side, pkg in trees.items()}
        for sampler in runners["this"]:
            sweeps = FACTOR_SWEEPS if sampler == "gibbs_fdrqs" else SWEEPS
            times = {side: [] for side in trees}
            same = True
            for rep in range(REPS):
                outs = {}
                for side in list(trees)[:: 1 if rep % 2 == 0 else -1]:
                    us, outs[side] = _time(runners[side][sampler], sweeps, seed=rep)
                    times[side].append(us)
                if "base" in outs:
                    same &= _same_draws(outs["this"], outs["base"])
            print(f"{sampler:<12} {T:>4}" + cost_cells(times, ">10.1f", same), flush=True)


if __name__ == "__main__":
    main()
