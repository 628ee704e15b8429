"""Write reference.json: output digests of a workers=1 command per workload and input set.

Usage, from the root of a checkout::

    python3 perfbench/make_reference.py [--workloads grid19,factor] [--cases 0-31]

Every benchmark seed selects one of ``inputs.INPUT_SETS`` input sets, so the
default (every workload, every input set) covers every seed.  Each command's
outputs must also pass the content checks in ``gate.py``.  Entries for the
chosen workloads and input sets are replaced; the others are kept.
Regenerate the file only when a change alters output bytes on purpose, and
say why in the change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def main() -> int:
    import gate
    import hostspeed
    import inputs

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(inputs.WORKLOADS))
    parser.add_argument("--cases", default=f"0-{inputs.INPUT_SETS - 1}")
    args = parser.parse_args()
    lo, _, hi = args.cases.partition("-")

    found: dict = {}
    with hostspeed.HostSpeed() as speed:
        for name in args.workloads.split(","):
            for case in range(int(lo), int(hi or lo) + 1):
                work = run.HERE / "_work" / f"reference-{name}-{case}"
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                config = inputs.write_inputs(name, case, work)
                result = run.Runner(name, work, config, speed).run(1, False)
                problems = gate.check_outputs(name, work) if result["ok"] else ["command failed"]
                if problems:
                    print(f"{name} input set {case}: {problems}", file=sys.stderr)
                    return 1
                found.setdefault(name, {})[str(case)] = result["digests"]
                shutil.rmtree(work)
    table = json.loads(gate.REFERENCE.read_text(encoding="utf-8")) if gate.REFERENCE.exists() else {}
    table = {name: table.get(name, {}) for name in inputs.WORKLOADS}
    for name, entries in found.items():
        table[name].update(entries)
    gate.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
