"""Run one quantsynth command in this process and record its spans.

Usage::

    python3 perfbench/child.py RECORD.json TRACE -- <quantsynth arguments>

``TRACE`` is 0 for stage clocks only (a few spans per command) or 1 for the
full per-module trace.  The command's own output goes to stdout; RECORD.json
receives its exit status, the span summary, the per-job seconds its stages
returned and the peak resident memory of this process and of its largest
reaped worker.  With TRACE=1 the raw spans are written beside it.

The pool spawns workers that re-import this file as their main module, so
everything that acts runs under the ``__main__`` guard.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path


def main(argv: list) -> int:
    record_path, traced = Path(argv[0]), argv[1] == "1"
    cli_args = argv[argv.index("--") + 1 :]
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from quantsynth._worker import limit_worker_threads

    limit_worker_threads()  # before NumPy loads
    import quantsynth.cli

    import spans

    rec = spans.Recorder()
    spans.install(rec, traced)
    status = quantsynth.cli.main(cli_args)
    # A pool started multiprocessing's resource tracker; stop it and wait for
    # it here, so that no process outlives the command.
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    record = {
        "status": status,
        "spans": rec.summary(),
        "job_seconds": rec.job_seconds,
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_worker_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    record_path.write_text(json.dumps(record), encoding="utf-8")
    if traced:
        record_path.with_suffix(".spans.json").write_text(json.dumps(rec.raw()), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
