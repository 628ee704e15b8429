"""Lines of the package that no test runs: a line tracer for a tree without coverage.py.

Runs pytest in this process under a trace function, installed with
``sys.settrace`` and ``threading.settrace``, that records every line run in
a frame whose code lives in ``src/quantsynth``.  When the suite ends it prints,
file by file, each executable line that no test reached, with its source.  The
executable lines of a module are those that ``co_lines`` reports for the code
object compiled from its file and for every code object nested in it.

    python scripts/untested_lines.py                        # the whole suite
    python scripts/untested_lines.py tests/test_pipeline.py -k TestConfig

Arguments go to pytest unchanged; the exit code is pytest's.  The tracer sees
only this process: a line that runs only inside pool workers (a job function
of a test that runs with ``workers > 1`` and never inline) is listed as
unreached, and so is a line run only by a subprocess a test starts.  Tracing
makes the suite about 2.2 times slower: the whole suite took 531 s against
247 s untraced, on 2 CPUs of a shared host.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quantsynth"


def executable_lines(path: Path) -> set:
    """Line numbers that the code compiled from ``path`` can run."""
    stack, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def untested(pytest_args) -> tuple[int, dict]:
    """Run pytest on ``pytest_args`` under the tracer.

    Returns pytest's exit code and ``{path: sorted unreached lines}`` for every
    module of the package.
    """
    import pytest

    hits: dict = {}  # resolved file -> lines reached
    files: dict = {}  # co_filename -> its set in hits, or None outside the package

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = Path(name).resolve()
            files[name] = hits.setdefault(path, set()) if path.is_relative_to(PACKAGE) else None
        lines = files[name]
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(list(pytest_args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), {
        path: sorted(executable_lines(path) - hits.get(path, set()))
        for path in sorted(PACKAGE.rglob("*.py"))
    }


def main(argv=None) -> int:
    code, missed = untested(sys.argv[1:] if argv is None else argv)
    total = 0
    for path, lines in missed.items():
        source = path.read_text(encoding="utf-8").splitlines()
        for line in lines:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
        total += len(lines)
    print(f"{total} executable line(s) in {len(missed)} file(s) reached by no test")
    return code


if __name__ == "__main__":
    sys.exit(main())
