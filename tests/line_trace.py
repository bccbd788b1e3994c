"""Lines of src/edgecurrents that the test suite never executes.

Runs the suite in this process, through ``pytest.main`` under ``sys.settrace``
and ``threading.settrace``, and prints every line of the package that holds
bytecode but raised no trace event, as ``<module>:<line>``.  Lines that run
only in the fresh processes some tests start, such as the ``__main__`` guard
of ``cli.py``, are among them.  Run from the repository root; arguments are
passed on to pytest::

    python tests/line_trace.py [pytest arguments]

It exits with pytest's exit code.  pytest does not collect this file: its
name does not start with ``test_``.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "edgecurrents"


def code_lines(code: CodeType) -> set[int]:
    """The line numbers of the bytecode of code and of every code object nested in it.

    A module's code starts with an instruction on line 0, which no source line holds.
    """
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= code_lines(const)
    return lines


def main(args: list[str]) -> int:
    package = {str(path): path.name for path in sorted(PACKAGE.glob("*.py"))}
    names: dict[str, str | None] = {}  # co_filename -> module name, None outside the package
    run: dict[str, set[int]] = {name: set() for name in package.values()}

    def trace_lines(frame, event, arg):
        if event == "line":
            run[names[frame.f_code.co_filename]].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        # only the frames of the package get a line tracer
        filename = frame.f_code.co_filename
        if filename not in names:
            names[filename] = package.get(str(Path(filename).resolve()))
        return trace_lines if names[filename] else None

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path, name in package.items():
        source = Path(path).read_text()
        for line in sorted(code_lines(compile(source, path, "exec")) - run[name]):
            print(f"{name}:{line}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
