"""List the lines of `src/monofix` that no tier-1 test runs.

    python3 tools/line_coverage.py [PYTEST_ARGS...]

Runs pytest in this process (the repository's `testpaths` unless
PYTEST_ARGS name other tests) under a `sys.settrace` line tracer that
follows only frames of code in `src/monofix`.  The executable lines of a
module are the line numbers of its compiled code objects (`co_lines()`,
nested code objects included); for each module, the script prints those
that no traced frame ran, as ranges of consecutive executable lines.  It
uses the standard library only.  Tracing makes the suite about three times
slower: about 2 min against 40 s untraced on a 2-core Xeon.  The exit
status is pytest's.

A listed line is a candidate, not a proof: a line that runs only in a child
process (a CLI run through `subprocess`) is listed too.
"""
from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "monofix"


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every instruction of the module at `path`."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _start, _end, line in code.co_lines() if line)  # a module starts at line 0
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(lines: list[int], executable: list[int]) -> str:
    """`lines` as comma-separated ranges, a range running over consecutive
    executable lines."""
    position = {line: i for i, line in enumerate(executable)}
    runs: list[list[int]] = []
    for line in lines:
        if runs and position[line] == position[runs[-1][-1]] + 1:
            runs[-1].append(line)
        else:
            runs.append([line])
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in runs)


def main(argv: list[str]) -> int:
    import pytest

    ran: dict[str, set[int]] = {}
    traced: dict[str, bool] = {}  # file name -> whether it is a module of the package

    def on_line(frame: types.FrameType, event: str, arg: object):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame: types.FrameType, event: str, arg: object):
        name = frame.f_code.co_filename
        if name not in traced:
            traced[name] = Path(name).resolve().parent == PACKAGE
            if traced[name]:
                ran[name] = set()
        return on_line if traced[name] else None

    os.chdir(ROOT)
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    by_path: dict[Path, set[int]] = {}
    for name, lines in ran.items():
        by_path.setdefault(Path(name).resolve(), set()).update(lines)
    total_missing = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        executable = sorted(executable_lines(path))
        missing = sorted(set(executable) - by_path.get(path, set()))
        total, total_missing = total + len(executable), total_missing + len(missing)
        print(f"{path.relative_to(ROOT)}: {len(missing)} of {len(executable)} executable lines not run")
        if missing:
            print(f"    {ranges(missing, executable)}")
    print(f"total: {total_missing} of {total} executable lines not run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
