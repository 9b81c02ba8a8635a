"""List the executable lines of src/convtraffic that the test suite never runs.

    python3 tools/line_cover.py

Imports the package from this checkout's src/ and runs this checkout's whole
tests/ suite in-process, quietly, under a sys.settrace line collector, then
prints each executable line of the package that never ran and is not in
ALLOWED as `file:line: source`, followed by the counts.
Executable lines are the line numbers of every code object compiled from the
package's sources. ALLOWED is keyed by file and a piece of source text of the
statement a line belongs to, not by line number, and every entry states why
that statement never runs. Exits 1 when a never-run line is not allowed or a
test fails. Takes about twice as long as the plain suite.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "convtraffic"

ALLOWED = {
    ("cli.py", "sys.exit(main())"):
        "the module entry point runs only as `python -m convtraffic.cli`, in a subprocess",
    ("simulator.py", "does not match the line buffer's"):
        "LineBuffer.fill_row gets its rows from the simulator's own padded maps, "
        "whose shape run_super_layer has checked",
    ("simulator.py", "do not match pooled dims"):
        "the pool-transpose gather gets the transposed conv's output, whose dims "
        "follow from the delta shape run_super_layer has checked",
    ("reference.py", "propagated delta dims"):
        "the reference oracle's own guard, kept as cross-check safety code: its "
        "callers size every delta from the same specs",
    ("reference.py", 'raise ShapeError(f"input: maps axis is {x.shape[0]}'):
        "the reference oracle's own guard, kept as cross-check safety code: its "
        "callers size every input from the same spec",
}


def executable_lines(source: str, path: Path) -> set[int]:
    lines, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def statements(source: str) -> dict[int, str]:
    """The source text, on one line, of the innermost statement each line is in."""
    lines, text = source.splitlines(), {}
    for node in ast.walk(ast.parse(source)):  # breadth first: inner statements win
        if isinstance(node, ast.stmt):
            span = range(node.lineno, node.end_lineno + 1)
            text.update(dict.fromkeys(span, " ".join(lines[n - 1].strip() for n in span)))
    return text


def main() -> int:
    prefix = str(PACKAGE) + "/"
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def collect(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        return local(frame, event, arg)

    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(collect)
    try:
        tests = str(PACKAGE.parents[1] / "tests")
        code = pytest.main(["-q", "-p", "no:cacheprovider", tests])
    finally:
        sys.settrace(None)
    total = unexplained = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines, text = source.splitlines(), statements(source)
        missed = sorted(n for n in executable_lines(source, path) if (str(path), n) not in ran)
        total += len(missed)
        for n in missed:
            if not any(name == path.name and needle in text.get(n, "")
                       for name, needle in ALLOWED):
                unexplained += 1
                print(f"{path.name}:{n}: {lines[n - 1].strip()}")
    print(f"never run: {total} lines, {unexplained} outside the allow-list (pytest exit {code})")
    return 1 if unexplained or code else 0


if __name__ == "__main__":
    sys.exit(main())
