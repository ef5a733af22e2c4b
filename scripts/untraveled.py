"""Print each statement of src/pradical that a pytest selection never runs.

The selection runs in this process under a `sys.settrace` hook that records
the lines executed in the package's files; the standard library is all it
needs.  A statement counts as executable when the compiled module holds an
instruction on one of its own lines (for a compound statement, the lines of
its header), and as run when any of those lines was.  Arguments go to pytest
unchanged; the exit code is pytest's.

    python scripts/untraveled.py                     # the whole suite
    python scripts/untraveled.py tests/test_cli.py -k report

Tracing every line slows the suite down about eightfold (the whole suite
took 4.5 minutes on a 2-vCPU machine), so tests that bound wall-clock time
can fail under it; the statements they run are still recorded.
"""

from __future__ import annotations

import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pradical"


def _code_lines(code):
    """The lines that hold an instruction of `code` or of a code object
    nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _own_lines(node):
    """The lines of a statement that are not lines of a statement nested in
    it: the header of a compound statement, all of a simple one."""
    end = node.end_lineno
    for field in ("body", "orelse", "finalbody", "handlers"):
        for child in getattr(node, field, ()):
            end = min(end, child.lineno - 1)
    return range(node.lineno, max(end, node.lineno) + 1)


def statements(source, filename):
    """(first line, own lines) of each executable statement of a module."""
    executable = _code_lines(compile(source, filename, "exec"))
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            own = [n for n in _own_lines(node) if n in executable]
            if own:
                out.append((node.lineno, own))
    return sorted(out)


def run_traced(args):
    """Run pytest on `args` while recording (file, line) of every line the
    package executes; returns (exit code, recorded lines)."""
    prefix = str(PACKAGE) + "/"
    seen = set()

    def local(frame, event, arg):
        seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return code, seen


def main(argv):
    code, seen = run_traced(argv)
    missed = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for first, own in statements(source, str(path)):
            total += 1
            if not any((str(path), n) in seen for n in own):
                missed += 1
                print("%s:%d: %s" % (path.relative_to(ROOT), first,
                                     text[first - 1].strip()))
    print("%d of %d statements untraveled" % (missed, total))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
