"""Line gate: every executable line of src/adelic runs under the tests, or is listed.

Run it from anywhere with ``python tests/line_gate.py`` (standard library and
pytest only).  It runs pytest over ``tests/`` in this process, under a line
tracer (``sys.settrace`` and ``threading.settrace``) limited to the modules of
``src/adelic``.  The executable lines of a module are the lines in the line
tables (``co_lines``) of its compiled code objects.  What tests run in a
subprocess is not traced.

Every executable line that did not run and is not in ``ALLOWED`` is printed.
A row of ``ALLOWED`` names a file, the stripped text of a line and the reason
that line may stay unrun; it lists the one line of its file with that text
that did not run.  The exit status is 1 when an unlisted line did not run, or
when a row's text matches no line that did not run (as when its line ran) or
more than one; so the table can only shrink.  It is 2 when pytest does not
run the tests.

The gate reads line hits only.  A test that fails under the tracer, such as a
time budget, does not fail the gate: the plain pytest run stays the verdict
on every test.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "adelic"

# (file under src/adelic, stripped text of a line, why it may stay unrun)
ALLOWED = (
    ("quadrature.py", "summed = abserr > errsum", "QUADPACK's choice of the extrapolated result in qagse"),
)


def _own_lines(code: types.CodeType) -> frozenset[int]:
    # line 0 is a module's entry, not a source line; None marks code with no line
    return frozenset(line for _, _, line in code.co_lines() if line)


def executable_lines(path: Path) -> set[int]:
    """The lines of every code object compiled from the module at path."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines: set[int] = set()
    while stack:
        code = stack.pop()
        lines |= _own_lines(code)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced_run(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest.main(args) under the tracer: its exit code and the (file, line) pairs that ran.

    Each code object of the package keeps the set of its lines not yet run,
    and stops being traced once that set is empty.
    """
    prefix = str(PACKAGE) + os.sep
    pending: dict[types.CodeType, set[int]] = {}

    def on_call(frame, event, arg):
        code = frame.f_code
        left = pending.get(code)
        if left is None:
            left = pending[code] = set(_own_lines(code)) if code.co_filename.startswith(prefix) else set()
        left.discard(frame.f_lineno)
        if not left:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                left.discard(frame.f_lineno)
                if not left:
                    return None
            return on_line

        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran = {
        (code.co_filename, line)
        for code, left in pending.items()
        if code.co_filename.startswith(prefix)
        for line in _own_lines(code) - left
    }
    return int(status), ran


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    status, ran = traced_run(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests")])
    if status not in (0, 1):  # 1: a test failed, which the plain run judges
        print(f"line gate: pytest exited with {status}", file=sys.stderr)
        return 2
    import adelic

    if Path(adelic.__file__).resolve().parent != PACKAGE:
        print(f"line gate: adelic was imported from {adelic.__file__}, not from {PACKAGE}", file=sys.stderr)
        return 2
    wrong = []
    total = unrun = 0
    modules = sorted(PACKAGE.glob("*.py"))
    for path in modules:
        text = [line.strip() for line in path.read_text(encoding="utf-8").splitlines()]
        lines = executable_lines(path)
        missed = {n for n in lines if (str(path), n) not in ran}
        total += len(lines)
        unrun += len(missed)
        for file, listed, reason in ALLOWED:
            if file != path.name:
                continue
            matches = [n for n in sorted(lines) if text[n - 1] == listed]
            unrun_matches = [n for n in matches if n in missed]
            if len(unrun_matches) == 1:
                missed.discard(unrun_matches[0])
            elif matches and not unrun_matches:
                wrong.append(f"{file}: every line with the listed text {listed!r} ran; delete its row ({reason})")
            else:
                wrong.append(f"{file}: the listed text {listed!r} matches {len(unrun_matches)} lines that did not run")
        wrong += [f"{path.name}:{n}: did not run: {text[n - 1]}" for n in sorted(missed)]
    stray = {file for file, _, _ in ALLOWED} - {path.name for path in modules}
    wrong += [f"{file}: listed, but no such module" for file in sorted(stray)]
    for line in wrong:
        print(line)
    print(f"line gate: {total - unrun} of {total} executable lines ran; {len(ALLOWED)} rows listed; {len(wrong)} wrong")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
