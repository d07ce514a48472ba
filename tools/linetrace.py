"""List the lines of ``src/pafmsm`` that the test suite never executes.

Runs pytest in this process under the standard library's ``trace``
module and prints each executable package line that no test reached, as
``path:line: source``, then a count.  Code run in a subprocess (the CLI
tests that start ``python -m pafmsm``, the demos) is not traced.

    python tools/linetrace.py              # the tier-1 suite, about 3 minutes
    python tools/linetrace.py -m "not slow" tests/test_cli.py

Arguments are passed to pytest in place of the default ``tests``.
Standard library only; it lives outside ``testpaths``, so pytest never
collects it.
"""

from __future__ import annotations

import dis
import os
import sys
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pafmsm"


def executable_lines(path: Path) -> set[int]:
    """The lines on which the compiled code of ``path`` starts an instruction."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


class _PackageOnly:
    """Traces the package's frames alone.  ``trace``'s own filter caches its
    verdict by module name, so an ignored ``errors.py`` or ``__init__.py``
    elsewhere would hide the package's; the tests need no tracing either."""

    def names(self, filename, modulename):
        return not (filename or "").startswith(f"{PACKAGE}{os.sep}")


def main(argv) -> int:
    import pytest  # imported untraced; the package is imported under the tracer

    sys.path.insert(0, str(ROOT / "src"))
    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = _PackageOnly()
    status = tracer.runfunc(pytest.main, ["-q", "-p", "no:cacheprovider", *(argv or ["tests"])])
    reached = {}
    for filename, line in tracer.results().counts:
        reached.setdefault(Path(filename).resolve(), set()).add(line)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - reached.get(path.resolve(), set())):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{missed} package lines never executed (pytest exit {int(status)})")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
