"""The package exports no name that only tests call.

Every name in leibhom.__all__ must be used by the program itself, in a
module other than __init__.py and apart from the line that defines it, or
by the benchmark harness in perfbench/.
"""

import re
from pathlib import Path

import leibhom

ROOT = Path(__file__).resolve().parent.parent


def _lines(paths):
    return [line for path in paths
            for line in path.read_text(encoding="utf-8").splitlines()]


def test_every_exported_name_has_a_caller_outside_the_tests():
    program = _lines(p for p in (ROOT / "src" / "leibhom").glob("*.py")
                     if p.name != "__init__.py")
    harness = _lines((ROOT / "perfbench").glob("*.py"))
    unused = []
    for name in leibhom.__all__:
        word = re.compile(r"\b%s\b" % re.escape(name))
        defines = re.compile(r"\s*(def|class)\s+%s\b|\s*%s\s*(:[^=]*)?=[^=]"
                             % (name, name))
        if not (any(word.search(line) and not defines.match(line)
                    for line in program)
                or any(word.search(line) for line in harness)):
            unused.append(name)
    assert unused == []
