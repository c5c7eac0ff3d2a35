"""The README's library example runs as written.

Each ``# value`` comment in the ``## Library example`` block must be what
the line above it prints, or the repr of that line's value when it prints
nothing, so a renamed function or a dropped parameter fails here.
"""

import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text().split("\n## Library example\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_as_written():
    namespace: dict = {}
    pending: list[str] = []
    checked = 0
    for line in library_example().splitlines():
        if not line.startswith("# "):
            pending.append(line)
            continue
        *setup, last = ast.parse("\n".join(pending)).body
        pending.clear()
        assert isinstance(last, ast.Expr), ast.unparse(last)
        exec(compile(ast.Module(setup, []), "README", "exec"), namespace)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            value = eval(compile(ast.Expression(last.value), "README", "eval"), namespace)
        assert (printed.getvalue() or f"{value!r}\n") == line[2:] + "\n", ast.unparse(last)
        checked += 1
    exec("\n".join(pending), namespace)
    assert checked == 3
