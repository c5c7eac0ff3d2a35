"""The benchmark's traced run wraps named package functions from outside
(perfbench/tracing.py) and refuses to run when one is missing.  Checking
the names here makes a rename that would stop the traced run fail the
ordinary test suite."""

from pathlib import Path

PERFBENCH = Path(__file__).parent.parent / "perfbench"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracing.require_names()
