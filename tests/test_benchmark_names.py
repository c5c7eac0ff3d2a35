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


def test_candidate_cache_reports_cold_builds():
    """The traced run counts an enumerate call as cold when the cache's
    miss count rises; without cache_info() it would count every call."""
    from quadliaison import classify

    cache = classify._enumerate_cached
    cache.cache_clear()
    before = cache.cache_info()
    classify.enumerate_rank4_candidates(-1, 0)
    cold = cache.cache_info()
    classify.enumerate_rank4_candidates(-1, 0)
    warm = cache.cache_info()
    assert (cold.misses - before.misses, cold.hits - before.hits) == (1, 0)
    assert (warm.misses - cold.misses, warm.hits - cold.hits) == (0, 1)
