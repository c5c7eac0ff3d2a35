"""The benchmark's traced run wraps named package functions from outside
(perfbench/tracing.py) and refuses to run when one is missing, and its
workloads and probes call the package with fixed argument shapes.  Checking
the names and the shapes here makes a rename or a dropped parameter that
would stop the benchmark fail the ordinary test suite."""

from pathlib import Path

import pytest

from quadliaison import QUADRIC3, CurveClass, classify, curves, liaison
from quadliaison.errors import NegativeDimension, RangeTooLarge

PERFBENCH = Path(__file__).parent.parent / "perfbench"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracing.require_names()


def test_the_benchmark_call_shapes_hold():
    """One call of each shape that perfbench/ makes, on (8,4) on Q:
    workloads.Resolve.run, probe_child.py and workloads.Tables.run."""
    curve, window = CurveClass(QUADRIC3, 8, 4), (0, 6)
    middle, matches = classify.etype_candidates(curve, match_window=window)
    assert len(matches) == 1
    _, found = classify.etype_candidates(curve, twist_lo=-6, twist_hi=3)
    assert found == matches
    with pytest.raises(RangeTooLarge) as capped:
        classify.etype_candidates(curve, twist_lo=-16, twist_hi=3)
    assert capped.value.count == classify.rank4_candidate_count(-16, 3)
    etype = liaison.ResolutionTriple(matches[0], middle, curve, liaison.ResolutionFlavor.E_TYPE)
    ntype = liaison.mapping_cone_n_from_e(etype, (2, 3), window)
    assert liaison.resolution_consistency_check(ntype, window).ok
    table = curves.full_ideal_table(curve, window)
    assert len(table.cells) == 4 * 7
    assert curves.regularity(table).regularity == 3
    # (8,4) has no negative count; (20,0) needs 21 sections at twist 1, where O_Q(1) has 5
    with pytest.raises(NegativeDimension) as negative:
        curves.full_ideal_table(CurveClass(QUADRIC3, 20, 0), window)
    assert (negative.value.twist, negative.value.value) == (1, 5 - 21)
