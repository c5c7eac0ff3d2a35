"""Record semantics of the package's value types.

Every record keeps its constructor (positional and keyword, with its
defaults), refuses attribute assignment, survives copy and pickle, and
raises the same validation messages; the hashable ones compare and hash
by value.  Nothing here depends on how a record is implemented.
"""

import copy
import pickle

import pytest

from quadliaison.ambient import P4, QUADRIC3, Ambient
from quadliaison.classify import GeneratorEstimate
from quadliaison.curves import CohomTable, CurveClass, Feasibility, RegularityReport
from quadliaison.liaison import (
    CellCheck,
    CILinkage,
    ConsistencyReport,
    ResolutionFlavor,
    ResolutionTriple,
)
from quadliaison.sheaves import SheafExpr, line_bundle, spinor
from quadliaison.verify import CheckResult

CURVE = CurveClass(QUADRIC3, 4, 0)
TRIPLE = ResolutionTriple(spinor(-1, 2), line_bundle(-2, 5), CURVE, ResolutionFlavor.E_TYPE)
CELL = CellCheck(2, 5, 5)

# (class, every field with a non-default value, the defaults of the
# trailing fields that have one)
RECORDS = [
    (Ambient, {"kind": "proj", "dim": 4}, {}),
    (SheafExpr, {"lines": ((1, 2),), "spinors": ()}, {"lines": (), "spinors": ()}),
    (SheafExpr, {"lines": ((1, 1),), "spinors": ((-2, 1),)}, {"spinors": ()}),
    (CurveClass, {"ambient": P4, "degree": 8, "genus": 4}, {}),
    (CILinkage, {"ambient_dim": 4, "degrees": (2, 2, 3)}, {}),
    (ResolutionTriple, {"kernel": spinor(-1, 2), "middle": line_bundle(-2, 5),
                        "curve": CURVE, "flavor": ResolutionFlavor.E_TYPE}, {}),
    (CellCheck, {"twist": 2, "lhs": 5, "rhs": 4}, {}),
    (ConsistencyReport, {"resolution": TRIPLE, "window": (0, 6), "cells": (CELL,)}, {}),
    (CohomTable, {"window": (0, 1), "rows": ([0, 5], [0, 0], [1, None], [0, 0]),
                  "notes": ("n",)}, {"notes": ()}),
    (RegularityReport, {"regularity": 3, "witness": ((1, 2), (2, 1), (3, 0))}, {}),
    (Feasibility, {"feasible": False, "witness_twist": 1}, {"witness_twist": None}),
    (GeneratorEstimate, {"counts": {2: 5}, "regularity": 2}, {}),
    (CheckResult, {"name": "kernel-rank-4", "status": "PASS", "detail": "4 (expected 4)"}, {}),
]
# the second SheafExpr row fills the spinor field and leaves lines required
IDS = [cls.__name__ for cls, _, _ in RECORDS]
IDS[IDS.index("SheafExpr") + 1] += "-spinors"

# builders of records whose fields are all hashable, each with a different value
HASHABLE = [
    (lambda: Ambient("proj", 4), Ambient("proj", 3)),
    (lambda: line_bundle(1, 2) + spinor(0), line_bundle(1, 3) + spinor(0)),
    (lambda: spinor(1), line_bundle(1)),
    (lambda: CurveClass(P4, 8, 4), CurveClass(QUADRIC3, 8, 4)),
    (lambda: CILinkage(4, (3, 2, 2)), CILinkage(4, (2, 3, 3))),
    (lambda: CellCheck(2, 5, 5), CellCheck(2, 5, 4)),
]


def fields_of(record, names):
    return {name: getattr(record, name) for name in names}


@pytest.mark.parametrize("cls, values, defaults", RECORDS, ids=IDS)
def test_positional_and_keyword_construction(cls, values, defaults):
    positional = cls(*values.values())
    keyword = cls(**values)
    assert fields_of(positional, values) == fields_of(keyword, values) == values
    assert positional == keyword
    required = list(values.values())[: len(values) - len(defaults)]
    assert fields_of(cls(*required), defaults) == defaults


@pytest.mark.parametrize("cls, values, defaults", RECORDS, ids=IDS)
def test_attribute_assignment_raises(cls, values, defaults):
    record = cls(**values)
    name, value = next(iter(values.items()))
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) == value


@pytest.mark.parametrize("cls, values, defaults", RECORDS, ids=IDS)
def test_copy_and_pickle_keep_the_value(cls, values, defaults):
    record = cls(**values)
    assert copy.copy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


# the second SheafExpr row holds one twist as a spinor against it as a line
HASHABLE_IDS = [type(o).__name__ for _, o in HASHABLE]
HASHABLE_IDS[HASHABLE_IDS.index("SheafExpr") + 1] += "-spinors"


@pytest.mark.parametrize("build, other", HASHABLE, ids=HASHABLE_IDS)
def test_equality_and_hash_by_value(build, other):
    record, twin = build(), build()
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)
    assert record != other
    assert len({record, twin, other}) == 2


E_TYPE = ResolutionFlavor.E_TYPE
VALIDATION = [
    (lambda: Ambient("proj", 1), "projective ambient needs dim >= 2, got 1"),
    (lambda: Ambient("proj", 5), "projective ambient needs dim <= 4, got 5"),
    (lambda: Ambient("quadric3", 4), "the quadric threefold has dimension 3"),
    (lambda: Ambient("cone", 3), "unknown ambient kind 'cone'"),
    (lambda: CurveClass(P4, 0, 0), "degree must be positive, got 0"),
    (lambda: CurveClass(P4, 1, -1), "genus must be nonnegative, got -1"),
    (lambda: CILinkage(2, (1,)), "linkage needs an ambient projective space of dim >= 3"),
    (lambda: CILinkage(4, (2, 3)), "a curve in P^4 is cut by 3 hypersurfaces, got 2"),
    (lambda: CILinkage(3, (2, 0)), "hypersurface degrees must be positive"),
    (lambda: ResolutionTriple(SheafExpr(), line_bundle(-2), CurveClass(P4, 4, 0), E_TYPE),
     "resolutions are classified on the quadric threefold only"),
    (lambda: SheafExpr(((1, -1),)), "negative multiplicity -1 for O(1)"),
]


@pytest.mark.parametrize("build, message", VALIDATION, ids=[m for _, m in VALIDATION])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_linkage_degrees_are_sorted_into_a_tuple():
    linkage = CILinkage(4, [3, 1, 2])
    assert linkage.degrees == (1, 2, 3)
    assert linkage == CILinkage(4, (1, 2, 3))


def test_sheaf_expressions_are_canonical_on_construction():
    expr = SheafExpr(((1, 0), (-1, 1), (2, 1)), ((0, 1), (3, 0), (0, 2)))
    assert (expr.lines, expr.spinors) == (((2, 1), (-1, 1)), ((0, 3),))


def test_repr_names_every_field():
    triple = ResolutionTriple(spinor(-1), line_bundle(-2, 3), CurveClass(QUADRIC3, 1, 0), E_TYPE)
    quadric = "Ambient(kind='quadric3', dim=3)"
    assert repr(triple) == (
        "ResolutionTriple("
        "kernel=SheafExpr(lines=(), spinors=((-1, 1),)), "
        "middle=SheafExpr(lines=((-2, 3),), spinors=()), "
        f"curve=CurveClass(ambient={quadric}, degree=1, genus=0), "
        "flavor=<ResolutionFlavor.E_TYPE: 'E-type'>)"
    )
    assert repr(Feasibility(True)) == "Feasibility(feasible=True, witness_twist=None)"
