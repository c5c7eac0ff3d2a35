"""Sheaf-expression algebra: canonical form, duals, twists, additivity.

The first Chern number of the spinor summand is pinned by its own
oracle: it is the unique value balancing determinants in the known
resolution (kernel E0^2(-2) against middle O(-2) + 4*O(-3)).
"""

import random

import pytest

from quadliaison import (
    Ambient,
    SheafExpr,
    h0_quadric3,
    hilbert,
    line_bundle,
    spinor,
)


def solved_spinor_c1() -> int:
    """Solve 2*(2*(-2) + x) = c1(O(-2) + 4*O(-3)) for x = c1(E0)."""
    middle_c1 = -2 + 4 * (-3)
    assert middle_c1 == -14
    numerator = middle_c1 - 2 * 2 * (-2)
    assert numerator % 2 == 0
    return numerator // 2


def test_render_canonical_order():
    assert (line_bundle(-3, 4) + line_bundle(-2)).render() == "O(-2) + 4*O(-3)"
    assert spinor(-1, 2).render() == "2*E0(-1)"
    assert (spinor(-1, 2) + line_bundle(-3) + line_bundle(-2)).render() == (
        "O(-2) + O(-3) + 2*E0(-1)"
    )
    assert SheafExpr().render() == "0"


def test_equality_is_order_insensitive():
    left = line_bundle(-2) + spinor(-1) + line_bundle(-2)
    right = line_bundle(-2, 2) + spinor(-1)
    assert left == right
    assert hash(left) == hash(right)


def test_twist_examples():
    assert spinor(-1, 2).twist(5) == spinor(4, 2)
    assert line_bundle(-2, 5).twist(0) == line_bundle(-2, 5)
    assert (line_bundle(-2) + line_bundle(-3, 4)).twist(3) == (
        line_bundle(1) + line_bundle(0, 4)
    )


def test_dual_examples():
    assert spinor(-1, 2).dual() == spinor(4, 2)
    assert line_bundle(-2, 5).dual() == line_bundle(2, 5)
    for a in range(-4, 5):
        assert spinor(3 - a).dual() == spinor(a)


def test_rank_c1():
    assert solved_spinor_c1() == -3
    for expr, rank_c1 in (
        (spinor(-2, 2), (4, -14)),
        (line_bundle(-2) + line_bundle(-3, 4), (5, -14)),
        (SheafExpr(), (0, 0)),
    ):
        assert (expr.rank, expr.c1) == rank_c1


def test_h0_examples():
    b = line_bundle(-2) + line_bundle(-3, 4)
    assert b.h0(5) == 86
    assert line_bundle(-2, 5).h0(6) == 5 * h0_quadric3(4) == 275 == 160 + 115
    assert spinor(-2, 2).h0(4) == 8


def test_multiset_subtraction():
    b = line_bundle(-2) + line_bundle(-3, 4)
    assert b.without(line_bundle(-3)) == line_bundle(-2) + line_bundle(-3, 3)
    assert b.without(b) == SheafExpr()
    with pytest.raises(ValueError, match=r"^expression lacks 1 copies of O\(-5\)$"):
        b.without(line_bundle(-5))
    with pytest.raises(ValueError, match=r"^expression lacks 5 copies of O\(-3\)$"):
        b.without(line_bundle(-3, 5))
    with pytest.raises(ValueError, match=r"^expression lacks 1 copies of E0\(-3\)$"):
        (b + spinor(-2)).without(spinor(-3))
    assert (b + spinor(-2, 2)).without(spinor(-2)) == b + spinor(-2)


def test_bad_multiplicity_rejected():
    with pytest.raises(ValueError):
        SheafExpr(((0, -1),))
    assert line_bundle(3, 0) == SheafExpr()


def random_expr(rng) -> SheafExpr:
    expr = SheafExpr()
    for _ in range(rng.randint(0, 4)):
        twist, mult = rng.randint(-8, 8), rng.randint(1, 3)
        expr = expr + (
            spinor(twist, mult) if rng.random() < 0.5 else line_bundle(twist, mult)
        )
    return expr


def test_involutions_and_commutation():
    rng = random.Random(11)
    for _ in range(300):
        expr = random_expr(rng)
        t = rng.randint(-6, 6)
        assert expr.dual().dual() == expr
        assert expr.twist(t).twist(-t) == expr
        assert expr.twist(t).dual() == expr.dual().twist(-t)


def is_canonical(pairs: tuple) -> bool:
    """Strictly descending twists and no zero multiplicity."""
    twists = [twist for twist, _ in pairs]
    return all(mult > 0 for _, mult in pairs) and all(a > b for a, b in zip(twists, twists[1:]))


def test_every_transform_keeps_both_fields_canonical():
    """_replace_atoms trusts its caller's pairs, so each transform must hand
    it canonical ones: a chain of sums, twists, duals and differences keeps
    both fields strictly descending with no zero multiplicity."""
    rng = random.Random(14)
    for _ in range(300):
        expr = random_expr(rng)
        for _ in range(6):
            step = rng.randrange(4)
            if step == 0:
                expr = expr + random_expr(rng)
            elif step == 1:
                expr = expr.twist(rng.randint(-6, 6))
            elif step == 2:
                expr = expr.dual()
            else:
                part = SheafExpr(
                    tuple((twist, rng.randint(0, mult)) for twist, mult in expr.lines),
                    tuple((twist, rng.randint(0, mult)) for twist, mult in expr.spinors),
                )
                expr = expr.without(part)
            assert is_canonical(expr.lines) and is_canonical(expr.spinors), (step, expr)


def test_additivity():
    """Seeded sums, each draw also added to the zero sheaf on either side:
    zero is a neutral element and a zero twist changes nothing."""
    rng = random.Random(12)
    zero = SheafExpr()
    for _ in range(300):
        left, right = random_expr(rng), random_expr(rng)
        assert left + zero == left == zero + left
        assert left.twist(0) == left
        for a, b in (left, right), (left, zero), (zero, left):
            total = a + b
            assert total.rank == a.rank + b.rank
            assert total.c1 == a.c1 + b.c1
            for n in (-1, 0, 2, 5):
                assert total.h0(n) == a.h0(n) + b.h0(n)


def atomwise_h0(expr: SheafExpr, n: int) -> int:
    """The section count summand by summand, kept as the oracle of
    SheafExpr.h0: one h0_quadric3 call per line twist and one
    hilbert.h0_spinor call per spinor twist."""
    lines = sum(h0_quadric3(twist + n) * mult for twist, mult in expr.lines)
    return lines + sum(hilbert.h0_spinor(twist + n) * mult for twist, mult in expr.spinors)


def random_pairs(rng) -> tuple:
    """Unsorted (twist, multiplicity) pairs, repeats allowed."""
    return tuple((rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(rng.randint(0, 6)))


def test_h0_agrees_with_atomwise_oracle():
    rng = random.Random("h0-quadric3")
    exprs = [SheafExpr()]
    for _ in range(150):
        exprs.append(SheafExpr(random_pairs(rng), random_pairs(rng)))
    spinor_sums = 0
    for expr in exprs:
        spinor_sums += bool(expr.spinors)
        for n in range(-20, 41):
            assert expr.h0(n) == atomwise_h0(expr, n), (expr, n)
    assert exprs[0].h0(40) == 0
    # the draws mix lines and spinors
    assert spinor_sums > 100


def test_h0_row_agrees_with_atomwise_oracle():
    """Seeded sums of rank at most 6 with twists in -8..4 on empty, wholly
    negative and straddling windows, and one sum on 990001:1000000:
    h0_row(lo, hi) is atomwise_h0 at each twist, and h0(n) its one entry
    at n."""
    rng = random.Random("h0-row")
    windows = [(0, -1), (5, 4), (-9, -3), (-4, 0), (-3, 1), (-2, 2), (-6, 9), (2, 2), (-1, 8)]
    seen, ranks = set(), set()
    for _ in range(200):
        expr = SheafExpr()
        for _ in range(rng.randint(0, 6)):
            kind = spinor if rng.random() < 0.5 else line_bundle
            atom = kind(rng.randint(-8, 4), rng.randint(1, 3))
            if (expr + atom).rank <= 6:
                expr += atom
        seen.update(mult for _, mult in expr.lines + expr.spinors)
        ranks.add(expr.rank)
        for lo, hi in windows:
            assert expr.h0_row(lo, hi) == [atomwise_h0(expr, n) for n in range(lo, hi + 1)]
        for n in (-9, -1, 0, 1, 2, 7):
            assert expr.h0(n) == expr.h0_row(n, n)[0] == atomwise_h0(expr, n)
    # the draws reach every rank up to 6, the zero sum included, and multiplicities 1..3 and more
    assert ranks == set(range(7)) and {1, 2, 3, 4} <= seen
    wide = line_bundle(-2) + line_bundle(-3, 4) + spinor(-1, 2)
    row = wide.h0_row(990_001, 1_000_000)
    assert len(row) == 10_000
    assert row[::999] == [atomwise_h0(wide, n) for n in range(990_001, 1_000_001, 999)]
    assert row[-1] == atomwise_h0(wide, 1_000_000)


def test_h0_reads_the_counts_at_call_time(monkeypatch):
    """SheafExpr.h0_row, and h0 through it, looks up hilbert.h0_quadric3_row
    and hilbert.h0_spinor on each call, so a wrapper installed on either one
    after import sees every count: one row per line summand and one spinor
    count per twist of each spinor summand.  It makes no h0_quadric3 and no
    Ambient.h0 call."""
    calls = []
    for owner, name in ((hilbert, "h0_quadric3_row"), (hilbert, "h0_quadric3"),
                        (hilbert, "h0_spinor"), (Ambient, "h0")):
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    expr = spinor(-1, 2) + line_bundle(-2, 3) + line_bundle(0)
    assert expr.h0(3) == 2 * 4 + 3 * 5 + 30
    assert sorted(calls) == ["h0_quadric3_row", "h0_quadric3_row", "h0_spinor"]
    calls.clear()
    assert expr.h0_row(0, 3) == [1, 5, 14 + 3, 30 + 3 * 5 + 2 * 4]
    assert sorted(calls) == ["h0_quadric3_row"] * 2 + ["h0_spinor"] * 4
