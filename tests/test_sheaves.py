"""Sheaf-expression algebra: canonical form, duals, twists, additivity.

The first Chern number of the spinor summand is pinned by its own
oracle: it is the unique value balancing determinants in the known
resolution (kernel E0^2(-2) against middle O(-2) + 4*O(-3)).
"""

import random

import pytest

from quadliaison import (
    P4,
    QUADRIC3,
    Ambient,
    AtomKind,
    SheafExpr,
    TwistAtom,
    h0_quadric3,
    hilbert,
    line_bundle,
    proj_space,
    spinor,
    zero_sheaf,
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
    assert zero_sheaf().render() == "0"


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
        (zero_sheaf(), (0, 0)),
    ):
        assert (expr.rank, expr.c1) == rank_c1


def test_h0_examples():
    b = line_bundle(-2) + line_bundle(-3, 4)
    assert b.h0(5) == 86
    assert line_bundle(-2, 5).h0(6) == 5 * h0_quadric3(4) == 275 == 160 + 115
    assert spinor(-2, 2).h0(4) == 8


def test_projective_expressions():
    quartic = line_bundle(-4, ambient=P4)
    assert quartic.h0(6) == 15
    assert quartic.dual() == line_bundle(4, ambient=P4)
    with pytest.raises(ValueError):
        SheafExpr(((TwistAtom(AtomKind.SPINOR, -1), 1),), P4)
    with pytest.raises(ValueError):
        line_bundle(-1, ambient=P4) + line_bundle(-1)


def test_multiset_subtraction():
    b = line_bundle(-2) + line_bundle(-3, 4)
    assert b.without(line_bundle(-3)) == line_bundle(-2) + line_bundle(-3, 3)
    assert b.without(b) == zero_sheaf()
    with pytest.raises(ValueError):
        b.without(line_bundle(-5))
    with pytest.raises(ValueError):
        b.without(line_bundle(-3, 5))


def test_bad_multiplicity_rejected():
    with pytest.raises(ValueError):
        SheafExpr(((TwistAtom(AtomKind.LINE, 0), -1),))
    assert line_bundle(3, 0) == zero_sheaf()


def random_expr(rng) -> SheafExpr:
    expr = zero_sheaf()
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


def test_additivity():
    rng = random.Random(12)
    for _ in range(300):
        left, right = random_expr(rng), random_expr(rng)
        total = left + right
        assert total.rank == left.rank + right.rank
        assert total.c1 == left.c1 + right.c1
        for n in (-1, 0, 2, 5):
            assert total.h0(n) == left.h0(n) + right.h0(n)


def atomwise_h0(expr: SheafExpr, n: int) -> int:
    """The section count before the one-loop kernel, kept as its oracle:
    atom by atom, a TwistAtom's kind choosing hilbert.h0_spinor or Ambient.h0."""
    def atom_h0(atom: TwistAtom) -> int:
        k = atom.twist + n
        if atom.kind is AtomKind.SPINOR:
            return hilbert.h0_spinor(k)
        return expr.ambient.h0(k)

    return sum(atom_h0(atom) * mult for atom, mult in expr.atoms)


def test_atom_kinds_are_pinned():
    # SheafExpr.h0 takes a falsy kind for a line bundle
    assert AtomKind.LINE == 0 and not AtomKind.LINE
    assert AtomKind.SPINOR == 1 and AtomKind.SPINOR
    assert list(AtomKind) == [AtomKind.LINE, AtomKind.SPINOR]


def random_atoms(rng, kinds) -> tuple:
    return tuple(
        (TwistAtom(rng.choice(kinds), rng.randint(-12, 12)), rng.randint(1, 4))
        for _ in range(rng.randint(1, 6))
    )


@pytest.mark.parametrize("ambient", [proj_space(2), proj_space(3), P4, proj_space(5), QUADRIC3])
def test_h0_agrees_with_atomwise_oracle(ambient):
    rng = random.Random(f"h0-{ambient.label()}")
    kinds = list(AtomKind) if ambient.is_quadric else [AtomKind.LINE]
    exprs = [zero_sheaf(ambient)]
    exprs += [SheafExpr(random_atoms(rng, kinds), ambient) for _ in range(150)]
    spinors = 0
    for expr in exprs:
        spinors += any(atom.kind is AtomKind.SPINOR for atom, _ in expr.atoms)
        for n in range(-20, 41):
            assert expr.h0(n) == atomwise_h0(expr, n), (expr, n)
    assert exprs[0].h0(40) == 0
    # the quadric draws mix lines and spinors; projective ones cannot
    assert (spinors > 100) == ambient.is_quadric


def test_h0_reads_the_counts_at_call_time(monkeypatch):
    """SheafExpr.h0 looks up hilbert.h0_spinor and Ambient.h0 on each call,
    so a wrapper installed on either one sees every count."""
    calls = []
    for owner, name in ((hilbert, "h0_spinor"), (Ambient, "h0")):
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    expr = spinor(-1, 2) + line_bundle(-2, 3) + line_bundle(0)
    assert expr.h0(3) == 2 * 4 + 3 * 5 + 30
    assert sorted(calls) == ["h0", "h0", "h0_spinor"]
