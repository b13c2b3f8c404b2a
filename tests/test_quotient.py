"""Quotient multigraphs and cylinder families."""

import pytest
from hypothesis import example, given, settings, strategies as st

from sawlab.errors import UsageError
from sawlab.families import ball, hypercubic, parse_family
from sawlab.quotient import (
    QuotientGraph,
    build_quotient,
    check_symmetric,
    cylinder,
    hermite_normal_form,
    lattice_structure,
    perpendicular_vector,
)

Z1 = hypercubic(1)
Z2 = hypercubic(2)


def test_z2_mod3_quotient():
    q = build_quotient(Z2, ((3, 0), (0, 3)))
    assert q.orbit_count == 9
    assert all(sum(q.multiplicities[i]) == 4 for i in range(9))
    assert check_symmetric(q)
    assert all(m in (0, 1) for row in q.multiplicities for m in row)


def test_full_collapse_quotients():
    q1 = build_quotient(Z1, ((1,),))
    assert q1.orbit_count == 1 and q1.multiplicities == ((2,),)
    q2 = build_quotient(Z2, ((1, 0), (0, 1)))
    assert q2.orbit_count == 1 and q2.multiplicities == ((4,),)


def test_projection_is_morphism():
    q = build_quotient(Z2, ((3, 0), (0, 3)))
    for v in [(0, 0), (1, 2), (-4, 7), (9, 9)]:
        i = q.project(v)
        for u in Z2.neighbors(v):
            j = q.project(u)
            assert i == j or q.multiplicities[i][j] > 0


def test_multiplicity_independence_across_representatives():
    q = build_quotient(Z2, ((2, 1), (0, 5)))
    for i, rep in enumerate(q.reps):
        for shift in ((2, 1), (0, 5), (2, 6)):
            other = tuple(a + b for a, b in zip(rep, shift))
            row = [0] * q.orbit_count
            for u in Z2.neighbors(other):
                row[q.project(u)] += 1
            assert tuple(row) == q.multiplicities[i]


def test_check_symmetric_on_matrix():
    asym = QuotientGraph(orbit_count=2, reps=((0,), (1,)),
                         multiplicities=((0, 2), (1, 0)), project=lambda v: 0)
    assert not check_symmetric(asym)
    one = QuotientGraph(orbit_count=1, reps=((0,),),
                        multiplicities=((4,),), project=lambda v: 0)
    assert check_symmetric(one)


def test_rank_deficient_lattice_rejected():
    # infinitely many orbits whatever the budget: a usage error
    with pytest.raises(UsageError, match="rank < dimension"):
        build_quotient(Z2, ((2, 0),))


def test_hnf_reduction_canonical():
    rows, pivots = hermite_normal_form([(3, 0), (0, 3)])
    assert rows == ((3, 0), (0, 3)) and pivots == (0, 1)
    lat = lattice_structure(((2, 1), (0, 5)))
    seen = {lat.reduce((x, y)) for x in range(-8, 9) for y in range(-8, 9)}
    assert len(seen) == 10  # index = |det| = 10
    for v in list(seen)[:5]:
        assert lat.reduce(v) == v
    # 6 // 4 leaves the remainder row (2, 0), which becomes the pivot row
    assert hermite_normal_form([(4, 1), (6, 1)]) == (((2, 0), (0, 1)), (0, 1))


@settings(max_examples=200)
@example([(1, 1, 0), (0, 1, 1), (0, 0, 3)])
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(-7, 7)] * n), min_size=1, max_size=5)))
def test_hnf_is_the_canonical_basis(rows):
    hnf, pivots = hermite_normal_form(rows)
    assert list(pivots) == sorted(set(pivots))
    for k, (row, p) in enumerate(zip(hnf, pivots)):
        assert row[p] > 0 and not any(row[:p])
        assert all(0 <= above[p] < row[p] for above in hnf[:k])
    # its own rows add nothing to the lattice: the same basis comes back
    assert hermite_normal_form(rows + list(hnf)) == (hnf, pivots)


def test_cylinder_neighbors():
    cyl = cylinder(2, (0, 6))
    assert set(cyl.neighbors((0, 0))) == {(1, 0), (-1, 0), (0, 1), (0, 5)}
    degenerate = cylinder(2, (0, 1))
    # both vertical neighbors collapse onto the vertex itself; the loop is
    # dropped, leaving the doubly infinite path
    assert set(degenerate.neighbors((4, 0))) == {(3, 0), (5, 0)}
    two = cylinder(2, (0, 2))
    assert set(two.neighbors((0, 0))) == {(1, 0), (-1, 0), (0, 1)}


def test_cylinder_rejects_zero_shift():
    with pytest.raises(UsageError):
        cylinder(2, (0, 0))


def test_cylinder_height_perpendicular():
    hf = cylinder(2, (3, 3)).height()
    assert hf.declared_d == 1
    assert hf.evaluate((1, 0)) - hf.evaluate((0, 0)) in (-1, 1)
    assert perpendicular_vector((3, 3)) in ((1, -1), (-1, 1))
    assert perpendicular_vector((0, 6)) == (1, 0)
    hf6 = cylinder(2, (0, 6)).height()
    fam6 = cylinder(2, (0, 6))
    assert [hf6.evaluate(v) for v in fam6.neighbors((0, 0))] == sorted(
        hf6.evaluate(v) for v in fam6.neighbors((0, 0)))


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
def test_cylinder_circumference(m):
    """The shortest origin loop that wraps once has length m: BFS on the
    universal cover from 0 to the shift vector, stepping only along edges
    that project to cylinder edges."""
    cyl = cylinder(2, (0, m))
    base = hypercubic(2)
    target = (0, m)
    b = ball(base, (0, 0), m)
    assert b.dist[target] == m
    # every cover step projects to a cylinder step (or a dropped loop)
    for (u, v) in b.edges[:200]:
        pu = (u[0], u[1] % m)
        pv = (v[0], v[1] % m)
        assert pu == pv or pv in cyl.neighbors(pu)


@given(st.integers(2, 9), st.integers(0, 40))
def test_cylinder_reduction_is_canonical(m, x):
    cyl = cylinder(2, (0, m))
    lifted = (x % 7 - 3, x)
    reduced = (lifted[0], lifted[1] % m)
    assert reduced in cyl.neighbors((reduced[0] + 1, reduced[1]))


def test_quotient_of_cylinder_family_rejected():
    cyl = cylinder(2, (0, 4))
    with pytest.raises(UsageError):
        build_quotient(cyl, ((1, 0),))
