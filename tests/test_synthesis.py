"""Height synthesis: cycle bases, staged increments, integer lifts.

Everything here is exact rational arithmetic; float appearances would be a
bug in themselves.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sawlab.errors import InvariantViolationError
from sawlab.families import hypercubic
from sawlab.heights import validate_height
from sawlab.quotient import SubgroupDescriptor, build_quotient
from sawlab.synthesis import (
    EdgeIncrement,
    cycle_basis,
    cycle_vector,
    directed_edges,
    distinguished_cycle,
    dual_form,
    edge_canonical,
    edge_partner,
    increment_invariant_problems,
    lift_height,
    project_walk,
    solve_increments,
    synthesize_height,
    undirected_edges,
    unit_square_generators,
    verify_cocycle,
    _Echelon,
)

Z1 = hypercubic(1)
Z2 = hypercubic(2)
Z3 = hypercubic(3)


def quotient_of(family, shifts):
    return build_quotient(family, SubgroupDescriptor(family.spec, tuple(shifts)))


def test_z1_mod3_single_cycle_stage1_only():
    q = quotient_of(Z1, [(3,)])
    basis = cycle_basis(q, [])
    assert basis.rho == 0
    assert basis.dim == 4  # 3 digons plus the winding 3-cycle
    inc = solve_increments(basis, q)
    assert inc.method == "staged"
    forward = {e: inc.value(q, e) for e in directed_edges(q) if e[1] == (1,)}
    assert set(forward.values()) == {Fraction(1, 3)}


def test_z2_mod3_basis_dimensions():
    q = quotient_of(Z2, [(3, 0), (0, 3)])
    basis = cycle_basis(q, unit_square_generators(q))
    assert basis.dim == 18 + (18 - 8) == 28
    assert basis.rho < basis.dim
    # the first rho elements span every generator projection
    ech = _Echelon()
    for cyc in basis.cycles[:basis.rho]:
        ech.add(cycle_vector(cyc))
    assert ech.rank == basis.rho
    for g in unit_square_generators(q):
        assert ech.contains(cycle_vector(tuple(g)))
    assert not ech.contains(cycle_vector(basis.distinguished()))


def test_single_vertex_quotient_loops():
    q = quotient_of(Z2, [(1, 0), (0, 1)])
    basis = cycle_basis(q, unit_square_generators(q))
    # two undirected loops: dimension 2 + 2, generator span is 1-dimensional
    assert basis.dim == 4
    assert basis.rho == 1
    inc = solve_increments(basis, q)
    assert not increment_invariant_problems(inc, basis, q)


def test_antisymmetry_is_structural():
    q = quotient_of(Z2, [(2, 0), (0, 2)])
    basis = cycle_basis(q, unit_square_generators(q))
    inc = solve_increments(basis, q)
    for e in directed_edges(q):
        assert inc.value(q, e) == -inc.value(q, edge_partner(q, e))
    # no floats anywhere in the increment values
    assert all(isinstance(v, Fraction) for v in inc.values.values())


@pytest.mark.parametrize("family,shifts", [
    (Z2, [(2, 0), (0, 2)]),
    (Z2, [(3, 0), (0, 3)]),
    (Z2, [(4, 0), (0, 4)]),
    (Z3, [(3, 0, 0), (0, 3, 0), (0, 0, 3)]),
])
def test_full_pipeline(family, shifts):
    q, basis, inc, lifted = synthesize_height(family, shifts)
    assert inc.method == "staged"
    assert not increment_invariant_problems(inc, basis, q)
    assert verify_cocycle(inc, family, q, 200, seed=1)
    hf = lifted.as_height_function()
    report = validate_height(family, hf, 6)
    assert report.ok(), report.violations[:3]
    assert hf.evaluate(family.origin) == 0
    # scale bound: d of the lift is at most m * max |increment|
    max_inc = max(abs(v) for v in inc.values.values())
    assert report.measured_d <= lifted.scaling * max_inc


def test_lift_z2_mod3_recovers_linear_height():
    """Uniform increments in the distinguished direction integrate to a
    coordinate height (up to scale): heights along that axis are strictly
    monotone with equal steps."""
    q, basis, inc, lifted = synthesize_height(Z2, [(3, 0), (0, 3)])
    axis = max(range(2), key=lambda i: abs(lifted.evaluate(tuple(3 if k == i else 0 for k in range(2)))))
    step = tuple(1 if k == axis else 0 for k in range(2))
    vals = [lifted.evaluate(tuple(c * s for s in step)) for c in range(4)]
    diffs = {b - a for a, b in zip(vals, vals[1:])}
    assert vals[0] == 0
    assert all(d > 0 for d in diffs) or all(d < 0 for d in diffs)


def test_direct_solver_cross_checks_staged():
    for family, shifts in ((Z2, [(2, 0), (0, 2)]), (Z2, [(3, 0), (0, 3)]), (Z1, [(3,)]),
                           (Z2, [(6, 0), (0, 6)]), (Z3, [(3, 0, 0), (0, 3, 0), (0, 0, 3)])):
        q = quotient_of(family, shifts)
        basis = cycle_basis(q, unit_square_generators(q))
        staged = solve_increments(basis, q, method="staged")
        direct = solve_increments(basis, q, method="direct")
        for inc in (staged, direct):
            assert not increment_invariant_problems(inc, basis, q)
            assert verify_cocycle(inc, family, q, 100, seed=3)
        # the direct method is the dual form delta(i, s) = s . w, whose lift
        # changes height by at most 1 per edge
        w = dual_form(q)
        assert direct.values == {
            e: sum((Fraction(d) * c for d, c in zip(e[1], w)), Fraction(0))
            for e in undirected_edges(q)}
        assert lift_height(direct, family, q).max_edge_change() == 1


def test_perturbed_increment_fails_cocycle():
    q, basis, inc, lifted = synthesize_height(Z2, [(3, 0), (0, 3)])
    first = sorted(inc.values)[0]
    broken = dict(inc.values)
    broken[first] += Fraction(1, 7)
    bad = EdgeIncrement(orbit_count=inc.orbit_count, values=broken, method="broken")
    assert not verify_cocycle(bad, Z2, q, 200, seed=0)
    assert verify_cocycle(bad, Z2, q, 0, seed=0)  # vacuous


def test_lift_detects_path_dependence():
    q, basis, inc, lifted = synthesize_height(Z2, [(3, 0), (0, 3)])
    first = sorted(inc.values)[0]
    broken = dict(inc.values)
    broken[first] += Fraction(1, 5)
    bad = EdgeIncrement(orbit_count=inc.orbit_count, values=broken, method="broken")
    with pytest.raises(InvariantViolationError):
        lift_height(bad, Z2, q)


def test_dual_form_detects_winding():
    q = quotient_of(Z2, [(3, 0), (0, 3)])
    w = dual_form(q)
    dist = distinguished_cycle(q)
    total = sum((Fraction(d) * c for e in dist for d, c in zip(e[1], w)), Fraction(0))
    assert total == 1
    for square in unit_square_generators(q):
        s = sum((Fraction(d) * c for e in square for d, c in zip(e[1], w)), Fraction(0))
        assert s == 0


def test_origin_height_zero_always():
    q, basis, inc, lifted = synthesize_height(Z2, [(2, 0), (0, 2)])
    assert lifted.evaluate((0, 0)) == 0


@st.composite
def small_lattices(draw):
    a = draw(st.integers(1, 3))
    d = draw(st.integers(1, 3))
    b = draw(st.integers(0, d - 1))
    # upper-triangular HNF with index a*d <= 6 and at most 12 quotient edges
    if a * d > 6:
        a, d = 1, min(a * d, 3)
        b = 0
    return ((a, b), (0, d))


@settings(max_examples=25, deadline=None)
@given(small_lattices())
def test_increment_invariants_on_random_small_quotients(shifts):
    q = quotient_of(Z2, shifts)
    assert q.orbit_count <= 6
    assert len(undirected_edges(q)) <= 14
    basis = cycle_basis(q, unit_square_generators(q))
    inc = solve_increments(basis, q)
    assert not increment_invariant_problems(inc, basis, q)
    for e in directed_edges(q):
        assert inc.value(q, e) == -inc.value(q, edge_partner(q, e))
    lifted = lift_height(inc, Z2, q)
    hf = lifted.as_height_function()
    report = validate_height(Z2, hf, 4)
    assert report.ok(), (shifts, report.violations[:2])


def test_edge_copy_identity_multiedges():
    # Z^2 / <(2,0),(0,1)>: two orbits joined by parallel copies plus loops
    q = quotient_of(Z2, [(2, 0), (0, 1)])
    assert q.orbit_count == 2
    unds = undirected_edges(q)
    assert len(unds) == 4  # two parallel horizontals, one loop per orbit
    loops = [e for e in unds if edge_canonical(q, edge_partner(q, e)) == e and
             q.project(tuple(a + b for a, b in zip(q.reps[e[0]], e[1]))) == e[0]]
    assert len(loops) == 2
    basis = cycle_basis(q, unit_square_generators(q))
    inc = solve_increments(basis, q)
    assert not increment_invariant_problems(inc, basis, q)


def test_project_walk_roundtrip():
    q = quotient_of(Z2, [(3, 0), (0, 3)])
    edges = project_walk(q, (0, 0), [(1, 0), (0, 1), (-1, 0), (0, -1)])
    assert len(edges) == 4
    assert edges[0][0] == q.project((0, 0))
