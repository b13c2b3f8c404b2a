"""Height functions: defining clauses, d, and the reach radius r."""

import dataclasses

import pytest

from sawlab.errors import UsageError
from sawlab.families import GraphFamily, hypercubic, parse_family
from sawlab.heights import (
    HeightFunction,
    builtin_pairs,
    default_height,
    validate_height,
    verify_r,
)

DECLARED = {  # (d, r) from the built-in catalogue
    "z1": (1, 0), "z2": (1, 0), "z3": (1, 0), "z4": (1, 0),
    "tree:3": (1, 0), "tree:4": (1, 0), "tree:5": (1, 0), "tree:6": (1, 0),
    "hex": (1, 1), "squareoct": (1, 5), "heis": (1, 0),
}


def constant_height(fam):
    return HeightFunction(
        spec="zero", evaluate=lambda v: 0, declared_d=1, declared_r=0,
        h_orbits=(fam.origin,), h_orbit_of=lambda v: 0,
        shift_to_rep=lambda v: (fam.origin, 0))


def test_hand_built_family_has_no_default_height():
    # the height comes with the family's constructor, not from its spec
    z2 = hypercubic(2)
    fam = GraphFamily(spec="z2", neighbors=z2.neighbors, origin=(0, 0))
    with pytest.raises(UsageError, match="no built-in height"):
        default_height(fam)


@pytest.mark.parametrize("spec", list(DECLARED))
def test_validate_builtin_heights(spec):
    fam = parse_family(spec)
    hf = default_height(fam)
    radius = 5 if spec not in ("z4", "heis") else 4
    report = validate_height(fam, hf, radius)
    assert report.ok(), report.violations[:3]
    assert report.measured_d == hf.declared_d == DECLARED[spec][0]


def test_constant_height_violates_clause_c():
    z2 = hypercubic(2)
    report = validate_height(z2, constant_height(z2), 2)
    clauses = {v.clause for v in report.violations}
    assert clauses == {"c"}


def test_clause_a_violation():
    z2 = hypercubic(2)
    hf = HeightFunction(
        spec="x+1", evaluate=lambda v: v[0] + 1, declared_d=1, declared_r=0,
        h_orbits=((0, 0),), h_orbit_of=lambda v: 0,
        shift_to_rep=lambda v: ((0, 0), v[0]))
    report = validate_height(z2, hf, 2)
    assert any(v.clause == "a" for v in report.violations)


def test_clause_b_profile_violation():
    # h(x, y) = x (1 + y mod 2): neighbor diffs are {+-1, x, x} on even
    # rows and {+-2, -x, -x} on odd rows, so the origin's profile recurs
    # exactly on the vertices (0, even)
    z2 = hypercubic(2)

    def h(v):
        return v[0] * (1 + v[1] % 2)

    hf = HeightFunction(
        spec="x(1+y%2)", evaluate=h, declared_d=2, declared_r=0,
        h_orbits=((0, 0),), h_orbit_of=lambda v: 0,
        shift_to_rep=lambda v: ((0, 0), h(v)))
    report = validate_height(z2, hf, 2)
    assert {v.clause for v in report.violations} == {"b"}
    assert sorted(v.vertex for v in report.violations) == sorted(
        (x, y) for x in range(-2, 3) for y in range(-2, 3)
        if abs(x) + abs(y) <= 2 and (x or y % 2))


def test_validate_height_reads_each_neighborhood_once():
    """Clauses (b) and (c) share one oracle call per ball vertex; only the
    orbit representatives are asked again for their profiles."""
    fam = parse_family("squareoct")
    calls = []
    counted = dataclasses.replace(fam, neighbors=lambda v: calls.append(v) or fam.neighbors(v))
    assert validate_height(counted, default_height(fam), 6).ok()
    assert len(calls) == 118


@pytest.mark.parametrize("spec", ["squareoct", "hex", "z3"])
def test_validate_height_evaluates_each_label_once(spec):
    """One call evaluates each label it meets once: the ball's edges, the
    neighbor lists and the representatives' profiles share the heights."""
    fam = parse_family(spec)
    hf = default_height(fam)
    calls = []
    counted = dataclasses.replace(hf, evaluate=lambda v: calls.append(v) or hf.evaluate(v))
    report = validate_height(fam, counted, 4)
    assert report == validate_height(fam, hf, 4)
    assert len(calls) == len(set(calls))


def test_measured_d_examples():
    z2 = hypercubic(2)
    assert validate_height(z2, default_height(z2), 3).measured_d == 1
    heis = parse_family("heis")
    assert validate_height(heis, default_height(heis), 3).measured_d == 1
    skew = HeightFunction(
        spec="2x+y", evaluate=lambda v: 2 * v[0] + v[1], declared_d=2, declared_r=0,
        h_orbits=((0, 0),), h_orbit_of=lambda v: 0,
        shift_to_rep=lambda v: ((0, 0), 2 * v[0] + v[1]))
    assert validate_height(z2, skew, 3).measured_d == 2


def test_clause_c_at_scale_radius8():
    # radius 8 for every built-in pair; tree:5/tree:6 balls blow up
    # exponentially, so they run at the largest radius of comparable size
    radii = {spec: 8 for spec in DECLARED}
    radii["tree:5"] = 7
    radii["tree:6"] = 6
    radii["zcyl:2:0,6"] = 8
    for spec, radius in radii.items():
        fam = parse_family(spec)
        hf = default_height(fam)
        report = validate_height(fam, hf, radius)
        assert report.ok(), (spec, report.violations[:3])


@pytest.mark.parametrize("spec", list(DECLARED))
def test_difference_invariance_via_shift(spec):
    fam = parse_family(spec)
    hf = default_height(fam)
    from test_families import sample_vertices
    count = 0
    for v in sample_vertices(fam, 800, depth=12):
        rep, offset = hf.shift_to_rep(v)
        assert hf.evaluate(v) - offset == hf.evaluate(rep)
        profile_v = sorted(hf.evaluate(u) - hf.evaluate(v) for u in fam.neighbors(v))
        profile_r = sorted(hf.evaluate(u) - hf.evaluate(rep) for u in fam.neighbors(rep))
        assert profile_v == profile_r
        count += 1
    # z1's deterministic scatter collapses onto a short segment
    assert count >= 300


@pytest.mark.parametrize("spec,expected", list(DECLARED.items()))
def test_verify_r_declared(spec, expected):
    fam = parse_family(spec)
    hf = default_height(fam)
    assert hf.declared_r == expected[1]
    assert verify_r(fam, hf, hf.declared_r)


def test_verify_r_failures():
    so = parse_family("squareoct")
    hf = default_height(so)
    assert not verify_r(so, hf, 0)
    assert not verify_r(so, hf, 2)
    hx = parse_family("hex")
    assert not verify_r(hx, default_height(hx), 0)


def test_prop_bound_holds_when_declared_does():
    """(N-1)(2d+1)+2 always certifies whenever the declared r does."""
    for fam, hf in builtin_pairs(("hex", "squareoct")):
        n, d = hf.orbit_count(), hf.declared_d
        bound = (n - 1) * (2 * d + 1) + 2
        assert verify_r(fam, hf, hf.declared_r)
        assert verify_r(fam, hf, bound)


def test_verify_r_budget_is_not_a_false(monkeypatch):
    """An exhausted search is flagged as indeterminate (raised), never
    reported as False."""
    import pytest as _pytest

    from sawlab.errors import ResourceBudgetError
    monkeypatch.setenv("SAWLAB_BUDGET_SEARCH_NODES", "1")
    so = parse_family("squareoct")
    hf = default_height(so)
    with _pytest.raises(ResourceBudgetError):
        verify_r(so, hf, 5)
