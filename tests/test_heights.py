"""Height functions: defining clauses, d, and the reach radius r."""

import dataclasses
from collections import Counter
from functools import cache

import pytest

from sawlab.errors import ResourceBudgetError, UsageError
from sawlab.families import GraphFamily, ball, hypercubic, parse_family
from sawlab.heights import (
    HeightFunction,
    HeightValidationReport,
    Violation,
    default_height,
    validate_height,
    verify_r,
)
from sawlab.synthesis import synthesize_height
from sawlab.walks import enumerate_walks

DECLARED = {  # (d, r) from the built-in catalogue
    "z1": (1, 0), "z2": (1, 0), "z3": (1, 0), "z4": (1, 0),
    "tree:3": (1, 0), "tree:4": (1, 0), "tree:5": (1, 0), "tree:6": (1, 0),
    "hex": (1, 1), "squareoct": (1, 5), "heis": (1, 0),
}


# the quotients the synth benchmark lifts and validates at radius 6
SYNTH_QUOTIENTS = (("z2", [(4, 0), (0, 4)]), ("z2", [(5, 0), (0, 5)]), ("z2", [(6, 0), (0, 6)]),
                   ("z3", [(3, 0, 0), (0, 3, 0), (0, 0, 3)]))


def synthesized_height(fam, shifts):
    return synthesize_height(fam, shifts)[3].as_height_function()


def constant_height(fam):
    return HeightFunction(
        spec="zero", evaluate=lambda v: 0, declared_d=1, declared_r=0,
        h_orbits=(fam.origin,), h_orbit_of=lambda v: 0)


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


def test_clause_d_violation():
    hex_ = parse_family("hex")
    hf = dataclasses.replace(default_height(hex_), declared_d=0)
    report = validate_height(hex_, hf, 2)
    assert [v.clause for v in report.violations] == ["d"]
    assert report.violations[0].detail == "measured d = 1 exceeds declared 0"


def test_clause_a_violation():
    z2 = hypercubic(2)
    hf = HeightFunction(
        spec="x+1", evaluate=lambda v: v[0] + 1, declared_d=1, declared_r=0,
        h_orbits=((0, 0),), h_orbit_of=lambda v: 0)
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
        h_orbits=((0, 0),), h_orbit_of=lambda v: 0)
    report = validate_height(z2, hf, 2)
    assert {v.clause for v in report.violations} == {"b"}
    assert sorted(v.vertex for v in report.violations) == sorted(
        (x, y) for x in range(-2, 3) for y in range(-2, 3)
        if abs(x) + abs(y) <= 2 and (x or y % 2))


def test_validate_height_reads_each_neighborhood_once():
    """The ball asks the oracle once per vertex (57 at radius 6) and
    clauses (b) and (c) read its lists; only the 4 orbit representatives
    are asked again for their profiles."""
    fam = parse_family("squareoct")
    calls = []
    counted = dataclasses.replace(fam, neighbors=lambda v: calls.append(v) or fam.neighbors(v))
    assert validate_height(counted, default_height(fam), 6).ok()
    assert len(calls) == 57 + 4


@pytest.mark.parametrize("spec,make_height", [
    ("squareoct", default_height), ("hex", default_height), ("z3", default_height),
    ("z3", lambda fam: synthesized_height(fam, SYNTH_QUOTIENTS[3][1])),
], ids=["squareoct", "hex", "z3", "z3-synth"])
def test_validate_height_evaluates_each_label_once(spec, make_height):
    """One call evaluates each label it meets once: the ball's edges, the
    neighbor lists and the representatives' profiles share the heights."""
    fam = parse_family(spec)
    hf = make_height(fam)
    calls = []
    counted = dataclasses.replace(hf, evaluate=lambda v: calls.append(v) or hf.evaluate(v))
    report = validate_height(fam, counted, 4)
    assert report == validate_height(fam, hf, 4)
    assert len(calls) == len(set(calls))


def reference_validate_height(family, hf, radius):
    """validate_height as it was written over the sorted ball edges and a
    Counter per vertex: the oracle for the one-pass form's whole report."""
    h = cache(hf.evaluate)
    violations = []
    if h(family.origin) != 0:
        violations.append(Violation("a", family.origin, f"h(origin) = {h(family.origin)} != 0"))
    b = ball(family, family.origin, radius)
    measured_d = 0
    for (u, v) in b.edges:
        measured_d = max(measured_d, abs(h(u) - h(v)))
    if measured_d > hf.declared_d:
        violations.append(Violation("d", family.origin,
                                    f"measured d = {measured_d} exceeds declared {hf.declared_d}"))
    rep_profiles = [Counter(h(u) - h(rep) for u in family.neighbors(rep)) for rep in hf.h_orbits]
    for v in b.vertices:
        hv = h(v)
        diffs = [h(u) - hv for u in b.neighbors[v]]
        if b.dist[v] <= radius - 1 and (not any(d > 0 for d in diffs)
                                        or not any(d < 0 for d in diffs)):
            violations.append(Violation("c", v, f"neighbor height diffs {sorted(diffs)}"))
        if Counter(diffs) != rep_profiles[hf.h_orbit_of(v)]:
            violations.append(Violation("b", v, "neighbor height-difference profile differs from representative's"))
    return HeightValidationReport(radius=radius, violations=tuple(violations),
                                  measured_d=measured_d)


@pytest.mark.parametrize("spec", list(DECLARED))
def test_validate_height_matches_reference_on_builtin_heights(spec):
    fam = parse_family(spec)
    hf = default_height(fam)
    for radius in range(1, 5 if spec.startswith("tree") else 6):
        assert validate_height(fam, hf, radius) == reference_validate_height(fam, hf, radius)


@pytest.mark.parametrize("spec,shifts", SYNTH_QUOTIENTS)
def test_validate_height_matches_reference_on_synthesized_heights(spec, shifts):
    fam = parse_family(spec)
    hf = synthesized_height(fam, shifts)
    report = validate_height(fam, hf, 6)
    assert report.ok()
    assert report == reference_validate_height(fam, hf, 6)


BROKEN = {  # one change per clause it trips
    "a": lambda hf: {"evaluate": lambda v: hf.evaluate(v) + 1},
    "b": lambda hf: {"h_orbit_of": lambda v: 0},
    "c": lambda hf: {"evaluate": lambda v: abs(hf.evaluate(v))},
    "d": lambda hf: {"declared_d": 0},
}


@pytest.mark.parametrize("clause", list(BROKEN))
@pytest.mark.parametrize("spec", ["z2", "hex", "squareoct", "heis", "tree:3"])
def test_validate_height_matches_reference_on_broken_heights(spec, clause):
    fam = parse_family(spec)
    hf = default_height(fam)
    broken = dataclasses.replace(hf, **BROKEN[clause](hf))
    for radius in range(1, 5):
        report = validate_height(fam, broken, radius)
        assert report == reference_validate_height(fam, broken, radius)
        # hex's two orbits share a profile, so only squareoct trips (b)
        if clause != "b" or spec == "squareoct":
            assert clause in {v.clause for v in report.violations}


def test_validate_height_of_an_isolated_origin():
    """A vertex with no neighbors fails clause (c) with an empty list and
    has no edge, so d = 0."""
    point = GraphFamily(spec="point", neighbors=lambda v: (), origin=(0,))
    hf = constant_height(point)
    report = validate_height(point, hf, 1)
    assert report == reference_validate_height(point, hf, 1)
    assert report.measured_d == 0
    assert report.violations == (Violation("c", (0,), "neighbor height diffs []"),)


def test_validate_height_counts_only_the_edges_inside_the_ball():
    """h = x^3 is steepest on the edges leaving the ball, which d skips."""
    z2 = hypercubic(2)
    cubic = HeightFunction(
        spec="x^3", evaluate=lambda v: v[0] ** 3, declared_d=1, declared_r=0,
        h_orbits=((0, 0),), h_orbit_of=lambda v: 0)
    for radius in range(1, 5):
        report = validate_height(z2, cubic, radius)
        assert report == reference_validate_height(z2, cubic, radius)
        assert report.measured_d == radius ** 3 - (radius - 1) ** 3


def test_measured_d_examples():
    z2 = hypercubic(2)
    assert validate_height(z2, default_height(z2), 3).measured_d == 1
    heis = parse_family("heis")
    assert validate_height(heis, default_height(heis), 3).measured_d == 1
    skew = HeightFunction(
        spec="2x+y", evaluate=lambda v: 2 * v[0] + v[1], declared_d=2, declared_r=0,
        h_orbits=((0, 0),), h_orbit_of=lambda v: 0)
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


def test_clause_b_reads_the_orbit_map():
    # swapping corners E and W in squareoct's orbit map pairs each of them
    # with the other's representative, whose neighbors lie the other way
    fam = parse_family("squareoct")
    hf = dataclasses.replace(default_height(fam), h_orbit_of=lambda v: (2, 1, 0, 3)[v[2]])
    report = validate_height(fam, hf, 4)
    assert {v.clause for v in report.violations} == {"b"}
    assert {v.vertex[2] for v in report.violations} == {0, 2}
    assert len(report.violations) == 12


@pytest.mark.parametrize("spec", list(DECLARED))
def test_difference_invariance_via_shift(spec):
    # the group element carrying v to its orbit's representative preserves
    # height differences, so v and the representative share a profile
    fam = parse_family(spec)
    hf = default_height(fam)
    from test_families import sample_vertices
    count = 0
    for v in sample_vertices(fam, 800, depth=12):
        rep = hf.h_orbits[hf.h_orbit_of(v)]
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
    for fam in map(parse_family, ("hex", "squareoct")):
        hf = default_height(fam)
        n, d = hf.orbit_count(), hf.declared_d
        bound = (n - 1) * (2 * d + 1) + 2
        assert verify_r(fam, hf, hf.declared_r)
        assert verify_r(fam, hf, bound)


def test_verify_r_reads_each_ball_once():
    """Each representative's band searches read the lists of its radius-r
    ball, which asks the oracle once per ball vertex."""
    fam = parse_family("squareoct")
    hf = default_height(fam)
    calls = []
    counted = dataclasses.replace(fam, neighbors=lambda v: calls.append(v) or fam.neighbors(v))
    assert verify_r(counted, hf, 11)
    assert len(calls) == sum(len(ball(fam, u, 11).vertices) for u in hf.h_orbits)


def test_verify_r_budget_is_not_a_false(monkeypatch):
    """A ball over its vertex budget is raised as indeterminate, never
    reported as False."""
    monkeypatch.setenv("SAWLAB_BUDGET_BALL_VERTICES", "10")
    so = parse_family("squareoct")
    hf = default_height(so)
    with pytest.raises(ResourceBudgetError):
        verify_r(so, hf, 5)


def _shortest_pinched_saws(fam, hf, max_len):
    """By definition, from every SAW of length <= max_len that each orbit
    representative u starts: the shortest length that joins u to each other
    orbit at a strictly higher end with every interior height strictly
    between."""
    shortest = {}
    for iu, u in enumerate(hf.h_orbits):
        hu = hf.evaluate(u)
        for n in range(1, max_len + 1):
            for walk in enumerate_walks(fam, None, u, n, "saw"):
                *inner, w = walk.vertices[1:]
                hw = hf.evaluate(w)
                if hw > hu and all(hu < hf.evaluate(x) < hw for x in inner):
                    shortest.setdefault((iu, hf.h_orbit_of(w)), n)
    return shortest


@pytest.mark.parametrize("spec,changes,first_true", [
    ("hex", {}, 1),
    ("squareoct", {}, 3),
    ("squareoct", {"h_orbit_of": lambda v: (2, 1, 0, 3)[v[2]]}, 3),
    # every vertex in the first orbit: the second is never reached
    ("hex", {"h_orbit_of": lambda v: 0}, None),
    # rows of even and odd y: a path through a vertex at h(u) is no witness
    ("z2", {"h_orbits": ((0, 0), (0, 1)), "h_orbit_of": lambda v: v[1] % 2}, 3),
])
def test_verify_r_matches_brute_force(spec, changes, first_true):
    fam = parse_family(spec)
    hf = dataclasses.replace(default_height(fam), **changes)
    shortest = _shortest_pinched_saws(fam, hf, 7)
    pairs = [(iu, iv) for iu in range(hf.orbit_count())
             for iv in range(hf.orbit_count()) if iu != iv]
    answers = [verify_r(fam, hf, r) for r in range(8)]
    assert answers == [all(shortest.get(p, r + 1) <= r for p in pairs) for r in range(8)]
    assert (answers.index(True) if True in answers else None) == first_true
