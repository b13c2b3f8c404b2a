"""Certified brackets, rooted-ball similarity, partitions, locality."""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sawlab.bounds import (
    ball_isomorphic,
    bracket,
    check_fekete,
    distinct_partitions,
    locality_report,
    nth_root,
    similarity_K,
)
from sawlab.errors import ResourceBudgetError
from sawlab.families import ball, hypercubic, parse_family, regular_tree
from sawlab.heights import default_height
from sawlab.quotient import cylinder
from sawlab.tables import CountTable, build_count_table

Z2 = hypercubic(2)


@given(st.integers(1, 10 ** 12), st.integers(1, 12))
def test_directed_rounding_brackets_true_root(value, n):
    lo = nth_root(value, n, up=False)
    hi = nth_root(value, n, up=True)
    assert Fraction(lo) ** n <= value <= Fraction(hi) ** n
    assert lo <= hi
    # the bracketing floats are adjacent or equal
    assert math.nextafter(lo, math.inf) >= hi


def test_exact_roots_stay_exact():
    assert nth_root(2 ** 12, 12, up=False) == 2.0
    assert nth_root(2 ** 12, 12, up=True) == 2.0
    assert nth_root(1, 5, up=False) == 1.0


def test_directed_rounding_huge_integers():
    big = 3 ** 200 + 12345
    lo = nth_root(big, 17, up=False)
    hi = nth_root(big, 17, up=True)
    from fractions import Fraction
    assert Fraction(lo) ** 17 <= big <= Fraction(hi) ** 17
    assert 0 < hi - lo < 1e-6 * hi


def table_for(spec, n_max, jobs=1):
    fam = parse_family(spec)
    return build_count_table(fam, default_height(fam), n_max, jobs=jobs)


def test_tree_bracket_lower_is_exactly_two():
    t = table_for("tree:3", 8)
    rep = bracket(t)
    assert rep.lower_candidates[0] == (1, 2.0)
    assert rep.certified_lower == 2.0
    assert rep.contains(2.0)
    assert rep.certified_upper >= 2.0


def test_z2_bracket_contains_literature_value():
    rep = bracket(table_for("z2", 10))
    assert rep.contains(2.63815853)
    assert rep.certified_lower <= rep.certified_upper


def test_single_step_bracket():
    rep = bracket(table_for("z2", 1))
    assert rep.certified_lower == 1.0  # b_1 = 1
    assert rep.certified_upper == 4.0  # sigma_1 = 4


def test_fekete_checks():
    t = table_for("z2", 7)
    assert check_fekete(t)
    corrupted = CountTable(
        family=t.family, height=t.height, n_max=t.n_max, reps=t.reps,
        sigma_by_rep=t.sigma_by_rep,
        c_by_rep=t.c_by_rep,
        b_by_rep=tuple((row[:2] + (0,) + row[3:],) and (row[:2] + (0,) + row[3:])
                       for row in t.b_by_rep),
        b_spans_by_rep=t.b_spans_by_rep)
    assert not check_fekete(corrupted)
    # sigma_2 = 17 > sigma_1 sigma_1 = 16
    sigma_heavy = dataclasses.replace(
        t, sigma_by_rep=tuple(row[:2] + (17,) + row[3:] for row in t.sigma_by_rep))
    assert not check_fekete(sigma_heavy)
    tiny = table_for("z2", 0)
    assert check_fekete(tiny)


def test_ball_isomorphism_examples():
    assert ball_isomorphic(ball(Z2, (0, 0), 2), ball(Z2, (5, -7), 2))
    cyl5 = cylinder(2, (0, 5))
    assert not ball_isomorphic(ball(Z2, (0, 0), 2), ball(cyl5, (0, 0), 2))
    t4 = regular_tree(4)
    assert ball_isomorphic(ball(Z2, (0, 0), 1), ball(t4, t4.origin, 1))
    assert not ball_isomorphic(ball(Z2, (0, 0), 1), ball(parse_family("hex"), (0, 0), 1))


def test_similarity_K_cylinders():
    expected = {4: 1, 5: 1, 6: 2, 8: 3, 10: 4}
    for m, k in expected.items():
        res = similarity_K(Z2, cylinder(2, (0, m)), cap=6)
        assert res.K == k, (m, res)
        assert not res.capped
        assert res.mismatch_radius == k + 1


def test_similarity_capped_and_symmetric():
    res = similarity_K(Z2, hypercubic(2), cap=4)
    assert res.K == 4 and res.capped
    pairs = [
        (Z2, cylinder(2, (0, 6)), 6),
        (Z2, parse_family("hex"), 4),
        (parse_family("tree:4"), Z2, 4),
        (parse_family("squareoct"), parse_family("hex"), 4),
    ]
    for a, b, cap in pairs:
        assert similarity_K(a, b, cap).K == similarity_K(b, a, cap).K


def test_similarity_K_asks_each_oracle_once_per_vertex(monkeypatch):
    calls = {}

    def counted(fam):
        return dataclasses.replace(
            fam, neighbors=lambda v: calls.setdefault(fam.spec, []).append(v) or fam.neighbors(v))

    for width, cap, want in ((24, 30, (11, 12)), (40, 50, (19, 20))):
        calls.clear()
        cyl = cylinder(2, (0, width))
        res = similarity_K(counted(Z2), counted(cyl), cap)
        assert (res.K, res.mismatch_radius) == want
        for fam in (Z2, cyl):
            assert sorted(calls[fam.spec]) == sorted(ball(fam, fam.origin, want[1]).vertices)
    # an over-cap ball ends the search at the radius where ball() would
    # end, the first family's ball before the second's
    monkeypatch.setenv("SAWLAB_BUDGET_BALL_VERTICES", "100")
    with pytest.raises(ResourceBudgetError,
                       match=r"^ball\(z2, r=7\) around \(0, 0\) exceeds 100 vertices$"):
        ball(Z2, Z2.origin, 7)
    for a, b in ((Z2, cyl), (cyl, Z2)):
        with pytest.raises(ResourceBudgetError,
                           match=rf"^ball\({a.spec}, r=7\) around \(0, 0\) exceeds 100 vertices$"):
            similarity_K(a, b, 30)
    assert similarity_K(a, b, 6).capped


def test_distinct_partitions_examples():
    assert distinct_partitions(6) == (4, 3)
    assert distinct_partitions(1) == (1, 1)
    count, order = distinct_partitions(40)
    assert order * (order + 1) <= 2 * 40
    ratio = math.log(count) / (math.pi * math.sqrt(40 / 3))
    assert 0.5 <= ratio <= 1.1


@given(st.integers(1, 60))
def test_partition_order_bound(n):
    count, order = distinct_partitions(n)
    assert count >= 1
    assert order * (order + 1) <= 2 * n


def test_ball_locality_of_counts():
    """Counting inside the radius-n ball gives the same sigma: enumeration
    never leaves the ball."""
    from sawlab.families import Ball, GraphFamily
    from sawlab.walks import count_bridges, count_halfspace, count_saws

    n = 5
    b = ball(Z2, (0, 0), n)
    inside = set(b.vertices)
    adj = {v: tuple(sorted(u for u in Z2.neighbors(v) if u in inside)) for v in inside}
    restricted = GraphFamily(
        spec="z2-ball", neighbors=lambda v: adj[v], origin=(0, 0))
    hf = default_height(Z2)
    # workers get the compiled ball, so a family no spec can rebuild counts in parallel too
    for jobs in (1, 2):
        assert count_saws(restricted, (0, 0), n, jobs=jobs) == count_saws(Z2, (0, 0), n)
        assert (count_halfspace(restricted, hf, (0, 0), n, jobs=jobs)
                == count_halfspace(Z2, hf, (0, 0), n))
        assert (count_bridges(restricted, hf, (0, 0), n, jobs=jobs)[0]
                == count_bridges(Z2, hf, (0, 0), n)[0])


def test_locality_report_agreement_regime():
    cyl = cylinder(2, (0, 10))
    rep = locality_report(Z2, default_height(Z2), cyl, default_height(cyl),
                          n_max=4, cap=6)
    assert rep.similarity.K == 4
    assert rep.slack == 0
    assert rep.tables_should_agree
    assert rep.sigma_divergence_n is None
    assert rep.b_divergence_n is None
    assert rep.cross_ok
    assert rep.gap == 0.0


@pytest.mark.parametrize("radius", [3, 4, 5, 6])
def test_locality_slack_counts_the_height_representatives(radius):
    """hex's height has representatives (0, 0) and (1, 0), and its tables
    count walks from both: against hex cut down to its own radius-R ball
    (K = R), the bridge counts diverge at n = R, so agreement is promised
    only up to K - 1."""
    from sawlab.families import GraphFamily

    hexa = parse_family("hex")
    hf = default_height(hexa)
    b = ball(hexa, hexa.origin, radius)
    inside = set(b.vertices)
    adj = {v: tuple(u for u in hexa.neighbors(v) if u in inside) for v in inside}
    cut = GraphFamily(spec=f"hex-ball-{radius}", neighbors=lambda v: adj[v],
                      origin=hexa.origin)
    rep = locality_report(hexa, hf, cut, hf, n_max=radius, cap=radius + 2)
    assert rep.similarity.K == radius
    assert rep.slack == 1
    assert rep.b_divergence_n == radius
    assert not rep.tables_should_agree
    shorter = locality_report(hexa, hf, cut, hf, n_max=radius - 1, cap=radius + 2)
    assert shorter.tables_should_agree
    assert shorter.b_divergence_n is None and shorter.sigma_divergence_n is None


def test_locality_rejects_a_representative_out_of_reach():
    from sawlab.errors import InvariantViolationError
    from sawlab.families import GraphFamily

    # a two-vertex family whose height names a vertex the origin never reaches
    pair = GraphFamily(spec="pair", neighbors=lambda v: ((1,),) if v == (0,) else ((0,),),
                       origin=(0,))
    hf = default_height(Z2)
    stray = dataclasses.replace(hf, h_orbits=((0,), (5,)))
    with pytest.raises(InvariantViolationError, match="not reachable"):
        locality_report(pair, stray, pair, stray, n_max=1, cap=1)


def test_locality_report_divergence_regime():
    cyl = cylinder(2, (0, 4))
    rep = locality_report(Z2, default_height(Z2), cyl, default_height(cyl),
                          n_max=6, cap=6)
    assert not rep.tables_should_agree
    assert rep.sigma_divergence_n == 4  # wrap walks exist from length 4
    assert rep.cross_ok


def test_identical_families_zero_gap():
    rep = locality_report(Z2, default_height(Z2), hypercubic(2), default_height(Z2),
                          n_max=4, cap=3)
    assert rep.gap == 0.0 and rep.similarity.capped
