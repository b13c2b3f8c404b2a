"""Height synthesis: cycle bases, staged increments, integer lifts.

Everything here is exact rational arithmetic; float appearances would be a
bug in themselves.
"""

import dataclasses
import hashlib
import itertools
import json
import random
from collections import deque
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from sawlab import synthesis
from sawlab.errors import InvariantViolationError
from sawlab.families import ball, hypercubic
from sawlab.heights import validate_height
from sawlab.quotient import build_quotient
from sawlab.synthesis import (
    BlockCut,
    EdgeIncrement,
    cycle_basis,
    cycle_vector,
    distinguished_cycle,
    dual_form,
    increment_invariant_problems,
    lift_height,
    nonint_saw_pairs,
    quotient_tables,
    solve_increments,
    straight_steps,
    synthesize_height,
    unit_square_generators,
    verify_cocycle,
    _Echelon,
)

Z1 = hypercubic(1)
Z2 = hypercubic(2)
Z3 = hypercubic(3)
# the quotients of the benchmark's synth workload
SYNTH_QUOTIENTS = ((Z2, [(4, 0), (0, 4)]), (Z2, [(5, 0), (0, 5)]), (Z2, [(6, 0), (0, 6)]),
                   (Z3, [(3, 0, 0), (0, 3, 0), (0, 0, 3)]))


def quotient_of(family, shifts):
    return build_quotient(family, tuple(shifts))


def increment_from_values(q, values, method="broken"):
    """An EdgeIncrement with the given canonical (orbit, step) -> Fraction
    values, as ints over the lcm of their denominators."""
    t = quotient_tables(q)
    den = lcm(*(v.denominator for v in values.values()))
    nums = [0] * len(t.edges)
    for c in t.undirected:
        v = values[t.edges[c]]
        nums[c] = v.numerator * (den // v.denominator)
        nums[t.partner[c]] = -nums[c]
    return EdgeIncrement(tables=t, nums=tuple(nums), den=den, method=method)


def test_z1_mod3_single_cycle_stage1_only():
    q = quotient_of(Z1, [(3,)])
    basis = cycle_basis(q, [])
    assert basis.rho == 0
    assert basis.dim == 4  # 3 digons plus the winding 3-cycle
    inc = solve_increments(basis, q)
    assert inc.method == "staged"
    t = quotient_tables(q)
    forward = {k: Fraction(inc.nums[k], inc.den)
               for k, (_, step) in enumerate(t.edges) if step == (1,)}
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
    t = quotient_tables(q)
    for k in range(len(t.edges)):
        assert Fraction(inc.nums[k], inc.den) == -Fraction(inc.nums[t.partner[k]], inc.den)
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
        t = quotient_tables(q)
        assert direct.values == {
            t.edges[k]: sum((Fraction(d) * c for d, c in zip(t.edges[k][1], w)), Fraction(0))
            for k in t.undirected}
        assert lift_height(direct, family, q).max_edge_change() == 1


@pytest.mark.parametrize("family,shifts,method,used", [
    *((family, shifts, m, m) for family, shifts in SYNTH_QUOTIENTS for m in ("staged", "direct")),
    (Z2, [(2, 3), (0, 4)], "auto", "direct-fallback"),  # staged gets stuck here
])
def test_increment_den_is_reduced_and_is_the_scale(family, shifts, method, used):
    q, basis, inc, lifted = synthesize_height(family, shifts, method=method)
    assert inc.method == used
    assert gcd(inc.den, *inc.nums) == 1
    assert lifted.scaling == inc.den


@pytest.mark.parametrize("family,shifts", [*SYNTH_QUOTIENTS, (Z2, [(4, 1), (0, 5)])])
def test_staged_solve_keeps_den_reduced(family, shifts):
    # the factors of the candidates a segment rejects leave den with them
    q = quotient_of(family, shifts)
    nums, den = synthesis._staged_solve(cycle_basis(q, unit_square_generators(q)), q)
    assert gcd(den, *nums) == 1


def reference_verify_cocycle(inc, q, trials, seed):
    """verify_cocycle as it was written over step vectors: the oracle for
    the closed walks that the edge-rank form draws and checks."""
    rng = random.Random(seed)
    n = q.lattice.dim
    steps = synthesis._unit_steps(n)
    t = quotient_tables(q)
    for _ in range(trials):
        start = tuple(rng.randint(-3, 3) for _ in range(n))
        length = rng.randint(2, 10)
        walk = [rng.choice(steps) for _ in range(length)]
        end = start
        for s in walk:
            end = tuple(x + y for x, y in zip(end, s))
        closed = walk + straight_steps(tuple(a - c for a, c in zip(start, end)))
        if sum(map(inc.nums.__getitem__, t.walk(q.project(start), closed))):
            return False
    return True


@pytest.mark.parametrize("family,shifts", [SYNTH_QUOTIENTS[0], SYNTH_QUOTIENTS[3]])
def test_cocycle_check_draws_the_reference_walks(family, shifts):
    """On the true increment and on each copy with one numerator raised by
    one, verify_cocycle gives the step-vector oracle's verdict for every
    trial count and seed."""
    q, basis, inc, lifted = synthesize_height(family, shifts)
    increments = [inc]
    for k in range(len(inc.nums)):
        nums = list(inc.nums)
        nums[k] += 1
        increments.append(dataclasses.replace(inc, nums=tuple(nums)))
    verdicts = []
    for trials in (1, 2, 5, 20):
        for seed in range(5):
            for x in increments:
                want = reference_verify_cocycle(x, q, trials, seed)
                assert verify_cocycle(x, family, q, trials, seed) == want, (trials, seed)
                verdicts.append(want)
    assert all(verdicts[::len(increments)])  # the true increment passes
    assert not all(verdicts)


def test_perturbed_increment_fails_cocycle():
    q, basis, inc, lifted = synthesize_height(Z2, [(3, 0), (0, 3)])
    first = sorted(inc.values)[0]
    broken = dict(inc.values)
    broken[first] += Fraction(1, 7)
    bad = increment_from_values(q, broken)
    assert not verify_cocycle(bad, Z2, q, 200, seed=0)
    assert verify_cocycle(bad, Z2, q, 0, seed=0)  # vacuous


# ---------------------------------------------------------------------------
# integer path sums against plain Fraction sums

def fraction_sum(values) -> Fraction:
    return sum(values, Fraction(0))


def reference_invariant_problems(inc, basis, q):
    """increment_invariant_problems over Fraction values, edge by edge."""
    t = quotient_tables(q)
    problems = []
    for i, cyc in enumerate(basis.cycles):
        want = Fraction(1) if i == len(basis.cycles) - 1 else Fraction(0)
        got = fraction_sum(Fraction(inc.nums[k], inc.den) for k in cyc)
        if got != want:
            problems.append(f"cycle {i}: sum {got} != {want}")
    for i in range(q.orbit_count):
        outs = [Fraction(inc.nums[k], inc.den) for k in t.out_edges(i)]
        if not (any(v > 0 for v in outs) and any(v < 0 for v in outs)):
            problems.append(f"orbit {i}: out-increments miss a strict sign")
    return problems


@pytest.mark.parametrize("family,shifts", SYNTH_QUOTIENTS)
def test_integer_sums_match_fraction_sums(family, shifts):
    """winding, an int sum over one denominator, equals the sum of the
    Fraction windings on the basis cycles and on seeded random closed walks,
    and the invariant check over int sums equals one over Fraction values."""
    q, basis, inc, lifted = synthesize_height(family, shifts)
    assert inc.method == "staged"

    t = quotient_tables(q)
    w = dual_form(q)
    lam = [fraction_sum(Fraction(d) * c for d, c in zip(step, w)) for _, step in t.edges]
    rng = random.Random(len(t.edges))
    steps = [step for _, step in t.edges[:len(t.step_rank)]]
    walks = list(basis.cycles)
    for _ in range(100):
        walk = [rng.choice(steps) for _ in range(rng.randint(1, 12))]
        back = tuple(-sum(s[i] for s in walk) for i in range(len(steps[0])))
        walks.append(t.walk(rng.randrange(q.orbit_count), walk + straight_steps(back)))
    for ids in walks:
        assert t.winding(ids) == fraction_sum(lam[k] for k in ids)

    broken = dict(inc.values)
    broken[min(broken)] += Fraction(1, 7)
    bad = increment_from_values(q, broken)
    assert increment_invariant_problems(bad, basis, q) == \
        reference_invariant_problems(bad, basis, q) != []


def test_lift_detects_path_dependence():
    q, basis, inc, lifted = synthesize_height(Z2, [(3, 0), (0, 3)])
    first = sorted(inc.values)[0]
    broken = dict(inc.values)
    broken[first] += Fraction(1, 5)
    bad = increment_from_values(q, broken)
    with pytest.raises(InvariantViolationError, match="path-dependent increments"):
        lift_height(bad, Z2, q)


def test_dual_form_detects_winding():
    q = quotient_of(Z2, [(3, 0), (0, 3)])
    w = dual_form(q)
    t = quotient_tables(q)

    def winding(ids):
        return sum((Fraction(d) * c for k in ids for d, c in zip(t.edges[k][1], w)),
                   Fraction(0))

    assert winding(distinguished_cycle(q)) == 1
    for square in unit_square_generators(q):
        assert winding(square) == 0


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
    t = quotient_tables(q)
    assert len(t.undirected) <= 14
    basis = cycle_basis(q, unit_square_generators(q))
    inc = solve_increments(basis, q)
    assert not increment_invariant_problems(inc, basis, q)
    for k in range(len(t.edges)):
        assert Fraction(inc.nums[k], inc.den) == -Fraction(inc.nums[t.partner[k]], inc.den)
    lifted = lift_height(inc, Z2, q)
    hf = lifted.as_height_function()
    report = validate_height(Z2, hf, 4)
    assert report.ok(), (shifts, report.violations[:2])


def test_edge_copy_identity_multiedges():
    # Z^2 / <(2,0),(0,1)>: two orbits joined by parallel copies plus loops
    q = quotient_of(Z2, [(2, 0), (0, 1)])
    assert q.orbit_count == 2
    t = quotient_tables(q)
    unds = t.undirected
    assert len(unds) == 4  # two parallel horizontals, one loop per orbit
    loops = [k for k in unds if t.canonical[t.partner[k]] == k and
             q.project(tuple(a + b for a, b in zip(q.reps[t.tail(k)], t.edges[k][1])))
             == t.tail(k)]
    assert len(loops) == 2
    basis = cycle_basis(q, unit_square_generators(q))
    inc = solve_increments(basis, q)
    assert not increment_invariant_problems(inc, basis, q)


def test_project_walk_roundtrip():
    q = quotient_of(Z2, [(3, 0), (0, 3)])
    t = quotient_tables(q)
    steps = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    ids = t.walk(q.project((0, 0)), steps)
    assert len(ids) == 4
    assert t.tail(ids[0]) == q.project((0, 0))
    assert [t.edges[k][1] for k in ids] == steps
    assert t.head[ids[-1]] == t.tail(ids[0])


# ---------------------------------------------------------------------------
# fraction-free echelon against dense Fraction elimination

def fraction_rank(vectors) -> int:
    """Rank over Q of sparse vectors, by Gauss-Jordan elimination on dense
    Fraction rows."""
    keys = sorted({k for v in vectors for k in v})
    rows = [[Fraction(v.get(k, 0)) for k in keys] for v in vectors]
    rank = 0
    for col in range(len(keys)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


sparse_vectors = st.dictionaries(st.integers(0, 9), st.integers(-3, 3), max_size=5)
nonzero_coefficients = st.integers(-3, 3).filter(bool)


@st.composite
def echelon_inputs(draw):
    """Sparse integer vectors followed by scaled copies and non-unit
    combinations such as 2u - 3v of earlier ones, in a drawn order, plus
    probe vectors for ``contains``."""
    vectors = draw(st.lists(sparse_vectors, min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 6))):
        u = draw(st.sampled_from(vectors))
        v = draw(st.sampled_from(vectors))
        a, b = draw(nonzero_coefficients), draw(st.integers(-3, 3))
        vectors.append({k: a * u.get(k, 0) + b * v.get(k, 0) for k in set(u) | set(v)})
    vectors = draw(st.permutations(vectors))
    return vectors, draw(st.lists(sparse_vectors, max_size=4))


def assert_primitive_reduced(ech):
    for pivot, row in ech.rows.items():
        assert all(type(c) is int and c != 0 for c in row.values()), row
        assert min(row) == pivot and row[pivot] > 0, row
        assert gcd(*row.values()) == 1, row
        others = set(ech.rows) - {pivot}
        assert not others & set(row), row


@settings(max_examples=300, deadline=None)
@given(echelon_inputs())
def test_echelon_matches_fraction_rank(inputs):
    vectors, probes = inputs
    ech = _Echelon()
    for i, v in enumerate(vectors):
        independent = fraction_rank(vectors[:i + 1]) > fraction_rank(vectors[:i])
        assert ech.add(v) == independent
        assert_primitive_reduced(ech)
    assert ech.rank == fraction_rank(vectors)
    for v in vectors:
        assert ech.contains(v)
    for p in probes:
        assert ech.contains(p) == (fraction_rank(vectors + [p]) == ech.rank)


# cycle bases: SHA-256 of (cycles, rho, dim), recorded with the Fraction-row
# echelon that the fraction-free rows replaced
BASIS_DIGESTS = {
    ('z2', ((4, 0), (0, 4))):
        "ce94b4c36a5e156aca13e38ac1953d7c096c35241388e04994600bf32c71487a",
    ('z2', ((5, 0), (0, 5))):
        "8cd33f8e36680025b3c968cf3191ca2c844b1a3f29d59d0e70adff6e5ff22bb5",
    ('z2', ((6, 0), (0, 6))):
        "35d0bb31af392c281a3c1e86345e4ebc38e7c1863bd7f101623d4caf8bbe443e",
    ('z3', ((3, 0, 0), (0, 3, 0), (0, 0, 3))):
        "5ec66ed3a5dd8bf0612b88d59fba99244a682731b20d1380e57c77f157253014",
    ('z2', ((2, 1), (0, 5))):
        "983634eb192994f1dc647dc3e56e3f43caf706fe99e822f5cb904d57363a33d3",
    ('z2', ((4, 1), (0, 5))):
        "2dc13d79f3e9da9bea46b0f95b57b5635f9577968e92580efbe505ec4aa2095f",
}


@pytest.mark.parametrize("spec,shifts", list(BASIS_DIGESTS))
def test_cycle_bases_are_pinned(spec, shifts):
    q = quotient_of({"z2": Z2, "z3": Z3}[spec], shifts)
    basis = cycle_basis(q, unit_square_generators(q))
    doc = [[list(c) for c in basis.cycles], basis.rho, basis.dim]
    digest = hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()
    assert digest == BASIS_DIGESTS[spec, shifts]


# ---------------------------------------------------------------------------
# the generator pair rule of the split coordinates, away from square order

# Z2 lattices in Hermite normal form of index <= 6, and Z3/(2,2,2)
PAIR_RULE_QUOTIENTS = [(Z2, ((a, b), (0, d))) for a in range(1, 7)
                       for d in range(1, 6 // a + 1) for b in range(d)]
PAIR_RULE_QUOTIENTS.append((Z3, ((2, 0, 0), (0, 2, 0), (0, 0, 2))))


def reversed_walk(t, g):
    return tuple(t.partner[k] for k in reversed(g))


def reference_chosen(t, generators):
    """The greedy over edge counts: each generator, then its reverse, kept
    if independent of those kept before."""
    ech = _Echelon()
    chosen = []
    for g in generators:
        for oriented in (g, reversed_walk(t, g)):
            if ech.add(cycle_vector(oriented)):
                chosen.append(oriented)
    return chosen


@st.composite
def generator_lists(draw):
    """A small quotient and a permuted list of closed walks built from its
    unit squares: squares as they are or reversed, concatenations of two
    oriented squares from one orbit, and at least one walk g + reverse(g),
    whose antisymmetric part is zero."""
    family, shifts = draw(st.sampled_from(PAIR_RULE_QUOTIENTS))
    q = quotient_of(family, shifts)
    t = quotient_tables(q)
    oriented = [w for g in unit_square_generators(q) for w in (g, reversed_walk(t, g))]
    by_orbit: dict = {}
    for w in oriented:
        by_orbit.setdefault(t.tail(w[0]), []).append(w)
    gens = [w for w in oriented if draw(st.integers(0, 3)) == 0]
    for _ in range(draw(st.integers(0, 4))):
        w = draw(st.sampled_from(oriented))
        gens.append(w + draw(st.sampled_from(by_orbit[t.tail(w[0])])))
    for _ in range(draw(st.integers(1, 2))):
        w = draw(st.sampled_from(oriented))
        gens.append(w + reversed_walk(t, w))
    return q, draw(st.permutations(gens))


@settings(max_examples=150, deadline=None)
@given(generator_lists())
def test_pair_rule_matches_greedy_over_edge_counts(inputs):
    q, gens = inputs
    basis = cycle_basis(q, gens)
    assert list(basis.cycles[:basis.rho]) == reference_chosen(quotient_tables(q), gens)


def test_cycle_basis_rejects_an_open_generator():
    q = quotient_of(Z2, [(3, 0), (0, 3)])
    square = unit_square_generators(q)[0]
    with pytest.raises(InvariantViolationError, match="closed walk"):
        cycle_basis(q, [square[:2]])


# ---------------------------------------------------------------------------
# non-integer pair test against brute force

def over_one_denominator(values):
    """``(nums, den)`` with values[e] == nums[e] / den."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def brute_force_nonint_pairs(adj, head, values):
    """Every (a, b) joined by a directed SAW with a non-integer sum, by
    enumerating all vertex-distinct paths."""
    found = set()

    def extend(a, v, seen, total):
        for e in adj[v]:
            w = head[e]
            if w in seen:
                continue
            if (total + values[e]).denominator != 1:
                found.add((a, w))
            extend(a, w, seen | {w}, total + values[e])

    for a in range(len(adj)):
        extend(a, a, {a}, Fraction(0))
    return found


@st.composite
def gain_graphs(draw):
    """(adj, head, values, partner): a random symmetric gain graph, each
    undirected edge (loops and parallel copies included) stored as two
    directed ids with negated values, on up to 7 vertices, so that some
    vertices are isolated and some graphs fall apart into several parts."""
    n = draw(st.integers(1, 7))
    undirected = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.integers(-6, 6), st.integers(1, 4)),
        max_size=10))
    arcs = []  # (tail, head, value, index of the reverse arc)
    for k, (u, v, num, den) in enumerate(undirected):
        arcs.append((u, v, Fraction(num, den), 2 * k + 1))
        arcs.append((v, u, -Fraction(num, den), 2 * k))
    order = sorted(range(len(arcs)), key=lambda i: arcs[i][0])  # ids in tail order
    new_id = {i: k for k, i in enumerate(order)}
    adj = [[new_id[i] for i in order if arcs[i][0] == v] for v in range(n)]
    head = [arcs[i][1] for i in order]
    values = [arcs[i][2] for i in order]
    partner = [new_id[arcs[i][3]] for i in order]
    return adj, head, values, partner


@settings(max_examples=300, deadline=None)
@given(gain_graphs())
def test_pair_test_matches_brute_force_on_gain_graphs(graph):
    adj, head, values, partner = graph
    n = len(adj)
    pairs = [(a, b) for a in range(n) for b in range(n)]
    assert nonint_saw_pairs(adj, head, *over_one_denominator(values), partner, pairs) == \
        brute_force_nonint_pairs(adj, head, values)


@st.composite
def gain_graphs_with_two_assignments(draw):
    """(adj, head, partner, vertices, [values, values']): a gain graph, a
    subset of its vertices, and its values before and after one partner
    pair's values are drawn again."""
    adj, head, values, partner = draw(gain_graphs())
    vertices = sorted(draw(st.sets(st.integers(0, len(adj) - 1))))
    redrawn = list(values)
    if values:
        e = draw(st.integers(0, len(values) - 1))
        redrawn[e] = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        redrawn[partner[e]] = -redrawn[e]
    return adj, head, partner, vertices, [values, redrawn]


@settings(max_examples=300, deadline=None)
@given(gain_graphs_with_two_assignments())
def test_one_structure_pass_counts_the_pairs_of_every_assignment(case):
    """The block–cut structure does not read the values, so one structure
    pass counts the non-integer pairs of each assignment to the same edges."""
    adj, head, partner, vertices, assignments = case
    structure = BlockCut(adj, head, partner)
    pairs = list(itertools.combinations(vertices, 2))
    for values in assignments:
        nums, den = over_one_denominator(values)
        assert structure.nonint_count(nums, den, vertices) == \
            len(nonint_saw_pairs(adj, head, nums, den, partner, pairs))


def test_pair_test_rejects_a_graph_that_is_not_a_gain_graph():
    # 0 -> 1 (id 0) and 1 -> 0 (id 1) are partners; values over den 2
    adj, head, partner = [[0], [1]], [1, 0], [1, 0]
    assert nonint_saw_pairs(adj, head, [1, -1], 2, partner, [(0, 1)]) == {(0, 1)}
    with pytest.raises(InvariantViolationError):  # values not negated
        nonint_saw_pairs(adj, head, [1, 1], 2, partner, [(0, 1)])
    with pytest.raises(InvariantViolationError):  # checked on every values pass
        BlockCut(adj, head, partner).nonint_count([1, 1], 2, [0, 1])
    with pytest.raises(InvariantViolationError):  # partner not explored
        nonint_saw_pairs([[0], []], head, [1, 0], 2, partner, [(0, 1)])
    with pytest.raises(InvariantViolationError):  # partner does not run back
        nonint_saw_pairs([[0], [1]], [1, 1], [1, -1], 2, partner, [(0, 1)])


# ---------------------------------------------------------------------------
# staged outputs: SHA-256 of (method, scaling_m, sorted increments), recorded
# with the per-pair explored-SAW search that the per-source sweep replaced

STAGED_DIGESTS = {
    ('z1', ((3,),)):
        "c030cf21f9503b03488175d7320a2cba543cdf815a8b80e7fb722060e7e821dc",
    ('z2', ((2, 0), (0, 2))):
        "814bb71eeaaa11bd4756c5f00f950a75d404967bae369af325805ee09eb40d1f",
    ('z2', ((3, 0), (0, 3))):
        "3279a182cc745c1421d8eee181049433e24965ab1343bd274cb44949405c4400",
    ('z2', ((4, 0), (0, 4))):
        "cd5ef80ae6408cfa9bf5553c9518183336d750dcf26f9797969bde4050bcc0da",
    ('z2', ((5, 0), (0, 5))):
        "3b2b7cab55cff79ecf9ec51519a926828a1d64cd57198b617269b76d6667c938",
    ('z2', ((2, 1), (0, 3))):
        "dea889cc6a35dadd25f54103a8cebddf2d1e18ff23069ad6056f1909afa4a6ec",
    ('z2', ((3, 2), (0, 3))):
        "5a1ac0c2a31ae3e6a79afda460a79cb6f283adac3f593a0f77d26cbf723150a8",
    ('z2', ((2, 1), (0, 5))):
        "fbde9d9808cb3c10e7672b9657a2355017fc55ba4917804f62c8e2e7b470511e",
    ('z3', ((2, 0, 0), (0, 2, 0), (0, 0, 2))):
        "ebd51fad9bc42889a11cff8accecd2478a41ed9850c82830ee258959cd9f6bde",
    ('z3', ((3, 0, 0), (0, 3, 0), (0, 0, 3))):
        "eefe40b079db52d41c117ce95d27d08b36c5ef8b4b9b03412a08f42bd017e460",
}


def staged_digest(family, shifts) -> str:
    q, basis, inc, lifted = synthesize_height(family, shifts, method="staged")
    doc = [inc.method, str(lifted.scaling),
           [[i, list(step), str(v.numerator), str(v.denominator)]
            for (i, step), v in sorted(inc.values.items())]]
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("spec,shifts", list(STAGED_DIGESTS))
def test_staged_outputs_are_pinned(spec, shifts):
    family = {"z1": Z1, "z2": Z2, "z3": Z3}[spec]
    assert staged_digest(family, shifts) == STAGED_DIGESTS[spec, shifts]


@pytest.mark.parametrize("method", ["staged", "direct"])
@pytest.mark.parametrize("family,shifts", [
    (Z2, [(2, 1), (0, 5)]),
    (Z3, [(3, 0, 0), (0, 3, 0), (0, 0, 3)]),
])
def test_lifted_evaluate_matches_bfs_lift_on_radius_6_ball(family, shifts, method):
    q = quotient_of(family, shifts)
    basis = cycle_basis(q, unit_square_generators(q))
    inc = solve_increments(basis, q, method=method)
    assert inc.method == method
    assert_lift_matches_bfs_on_radius_6_ball(family, q, inc, lift_height(inc, family, q))


def assert_lift_matches_bfs_on_radius_6_ball(family, q, inc, lifted):
    t = quotient_tables(q)
    verts = ball(family, family.origin, 6).dist
    heights = {family.origin: Fraction(0)}
    queue = deque([family.origin])
    while queue:
        v = queue.popleft()
        for u in family.neighbors(v):
            if u in verts and u not in heights:
                step = tuple(a - c for a, c in zip(u, v))
                k = t.edge_id((q.project(v), step))
                heights[u] = heights[v] + Fraction(inc.nums[k], inc.den)
                queue.append(u)
    assert len(heights) == len(verts)
    for v, h in heights.items():
        assert lifted.evaluate(v) == h * lifted.scaling, v


def test_staged_succeeds_where_the_pair_sweep_hit_its_cap():
    # an exhaustive SAW sweep from one source enters more than 100,000
    # nodes on this quotient
    q, basis, inc, lifted = synthesize_height(Z2, [(4, 1), (0, 5)], method="staged")
    assert inc.method == "staged"
    assert not increment_invariant_problems(inc, basis, q)
    assert verify_cocycle(inc, Z2, q, 200, seed=1)
    assert_lift_matches_bfs_on_radius_6_ball(Z2, q, inc, lifted)


def test_synthesis_walks_its_check_ball_once():
    """The lift's path-independence check reads the edges of the ball it
    builds: after the quotient build's 36 oracle calls, the lift asks once
    per vertex of its radius-4 check ball (41), not twice."""
    calls = []
    counted = dataclasses.replace(Z2, neighbors=lambda v: calls.append(v) or Z2.neighbors(v))
    synthesize_height(counted, [(4, 0), (0, 4)])
    assert len(calls) == 77


def test_one_edge_table_per_synthesis(monkeypatch):
    """One synthesis resolves each directed quotient edge once, through the
    compiled tables, and the checks that follow reuse those tables."""
    calls = []
    edge_head = synthesis.edge_head

    def counting(q, e):
        calls.append(e)
        return edge_head(q, e)

    monkeypatch.setattr(synthesis, "edge_head", counting)
    total = 0
    for family, shifts in SYNTH_QUOTIENTS:
        calls.clear()
        q, basis, inc, lifted = synthesize_height(family, shifts)
        n = len(shifts)
        assert len(calls) == q.orbit_count * 2 * n
        total += len(calls)
        calls.clear()
        assert not increment_invariant_problems(inc, basis, q)
        assert verify_cocycle(inc, family, q, 50, seed=2)
        assert lift_height(inc, family, q).scaling == lifted.scaling
        assert calls == []
    assert total == 470


def test_pair_queries_per_synthesis(monkeypatch):
    """The staged solve runs one structure pass per segment of two or more
    edges, and scores each of its candidate perturbations on it, but none
    after the seed, a zero connector or a single-edge segment; these
    quotients close every segment on itself, so no segment asks whether a
    non-integer return SAW exists."""
    calls = []

    class Counting(BlockCut):
        def __init__(self, *args):
            calls.append("structure")
            super().__init__(*args)

        def nonint_count(self, *args):
            calls.append("scored")
            return super().nonint_count(*args)

    monkeypatch.setattr(synthesis, "BlockCut", Counting)
    monkeypatch.setattr(synthesis, "nonint_saw_pairs", lambda *args: calls.append("query"))
    for family, shifts in SYNTH_QUOTIENTS:
        assert synthesize_height(family, shifts)[2].method == "staged"
    assert (calls.count("structure"), calls.count("scored")) == (20, 180)
    assert "query" not in calls


def test_staged_solves_the_cube_of_side_4():
    # the explored graph here is too rich for an exhaustive return-path
    # search: one from orbit 62 to 38 entered 100,000 nodes without
    # reaching 38, and the staged method got stuck
    q, basis, inc, lifted = synthesize_height(Z3, [(4, 0, 0), (0, 4, 0), (0, 0, 4)],
                                              method="staged")
    assert inc.method == "staged"
    assert not increment_invariant_problems(inc, basis, q)
    assert verify_cocycle(inc, Z3, q, 200, seed=1)
    assert_lift_matches_bfs_on_radius_6_ball(Z3, q, inc, lifted)


def test_staged_solve_over_the_z2_lattices_of_index_12():
    """The staged solve on every Z^2 lattice in Hermite normal form
    [[a, b], [0, d]] (0 <= b < d) of index a*d <= 12: four find no
    non-integer return SAW, and the SHA-256 of the (den, nums) of the other
    123 is pinned."""
    digest = hashlib.sha256()
    stuck = []
    lattices = [((a, b), (0, d)) for a in range(1, 13) for d in range(1, 12 // a + 1)
                for b in range(d)]
    assert len(lattices) == 127
    for shifts in lattices:
        q = quotient_of(Z2, shifts)
        basis = cycle_basis(q, unit_square_generators(q))
        try:
            inc = solve_increments(basis, q, method="staged")
        except InvariantViolationError as exc:
            assert str(exc) == ("no increment solution found: "
                                "no non-integer return SAW for a segment"), shifts
            stuck.append(shifts)
            continue
        digest.update(json.dumps([inc.den, inc.nums]).encode())
    assert stuck == [((2, 3), (0, 4)), ((2, 4), (0, 5)), ((2, 5), (0, 6)), ((3, 3), (0, 4))]
    assert digest.hexdigest() == \
        "d3ea9a43ffae4e846525844d8d816f01ba04f85e1e2de6f87c85a8500b9986ac"


def test_lifted_orbit_map_evaluates_no_vertex(monkeypatch):
    """Building the lifted height function evaluates no vertex, and its orbit
    map sends each vertex to the quotient's representative of its orbit."""
    calls = []
    evaluate = synthesis.LiftedHeight.evaluate

    def counting(self, v):
        calls.append(v)
        return evaluate(self, v)

    monkeypatch.setattr(synthesis.LiftedHeight, "evaluate", counting)
    q, basis, inc, lifted = synthesize_height(Z2, [(5, 0), (0, 5)])
    calls.clear()
    hf = lifted.as_height_function()
    assert calls == []
    verts = ball(Z2, Z2.origin, 6).vertices
    assert len(verts) == 85
    for v in verts:
        assert hf.h_orbits[hf.h_orbit_of(v)] == q.reps[q.project(v)]
