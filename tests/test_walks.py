"""SAW engine: exact counts, streaming enumeration, bridge decomposition."""

import dataclasses
import re

import pytest
from hypothesis import given, settings, strategies as st

from sawlab import walks
from sawlab.errors import InvariantViolationError, ResourceBudgetError, UsageError
from sawlab.families import (
    BUILTIN_FAMILY_SPECS,
    GraphFamily,
    _flip,
    _swap,
    hypercubic,
    parse_family,
    regular_tree,
    signed_permutations,
)
from sawlab.heights import HeightFunction, default_height, parse_height
from sawlab.tables import build_count_table
from sawlab.walks import (
    Walk,
    count_bridges,
    count_halfspace,
    count_saws,
    decompose,
    enumerate_walks,
    is_bridge,
    is_halfspace,
    is_reversed_bridge,
    make_walk,
    span,
    subwalks,
)
from z2_oracle import z2_bridge_count, z2_halfspace_count, z2_saw_counts

Z2 = hypercubic(2)
HZ2 = default_height(Z2)


def test_z2_saw_counts_against_oracle():
    assert count_saws(Z2, (0, 0), 7) == z2_saw_counts(7)
    assert count_saws(Z2, (0, 0), 4) == [1, 4, 12, 36, 100]


def test_tree_counts_closed_form():
    t3 = regular_tree(3)
    counts = count_saws(t3, t3.origin, 8)
    assert counts == [1] + [3 * 2 ** (n - 1) for n in range(1, 9)]
    ht = default_height(t3)
    c = count_halfspace(t3, ht, t3.origin, 6)
    b, _ = count_bridges(t3, ht, t3.origin, 6)
    assert c == [2 ** n for n in range(7)]
    assert b == [2 ** n for n in range(7)]


def test_hex_counts_tree_like_up_to_girth():
    hx = parse_family("hex")
    assert count_saws(hx, (0, 0), 5) == [1, 3, 6, 12, 24, 48]


def test_halfspace_and_bridge_examples():
    assert count_halfspace(Z2, HZ2, (0, 0), 3) == [1, 1, 3, 7]
    b, spans = count_bridges(Z2, HZ2, (0, 0), 3)
    assert b == [1, 1, 3, 7]
    assert spans[2] == {1: 2, 2: 1}
    assert all(sum(t.values()) == b[n] for n, t in enumerate(spans))


def test_counts_match_independent_oracle_halfspace_bridge():
    for n in range(6):
        assert count_halfspace(Z2, HZ2, (0, 0), 5)[n] == z2_halfspace_count(n)
        assert count_bridges(Z2, HZ2, (0, 0), 5)[0][n] == z2_bridge_count(n)


@pytest.mark.parametrize("spec", ["z2", "tree:3", "hex", "squareoct", "heis", "zcyl:2:0,6"])
def test_enumeration_is_an_independent_oracle(spec):
    fam = parse_family(spec)
    hf = default_height(fam)
    n = 5
    sigma = count_saws(fam, fam.origin, n)
    c = count_halfspace(fam, hf, fam.origin, n)
    b, _ = count_bridges(fam, hf, fam.origin, n)
    for k in range(n + 1):
        assert sigma[k] == sum(1 for _ in enumerate_walks(fam, None, fam.origin, k, "saw"))
        assert c[k] == sum(1 for _ in enumerate_walks(fam, hf, fam.origin, k, "halfspace"))
        assert b[k] == sum(1 for _ in enumerate_walks(fam, hf, fam.origin, k, "bridge"))


def test_enumerate_bridge_length2_exact_set():
    walks = {w.vertices for w in enumerate_walks(Z2, HZ2, (0, 0), 2, "bridge")}
    assert walks == {
        ((0, 0), (1, 0), (2, 0)),
        ((0, 0), (1, 0), (1, 1)),
        ((0, 0), (1, 0), (1, -1)),
    }
    only_empty = list(enumerate_walks(Z2, HZ2, (0, 0), 0, "saw"))
    assert len(only_empty) == 1 and len(only_empty[0]) == 0


def test_walk_validation():
    with pytest.raises(UsageError):
        make_walk(Z2, [(0, 0), (2, 0)])
    with pytest.raises(UsageError):
        make_walk(Z2, [(0, 0), (1, 0), (0, 0)])
    w = make_walk(Z2, [(0, 0), (1, 0), (1, 1)])
    assert len(w) == 2


def test_span_examples():
    w = make_walk(Z2, [(0, 0), (1, 0), (1, 1), (0, 1), (-1, 1)])
    assert span(HZ2, w) == 2
    assert span(HZ2, Walk(((3, 4),))) == 0
    for b in enumerate_walks(Z2, HZ2, (0, 0), 4, "bridge"):
        hs = [HZ2.evaluate(v) for v in b.vertices]
        assert span(HZ2, b) == hs[-1] - hs[0]


def test_decompose_worked_example():
    w = make_walk(Z2, [(0, 0), (1, 0), (2, 0), (2, 1), (1, 1)])
    dec = decompose(HZ2, w)
    assert dec.spans == (2, 1)
    assert dec.breaks == (3, 4)


def test_decompose_monotone_walk():
    z1 = hypercubic(1)
    h = default_height(z1)
    w = make_walk(z1, [(0,), (1,), (2,), (3,)])
    dec = decompose(h, w)
    assert dec.spans == (3,) and dec.breaks == (3,)


def test_decompose_height_sequence_0121():
    # a SAW whose heights run 0,1,2,1 (one-dimensional walks cannot do this
    # self-avoidingly, so realize the sequence with the diagonal height)
    diag = HeightFunction(
        spec="x+y", evaluate=lambda v: v[0] + v[1], declared_d=1, declared_r=0,
        h_orbits=((0, 0),), h_orbit_of=lambda v: 0)
    w = make_walk(Z2, [(0, 0), (1, 0), (1, 1), (0, 1)])
    assert [diag.evaluate(v) for v in w.vertices] == [0, 1, 2, 1]
    dec = decompose(diag, w)
    assert dec.spans == (2, 1) and dec.breaks == (2, 3)


def test_decompose_empty_walk():
    dec = decompose(HZ2, Walk(((0, 0),)))
    assert dec.spans == () and dec.breaks == ()
    assert subwalks(Walk(((0, 0),)), dec) == []


def test_decompose_rejects_non_halfspace():
    w = make_walk(Z2, [(0, 0), (0, 1)])
    with pytest.raises(UsageError):
        decompose(HZ2, w)


def test_bridge_decomposes_trivially():
    for b in enumerate_walks(Z2, HZ2, (0, 0), 5, "bridge"):
        if len(b) == 0:
            continue
        dec = decompose(HZ2, b)
        assert dec.order == 1
        assert dec.spans == (span(HZ2, b),)


@pytest.mark.parametrize("spec", ["z2", "squareoct"])
def test_decomposition_soundness_full_enumeration(spec):
    fam = parse_family(spec)
    hf = default_height(fam)
    d = hf.declared_d
    checked = 0
    for n in range(1, 7):
        for w in enumerate_walks(fam, hf, fam.origin, n, "halfspace"):
            dec = decompose(hf, w)
            assert all(a > b for a, b in zip(dec.spans, dec.spans[1:]))
            assert dec.spans[-1] > 0
            assert sum(dec.spans) <= d * n
            assert dec.breaks[-1] == n
            parts = subwalks(w, dec)
            for j, part in enumerate(parts):
                if j % 2 == 0:
                    assert is_bridge(hf, part)
                else:
                    assert is_reversed_bridge(hf, part)
            checked += 1
    assert checked >= 20  # squareoct's origin corner admits few half-space walks


def test_bridge_counts_invariant_under_shifts():
    # translation-invariance of bridge counts under the height's group
    b0, _ = count_bridges(Z2, HZ2, (0, 0), 5)
    b1, _ = count_bridges(Z2, HZ2, (5, -3), 5)
    assert b0 == b1
    so = parse_family("squareoct")
    hso = default_height(so)
    for corner in range(4):
        a, _ = count_bridges(so, hso, (0, 0, corner), 5)
        b, _ = count_bridges(so, hso, (2, -1, corner), 5)
        assert a == b


def test_reversed_bridge_duality_on_lattices():
    for spec in ("z1", "z2"):
        fam = parse_family(spec)
        hf = default_height(fam)
        for n in range(5):
            bridges = sum(1 for _ in enumerate_walks(fam, hf, fam.origin, n, "bridge"))
            reversed_count = sum(
                1 for w in enumerate_walks(fam, None, fam.origin, n, "saw")
                if is_reversed_bridge(hf, w))
            assert bridges == reversed_count


def test_enumeration_budget(monkeypatch):
    monkeypatch.setenv("SAWLAB_BUDGET_ENUM_WALKS", "10")
    with pytest.raises(ResourceBudgetError):
        list(enumerate_walks(Z2, None, (0, 0), 3, "saw"))


def test_budgeted_counts_return_clean_prefix():
    # the budget counts neighbor lookups, summed over the levels counted so far
    full = count_saws(Z2, (0, 0), 8)
    part = count_saws(Z2, (0, 0), 8, node_budget=300)
    assert len(part) == 6
    assert part == full[:len(part)]
    fb, fs = count_bridges(Z2, HZ2, (0, 0), 8)
    pb, ps = count_bridges(Z2, HZ2, (0, 0), 8, node_budget=150)
    assert len(pb) == len(ps) == 7
    assert pb == fb[:len(pb)] and ps == fs[:len(ps)]
    pc = count_halfspace(Z2, HZ2, (0, 0), 8, node_budget=150)
    assert len(pc) == 7
    assert pc == count_halfspace(Z2, HZ2, (0, 0), 8)[:len(pc)]
    # level 0 needs no lookup, so even a zero budget completes it
    assert count_saws(Z2, (0, 0), 8, node_budget=0) == [1]


@pytest.mark.parametrize("spec, n, budgets, high_water", [
    # (SAW, half-space, bridge) high-water marks per budget; 341/342 and
    # 688/689 straddle the lookups that complete a half-space level
    ("z2", 10, (341, 342, 5272), ((5, 6, 6), (5, 7, 7), (8, 9, 9))),
    ("z3", 7, (688, 689, 5592), ((4, 5, 5), (4, 6, 6), (6, 7, 7))),
])
def test_budget_high_water_marks_are_pinned(spec, n, budgets, high_water):
    # each level is charged one lookup per vertex a walk one step short of
    # it ends at, however the kernel counts the last steps
    fam = parse_family(spec)
    hf = default_height(fam)
    for node_budget, marks in zip(budgets, high_water):
        assert (len(count_saws(fam, fam.origin, n, node_budget=node_budget)) - 1,
                len(count_halfspace(fam, hf, fam.origin, n, node_budget=node_budget)) - 1,
                len(count_bridges(fam, hf, fam.origin, n, node_budget=node_budget)[0]) - 1,
                ) == marks


def test_budgeted_bridges_reuse_the_half_space_levels(monkeypatch):
    # a budgeted table counts each half-space level once per representative:
    # count_bridges takes its high-water mark from count_halfspace's levels
    calls = []
    count = walks._count

    def recorded(family, hf, start, n_max, mode, jobs, node_budget=None):
        if node_budget is None:
            calls.append((start, n_max, mode))
        return count(family, hf, start, n_max, mode, jobs, node_budget)

    monkeypatch.setattr(walks, "_count", recorded)
    for spec, node_budget in (("z2", 5272), ("z2", 10**9), ("hex", 1000)):
        fam = parse_family(spec)
        hf = default_height(fam)
        walks._budget_levels.cache_clear()
        calls.clear()
        table = build_count_table(fam, hf, 9, node_budget=node_budget)
        halfspace = [c for c in calls if c[2] == "halfspace"]
        assert len(halfspace) == len(set(halfspace))
        for rep in hf.h_orbits:
            assert {(rep, n, "halfspace") for n in range(table.n_max + 1)} <= set(halfspace)
        walks._budget_levels.cache_clear()
        assert table == build_count_table(fam, hf, 9, node_budget=node_budget, jobs=2)


def test_budgeted_tree_counts_check_each_cone_ball_once():
    # every level of a budgeted tree count is covered by one check of the
    # cone ball at the largest radius, so the table asks the oracle for that
    # ball alone, as an unbudgeted one does
    t3 = parse_family("tree:3")
    calls = 0

    def counted(v):
        nonlocal calls
        calls += 1
        return t3.neighbors(v)

    fam = dataclasses.replace(t3, neighbors=counted)
    hf = default_height(fam)
    walks._cone_ball.cache_clear()
    table = build_count_table(fam, hf, 30, node_budget=10**9)
    table_calls, calls = calls, 0
    walks._cone_ball.cache_clear()
    walks._cone_ball(fam, fam.origin)
    assert table_calls == calls
    assert table.n_max == 28
    assert table == build_count_table(fam, hf, 28)


def test_one_cone_check_per_start_at_every_length():
    # the cone check does not depend on the length: tables of every length,
    # budgeted or not, ask the oracle for one ball around the start
    t3 = parse_family("tree:3")
    calls = 0

    def counted(v):
        nonlocal calls
        calls += 1
        return t3.neighbors(v)

    fam = dataclasses.replace(t3, neighbors=counted)
    hf = default_height(fam)
    walks._cone_ball.cache_clear()
    for n in (2, 12, 30):
        build_count_table(fam, hf, n)
    build_count_table(fam, hf, 30, node_budget=10**9)
    table_calls, calls = calls, 0
    walks._cone_ball.cache_clear()
    walks._cone_ball(fam, fam.origin)
    assert table_calls == calls


def test_parallel_counts_match_serial():
    # unmarked as a tree, tree:3 runs on the counting kernel
    t3 = dataclasses.replace(regular_tree(3), tree=False)
    for fam, n in ((Z2, 7), (t3, 11), (parse_family("hex"), 8)):
        hf = default_height(fam)
        for rep in hf.h_orbits:
            assert count_saws(fam, rep, n, jobs=1) == count_saws(fam, rep, n, jobs=4)
            assert (count_halfspace(fam, hf, rep, n, jobs=1)
                    == count_halfspace(fam, hf, rep, n, jobs=4))
            b1, s1 = count_bridges(fam, hf, rep, n, jobs=1)
            b4, s4 = count_bridges(fam, hf, rep, n, jobs=4)
            assert b1 == b4 and s1 == s4


def _force_pools(monkeypatch):
    """Make the pool open at every size, its break-even patched to 0; the
    returned list gains an entry for each pool opened."""
    import concurrent.futures

    opened = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(walks, "POOL_MIN_WALKS", 0)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    return opened


def test_forced_pool_counts_match_serial(monkeypatch):
    opened = _force_pools(monkeypatch)
    for spec in ("z2", "z3", "hex"):  # hex's height has two representatives
        fam = parse_family(spec)
        hf = default_height(fam)
        serial = build_count_table(fam, hf, 6, jobs=1)
        assert build_count_table(fam, hf, 6, jobs=2) == serial
    assert len(opened) == 3 * (1 + 1 + 2)


def test_forced_pool_budgeted_counts_match_serial(monkeypatch):
    # budgeted counts run through the same pool as unbudgeted ones
    opened = _force_pools(monkeypatch)
    for spec, high_water in (("z2", 6), ("hex", 8)):
        fam = parse_family(spec)
        hf = default_height(fam)
        serial = build_count_table(fam, hf, 9, jobs=1, node_budget=1000)
        assert serial.n_max == high_water
        assert build_count_table(fam, hf, 9, jobs=2, node_budget=1000) == serial
    assert opened


def test_pool_has_no_more_workers_than_representatives(monkeypatch):
    """A pool forks its workers at once, so it asks for no more of them
    than there are prefix representatives: z2's SAWs have 5, at any
    ``jobs``.  The stub executor runs the tasks in process."""
    import concurrent.futures

    workers = []

    class InProcess:
        def __init__(self, max_workers, initializer, initargs):
            workers.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(walks, "POOL_MIN_WALKS", 0)
    monkeypatch.setattr(walks, "_worker_inputs", None)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
    z2 = parse_family("z2")
    assert count_saws(z2, z2.origin, 7, jobs=64) == count_saws(z2, z2.origin, 7, jobs=1)
    assert workers == [5]


def test_small_counts_open_no_pool(monkeypatch):
    # the benchmark's CLI counts at --jobs 2 are below the pool's break-even
    import concurrent.futures

    from sawlab.bounds import locality_report

    def refuse(*args, **kwargs):
        raise AssertionError("a pool was opened")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    for spec, n in (("z3", 9), ("tree:5", 9)):
        fam = parse_family(spec)
        build_count_table(fam, default_height(fam), n, jobs=2)
    z2, cyl = parse_family("z2"), parse_family("zcyl:2:0,10")
    locality_report(z2, default_height(z2), cyl, default_height(cyl), 12, 8, jobs=2)


def _all_counts(fam, hf, rep, n, jobs=1):
    return (count_saws(fam, rep, n, jobs=jobs), count_halfspace(fam, hf, rep, n, jobs=jobs),
            count_bridges(fam, hf, rep, n, jobs=jobs))


def _oracle_counts(fam, hf, rep, n):
    """``_all_counts`` from enumerate_walks, the independent oracle."""
    sigma = [sum(1 for _ in enumerate_walks(fam, None, rep, k, "saw")) for k in range(n + 1)]
    c = [sum(1 for _ in enumerate_walks(fam, hf, rep, k, "halfspace")) for k in range(n + 1)]
    spans = [{} for _ in range(n + 1)]
    for k in range(n + 1):
        for w in enumerate_walks(fam, hf, rep, k, "bridge"):
            s = span(hf, w)
            spans[k][s] = spans[k].get(s, 0) + 1
    b = [sum(t.values()) for t in spans]
    return sigma, c, (b, spans)


@pytest.mark.parametrize("n", [0, 1, 4])
@pytest.mark.parametrize("spec", BUILTIN_FAMILY_SPECS + ("zcyl:2:0,6",))
def test_compiled_and_lazy_sources_match_oracle(spec, n):
    # unmarked as trees, the trees run on the counting kernel too
    fam = dataclasses.replace(parse_family(spec), tree=False)
    hf = default_height(fam)
    for rep in hf.h_orbits:
        assert _all_counts(fam, hf, rep, n) == _oracle_counts(fam, hf, rep, n)


def _hand_built(adjacency, heights):
    """A family on the vertices of ``adjacency`` (a dict of neighbor
    tuples) with origin 0, and the height ``heights[v]``."""
    fam = GraphFamily(spec="hand", neighbors=adjacency.__getitem__, origin=0)
    return fam, HeightFunction(
        spec="hand", evaluate=heights.__getitem__, declared_d=1, declared_r=0,
        h_orbits=(0,), h_orbit_of=lambda v: 0)


@st.composite
def _simple_graphs(draw):
    """A simple graph on at most 12 vertices, the last up to two of them
    isolated, with its neighbor lists in a drawn order, an integer height
    per vertex and a second start vertex."""
    linked = draw(st.integers(1, 10))
    size = linked + draw(st.integers(0, 2))
    vertex = st.integers(0, linked - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                          max_size=18, unique_by=lambda e: frozenset(e)))
    adjacency = {v: () for v in range(size)}
    for a, b in edges:
        adjacency[a] += (b,)
        adjacency[b] += (a,)
    heights = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    return adjacency, heights, draw(st.integers(0, size - 1))


@settings(max_examples=40, deadline=None)
@given(_simple_graphs())
def test_kernel_matches_oracle_on_random_simple_graphs(graph):
    adjacency, heights, other = graph
    fam, hf = _hand_built(adjacency, heights)
    for start in (0, other):
        want_sigma, want_c, (want_b, want_spans) = _oracle_counts(fam, hf, start, 7)
        for n in range(8):
            assert count_saws(fam, start, n) == want_sigma[:n + 1]
            assert count_halfspace(fam, hf, start, n) == want_c[:n + 1]
            assert count_bridges(fam, hf, start, n) == (want_b[:n + 1], want_spans[:n + 1])


def _dfs_high_water(fam, hf, start, n_max, kind, node_budget):
    """The high-water mark of a budget that a plain depth-first search of
    each level in turn charges one unit per call of ``fam.neighbors``: the
    last level whose calls, summed with those of the levels before it, fit.
    Half-space walks and bridges are both grown through half-space walks."""
    h0 = hf.evaluate(start)

    def calls(path, n):
        if len(path) - 1 == n:
            return 0
        return 1 + sum(calls(path + [u], n) for u in fam.neighbors(path[-1])
                       if u not in path and (kind == "saw" or hf.evaluate(u) > h0))

    spent = 0
    for n in range(n_max + 1):
        spent += calls([start], n)
        if spent > node_budget:
            return n - 1
    return n_max


@settings(max_examples=40, deadline=None)
@given(_simple_graphs(),
       # budgets spread over orders of magnitude, one per walk kind
       st.lists(st.integers(0, 12).flatmap(lambda e: st.integers(0, 2 ** e)),
                min_size=3, max_size=3))
def test_budget_charge_equals_the_lookups_of_a_plain_search(graph, budgets):
    adjacency, heights, other = graph
    fam, hf = _hand_built(adjacency, heights)
    for start in (0, other):
        for kind, node_budget in zip(("saw", "halfspace", "bridge"), budgets):
            if kind == "saw":
                got = count_saws(fam, start, 7, node_budget=node_budget)
            elif kind == "halfspace":
                got = count_halfspace(fam, hf, start, 7, node_budget=node_budget)
            else:
                got = count_bridges(fam, hf, start, 7, node_budget=node_budget)[0]
            assert len(got) - 1 == _dfs_high_water(fam, hf, start, 7, kind, node_budget)


@pytest.mark.parametrize("adjacency", [
    {0: (1,), 1: (0, 0, 2), 2: (1,)},  # 1 lists 0 twice
    {0: (0, 1), 1: (0,)},  # 0 lists itself
])
def test_a_vertex_listing_itself_or_a_neighbor_twice_is_rejected(adjacency):
    # counted from set sizes, a repeated or looped neighbor would count as a
    # free step: count_saws gave [1, 1, 2] on the first, for one walk 0-1-2
    fam, hf = _hand_built(adjacency, {0: 0, 1: 1, 2: 2})
    for count in (lambda: count_saws(fam, 0, 2), lambda: count_halfspace(fam, hf, 0, 2),
                  lambda: count_bridges(fam, hf, 0, 2),
                  lambda: count_saws(fam, 0, 2, node_budget=100)):
        with pytest.raises(InvariantViolationError, match="lists a neighbor twice"):
            count()


def test_a_vertex_not_listed_back_is_rejected():
    # the kernel counts a vertex's walk neighbors as the walk vertices that
    # list it, so a one-way row would miscount: 0 lists 2, 2 does not list 0
    fam, hf = _hand_built({0: (1, 2), 1: (0, 2), 2: (1,)}, {0: 0, 1: 1, 2: 2})
    for count in (lambda: count_saws(fam, 0, 3), lambda: count_halfspace(fam, hf, 0, 3),
                  lambda: count_bridges(fam, hf, 0, 3),
                  lambda: count_saws(fam, 0, 3, node_budget=100)):
        with pytest.raises(InvariantViolationError, match="does not list it back"):
            count()


# the half-space start 0 has three higher neighbors: 1 and 2 begin the
# prefixes below, and 3 is reached through 6 at the walk's last steps
_PREFIX_GRAPH = ({0: (1, 2, 3), 1: (0, 2, 4), 2: (0, 1, 5, 6), 3: (0, 6), 4: (1, 5, 7),
                  5: (2, 4, 7), 6: (2, 3, 7), 7: (4, 5, 6)},
                 {0: 0, 1: 1, 2: 1, 3: 2, 4: 2, 5: 1, 6: 3, 7: 2})


@pytest.mark.parametrize("spec, n", [("z2", 6), ("hex", 7), ("hand", 5)])
@pytest.mark.parametrize("mode", ["saw", "halfspace", "bridge"])
def test_count_from_counts_the_extensions_of_each_prefix(spec, n, mode):
    # the pool workers count each prefix on its own: whatever the prefix's
    # length, _count_from(path) counts exactly the walks that extend it; a
    # bridge row is indexed by span and spans every height in the ball, so
    # that the rows of two prefixes add elementwise
    if spec == "hand":
        fam, hf = _hand_built(*_PREFIX_GRAPH)
    else:
        fam = parse_family(spec)
        hf = default_height(fam)
    start = fam.origin
    labels, adj, _ = walks._compile_ball(fam, start, n)
    heights = None
    if mode != "saw":
        adj, heights, _ = walks._height_ball(fam, hf, start, n)
    ids = {v: i for i, v in enumerate(labels)}
    h0 = hf.evaluate(start)
    width = max(map(hf.evaluate, labels)) - h0 + 1 if mode == "bridge" else 1
    by_length = [[w.vertices for w in enumerate_walks(fam, hf, start, d, mode)]
                 for d in range(n + 1)]
    # every prefix of a bridge is a half-space walk
    prefixes = by_length if mode != "bridge" else [
        [w.vertices for w in enumerate_walks(fam, hf, start, d, "halfspace")]
        for d in range(n + 1)]
    checked = 0
    for base in range(n - 3, n + 1):
        for prefix in prefixes[base]:
            want = [[0] * width for _ in range(n + 1)]
            for d in range(base, n + 1):
                for w in by_length[d]:
                    if w[:base + 1] == prefix:
                        want[d][hf.evaluate(w[-1]) - h0 if mode == "bridge" else 0] += 1
            path = [ids[v] for v in prefix]
            assert walks._count_from(adj, heights, path, n, mode) == want
            checked += 1
    assert checked > 4


def test_z4_radius_9_ball_compiles():
    z4 = parse_family("z4")
    labels, adj, perms = walks._compile_ball(z4, z4.origin, 9)
    assert len(labels) == 5641
    assert len(perms) == len(z4.symmetries) == 3
    assert count_saws(z4, z4.origin, 9)[9] == 40_613_816  # OEIS A010575


def _adjacent_swap_generators(n):
    # n generators of z{n}'s signed permutations: the flip of axis 1, the
    # adjacent swaps past axis 0 and the swap of axes 0 and 1
    return (_flip(1), *(_swap(i) for i in range(1, n - 1)), _swap(0))


# heis's automorphisms a -> a^-1, b -> b^-1 and a <-> b, each with c -> c^-1
_HEIS_THREE_AUTOMORPHISMS = (
    lambda v: (-v[0], v[1], -v[2]),
    lambda v: (v[0], -v[1], -v[2]),
    lambda v: (v[1], v[0], v[0] * v[1] - v[2]),
)


@pytest.mark.parametrize("spec, references", [
    *[pytest.param(f"z{n}", (signed_permutations(n), _adjacent_swap_generators(n)), id=str(n))
      for n in (2, 3, 4)],
    pytest.param("heis", (_HEIS_THREE_AUTOMORPHISMS,), id="heis"),
])
def test_hypercubic_generators_give_the_same_prefix_orbits(spec, references):
    # z{n} declares at most three generators of its signed permutations and
    # heis two automorphisms; each set generates the same group as the
    # larger reference sets, and those that keep the height the same
    # subgroup, so the counted prefixes and their weights are the same
    fam = parse_family(spec)
    hf = default_height(fam)
    for filtered in (False, True):
        orbits = []
        for f in (fam, *(dataclasses.replace(fam, symmetries=g) for g in references)):
            if filtered:
                adj, _, perms = walks._height_ball(f, hf, f.origin, 5)
            else:
                _, adj, perms = walks._compile_ball(f, f.origin, 5)
                assert len(perms) == len(f.symmetries)
            prefixes = [(0,)]
            for _ in range(3):
                prefixes = [p + (u,) for p in prefixes for u in adj[p[-1]] if u not in p]
            orbits.append(walks._prefix_orbits(prefixes, perms))
        assert all(o == orbits[0] for o in orbits[1:])
        assert len(orbits[0][0]) < sum(orbits[0][1])


def test_ball_over_budget_is_a_resource_error(monkeypatch):
    z2 = parse_family("z2")
    monkeypatch.setenv("SAWLAB_BUDGET_BALL_VERTICES", "100")
    walks._compile_ball.cache_clear()
    with pytest.raises(ResourceBudgetError, match="exceeds 100 vertices"):
        count_saws(z2, z2.origin, 8)
    # under a node budget the over-cap ball ends the count at the last level
    # whose ball fits: radius 6 has 85 vertices, radius 7 has 113
    walks._compile_ball.cache_clear()
    assert count_saws(z2, z2.origin, 8, node_budget=10**9) == count_saws(Z2, (0, 0), 6)


def test_budgeted_tree_counts_need_no_ball(monkeypatch):
    # a tree is counted from its cone types, with or without a node budget,
    # so the ball cap does not stop it (the radius-5 ball has 94 vertices,
    # the radius-6 one 190)
    t3 = parse_family("tree:3")
    hf = default_height(t3)
    full = build_count_table(t3, hf, 12)
    monkeypatch.setenv("SAWLAB_BUDGET_BALL_VERTICES", "100")
    walks._compile_ball.cache_clear()
    assert build_count_table(t3, hf, 12, node_budget=10**9) == full


def test_negative_length_is_a_usage_error_before_any_work():
    def refuse(v):
        raise AssertionError(f"oracle asked for {v!r}")

    for fam in (Z2, parse_family("tree:3")):
        silent = dataclasses.replace(fam, neighbors=refuse)
        hf = default_height(fam)
        for count in (lambda b: count_saws(silent, fam.origin, -1, node_budget=b),
                      lambda b: count_halfspace(silent, hf, fam.origin, -1, node_budget=b),
                      lambda b: count_bridges(silent, hf, fam.origin, -1, node_budget=b),
                      lambda b: build_count_table(silent, hf, -1, node_budget=b)):
            for node_budget in (None, 10**6):
                with pytest.raises(UsageError, match=r"^n_max must be >= 0$"):
                    count(node_budget)


@pytest.mark.parametrize("spec", ["z1", "z2", "z3", "z4", "heis", "hex", "zcyl:2:0,6",
                                  "zcyl:3:1,1,0"])
def test_symmetry_reduced_counts_match_unreduced(spec):
    fam = parse_family(spec)
    hf = default_height(fam)
    assert walks._compile_ball(fam, fam.origin, 6)[2], "no symmetry survived verification"
    unreduced = _all_counts(dataclasses.replace(fam, symmetries=()), hf, fam.origin, 6)
    for jobs in (1, 2):
        assert _all_counts(fam, hf, fam.origin, 6, jobs) == unreduced
    assert _all_counts(fam, hf, fam.origin, 4) == _oracle_counts(fam, hf, fam.origin, 4)


def _swap_20_02(v):
    return {(2, 0): (0, 2), (0, 2): (2, 0)}.get(v, v)


@pytest.mark.parametrize("spec, g, why", [
    ("hex", lambda v: (v[0], -v[1]), "out of the ball"),
    ("z2", lambda v: (v[0] + 1, v[1]), "moves the origin"),
    ("z2", lambda v: (0, 0), "not a bijection"),
    ("z2", _swap_20_02, "does not preserve adjacency"),
])
def test_bad_symmetry_declarations_are_rejected(spec, g, why):
    fam = dataclasses.replace(parse_family(spec), symmetries=(g,))
    with pytest.raises(InvariantViolationError, match=why):
        count_saws(fam, fam.origin, 5)


def test_one_ball_compile_per_representative():
    z3 = parse_family("z3")
    calls = 0

    def counted(v):
        nonlocal calls
        calls += 1
        return z3.neighbors(v)

    fam = dataclasses.replace(z3, neighbors=counted)
    build_count_table(fam, default_height(fam), 5)
    table_calls, calls = calls, 0
    walks._compile_ball.cache_clear()
    walks._compile_ball(fam, fam.origin, 5)
    assert table_calls == calls > 0


@pytest.mark.parametrize("spec", ["tree:3", "tree:4", "tree:5", "tree:6"])
def test_cone_type_counts_match_kernel_and_oracle(spec):
    fam = parse_family(spec)
    hf = default_height(fam)
    kernel = dataclasses.replace(fam, tree=False)
    expected = _all_counts(kernel, hf, fam.origin, 7)
    assert expected == _oracle_counts(fam, hf, fam.origin, 7)
    for jobs in (1, 2):
        assert _all_counts(fam, hf, fam.origin, 7, jobs) == expected
    # a start other than the origin: its ball and its heights differ
    start = (1, (0,))
    assert _all_counts(fam, hf, start, 6) == _all_counts(kernel, hf, start, 6)


def _hand_tree(adjacency, heights):
    """``_hand_built``'s family, marked as a tree, with the height as its
    default."""
    fam, hf = _hand_built(adjacency, heights)
    return dataclasses.replace(fam, tree=True, height=lambda: hf)


# a star with more leaves than the cone check's cap: the check stops before
# it expands a vertex entered by a step up, so that type has no row
_STAR = range(1, walks.CONE_CHECK_MAX_VERTICES + 1)


@pytest.mark.parametrize("fam, why", [
    (dataclasses.replace(parse_family("z2"), tree=True), "closes a cycle"),
    (dataclasses.replace(parse_family("hex"), tree=True), "closes a cycle"),
    # 1 and 2 are both entered by a step up, but only 1 goes on
    (_hand_tree({0: (1, 2), 1: (0, 3), 2: (0,), 3: (1,)}, {0: 0, 1: 1, 2: 1, 3: 2}),
     "onward steps"),
    (_hand_tree({0: tuple(_STAR), **dict.fromkeys(_STAR, (0,))},
                {0: 0, **dict.fromkeys(_STAR, 1)}),
     "before it expanded"),
], ids=["z2", "hex", "uneven", "star"])
def test_bad_cone_type_declarations_are_rejected(fam, why):
    hf = default_height(fam)
    for count in (lambda: count_saws(fam, fam.origin, 8),
                  lambda: count_halfspace(fam, hf, fam.origin, 8),
                  lambda: count_bridges(fam, hf, fam.origin, 8, jobs=2)):
        walks._cone_ball.cache_clear()
        with pytest.raises(InvariantViolationError, match=why):
            count()


@pytest.mark.parametrize("fam, message", [
    (_hand_tree({0: (1,), 1: (0, 0, 2), 2: (1,)}, {0: 0, 1: 1, 2: 2}),
     "hand: 1 lists the vertex it was reached from 2 times"),
    (_hand_tree({0: (1,), 1: (2,), 2: (1,)}, {0: 0, 1: 1, 2: 2}),
     "hand: 1 lists the vertex it was reached from 0 times"),
    # the cycle is found before the doubled parent is counted
    (_hand_tree({0: (1, 2), 1: (0, 0, 2), 2: (0, 1)}, {0: 0, 1: 1, 2: 2}),
     "hand is marked a tree, but 2 closes a cycle at distance 2 from 0"),
    (dataclasses.replace(parse_family("z2"), tree=True),
     "z2 is marked a tree, but (-1, -1) closes a cycle at distance 2 from (0, 0)"),
    (_hand_tree({0: (1, 2), 1: (0, 3), 2: (0,), 3: (1,)}, {0: 0, 1: 1, 2: 1, 3: 2}),
     "hand: 2 has onward steps {} by height increment, where the first vertex entered "
     "by a step of increment 1 had {1: 1}"),
], ids=["parent-twice", "parent-never", "cycle-first", "z2-cycle", "row"])
def test_cone_check_messages(fam, message):
    walks._cone_ball.cache_clear()
    with pytest.raises(InvariantViolationError, match=f"^{re.escape(message)}$"):
        count_saws(fam, fam.origin, 8)


def test_cone_types_are_checked_against_the_height_used():
    t3 = regular_tree(3)
    hf = default_height(t3)
    doubled = dataclasses.replace(hf, evaluate=lambda v: 2 * hf.evaluate(v))
    with pytest.raises(InvariantViolationError, match="differs"):
        count_halfspace(t3, doubled, t3.origin, 5)


def test_one_cone_check_per_representative():
    # a tree table asks the oracle only for the ball its cone types are
    # checked on, once for all three kinds: no call per walk
    t5 = parse_family("tree:5")
    calls = 0

    def counted(v):
        nonlocal calls
        calls += 1
        return t5.neighbors(v)

    fam = dataclasses.replace(t5, neighbors=counted)
    build_count_table(fam, default_height(fam), 9)
    table_calls, calls = calls, 0
    walks._cone_ball.cache_clear()
    walks._cone_ball(fam, fam.origin)
    assert table_calls == calls < walks.CONE_CHECK_MAX_VERTICES


def test_one_height_check_per_cone_ball():
    # the half-space and bridge counts share one check of the height
    # against the cone ball: one evaluation per ball vertex, plus the start
    t5 = parse_family("tree:5")
    hf = default_height(t5)
    calls = 0

    def counted(v):
        nonlocal calls
        calls += 1
        return hf.evaluate(v)

    build_count_table(t5, dataclasses.replace(hf, evaluate=counted), 9)
    assert calls == len(walks._cone_ball(t5, t5.origin)[0]) + 1


def test_measured_height_is_not_evaluated_again(monkeypatch):
    # the built-in trees' height is the function their cone ball was
    # measured with, so a table evaluates it once per ball vertex in all
    calls = 0

    def counted(v):
        nonlocal calls
        calls += 1
        return len(v[1]) - v[0]

    monkeypatch.setattr("sawlab.heights._horocyclic", counted)
    t5 = parse_family("tree:5")
    walks._cone_ball.cache_clear()
    walks._verify_cones.cache_clear()
    build_count_table(t5, parse_height(t5, "default"), 9)
    assert calls == len(walks._cone_ball(t5, t5.origin)[0])


@given(st.integers(0, 6))
def test_empty_walk_conventions(n):
    sigma = count_saws(Z2, (0, 0), n)
    c = count_halfspace(Z2, HZ2, (0, 0), n)
    b, spans = count_bridges(Z2, HZ2, (0, 0), n)
    assert sigma[0] == c[0] == b[0] == 1
    assert spans[0] == {0: 1}


@given(st.lists(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]), min_size=1, max_size=8))
def test_halfspace_predicate_matches_definition(steps):
    path = [(0, 0)]
    for dx, dy in steps:
        path.append((path[-1][0] + dx, path[-1][1] + dy))
    if len(set(path)) != len(path):
        return
    w = make_walk(Z2, path)
    expected = all(v[0] > 0 for v in path[1:])
    assert is_halfspace(HZ2, w) == expected
    if expected:
        dec = decompose(HZ2, w)
        assert sum(dec.spans) <= len(steps)
