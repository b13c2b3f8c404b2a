"""Graph family oracles: canonical labels, neighbor structure, balls."""

import dataclasses
import itertools

import pytest
from hypothesis import example, given, strategies as st

from sawlab import walks
from sawlab.bounds import ball_isomorphic, similarity_K
from sawlab.errors import MalformedLabelError, ResourceBudgetError, UsageError
from sawlab.families import (
    BUILTIN_FAMILY_SPECS,
    GraphFamily,
    ball,
    heisenberg,
    hypercubic,
    parse_family,
    regular_tree,
    square_octagon,
)
from sawlab.heights import default_height

ALL_SPECS = BUILTIN_FAMILY_SPECS + ("zcyl:2:0,6",)


def sample_vertices(family, count=40, depth=6):
    """Deterministic scatter of vertices: walks with rotating neighbor
    choices plus straight rays in each direction from the origin."""
    out = [family.origin]
    for k in range(count - 1):
        v = family.origin
        for step in range(1 + k % depth):
            nbrs = family.neighbors(v)
            v = nbrs[(k + step * step) % len(nbrs)]
        out.append(v)
    ray_len = max(2, count // (2 * len(family.neighbors(family.origin))))
    for idx in range(len(family.neighbors(family.origin))):
        v = family.origin
        prev = None
        for _ in range(ray_len):
            nbrs = [u for u in family.neighbors(v) if u != prev]
            prev, v = v, nbrs[idx % len(nbrs)]
            out.append(v)
    return list(dict.fromkeys(out))


def test_z2_neighbors_exact():
    z2 = hypercubic(2)
    assert set(z2.neighbors((0, 0))) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert set(z2.neighbors((3, -2))) == {(4, -2), (2, -2), (3, -1), (3, -3)}


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_neighbor_lists_are_sorted(spec):
    fam = parse_family(spec)
    for v in sample_vertices(fam, 20):
        nb = fam.neighbors(v)
        assert list(nb) == sorted(set(nb)), v


def test_tree_neighbor_structure():
    t3 = regular_tree(3)
    nbrs = t3.neighbors((0, ()))
    assert len(nbrs) == 3
    heights = sorted(len(p) - j for j, p in nbrs)
    assert heights == [-1, 1, 1]
    # deep ray vertex: one ray child, one subtree child, one parent
    nbrs = t3.neighbors((2, ()))
    assert set(nbrs) == {(3, ()), (1, ()), (2, (0,))}


def test_heisenberg_right_multiplication():
    he = heisenberg()
    assert set(he.neighbors((0, 0, 0))) == {
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)}
    # the y-generator twists z by x
    assert (2, 4, 9 + 2) in he.neighbors((2, 3, 9))
    assert (2, 2, 9 - 2) in he.neighbors((2, 3, 9))


def test_square_octagon_degree_and_faces():
    so = square_octagon()
    for v in sample_vertices(so, 30):
        assert len(so.neighbors(v)) == 3
    # square face: the four corners of a cell form a 4-cycle
    cell = [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3)]
    for a, b in itertools.combinations(cell, 2):
        adjacent = a in so.neighbors(b)
        expected = (a[2] - b[2]) % 2 == 1  # E-N, N-W, W-S, S-E adjacent
        assert adjacent == expected


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_neighbor_symmetry_and_degree(spec):
    fam = parse_family(spec)
    pairs = 0
    degree = len(fam.neighbors(fam.origin))
    for v in sample_vertices(fam, 800, depth=12):
        nbrs = fam.neighbors(v)
        assert len(set(nbrs)) == len(nbrs), "duplicate neighbor"
        assert v not in nbrs, "self-loop"
        assert len(nbrs) == degree
        for u in nbrs:
            assert v in fam.neighbors(u)
            pairs += 1
    # Z^1's scatter collapses onto a short segment; everywhere else the
    # sample covers at least a thousand ordered edge pairs
    assert pairs >= (600 if spec == "z1" else 1000)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_degree_constant_on_orbits(spec):
    # every built-in is vertex-transitive: one orbit, the origin's
    fam = parse_family(spec)
    degree = len(fam.neighbors(fam.origin))
    for v in sample_vertices(fam, 50):
        assert len(fam.neighbors(v)) == degree


def test_ball_examples():
    z2 = hypercubic(2)
    b1 = ball(z2, (0, 0), 1)
    assert len(b1.vertices) == 5 and len(b1.edges) == 4
    b2 = ball(z2, (0, 0), 2)
    assert len(b2.vertices) == 13 and len(b2.edges) == 16
    b0 = ball(z2, (5, 7), 0)
    assert len(b0.vertices) == 1 and len(b0.edges) == 0


@pytest.mark.parametrize("spec", ["z2", "tree:3", "hex", "squareoct", "heis"])
def test_ball_nesting(spec):
    fam = parse_family(spec)
    prev = ball(fam, fam.origin, 0)
    for r in range(1, 4):
        cur = ball(fam, fam.origin, r)
        assert set(prev.vertices) <= set(cur.vertices)
        assert set(prev.edges) <= set(cur.edges)
        assert all(cur.dist[v] <= r for v in cur.vertices)
        for u, v in cur.edges:
            assert abs(cur.dist[u] - cur.dist[v]) <= 1
        prev = cur


def test_ball_budget(monkeypatch):
    z2 = hypercubic(2)
    monkeypatch.setenv("SAWLAB_BUDGET_BALL_VERTICES", "100")
    with pytest.raises(ResourceBudgetError):
        ball(z2, (0, 0), 50)


def test_over_cap_ball_names_the_radius_that_crossed_the_cap(monkeypatch):
    # radius 6 of z2 has 85 vertices, radius 7 has 113: each reader of a
    # ball stops there and says so, whatever radius it asked for
    z2 = hypercubic(2)
    monkeypatch.setenv("SAWLAB_BUDGET_BALL_VERTICES", "100")
    walks._compile_ball.cache_clear()
    for read in (lambda: ball(z2, z2.origin, 50), lambda: walks.count_saws(z2, z2.origin, 50),
                 lambda: similarity_K(z2, z2, 50)):
        with pytest.raises(ResourceBudgetError,
                           match=r"^ball\(z2, r=7\) around \(0, 0\) exceeds 100 vertices$"):
            read()


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_orbit_soundness_radius3_balls(spec):
    fam = parse_family(spec)
    vs = sample_vertices(fam, 12)
    base = ball(fam, vs[0], 3)
    for v in vs[1:4]:
        assert ball_isomorphic(base, ball(fam, v, 3)), (vs[0], v)


def test_malformed_labels_rejected():
    z2 = hypercubic(2)
    for bad in [(0,), (0, 0, 0), ("a", 0), (0.5, 1), None]:
        with pytest.raises((MalformedLabelError, TypeError)):
            z2.neighbors(bad)
    t3 = regular_tree(3)
    for bad in [(0, (5,)), (-1, ()), (1, (3,)), ((), ()), (1.0, ()), (0, (0.0,)), [0, ()],
                (0, [0]), (0, (), 0)]:
        with pytest.raises(MalformedLabelError):
            t3.neighbors(bad)
    # the messages that are formatted only when a check fails
    with pytest.raises(MalformedLabelError, match=r"^z2: bad label \(0,\): expected 2-tuple$"):
        z2.neighbors((0,))
    with pytest.raises(MalformedLabelError,
                       match=r"^tree:3: bad label \(1, \(0, 2\)\): child index 2 out of range$"):
        t3.neighbors((1, (0, 2)))
    # a bool equals an int of its value, but no label holds one
    with pytest.raises(MalformedLabelError,
                       match=r"^tree:3: bad label \(True, \(\)\): ray index must be a "
                             r"non-negative int$"):
        t3.neighbors((True, ()))
    with pytest.raises(MalformedLabelError,
                       match=r"^tree:3: bad label \(0, \(True,\)\): child index True out of range$"):
        t3.neighbors((0, (True,)))
    so = square_octagon()
    with pytest.raises(MalformedLabelError):
        so.neighbors((0, 0, 7))
    cyl = parse_family("zcyl:2:0,6")
    for bad in [(0,), (0, 0, 0), ("a", 0), (0.5, 1), (0, 6)]:
        with pytest.raises(MalformedLabelError):
            cyl.neighbors(bad)


# every lattice oracle with the length of its labels
LATTICE_ORACLES = {"z1": 1, "z2": 2, "z3": 3, "z4": 4, "hex": 2, "heis": 3, "squareoct": 3,
                   "zcyl:2:0,6": 2, "zcyl:3:1,1,0": 3}


def _bad_lattice_labels(spec, n):
    """Labels that no lattice oracle accepts, each with the message it
    raises: bools, floats, lists, None and tuples one too short or long."""
    shape = "expected (i, j, corner)" if spec == "squareoct" else f"expected {n}-tuple"
    ints = "coordinates must be ints"
    zero = (0,) * (n - 1)
    cases = [((True,) + zero, ints), (zero + (False,), ints), ((0.0,) + zero, ints),
             (zero + (0.5,), ints), (("0",) + zero, ints), ([0] * n, shape), (None, shape),
             ((0,) * (n - 1), shape), ((0,) * (n + 1), shape)]
    if spec == "squareoct":
        cases += [((0, 0, -1), "corner must be in 0..3"), ((0, 0, 4), "corner must be in 0..3"),
                  ((0, -3, 7), "corner must be in 0..3")]
    return [(v, f"{spec}: bad label {v!r}: {why}") for v, why in cases]


@pytest.mark.parametrize("spec", LATTICE_ORACLES)
def test_lattice_oracles_reject_bad_labels_with_their_messages(spec):
    fam = parse_family(spec)
    bad = _bad_lattice_labels(spec, LATTICE_ORACLES[spec])
    if spec.startswith("zcyl"):
        bad += [(v, f"{spec}: label {v!r} is not reduced")
                for v in ([(0, 6), (0, -1), (1, 12)] if spec == "zcyl:2:0,6"
                          else [(1, 0, 0), (-1, 5, 5)])]
    for v, message in bad:
        with pytest.raises(MalformedLabelError) as err:
            fam.neighbors(v)
        assert str(err.value) == message


class _Int(int):
    """An int subclass other than bool: labels may hold it."""


def _independent_rows(spec, v):
    # each family's definition, sorted afterwards
    if spec == "hex":
        x, y = v
        return sorted([(x + 1, y), (x - 1, y), (x, y + 1 if (x + y) % 2 == 0 else y - 1)])
    if spec == "heis":
        x, y, z = v
        return sorted([(x + 1, y, z), (x - 1, y, z), (x, y + 1, z + x), (x, y - 1, z - x),
                       (x, y, z + 1), (x, y, z - 1)])
    if spec == "squareoct":
        i, j, k = v
        step = {0: (i + 1, j, 2), 1: (i, j + 1, 3), 2: (i - 1, j, 0), 3: (i, j - 1, 1)}[k]
        return sorted([(i, j, (k + 1) % 4), (i, j, (k + 3) % 4), step])
    rows = [v[:i] + (v[i] + s,) + v[i + 1:] for i in range(len(v)) for s in (-1, 1)]
    if spec.startswith("zcyl"):
        shift = tuple(map(int, spec.split(":")[2].split(",")))
        p = next(i for i, c in enumerate(shift) if c)

        def reduce(u):
            q = u[p] // shift[p]
            return tuple(a - q * b for a, b in zip(u, shift))
        rows = set(map(reduce, rows)) - {v}
    return sorted(rows)


def _far_labels(spec, n):
    big = 10 ** 15
    if spec == "squareoct":
        return [(-big, -big - 1, k) for k in range(4)] + [(-7, big, k) for k in range(4)]
    if spec.startswith("zcyl"):
        # the coordinate of the shift's first entry that is not zero stays
        # reduced: zcyl:2:0,6 keeps y in 0..5, zcyl:3:1,1,0 keeps x at 0
        return ([(-big, 0), (-big + 1, 5), (big, 3)] if n == 2
                else [(0, -big, -big - 1), (0, big, -3)])
    return [tuple(-big - i for i in range(n)), tuple((-1) ** i * big + i for i in range(n))]


@pytest.mark.parametrize("spec", LATTICE_ORACLES)
def test_lattice_rows_match_a_sorted_construction(spec):
    fam = parse_family(spec)
    n = LATTICE_ORACLES[spec]
    for v in _far_labels(spec, n) + sample_vertices(fam, 12):
        rows = fam.neighbors(v)
        assert type(rows) is tuple and list(rows) == _independent_rows(spec, v), v
        # an int subclass that is not a bool is accepted, with the same rows
        assert fam.neighbors(tuple(map(_Int, v))) == rows, v


def test_parse_family_errors():
    with pytest.raises(UsageError):
        parse_family("z9")
    with pytest.raises(UsageError):
        parse_family("tree:2")
    with pytest.raises(UsageError):
        parse_family("nosuch")


SPEC_FRAGMENTS = ("z", "tree:", "zcyl:", "hex", "0", "1", "2", "3", "6", "10", ",", ":", "-",
                  "\u00b2", "\u0661", "\u0663", " ")


@given(st.lists(st.sampled_from(SPEC_FRAGMENTS), max_size=8).map("".join))
@example("z\u00b2")
@example("z\u0661")
@example("tree:\u0663")
@example("zcyl:2:-1,2")
def test_parse_family_gives_a_family_or_a_usage_error(text):
    try:
        fam = parse_family(text)
    except UsageError:
        return
    assert isinstance(fam, GraphFamily)
    # integers in a spec are ASCII, and the family's spec reads back as itself
    assert text.strip().isascii()
    assert parse_family(fam.spec).spec == fam.spec
    assert default_height(fam).evaluate(fam.origin) == 0


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_ball_queries_the_oracle_once_per_vertex(spec):
    fam = parse_family(spec)
    calls = []
    counted = dataclasses.replace(fam, neighbors=lambda v: calls.append(v) or fam.neighbors(v))
    b = ball(counted, fam.origin, 3)
    assert sorted(calls) == sorted(b.vertices)
    # each vertex keeps the oracle's own list, sphere vertices included
    assert b.neighbors == {v: fam.neighbors(v) for v in b.vertices}
    inside = set(b.vertices)
    assert set(b.edges) == {(v, u) for v in inside for u in fam.neighbors(v) if u in inside and v < u}
    # dist is the breadth-first distance: one more than the nearest neighbor's
    near = {v: [] for v in inside}
    for u, v in b.edges:
        near[u].append(b.dist[v])
        near[v].append(b.dist[u])
    assert b.dist[fam.origin] == 0
    assert all(b.dist[v] == 1 + min(near[v]) for v in inside if v != fam.origin)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_oracles_keep_no_memory(spec):
    # a ball keeps the lists its readers need; an oracle remembers nothing
    assert not hasattr(parse_family(spec).neighbors, "cache_info")


@given(st.tuples(st.integers(-20, 20), st.integers(-20, 20)))
def test_hex_degree_everywhere(v):
    hx = parse_family("hex")
    nbrs = hx.neighbors(v)
    assert len(nbrs) == 3
    for u in nbrs:
        assert v in hx.neighbors(u)
