"""Lazy vertex oracles for infinite, locally finite, quasi-transitive graphs.

A family is represented by canonical vertex labels plus a pure neighbor
function, so arbitrarily large graphs can be explored without materializing
them.  All built-in families are vertex-transitive.  Each built-in family
carries its default height; the height's orbits, which may be finer than
the family's one orbit, live in :mod:`sawlab.heights`.

Built-ins and their labels:

* ``z{n}``        hypercubic lattice, labels are n-tuples of ints;
* ``tree:{d}``    d-regular tree suspended from a fixed ray, labels are
                  ``(ray_index, child_path)`` so the horocyclic height is
                  ``len(child_path) - ray_index``;
* ``hex``         hexagonal lattice as a brick wall on Z^2 (E/W edges always,
                  N edge when x+y is even), degree 3;
* ``squareoct``   square/octagon (4.8.8) lattice as cells (i, j) with corner
                  labels 0..3 = E, N, W, S;
* ``heis``        Cayley graph of the discrete Heisenberg group on Z^3 with
                  right multiplication by the six standard generators;
* ``zcyl:{n}:{v}`` cylinder quotient Z^n / <v> (built in sawlab.quotient).

Neighbor lists are returned sorted, so enumeration order is reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import islice
from typing import Callable

from .errors import MalformedLabelError, ResourceBudgetError, UsageError, budget

Label = tuple


@dataclass(frozen=True)
class ConeTypes:
    """Step types of a graph whose walks never close a cycle.

    In such a graph every SAW is a non-backtracking walk, so how a walk may
    continue depends only on the type of its last step.  A step of type k
    changes the family's default height (``heights.default_height``) by
    ``increments[k]``; ``start[k]`` steps of type k leave the start vertex,
    and ``follow[j][k]`` steps of type k may follow a step of type j.  A
    step's type is read off its increment, so the increments are distinct.
    """

    names: tuple[str, ...]
    increments: tuple[int, ...]
    start: tuple[int, ...]
    follow: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class GraphFamily:
    """Lazy oracle for one infinite graph.

    ``spec`` is the parseable name (see :func:`parse_family`); it is what
    reports carry.  ``height`` builds the family's default height (see
    ``heights.default_height``); it is None for a family built by hand.
    ``symmetries`` holds generators, as label maps, of graph automorphisms
    that fix the origin, and ``cone_types`` the step types of a family whose
    balls are trees (see :class:`ConeTypes`).  The counters verify both on a
    ball before they use them and never trust the declaration.
    """

    spec: str
    neighbors: Callable[[Label], tuple[Label, ...]] = field(repr=False)
    origin: Label
    symmetries: tuple[Callable[[Label], Label], ...] = field(default=(), repr=False)
    cone_types: ConeTypes | None = field(default=None, repr=False)
    height: Callable[[], object] | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class Ball:
    """Induced subgraph of all vertices within ``radius`` of ``root``."""

    root: Label
    radius: int
    vertices: tuple[Label, ...]
    edges: tuple[tuple[Label, Label], ...]
    dist: dict = field(repr=False)

    def vertex_count(self) -> int:
        return len(self.vertices)

    def edge_count(self) -> int:
        return len(self.edges)


def _malformed(label, family: str, why: str) -> MalformedLabelError:
    return MalformedLabelError(f"{family}: bad label {label!r}: {why}")


def _require(cond: bool, label, family: str, why: str) -> None:
    if not cond:
        raise _malformed(label, family, why)


def _check_int_tuple(v, n: int, family: str) -> None:
    # a message that needs formatting is built only when the check fails
    if not (isinstance(v, tuple) and len(v) == n):
        raise _malformed(v, family, f"expected {n}-tuple")
    _require(all(isinstance(c, int) and not isinstance(c, bool) for c in v), v, family,
             "coordinates must be ints")


def _flip(i: int) -> Callable[[Label], Label]:
    return lambda v: v[:i] + (-v[i],) + v[i + 1:]


def _swap(i: int) -> Callable[[Label], Label]:
    return lambda v: v[:i] + (v[i + 1], v[i]) + v[i + 2:]


def signed_permutations(n: int) -> tuple[Callable[[Label], Label], ...]:
    """Generators of the signed permutations of Z^n's axes, as label maps:
    each axis flip and each transposition of adjacent axes."""
    return tuple(_flip(i) for i in range(n)) + tuple(_swap(i) for i in range(n - 1))


def hypercubic(n: int) -> GraphFamily:
    """The lattice Z^n with nearest-neighbor adjacency."""
    from .heights import first_coordinate_height
    if n < 1:
        raise UsageError("hypercubic dimension must be >= 1")
    spec = f"z{n}"

    @cache
    def neighbors(v: Label) -> tuple[Label, ...]:
        _check_int_tuple(v, n, spec)
        out = []
        for i in range(n):
            for s in (1, -1):
                out.append(v[:i] + (v[i] + s,) + v[i + 1:])
        return tuple(sorted(out))

    origin = (0,) * n
    return GraphFamily(spec=spec, neighbors=neighbors, origin=origin,
                       symmetries=signed_permutations(n),
                       height=partial(first_coordinate_height, n))


def regular_tree(d: int) -> GraphFamily:
    """The d-regular tree suspended from a fixed ray.

    Labels are ``(j, path)``: follow the ray to its j-th vertex, then descend
    along ``path`` (tuples of child indices).  Each vertex has one neighbor
    one level closer to the ray's end and d-1 neighbors one level further.
    Its cone types: a step up (toward the ray's end, height -1) may be
    followed by one more step up or by d-2 steps down, a step down (+1)
    only by d-1 steps down.
    """
    from .heights import horocyclic_height
    if d < 3:
        raise UsageError("regular tree needs degree >= 3")
    spec = f"tree:{d}"

    def check(v) -> None:
        _require(isinstance(v, tuple) and len(v) == 2, v, spec, "expected (ray_index, path)")
        j, path = v
        _require(isinstance(j, int) and j >= 0, v, spec, "ray index must be a non-negative int")
        _require(isinstance(path, tuple), v, spec, "path must be a tuple")
        for k, c in enumerate(path):
            hi = (d - 1) if (j == 0 or k > 0) else (d - 2)
            if not (isinstance(c, int) and 0 <= c < hi):
                raise _malformed(v, spec, f"child index {c} out of range")

    # uncached: tree vertices are never revisited during enumeration, and
    # the lists below are constructed in sorted order (a path prefix sorts
    # before its extensions, smaller ray indices first)
    def neighbors(v: Label) -> tuple[Label, ...]:
        check(v)
        j, path = v
        if path:
            out = [(j, path[:-1])]
            out.extend((j, path + (c,)) for c in range(d - 1))
        elif j >= 1:
            out = [(j - 1, ())]
            out.extend((j, (c,)) for c in range(d - 2))
            out.append((j + 1, ()))
        else:
            out = [(0, (c,)) for c in range(d - 1)]
            out.append((1, ()))
        return tuple(out)

    origin = (0, ())
    cone_types = ConeTypes(names=("up", "down"), increments=(-1, 1),
                           start=(1, d - 1), follow=((1, d - 2), (0, d - 1)))
    return GraphFamily(spec=spec, neighbors=neighbors, origin=origin,
                       cone_types=cone_types, height=horocyclic_height)


def hexagonal() -> GraphFamily:
    """Hexagonal lattice in brick-wall coordinates on Z^2 (degree 3).

    The declared symmetry is the reflection (x, y) -> (-x, y), which keeps
    the brick pattern because x+y and -x+y have the same parity.
    """
    from .heights import hexagonal_height
    spec = "hex"

    @cache
    def neighbors(v: Label) -> tuple[Label, ...]:
        _check_int_tuple(v, 2, spec)
        x, y = v
        out = [(x + 1, y), (x - 1, y)]
        if (x + y) % 2 == 0:
            out.append((x, y + 1))
        else:
            out.append((x, y - 1))
        return tuple(sorted(out))

    origin = (0, 0)
    return GraphFamily(spec=spec, neighbors=neighbors, origin=origin,
                       symmetries=(lambda v: (-v[0], v[1]),),
                       height=hexagonal_height)


# Corner codes for the square/octagon lattice: cell (i, j) is a small square
# (drawn as a diamond) whose corners E, N, W, S carry horizontal offsets
# +1, 0, -1, 0 inside the cell.
SQUAREOCT_CORNERS = ("E", "N", "W", "S")
_SO_E, _SO_N, _SO_W, _SO_S = range(4)


def square_octagon() -> GraphFamily:
    """Square/octagon (4.8.8) lattice: squares joined by octagon edges."""
    from .heights import square_octagon_height
    spec = "squareoct"

    @cache
    def neighbors(v: Label) -> tuple[Label, ...]:
        _require(isinstance(v, tuple) and len(v) == 3, v, spec, "expected (i, j, corner)")
        i, j, k = v
        _require(all(isinstance(c, int) and not isinstance(c, bool) for c in v), v, spec,
                 "coordinates must be ints")
        _require(0 <= k <= 3, v, spec, "corner must be in 0..3")
        if k == _SO_E:
            out = [(i, j, _SO_N), (i, j, _SO_S), (i + 1, j, _SO_W)]
        elif k == _SO_N:
            out = [(i, j, _SO_E), (i, j, _SO_W), (i, j + 1, _SO_S)]
        elif k == _SO_W:
            out = [(i, j, _SO_N), (i, j, _SO_S), (i - 1, j, _SO_E)]
        else:
            out = [(i, j, _SO_E), (i, j, _SO_W), (i, j - 1, _SO_N)]
        return tuple(sorted(out))

    origin = (0, 0, _SO_N)
    return GraphFamily(spec=spec, neighbors=neighbors, origin=origin,
                       height=square_octagon_height)


def heisenberg() -> GraphFamily:
    """Cayley graph of the discrete Heisenberg group.

    Vertices (x, y, z) stand for the upper unitriangular matrix with x, y on
    the superdiagonal and z in the corner; edges are right multiplication by
    the three generators and their inverses.  The declared symmetries are
    group automorphisms that permute the generators: a -> a^-1 with
    c -> c^-1, b -> b^-1 with c -> c^-1, and a <-> b with c -> c^-1.
    """
    from .heights import heisenberg_height
    spec = "heis"

    @cache
    def neighbors(v: Label) -> tuple[Label, ...]:
        _check_int_tuple(v, 3, spec)
        x, y, z = v
        out = [
            (x + 1, y, z),
            (x - 1, y, z),
            (x, y + 1, z + x),
            (x, y - 1, z - x),
            (x, y, z + 1),
            (x, y, z - 1),
        ]
        return tuple(sorted(out))

    origin = (0, 0, 0)
    symmetries = (
        lambda v: (-v[0], v[1], -v[2]),
        lambda v: (v[0], -v[1], -v[2]),
        lambda v: (v[1], v[0], v[0] * v[1] - v[2]),
    )
    return GraphFamily(spec=spec, neighbors=neighbors, origin=origin,
                       symmetries=symmetries, height=heisenberg_height)


def ball_ids(family: GraphFamily, start: Label, radius: int,
             cap: int) -> tuple[dict, list]:
    """Breadth-first search of the radius ball around ``start``.

    Returns ``(ids, adj)``: ``ids`` maps each vertex of the ball to its int
    id in breadth-first order, start first, and ``adj[i]`` holds the ids of
    vertex i's neighbors in the oracle's order.  Only the vertices closer
    than ``radius`` are expanded, so they are the ones with an ``adj`` entry
    and the oracle is called once for each of them.  Raises
    ResourceBudgetError as soon as the ball has more than ``cap`` vertices.
    """
    ids = {start: 0}
    adj = []
    level = [start]
    for _ in range(radius):
        first = len(ids)
        for v in level:
            # a vertex seen for the first time takes the next id
            adj.append(tuple([ids.setdefault(u, len(ids)) for u in family.neighbors(v)]))
            if len(ids) > cap:
                raise ResourceBudgetError(
                    f"ball({family.spec}, r={radius}) around {start!r} exceeds {cap} vertices")
        level = list(islice(ids, first, None))
    return ids, adj


def ball(family: GraphFamily, center: Label, radius: int,
         max_vertices: int | None = None) -> Ball:
    """Breadth-first closure of ``center`` to the given radius, with the
    complete induced edge set (see :func:`ball_ids`)."""
    if radius < 0:
        raise UsageError("ball radius must be >= 0")
    cap = budget("BALL_VERTICES") if max_vertices is None else max_vertices
    ids, adj = ball_ids(family, center, radius, cap)
    vertices = tuple(ids)
    # the sphere was not expanded: one more oracle call per sphere vertex
    # gives its edges inside the ball
    adj += [[ids[u] for u in family.neighbors(v) if u in ids] for v in vertices[len(adj):]]
    # a vertex is one step further out than its lowest-id neighbor
    depth = [0] * len(vertices)
    edges = []
    for i, nb in enumerate(adj):
        v = vertices[i]
        for j in nb:
            if j > i and not depth[j]:
                depth[j] = depth[i] + 1
            if v < vertices[j]:
                edges.append((v, vertices[j]))
    return Ball(root=center, radius=radius, vertices=vertices,
                edges=tuple(sorted(edges)), dist=dict(zip(vertices, depth)))


def _spec_int(text: str, spec: str, signed: bool = False) -> int:
    try:
        if re.fullmatch("-?[0-9]+" if signed else "[0-9]+", text):
            return int(text)
    except ValueError:  # more digits than int() converts
        pass
    raise UsageError(f"bad integer {text!r} in family spec {spec!r}")


def parse_family(spec: str) -> GraphFamily:
    """Resolve a family spec string (``z2``, ``tree:3``, ``hex``,
    ``squareoct``, ``heis``, ``zcyl:n:v1,v2,...``).

    This is the one reader of spec strings.  Their integers are ASCII
    digits, with a minus sign allowed in a cylinder's shift only.
    """
    spec = spec.strip()
    kind, colon, args = spec.partition(":")
    if re.fullmatch("z[0-9]+", spec):
        n = _spec_int(spec[1:], spec)
        if not 1 <= n <= 4:
            raise UsageError("built-in hypercubic lattices are z1..z4")
        return hypercubic(n)
    if kind == "tree" and colon:
        d = _spec_int(args, spec)
        if not 3 <= d <= 6:
            raise UsageError("built-in regular trees are tree:3..tree:6")
        return regular_tree(d)
    if spec == "hex":
        return hexagonal()
    if spec == "squareoct":
        return square_octagon()
    if spec == "heis":
        return heisenberg()
    if kind == "zcyl" and colon:
        parts = args.split(":")
        if len(parts) != 2:
            raise UsageError("cylinder spec is zcyl:n:v1,v2,...")
        from .quotient import cylinder
        return cylinder(_spec_int(parts[0], spec),
                        tuple(_spec_int(c, spec, signed=True) for c in parts[1].split(",")))
    raise UsageError(f"unknown family spec {spec!r}")


BUILTIN_FAMILY_SPECS = (
    "z1", "z2", "z3", "z4",
    "tree:3", "tree:4", "tree:5", "tree:6",
    "hex", "squareoct", "heis",
)
