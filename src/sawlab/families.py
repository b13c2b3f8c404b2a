"""Lazy vertex oracles for infinite, locally finite, quasi-transitive graphs.

A family is represented by canonical vertex labels plus a pure neighbor
function, so arbitrarily large graphs can be explored without materializing
them.  The oracles keep no memory of their answers; a :class:`Ball` keeps
the neighbor list of each of its vertices, and its readers use that.  All
built-in families are vertex-transitive.  Each built-in family carries its
default height; the height's orbits, which may be finer than the family's
one orbit, live in :mod:`sawlab.heights`.

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

import json
import re
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Callable, Iterator

from .errors import MalformedLabelError, ResourceBudgetError, UsageError, budget

Label = tuple


@dataclass(frozen=True)
class GraphFamily:
    """Lazy oracle for one infinite graph.

    ``spec`` is the parseable name (see :func:`parse_family`); it is what
    reports carry.  ``neighbors`` is a pure function that remembers nothing:
    a caller that reads a list twice keeps it, as :func:`ball` does.
    ``height`` builds the family's default height (see
    ``heights.default_height``); it is None for a family built by hand.
    ``symmetries`` holds generators, as label maps, of graph automorphisms
    that fix the origin, and ``tree`` says the graph is a tree, to be
    counted by the cone types the counters measure on a ball around each
    start.  The counters verify both on a ball before they use them and
    never trust the declaration.
    """

    spec: str
    neighbors: Callable[[Label], tuple[Label, ...]] = field(repr=False)
    origin: Label
    symmetries: tuple[Callable[[Label], Label], ...] = field(default=(), repr=False)
    tree: bool = field(default=False, repr=False)
    height: Callable[[], object] | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class Ball:
    """All vertices within ``radius`` of ``root``, each with the oracle's
    neighbor list, which for a sphere vertex reaches outside the ball."""

    root: Label
    radius: int
    vertices: tuple[Label, ...]
    neighbors: dict = field(repr=False)
    dist: dict = field(repr=False)

    @property
    def edges(self) -> tuple[tuple[Label, Label], ...]:
        """The induced edges ``(u, v)`` with u < v, sorted."""
        return tuple(sorted((v, u) for v, nb in self.neighbors.items()
                            for u in nb if v < u and u in self.dist))


def _malformed(label, family: str, why: str) -> MalformedLabelError:
    return MalformedLabelError(f"{family}: bad label {label!r}: {why}")


def _require(cond: bool, label, family: str, why: str) -> None:
    if not cond:
        raise _malformed(label, family, why)


# the type test of a label of exact ints: ``_EXACT_INT.issuperset(map(type, v))``
_EXACT_INT = frozenset((int,))


def _check_int_tuple(v, n: int, family: str) -> None:
    # a tuple of n exact ints passes one test; any other label takes the
    # checks below, and a message is formatted only when one fails
    if type(v) is tuple and len(v) == n and _EXACT_INT.issuperset(map(type, v)):
        return
    if not (isinstance(v, tuple) and len(v) == n):
        raise _malformed(v, family, f"expected {n}-tuple")
    _require(all(isinstance(c, int) and not isinstance(c, bool) for c in v), v, family,
             "coordinates must be ints")


def _lattice_rows(v: Label) -> tuple[Label, ...]:
    """The neighbors of v in Z^n, built by changing one list copy of v, in
    sorted order: v - e_0 < ... < v - e_{n-1} < v + e_{n-1} < ... < v + e_0."""
    w = list(v)
    out = [None] * (2 * len(w))
    for i, c in enumerate(v):
        w[i] = c - 1
        out[i] = tuple(w)
        w[i] = c + 1
        out[~i] = tuple(w)
        w[i] = c
    return tuple(out)


# each label map below changes one list copy of its label
def _flip(i: int) -> Callable[[Label], Label]:
    def flip(v: Label) -> Label:
        w = list(v)
        w[i] = -w[i]
        return tuple(w)
    return flip


def _swap(i: int) -> Callable[[Label], Label]:
    def swap(v: Label) -> Label:
        w = list(v)
        w[i], w[i + 1] = w[i + 1], w[i]
        return tuple(w)
    return swap


def _turn(v: Label) -> Label:
    # the flip of axis 1 after rotating axes 1..n-1 one place:
    # (v0, v1, ..., v_{n-1}) -> (v0, -v_{n-1}, v1, ..., v_{n-2})
    w = list(v)
    w.insert(1, -w.pop())
    return tuple(w)


def signed_permutations(n: int) -> tuple[Callable[[Label], Label], ...]:
    """Generators of the signed permutations of Z^n's axes, as label maps:
    each axis flip and each transposition of adjacent axes."""
    return tuple(_flip(i) for i in range(n)) + tuple(_swap(i) for i in range(n - 1))


def _hypercubic_symmetries(n: int) -> tuple[Callable[[Label], Label], ...]:
    """The group of :func:`signed_permutations` from at most three
    generators: :func:`_turn`, the swap of axes 1 and 2 and the swap of
    axes 0 and 1 (z1 keeps its one flip; in z2, with no axis 2, the turn is
    the flip of axis 1).  The ones that fix axis 0, all but the last,
    generate every signed permutation of the other axes, as a search of the
    group's elements confirms for n = 2..8."""
    if n == 1:
        return (_flip(0),)
    if n == 2:
        return (_turn, _swap(0))
    return (_turn, _swap(1), _swap(0))


def hypercubic(n: int) -> GraphFamily:
    """The lattice Z^n with nearest-neighbor adjacency."""
    from .heights import first_coordinate_height
    if n < 1:
        raise UsageError("hypercubic dimension must be >= 1")
    spec = f"z{n}"

    def neighbors(v: Label) -> tuple[Label, ...]:
        _check_int_tuple(v, n, spec)
        return _lattice_rows(v)

    origin = (0,) * n
    return GraphFamily(spec=spec, neighbors=neighbors, origin=origin,
                       symmetries=_hypercubic_symmetries(n),
                       height=partial(first_coordinate_height, n))


def regular_tree(d: int) -> GraphFamily:
    """The d-regular tree suspended from a fixed ray.

    Labels are ``(j, path)``: follow the ray to its j-th vertex, then descend
    along ``path`` (tuples of child indices).  Each vertex has one neighbor
    one level closer to the ray's end and d-1 neighbors one level further.
    """
    from .heights import horocyclic_height
    if d < 3:
        raise UsageError("regular tree needs degree >= 3")
    spec = f"tree:{d}"

    def check(v) -> None:
        _require(isinstance(v, tuple) and len(v) == 2, v, spec, "expected (ray_index, path)")
        j, path = v
        _require(isinstance(j, int) and not isinstance(j, bool) and j >= 0, v, spec,
                 "ray index must be a non-negative int")
        _require(isinstance(path, tuple), v, spec, "path must be a tuple")
        for k, c in enumerate(path):
            hi = (d - 1) if (j == 0 or k > 0) else (d - 2)
            if not (isinstance(c, int) and not isinstance(c, bool) and 0 <= c < hi):
                raise _malformed(v, spec, f"child index {c} out of range")

    child_steps = tuple((c,) for c in range(d - 1))
    child_indices = frozenset(range(d - 1))
    exact_int = frozenset((int,))

    # the lists below are constructed in sorted order (a path prefix sorts
    # before its extensions, smaller ray indices first)
    def neighbors(v: Label) -> tuple[Label, ...]:
        # a label of exact ints takes one test; any other label, and any
        # label that fails it, takes check and its messages
        if not (type(v) is tuple and len(v) == 2 and type(v[0]) is int
                and type(v[1]) is tuple and v[0] >= 0
                and exact_int.issuperset(map(type, v[1]))
                and child_indices.issuperset(v[1])
                and not (v[0] and v[1] and v[1][0] == d - 2)):
            check(v)
        j, path = v
        if path:
            return ((j, path[:-1]), *[(j, path + c) for c in child_steps])
        if j >= 1:
            return ((j - 1, ()), *[(j, c) for c in child_steps[:-1]], (j + 1, ()))
        return (*[(0, c) for c in child_steps], (1, ()))

    origin = (0, ())
    return GraphFamily(spec=spec, neighbors=neighbors, origin=origin, tree=True,
                       height=horocyclic_height)


def hexagonal() -> GraphFamily:
    """Hexagonal lattice in brick-wall coordinates on Z^2 (degree 3).

    The declared symmetry is the reflection (x, y) -> (-x, y), which keeps
    the brick pattern because x+y and -x+y have the same parity.
    """
    from .heights import hexagonal_height
    spec = "hex"

    # the rows are built in sorted order: the vertical neighbor sits
    # between the horizontal ones
    def neighbors(v: Label) -> tuple[Label, ...]:
        _check_int_tuple(v, 2, spec)
        x, y = v
        if (x + y) % 2 == 0:
            return ((x - 1, y), (x, y + 1), (x + 1, y))
        return ((x - 1, y), (x, y - 1), (x + 1, y))

    origin = (0, 0)
    return GraphFamily(spec=spec, neighbors=neighbors, origin=origin,
                       symmetries=(lambda v: (-v[0], v[1]),),
                       height=hexagonal_height)


# Corner codes for the square/octagon lattice: cell (i, j) is a small square
# (drawn as a diamond) whose corners E, N, W, S carry horizontal offsets
# +1, 0, -1, 0 inside the cell.
_SO_E, _SO_N, _SO_W, _SO_S = range(4)


def square_octagon() -> GraphFamily:
    """Square/octagon (4.8.8) lattice: squares joined by octagon edges."""
    from .heights import square_octagon_height
    spec = "squareoct"

    def check(v) -> None:
        # as _check_int_tuple, with the corner in the one test
        if (type(v) is tuple and len(v) == 3 and _EXACT_INT.issuperset(map(type, v))
                and 0 <= v[2] <= 3):
            return
        _require(isinstance(v, tuple) and len(v) == 3, v, spec, "expected (i, j, corner)")
        _require(all(isinstance(c, int) and not isinstance(c, bool) for c in v), v, spec,
                 "coordinates must be ints")
        _require(0 <= v[2] <= 3, v, spec, "corner must be in 0..3")

    # the rows are built in sorted order
    def neighbors(v: Label) -> tuple[Label, ...]:
        check(v)
        i, j, k = v
        if k == _SO_E:
            return ((i, j, _SO_N), (i, j, _SO_S), (i + 1, j, _SO_W))
        if k == _SO_N:
            return ((i, j, _SO_E), (i, j, _SO_W), (i, j + 1, _SO_S))
        if k == _SO_W:
            return ((i - 1, j, _SO_E), (i, j, _SO_N), (i, j, _SO_S))
        return ((i, j - 1, _SO_N), (i, j, _SO_E), (i, j, _SO_W))

    origin = (0, 0, _SO_N)
    return GraphFamily(spec=spec, neighbors=neighbors, origin=origin,
                       height=square_octagon_height)


def heisenberg() -> GraphFamily:
    """Cayley graph of the discrete Heisenberg group.

    Vertices (x, y, z) stand for the upper unitriangular matrix with x, y on
    the superdiagonal and z in the corner; edges are right multiplication by
    the three generators and their inverses.  The declared symmetries are
    group automorphisms that permute the generators: b -> b^-1 with
    c -> c^-1, and a <-> b with c -> c^-1.  They generate a group of
    order 8, a -> a^-1 included, and the first alone generates the part
    that keeps the height x.
    """
    from .heights import heisenberg_height
    spec = "heis"

    # the rows are built in sorted order
    def neighbors(v: Label) -> tuple[Label, ...]:
        _check_int_tuple(v, 3, spec)
        x, y, z = v
        return ((x - 1, y, z), (x, y - 1, z - x), (x, y, z - 1),
                (x, y, z + 1), (x, y + 1, z + x), (x + 1, y, z))

    origin = (0, 0, 0)
    symmetries = (
        lambda v: (v[0], -v[1], -v[2]),
        lambda v: (v[1], v[0], v[0] * v[1] - v[2]),
    )
    return GraphFamily(spec=spec, neighbors=neighbors, origin=origin,
                       symmetries=symmetries, height=heisenberg_height)


def ball(family: GraphFamily, center: Label, radius: int) -> Ball:
    """The ball of the given radius around ``center``: the radius-th ball
    of :func:`balls`."""
    if radius < 0:
        raise UsageError("ball radius must be >= 0")
    return next(islice(balls(family, center), radius, None))


def balls(family: GraphFamily, center: Label) -> Iterator[Ball]:
    """The balls of radius 0, 1, 2, ... around ``center``, from one
    breadth-first search grown one level per ball, so the oracle is asked
    once per vertex.  A ball lists its vertices in breadth-first order,
    center first, with each one's distance and neighbor list; each ball
    holds its own copies of the search's dicts.  Raises
    ResourceBudgetError, naming the radius being grown, as soon as that
    ball has more than ``budget("BALL_VERTICES")`` vertices."""
    cap = budget("BALL_VERTICES")
    neighbors = {}
    dist = {center: 0}
    level = [center]
    radius = 0
    while True:
        neighbors.update(zip(level, map(family.neighbors, level)))
        yield Ball(root=center, radius=radius, vertices=tuple(dist), neighbors=dict(neighbors),
                   dist=dict(dist))
        radius += 1
        first = len(dist)
        for v in level:
            for u in neighbors[v]:
                dist.setdefault(u, radius)
            if len(dist) > cap:
                raise ResourceBudgetError(
                    f"ball({family.spec}, r={radius}) around {center!r} exceeds {cap} vertices")
        level = list(islice(dist, first, None))


def decode_int(x) -> int:
    """An integer written as a JSON number or a decimal string: ASCII digits
    after an optional minus sign, so ``"1_000"``, ``"+5"`` and ``"٣"`` are
    rejected although ``int`` reads them.  This is the one reader of
    decimal integers, in spec strings, vectors and count tables alike."""
    if type(x) is int or type(x) is str and re.fullmatch("-?[0-9]+", x):
        return int(x)
    raise ValueError(f"{x!r} is not a decimal integer")


def read_json(path: str, what: str):
    """Load a JSON document; a file that cannot be read or does not hold
    JSON raises UsageError naming ``what`` it should have been."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load {what} {path!r}: {exc}") from exc


def _spec_int(text: str, spec: str, signed: bool = False) -> int:
    try:
        if signed or not text.startswith("-"):
            return decode_int(text)
    except ValueError:  # not decimal, or more digits than int() converts
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
