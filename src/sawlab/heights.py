"""Graph height functions and their validation.

A height function is an integer vertex function h with h(origin) = 0 whose
differences are invariant under a quasi-transitively acting automorphism
group, and such that every vertex has a strictly higher and a strictly
lower neighbor.  The two constants attached to a pair (h, group) are

* d: the largest |h(u) - h(v)| across an edge, and
* r: the smallest radius within which any two group orbits can be joined by
  a SAW whose interior heights stay strictly between its endpoint heights.

``validate_height`` checks the defining clauses on a finite ball and
``verify_r`` certifies a declared upper bound for r.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from typing import Callable

from .errors import UsageError
from .families import GraphFamily, Label, ball


@dataclass(frozen=True)
class HeightFunction:
    """A height function together with its declared constants and the orbit
    data of the group it is invariant under.

    ``h_orbit_of`` maps a vertex v to the index of its orbit's representative
    in ``h_orbits``; by difference invariance the group element carrying v to
    that representative rep changes heights by h(v) - h(rep).
    """

    spec: str
    evaluate: Callable[[Label], int] = field(repr=False)
    declared_d: int
    declared_r: int
    h_orbits: tuple[Label, ...]
    h_orbit_of: Callable[[Label], int] = field(repr=False)

    def orbit_count(self) -> int:
        return len(self.h_orbits)


@dataclass(frozen=True)
class Violation:
    clause: str
    vertex: Label
    detail: str


@dataclass(frozen=True)
class HeightValidationReport:
    radius: int
    violations: tuple[Violation, ...]
    measured_d: int

    def ok(self) -> bool:
        return not self.violations


def first_coordinate_height(n: int) -> HeightFunction:
    """h(v) = v[0] on the lattice Z^n; translation group, one orbit."""
    return HeightFunction(
        spec="x1", evaluate=lambda v: v[0], declared_d=1, declared_r=0,
        h_orbits=((0,) * n,), h_orbit_of=lambda v: 0,
    )


def _horocyclic(v):
    j, path = v
    return len(path) - j


def horocyclic_height() -> HeightFunction:
    """Horocyclic height on the suspended tree: depth below the ray minus
    position along it.  Every call shares one evaluate function,
    ``_horocyclic``, which is what lets a tree's SAW, half-space and bridge
    counts from one start share one cone ball (``walks._cone_ball`` caches
    the ball by the function it was measured in)."""
    return HeightFunction(
        spec="horocyclic", evaluate=_horocyclic, declared_d=1, declared_r=0,
        h_orbits=((0, ()),), h_orbit_of=lambda v: 0,
    )


def hexagonal_height() -> HeightFunction:
    """h(x, y) = x on the brick wall, with the translation subgroup only.

    Translations preserving the brick pattern are those with even coordinate
    sum, so there are two orbits (the parity classes of x+y) and r = 1; the
    transitive variant that adds a reflection is not represented here.
    """
    return HeightFunction(
        spec="hex-x", evaluate=lambda v: v[0], declared_d=1, declared_r=1,
        h_orbits=((0, 0), (1, 0)), h_orbit_of=lambda v: (v[0] + v[1]) % 2,
    )


_SO_OFFSET = (1, 0, -1, 0)  # horizontal displacement of corners E, N, W, S


def square_octagon_height() -> HeightFunction:
    """Horizontal-displacement height on the square/octagon lattice.

    Cells are three units wide so that the octagon edge between adjacent
    cells changes height by one; corner offsets +1/0/-1 then give d = 1 and
    every vertex a strictly higher and lower neighbor.  The group is the
    cell-translation subgroup, with one orbit per corner type.
    """
    def evaluate(v):
        i, _, k = v
        return 3 * i + _SO_OFFSET[k]

    return HeightFunction(
        spec="so-x", evaluate=evaluate, declared_d=1, declared_r=5,
        h_orbits=tuple((0, 0, k) for k in range(4)), h_orbit_of=lambda v: v[2],
    )


def heisenberg_height() -> HeightFunction:
    """h(x, y, z) = x: +-1 across the first generator pair, 0 elsewhere."""
    return HeightFunction(
        spec="heis-x", evaluate=lambda v: v[0], declared_d=1, declared_r=0,
        h_orbits=((0, 0, 0),), h_orbit_of=lambda v: 0,
    )


def default_height(family: GraphFamily) -> HeightFunction:
    """The built-in height the family's constructor attached to it."""
    if family.height is None:
        raise UsageError(f"no built-in height for family {family.spec!r}")
    return family.height()


def parse_height(family: GraphFamily, spec: str) -> HeightFunction:
    hf = default_height(family)
    if spec not in ("default", "", hf.spec):
        raise UsageError(f"unknown height {spec!r} for family {family.spec!r}")
    return hf


def validate_height(family: GraphFamily, hf: HeightFunction,
                    radius: int) -> HeightValidationReport:
    """Check the defining clauses of a height function on a ball.

    Clause (a) at the origin, clause (c) on the radius-(radius-1) ball so
    all neighbors are within reach, clause (b) by comparing each vertex's
    height-difference profile with that of ``h_orbits[h_orbit_of(v)]``, plus
    the consistency of the declared d.  Violations are reported, not raised.
    Each label's height is evaluated once per call, and each vertex's
    neighbors are read from the ball.
    """
    if radius < 1:
        raise UsageError("validation radius must be >= 1")
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


def _pinched_path_exists(neighbors: dict, h: Callable[[Label], int], u: Label,
                         w: Label, max_len: int) -> bool:
    """Is there a SAW from u to w of length <= max_len whose interior heights
    lie strictly between h(u) and h(w)?  ``neighbors`` holds the lists of
    the radius-max_len ball around u, which the search never leaves.

    Breadth-first search from u through the vertices in that height band: a
    shortest such walk is self-avoiding and passes through neither end, so
    meeting w within max_len levels is exactly the existence of the SAW.
    """
    lo, hi = h(u), h(w)
    seen = {u}
    level = [u]
    for _ in range(max_len):
        nxt = []
        for v in level:
            for x in neighbors[v]:
                if x == w:
                    return True
                if x not in seen and lo < h(x) < hi:
                    seen.add(x)
                    nxt.append(x)
        level = nxt
    return False


def verify_r(family: GraphFamily, hf: HeightFunction, r: int) -> bool:
    """Certify that r(h, group) <= r.

    For each ordered pair of distinct orbit representatives (u, v), the start
    is fixed at u (difference invariance allows this) and every member v' of
    v's orbit within distance r of u with h(u) < h(v') is tried as an
    endpoint, nearest first, looking for a SAW of length <= r whose interior
    heights lie strictly between.  True iff every pair succeeds.  The answer
    is exact; only the ball's vertex budget can stop it (ResourceBudgetError).
    """
    if r < 0:
        raise UsageError("r must be >= 0")
    n_orbits = hf.orbit_count()
    if n_orbits == 1:
        return True
    h = cache(hf.evaluate)
    for iu, u in enumerate(hf.h_orbits):
        reach = ball(family, u, r)
        for iv in range(n_orbits):
            if iv != iu and not any(
                    hf.h_orbit_of(w) == iv and h(w) > h(u)
                    and _pinched_path_exists(reach.neighbors, h, u, w, r)
                    for w in reach.vertices):
                return False
    return True
