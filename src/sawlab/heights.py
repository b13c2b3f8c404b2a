"""Graph height functions and their validation.

A height function is an integer vertex function h with h(origin) = 0 whose
differences are invariant under a quasi-transitively acting automorphism
group, and such that every vertex has a strictly higher and a strictly
lower neighbor.  The two constants attached to a pair (h, group) are

* d: the largest |h(u) - h(v)| across an edge, and
* r: the smallest radius within which any two group orbits can be joined by
  a SAW whose interior heights stay strictly between its endpoint heights.

``validate_height`` checks the defining clauses on a finite ball and
``verify_r`` certifies a declared upper bound for r by finite search.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from typing import Callable

from .errors import ResourceBudgetError, UsageError, budget
from .families import GraphFamily, Label, ball, parse_family


@dataclass(frozen=True)
class HeightFunction:
    """A height function together with its declared constants and the orbit
    data of the group it is invariant under.

    ``shift_to_rep`` maps a vertex v to ``(rep, offset)`` where ``rep`` is the
    representative of v's orbit and ``offset = h(v) - h(rep)`` is the height
    change of the group element carrying v to ``rep``.
    """

    spec: str
    evaluate: Callable[[Label], int] = field(repr=False)
    declared_d: int
    declared_r: int
    h_orbits: tuple[Label, ...]
    h_orbit_of: Callable[[Label], int] = field(repr=False)
    shift_to_rep: Callable[[Label], tuple[Label, int]] = field(repr=False)

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
    origin = (0,) * n
    return HeightFunction(
        spec="x1", evaluate=lambda v: v[0], declared_d=1, declared_r=0,
        h_orbits=(origin,), h_orbit_of=lambda v: 0,
        shift_to_rep=lambda v: (origin, v[0]),
    )


def horocyclic_height() -> HeightFunction:
    """Horocyclic height on the suspended tree: depth below the ray minus
    position along it."""
    origin = (0, ())

    def evaluate(v):
        j, path = v
        return len(path) - j

    return HeightFunction(
        spec="horocyclic", evaluate=evaluate, declared_d=1, declared_r=0,
        h_orbits=(origin,), h_orbit_of=lambda v: 0,
        shift_to_rep=lambda v: (origin, evaluate(v)),
    )


def hexagonal_height() -> HeightFunction:
    """h(x, y) = x on the brick wall, with the translation subgroup only.

    Translations preserving the brick pattern are those with even coordinate
    sum, so there are two orbits (the parity classes of x+y) and r = 1; the
    transitive variant that adds a reflection is not represented here.
    """
    reps = ((0, 0), (1, 0))

    def orbit_of(v):
        return (v[0] + v[1]) % 2

    def shift_to_rep(v):
        k = orbit_of(v)
        return reps[k], v[0] - k

    return HeightFunction(
        spec="hex-x", evaluate=lambda v: v[0], declared_d=1, declared_r=1,
        h_orbits=reps, h_orbit_of=orbit_of, shift_to_rep=shift_to_rep,
    )


_SO_OFFSET = (1, 0, -1, 0)  # horizontal displacement of corners E, N, W, S


def square_octagon_height() -> HeightFunction:
    """Horizontal-displacement height on the square/octagon lattice.

    Cells are three units wide so that the octagon edge between adjacent
    cells changes height by one; corner offsets +1/0/-1 then give d = 1 and
    every vertex a strictly higher and lower neighbor.  The group is the
    cell-translation subgroup, with one orbit per corner type.
    """
    reps = tuple((0, 0, k) for k in range(4))

    def evaluate(v):
        i, _, k = v
        return 3 * i + _SO_OFFSET[k]

    def shift_to_rep(v):
        i, _, k = v
        return reps[k], 3 * i

    return HeightFunction(
        spec="so-x", evaluate=evaluate, declared_d=1, declared_r=5,
        h_orbits=reps, h_orbit_of=lambda v: v[2], shift_to_rep=shift_to_rep,
    )


def heisenberg_height() -> HeightFunction:
    """h(x, y, z) = x: +-1 across the first generator pair, 0 elsewhere."""
    origin = (0, 0, 0)
    return HeightFunction(
        spec="heis-x", evaluate=lambda v: v[0], declared_d=1, declared_r=0,
        h_orbits=(origin,), h_orbit_of=lambda v: 0,
        shift_to_rep=lambda v: (origin, v[0]),
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
    height-difference profile with its orbit representative's, plus the
    consistency of the declared d.  Violations are reported, not raised.
    Each label's height is evaluated once per call.
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
    rep_profiles = {}
    for v in b.vertices:
        hv = h(v)
        diffs = [h(u) - hv for u in family.neighbors(v)]
        if b.dist[v] <= radius - 1 and (not any(d > 0 for d in diffs)
                                        or not any(d < 0 for d in diffs)):
            violations.append(Violation("c", v, f"neighbor height diffs {sorted(diffs)}"))
        rep, offset = hf.shift_to_rep(v)
        if hv - offset != h(rep):
            violations.append(Violation("b", v,
                                        f"h(v) - offset = {hv - offset} != h(rep) = {h(rep)}"))
            continue
        if rep not in rep_profiles:
            rep_profiles[rep] = Counter(h(u) - h(rep) for u in family.neighbors(rep))
        if Counter(diffs) != rep_profiles[rep]:
            violations.append(Violation("b", v, "neighbor height-difference profile differs from representative's"))
    return HeightValidationReport(radius=radius, violations=tuple(violations),
                                  measured_d=measured_d)


def _pinched_saw_exists(family: GraphFamily, hf: HeightFunction, u: Label, w: Label,
                        max_len: int, dist_to_w: dict, counter: list) -> bool:
    """Is there a SAW from u to w of length <= max_len whose interior heights
    lie strictly between h(u) and h(w)?"""
    hu, hw = hf.evaluate(u), hf.evaluate(w)
    node_cap = budget("SEARCH_NODES")

    def dfs(v, used, depth):
        counter[0] += 1
        if counter[0] > node_cap:
            raise ResourceBudgetError("verify_r search budget exceeded; result indeterminate")
        for x in family.neighbors(v):
            if x == w:
                return True
            if depth + 2 > max_len or x in used:
                continue
            hx = hf.evaluate(x)
            if not hu < hx < hw:
                continue
            if dist_to_w.get(x, max_len + 1) > max_len - depth - 1:
                continue
            used.add(x)
            if dfs(x, used, depth + 1):
                return True
            used.remove(x)
    if u == w:
        return False
    if max_len < 1:
        return False
    return bool(dfs(u, {u}, 0))


def verify_r(family: GraphFamily, hf: HeightFunction, r: int) -> bool:
    """Certify that r(h, group) <= r.

    For each ordered pair of distinct orbit representatives (u, v), the start
    is fixed at u (difference invariance allows this) and every member v' of
    v's orbit within distance r of u is tried as an endpoint with
    h(u) < h(v'), searching for a SAW of length <= r whose interior heights
    lie strictly between.  True iff every pair succeeds.  A search that runs
    out of budget raises ResourceBudgetError rather than answering False.
    """
    if r < 0:
        raise UsageError("r must be >= 0")
    n_orbits = hf.orbit_count()
    if n_orbits == 1:
        return True
    counter = [0]
    for iu, u in enumerate(hf.h_orbits):
        hu = hf.evaluate(u)
        reach = ball(family, u, r) if r >= 1 else None
        for iv in range(n_orbits):
            if iv == iu:
                continue
            if reach is None:
                return False
            found = False
            candidates = sorted(
                (w for w in reach.vertices
                 if hf.h_orbit_of(w) == iv and hf.evaluate(w) > hu),
                key=lambda w: (reach.dist[w], w))
            for w in candidates:
                back = ball(family, w, r)
                if _pinched_saw_exists(family, hf, u, w, r, back.dist, counter):
                    found = True
                    break
            if not found:
                return False
    return True


def builtin_pairs(specs=None) -> list[tuple[GraphFamily, HeightFunction]]:
    """(family, height) pairs for the named built-ins."""
    from .families import BUILTIN_FAMILY_SPECS
    out = []
    for spec in (specs or BUILTIN_FAMILY_SPECS):
        fam = parse_family(spec)
        out.append((fam, default_height(fam)))
    return out
