"""Finite quotients of lattices by translation subgroups, and cylinders.

A quotient of Z^n by a full-rank translation lattice L is a finite directed
multigraph with loops: vertices are the orbits v + L, and the number of
directed edges from one orbit to another is the number of neighbors of a
representative landing in the target orbit.  Orbits are canonicalized by
reducing coordinates against the Hermite normal form of L's generator
matrix.

A rank-one quotient Z^n / <v> is kept as an infinite *cylinder* family
(loops, orientations, and multiplicities dropped).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial
from math import gcd
from typing import Callable

from .errors import InvariantViolationError, MalformedLabelError, ResourceBudgetError, UsageError, budget
from .families import GraphFamily, Label, _check_int_tuple, hypercubic
from .heights import HeightFunction


@dataclass(frozen=True)
class SubgroupDescriptor:
    """A translation subgroup of a lattice family, given by generator shifts."""

    family: str
    shifts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.shifts:
            raise UsageError("subgroup needs at least one shift")
        n = len(self.shifts[0])
        if any(len(s) != n for s in self.shifts):
            raise UsageError("all shifts must have the same dimension")


@dataclass(frozen=True)
class LatticeStructure:
    """Reduction data for a translation lattice inside Z^n."""

    dim: int
    hnf_rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    def reduce(self, v: tuple[int, ...]) -> tuple[int, ...]:
        w = list(v)
        for row, p in zip(self.hnf_rows, self.pivots):
            q = w[p] // row[p]
            if q:
                for i in range(self.dim):
                    w[i] -= q * row[i]
        return tuple(w)


@dataclass(frozen=True)
class QuotientGraph:
    """Directed multigraph quotient with loops and edge multiplicities."""

    orbit_count: int
    reps: tuple[Label, ...]
    multiplicities: tuple[tuple[int, ...], ...]
    project: Callable[[Label], int] = field(repr=False)
    lattice: LatticeStructure | None = field(default=None, repr=False)

    def out_degree(self, i: int) -> int:
        return sum(self.multiplicities[i])


def hermite_normal_form(rows: list[tuple[int, ...]]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Row-style HNF of an integer matrix: returns the nonzero rows (upper
    echelon, positive pivots, entries above each pivot reduced) and their
    pivot columns."""
    m = [list(r) for r in rows]
    n = len(rows[0])
    pivot_rows: list[list[int]] = []
    pivots: list[int] = []
    row0 = 0
    for col in range(n):
        best = None
        for r in range(row0, len(m)):
            if m[r][col] != 0 and (best is None or abs(m[r][col]) < abs(m[best][col])):
                best = r
        if best is None:
            continue
        m[row0], m[best] = m[best], m[row0]
        # eliminate the column below row0 by repeated Euclid steps
        again = True
        while again:
            again = False
            for r in range(row0 + 1, len(m)):
                if m[r][col] != 0:
                    q = m[r][col] // m[row0][col]
                    for i in range(n):
                        m[r][i] -= q * m[row0][i]
                    if m[r][col] != 0:
                        m[row0], m[r] = m[r], m[row0]
                        again = True
        if m[row0][col] < 0:
            m[row0] = [-x for x in m[row0]]
        pivot_rows.append(m[row0])
        pivots.append(col)
        row0 += 1
        if row0 == len(m):
            break
    # reduce entries above each pivot
    for k in range(len(pivot_rows) - 1, -1, -1):
        p = pivots[k]
        for j in range(k):
            q = pivot_rows[j][p] // pivot_rows[k][p]
            if q:
                for i in range(n):
                    pivot_rows[j][i] -= q * pivot_rows[k][i]
    return tuple(tuple(r) for r in pivot_rows), tuple(pivots)


def lattice_structure(shifts: tuple[tuple[int, ...], ...]) -> LatticeStructure:
    nonzero = [s for s in shifts if any(s)]
    if not nonzero:
        raise UsageError("translation lattice must contain a nonzero shift")
    rows, pivots = hermite_normal_form(nonzero)
    return LatticeStructure(dim=len(shifts[0]), hnf_rows=rows, pivots=pivots)


def build_quotient(family: GraphFamily, sub: SubgroupDescriptor) -> QuotientGraph:
    """Quotient of a lattice family by its translation subgroup.

    Orbits are discovered by closure from the origin; multiplicities are
    counted from one representative per orbit and cross-checked on a second
    representative (the action must make them well defined).
    """
    if sub.family != family.spec:
        raise UsageError(f"subgroup is for {sub.family!r}, family is {family.spec!r}")
    n = len(family.origin)
    if family.spec != f"z{n}":
        raise UsageError("only translation subgroups of z{n} lattices are supported")
    if len(sub.shifts[0]) != n:
        raise UsageError(f"shifts have dimension {len(sub.shifts[0])}, {family.spec} has {n}")
    lat = lattice_structure(sub.shifts)
    if len(lat.hnf_rows) < n:
        raise UsageError("translation lattice has rank < dimension: infinitely many orbits")

    cap = budget("QUOTIENT_ORBITS")
    reps: list[Label] = []
    index: dict[Label, int] = {}
    frontier = [lat.reduce(family.origin)]
    index[frontier[0]] = 0
    reps.append(frontier[0])
    while frontier:
        v = frontier.pop()
        for u in family.neighbors(v):
            ru = lat.reduce(u)
            if ru not in index:
                if len(reps) >= cap:
                    raise ResourceBudgetError(f"quotient exceeds {cap} orbits")
                index[ru] = len(reps)
                reps.append(ru)
                frontier.append(ru)

    def count_row(v: Label) -> list[int]:
        row = [0] * len(reps)
        for u in family.neighbors(v):
            row[index[lat.reduce(u)]] += 1
        return row

    # the declared action must carry neighbors to neighbors (sample check)
    for s in sub.shifts:
        for v in reps[:2]:
            shifted = tuple(a + b for a, b in zip(v, s))
            want = {tuple(a + b for a, b in zip(u, s)) for u in family.neighbors(v)}
            if set(family.neighbors(shifted)) != want:
                raise InvariantViolationError(
                    f"shift {s} is not a graph automorphism at {v}")

    shift0 = next(s for s in sub.shifts if any(s))
    mult = []
    for i, rep in enumerate(reps):
        row = count_row(rep)
        other = tuple(a + b for a, b in zip(rep, shift0))
        if count_row(other) != row:
            raise InvariantViolationError(
                f"edge multiplicities ill-defined on orbit {i} ({rep})")
        mult.append(tuple(row))

    def project(v: Label) -> int:
        rv = lat.reduce(v)
        try:
            return index[rv]
        except KeyError:
            raise InvariantViolationError(f"vertex {v!r} reduces outside the orbit set")

    return QuotientGraph(orbit_count=len(reps), reps=tuple(reps),
                         multiplicities=tuple(mult), project=project, lattice=lat)


def check_symmetric(q: QuotientGraph) -> bool:
    """True iff the multiplicity matrix equals its transpose."""
    m = q.multiplicities
    return all(m[i][j] == m[j][i] for i in range(q.orbit_count) for j in range(i))


def _primitive(v: tuple[int, ...]) -> tuple[int, ...]:
    g = 0
    for c in v:
        g = gcd(g, c)
    return tuple(c // g for c in v)


def perpendicular_vector(v: tuple[int, ...]) -> tuple[int, ...]:
    """A primitive integer vector perpendicular to v (n >= 2)."""
    n = len(v)
    for i in range(n):
        if v[i] == 0:
            return tuple(1 if k == i else 0 for k in range(n))
    # all coordinates nonzero: rotate the first two
    w = [0] * n
    w[0], w[1] = v[1], -v[0]
    return _primitive(tuple(w))


def cylinder(n: int, v: tuple[int, ...]) -> GraphFamily:
    """The quotient family Z^n / <translation by v>, as a simple graph.

    Labels are reduced so the first coordinate with a nonzero entry of v
    lies in [0, |v_p|); loops and multiplicities from the collapse are
    dropped.  The symmetries are those of Z^n's generators that map v to
    +-v, each followed by the reduction.  The default height is
    h(z) = z . w, with w a primitive integer vector perpendicular to v;
    d = max |w_i|.
    """
    if n < 2:
        raise UsageError("cylinders need n >= 2")
    v = tuple(v)
    if len(v) != n:
        raise UsageError(f"shift vector must have {n} coordinates")
    if not any(v):
        raise UsageError("cylinder shift must be nonzero")
    p = next(i for i in range(n) if v[i] != 0)
    if v[p] < 0:
        v = tuple(-c for c in v)
    spec = f"zcyl:{n}:{','.join(str(c) for c in v)}"
    base = hypercubic(n)

    def reduce(z: tuple[int, ...]) -> tuple[int, ...]:
        q = z[p] // v[p]
        return tuple(a - q * b for a, b in zip(z, v)) if q else tuple(z)

    @cache
    def neighbors(z: Label) -> tuple[Label, ...]:
        _check_int_tuple(z, n, spec)
        if reduce(z) != z:
            raise MalformedLabelError(f"{spec}: label {z!r} is not reduced")
        out = {reduce(u) for u in base.neighbors(z)}
        out.discard(z)
        return tuple(sorted(out))

    def descend(g):
        return lambda z: reduce(g(z))

    minus_v = tuple(-c for c in v)
    origin = reduce((0,) * n)
    w = perpendicular_vector(v)

    def evaluate(z):
        return sum(a * b for a, b in zip(z, w))

    height = partial(HeightFunction, spec=f"perp:{','.join(str(c) for c in w)}",
                     evaluate=evaluate, declared_d=max(abs(c) for c in w), declared_r=0,
                     h_orbits=(origin,), h_orbit_of=lambda z: 0,
                     shift_to_rep=lambda z: (origin, evaluate(z)))
    return GraphFamily(spec=spec, neighbors=neighbors, origin=origin,
                       symmetries=tuple(descend(g) for g in base.symmetries
                                        if g(v) in (v, minus_v)),
                       height=height)


def cylinder_height(n: int, v: tuple[int, ...]) -> HeightFunction:
    """The default height of ``cylinder(n, v)``."""
    return cylinder(n, v).height()
