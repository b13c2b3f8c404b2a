"""Finite quotients of lattices by translation subgroups, and cylinders.

A quotient of Z^n by a full-rank translation lattice L is a finite directed
multigraph with loops: vertices are the orbits v + L, and the number of
directed edges from one orbit to another is the number of neighbors of a
representative landing in the target orbit.  Orbits are canonicalized by
reducing coordinates against the Hermite normal form of L, which depends
only on L and not on how its generating shifts were written.

A rank-one quotient Z^n / <v> is kept as an infinite *cylinder* family
(loops, orientations, and multiplicities dropped).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import gcd
from typing import Callable

from .errors import InvariantViolationError, MalformedLabelError, ResourceBudgetError, UsageError, budget
from .families import GraphFamily, Label, _check_int_tuple, _lattice_rows, signed_permutations
from .heights import HeightFunction


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


def hermite_normal_form(rows: list[tuple[int, ...]]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Row-style HNF of an integer matrix: returns the nonzero rows (upper
    echelon, positive pivots, each entry above a pivot in [0, pivot)) and
    their pivot columns.  It depends only on the lattice the rows span.

    Column by column, the row with the smallest nonzero entry reduces the
    others by floor division until one row is left; that row, made
    positive, reduces the rows already placed.  A later pivot changes no
    column left of it, so reducing in ascending order undoes nothing."""
    pending = [list(r) for r in rows]
    placed: list[list[int]] = []
    pivots: list[int] = []
    for col in range(len(rows[0])):
        live = [r for r in pending if r[col]]
        while len(live) > 1:
            best = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not best:
                    q = r[col] // best[col]
                    r[:] = [a - q * b for a, b in zip(r, best)]
            live = [r for r in live if r[col]]
        if not live:
            continue
        (row,) = live
        pending.remove(row)
        if row[col] < 0:
            row[:] = [-a for a in row]
        for r in placed:
            q = r[col] // row[col]
            r[:] = [a - q * b for a, b in zip(r, row)]
        placed.append(row)
        pivots.append(col)
    return tuple(tuple(r) for r in placed), tuple(pivots)


def lattice_structure(shifts: tuple[tuple[int, ...], ...]) -> LatticeStructure:
    """The reduction data of the lattice spanned by ``shifts``.  Every shift
    list, a quotient's or a cylinder's, is checked here."""
    if not shifts:
        raise UsageError("subgroup needs at least one shift")
    n = len(shifts[0])
    if any(len(s) != n for s in shifts):
        raise UsageError("all shifts must have the same dimension")
    nonzero = [s for s in shifts if any(s)]
    if not nonzero:
        raise UsageError("translation lattice must contain a nonzero shift")
    rows, pivots = hermite_normal_form(nonzero)
    return LatticeStructure(dim=n, hnf_rows=rows, pivots=pivots)


def build_quotient(family: GraphFamily, shifts: tuple[tuple[int, ...], ...]) -> QuotientGraph:
    """Quotient of a lattice family by the translation subgroup its shifts
    generate.

    Orbits are discovered by closure from the origin; multiplicities are
    counted from one representative per orbit and cross-checked on a second
    representative (the action must make them well defined).
    """
    n = len(family.origin)
    if family.spec != f"z{n}":
        raise UsageError("only translation subgroups of z{n} lattices are supported")
    lat = lattice_structure(shifts)
    if lat.dim != n:
        raise UsageError(f"shifts have dimension {lat.dim}, {family.spec} has {n}")
    if len(lat.hnf_rows) < n:
        raise UsageError("translation lattice has rank < dimension: infinitely many orbits")

    cap = budget("QUOTIENT_ORBITS")
    reps: list[Label] = []
    index: dict[Label, int] = {}
    frontier = [lat.reduce(family.origin)]
    index[frontier[0]] = 0
    reps.append(frontier[0])
    lists: dict[Label, tuple] = {}  # each representative's, for the checks below
    while frontier:
        v = frontier.pop()
        lists[v] = family.neighbors(v)
        for u in lists[v]:
            ru = lat.reduce(u)
            if ru not in index:
                if len(reps) >= cap:
                    raise ResourceBudgetError(f"quotient exceeds {cap} orbits")
                index[ru] = len(reps)
                reps.append(ru)
                frontier.append(ru)

    def count_row(nbrs) -> list[int]:
        row = [0] * len(reps)
        for u in nbrs:
            row[index[lat.reduce(u)]] += 1
        return row

    # the declared action must carry neighbors to neighbors (sample check)
    for s in shifts:
        for v in reps[:2]:
            shifted = tuple(a + b for a, b in zip(v, s))
            want = {tuple(a + b for a, b in zip(u, s)) for u in lists[v]}
            if set(family.neighbors(shifted)) != want:
                raise InvariantViolationError(
                    f"shift {s} is not a graph automorphism at {v}")

    shift0 = next(s for s in shifts if any(s))
    mult = []
    for i, rep in enumerate(reps):
        row = count_row(lists[rep])
        other = tuple(a + b for a, b in zip(rep, shift0))
        if count_row(family.neighbors(other)) != row:
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


def perpendicular_vector(v: tuple[int, ...]) -> tuple[int, ...]:
    """A primitive integer vector perpendicular to v (n >= 2)."""
    n = len(v)
    for i in range(n):
        if v[i] == 0:
            return tuple(1 if k == i else 0 for k in range(n))
    # all coordinates nonzero: rotate the first two
    w = [0] * n
    w[0], w[1] = v[1], -v[0]
    g = gcd(*w)
    return tuple(c // g for c in w)


def cylinder(n: int, v: tuple[int, ...]) -> GraphFamily:
    """The quotient family Z^n / <translation by v>, as a simple graph.

    Labels are reduced so the first coordinate with a nonzero entry of v
    lies in [0, |v_p|); loops and multiplicities from the collapse are
    dropped.  The symmetries are those axis flips and adjacent swaps
    (:func:`families.signed_permutations`) that map v to +-v, each followed
    by the reduction.  The default height is
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
    # the one HNF row is v with a positive pivot
    lat = lattice_structure((v,))
    (v,), (p,), reduce = lat.hnf_rows, lat.pivots, lat.reduce
    spec = f"zcyl:{n}:{','.join(str(c) for c in v)}"

    def neighbors(z: Label) -> tuple[Label, ...]:
        # checked here, so Z^n's rows are built without its oracle's check
        _check_int_tuple(z, n, spec)
        if not 0 <= z[p] < v[p]:
            raise MalformedLabelError(f"{spec}: label {z!r} is not reduced")
        out = {reduce(u) for u in _lattice_rows(z)}
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
                     h_orbits=(origin,), h_orbit_of=lambda z: 0)
    return GraphFamily(spec=spec, neighbors=neighbors, origin=origin,
                       symmetries=tuple(descend(g) for g in signed_permutations(n)
                                        if g(v) in (v, minus_v)),
                       height=height)
