"""Synthesis of height functions from finite lattice quotients.

Given a symmetric quotient of Z^n by a full-rank translation lattice, this
module builds rational edge increments on the doubled (bidirected) quotient
graph that

* sum to zero around every basis cycle except a distinguished one,
* sum to one around the distinguished cycle, and
* give every quotient vertex an outgoing edge of each strict sign,

then lifts and scales the increments to an integer height function on the
lattice.  A directed quotient edge is the pair ``(orbit_index, step)``
where ``step`` is a unit vector or its negative, which pins down parallel
edge copies and makes the antisymmetry delta(-e) = -delta(e) a property of
the representation.

Edge ids are the working form: each quotient is compiled once into int
tables (:func:`quotient_tables`), with one ``q.project`` per directed edge,
and every stage reads them.  ``(orbit, step)`` pairs are the document
form: the keys of :attr:`EdgeIncrement.values`, which the ``synth-height``
document lists, and the steps a caller passes.  Ids follow the sorted pair
order, so comparing ids compares pairs.

The basis is arranged so that every cycle except the distinguished one has
zero winding along the distinguished lattice generator.  The coefficient of
the distinguished cycle in the expansion of any closed walk is then a dual
linear form in the walk's lift displacement, which keeps the staged
construction exact and cheap.

The construction is staged: the distinguished cycle is seeded uniformly,
then one loop explores, lowest orbit first, each translate of it that meets
the explored region, segment by segment with each segment total forced by
the distinguished coordinate of the closed walk it completes, spread in
equal shares with a small prime-scaled perturbation that keeps explored
path sums off the integers; when no pending translate meets the region,
the first edge leaving it is set to zero.  Residual edges are fixed last.
Each segment's edges are set once, to the best of its candidate values.
The direct method is the dual-form solution delta(i, step) = step . w,
which meets every cycle target and both strict signs by construction; it
is the fallback and cross-check.  On Z^n / kZ^n its lift has m = k, d = 1.

No SAW is enumerated and no return path is searched for.  Every explored
cycle sums to its winding, an integer, so two potentials, one ``Fraction``
each per touched vertex and set as the vertex is first reached, answer
every question the construction asks.  psi, the values minus windings,
sums along any explored path to psi(end) - psi(start), which gives a
segment's total and a residual edge's value.  phi, the value sum mod 1 from
the seed, is the same for every explored walk, so the explored graph is
balanced mod 1 and two touched vertices are joined by an explored SAW with
a non-integer sum exactly when their phi differ (the balance theorem for
gain graphs: Zaslavsky, "Biased graphs I", JCTB 47, 1989).  A segment
joining two distinct touched vertices of one phi has no non-integer return
SAW; the staged method is then stuck and ``auto`` falls back to the direct
method.  Each candidate perturbation of a segment is scored by the pairs
that its new vertices would form with vertices of the same phi, fewest
first.  A lifted height sums integer scaled increments m * delta along the
same tables.

All arithmetic in this module is exact; no floats.  An increment is stored
in one form, an int numerator per edge id over one denominator
(:class:`EdgeIncrement`), and the checks and the lift sum those ints:
windings over :attr:`QuotientTables.lam_den`, an increment's values over
its ``den``.  Fractions appear only at the document boundary
(:attr:`EdgeIncrement.values`) and inside the staged solve, whose values,
potentials and segment totals are Fractions until its values are written
over their lcm.  The cycle-basis echelon keeps primitive integer rows.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .errors import InvariantViolationError, UsageError
from .families import GraphFamily, Label, ball
from .quotient import QuotientGraph, build_quotient, check_symmetric

DirectedEdge = tuple[int, tuple[int, ...]]  # (tail orbit, unit step)

_PERTURB_PRIME = 101


def _vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vec_neg(a):
    return tuple(-x for x in a)


def _unit_steps(n: int):
    steps = []
    for i in range(n):
        e = tuple(1 if k == i else 0 for k in range(n))
        steps.append(e)
        steps.append(_vec_neg(e))
    return tuple(steps)


def _dim(q: QuotientGraph) -> int:
    if q.lattice is None:
        raise UsageError("height synthesis needs a lattice quotient")
    return q.lattice.dim


def edge_head(q: QuotientGraph, e: DirectedEdge) -> int:
    return q.project(_vec_add(q.reps[e[0]], e[1]))


class QuotientTables:
    """The directed edges of a lattice quotient compiled to int ids, with
    one ``edge_head`` (one ``q.project``) per directed edge.

    Ids follow sorted ``(tail, step)`` order, so comparing ids compares
    edges, and the edge leaving orbit i along the step of rank r (in sorted
    step order) has id ``i * len(step_rank) + r``.  ``head``, ``partner`` and
    ``canonical`` map an id to its head orbit, its reverse edge and the
    smaller of the two; ``undirected`` lists the canonical ids in order.
    ``lam`` maps an id to the int numerator of its winding ``step . w``
    (:func:`dual_form`) over ``lam_den``, so a closed walk's coefficient on
    the distinguished cycle is its sum over ``lam_den``.  ``axes`` holds the
    ranks of the steps +e_i and -e_i for each axis i.
    """

    def __init__(self, q: QuotientGraph):
        units = _unit_steps(_dim(q))
        steps = sorted(units)
        self.step_rank = {s: r for r, s in enumerate(steps)}
        self.axes = tuple((self.step_rank[u], self.step_rank[d])
                          for u, d in zip(units[0::2], units[1::2]))
        self.edges = tuple((i, s) for i in range(q.orbit_count) for s in steps)
        self.head = tuple(edge_head(q, e) for e in self.edges)
        self.partner = tuple(h * len(steps) + self.step_rank[_vec_neg(e[1])]
                             for e, h in zip(self.edges, self.head))
        self.canonical = tuple(min(k, p) for k, p in enumerate(self.partner))
        self.undirected = tuple(k for k, c in enumerate(self.canonical) if c == k)
        w = dual_form(q)
        self.lam_den = lcm(*(c.denominator for c in w))
        w_num = [c.numerator * (self.lam_den // c.denominator) for c in w]
        self.lam = tuple(sum(d * c for d, c in zip(s, w_num)) for _, s in self.edges)

    def edge_id(self, e: DirectedEdge) -> int:
        return e[0] * len(self.step_rank) + self.step_rank[e[1]]

    def tail(self, k: int) -> int:
        return k // len(self.step_rank)

    def out_edges(self, i: int) -> range:
        """The ids of the edges leaving orbit i, in ascending order."""
        width = len(self.step_rank)
        return range(i * width, (i + 1) * width)

    def walk(self, start: int, steps) -> list[int]:
        """Edge ids of the quotient walk from orbit ``start`` along ``steps``."""
        out = []
        for s in steps:
            k = self.edge_id((start, s))
            out.append(k)
            start = self.head[k]
        return out

    def straight_sum(self, nums, orbit: int, shift) -> int:
        """The sum of ``nums`` along the straight quotient path from
        ``orbit`` along ``shift``, axis by axis as :func:`straight_steps`."""
        head, width = self.head, len(self.step_rank)
        total = 0
        for c, (up, down) in zip(shift, self.axes):
            r = up if c > 0 else down
            for _ in range(abs(c)):
                k = orbit * width + r
                total += nums[k]
                orbit = head[k]
        return total

    def winding(self, ids) -> Fraction:
        """The coefficient of a closed walk on the distinguished cycle."""
        return Fraction(sum(map(self.lam.__getitem__, ids)), self.lam_den)


@functools.lru_cache(maxsize=1)
def quotient_tables(q: QuotientGraph) -> QuotientTables:
    """The compiled tables of q.  The one-entry cache serves every stage of
    one synthesis in turn: cycle basis, solve, invariant check, lift and
    cocycle check build the tables once between them."""
    return QuotientTables(q)


def unit_square_generators(q: QuotientGraph) -> list[tuple[int, ...]]:
    """Projections of the unit squares of Z^n from each orbit, as edge ids.

    These generate the lattice's cycle space with respect to any translation
    subgroup; Z^1 has none (a tree).
    """
    t = quotient_tables(q)
    units = _unit_steps(_dim(q))[0::2]
    squares = []
    for i in range(q.orbit_count):
        for ei, ej in itertools.combinations(units, 2):
            squares.append(tuple(t.walk(i, [ei, ej, _vec_neg(ei), _vec_neg(ej)])))
    return squares


def distinguished_shift(q: QuotientGraph) -> tuple[int, ...]:
    """The longest lattice generator (HNF row), ties broken lexicographically."""
    rows = q.lattice.hnf_rows
    return max(rows, key=lambda r: (sum(abs(c) for c in r), r))


def straight_steps(shift: tuple[int, ...]):
    steps = []
    for i, c in enumerate(shift):
        unit = tuple((1 if c > 0 else -1) if k == i else 0 for k in range(len(shift)))
        steps.extend([unit] * abs(c))
    return steps


def distinguished_cycle(q: QuotientGraph, start_orbit: int = 0) -> tuple[int, ...]:
    """Edge ids of the projected straight path realizing the longest
    lattice shift from ``start_orbit``: a closed walk of the quotient."""
    t = quotient_tables(q)
    cyc = tuple(t.walk(start_orbit, straight_steps(distinguished_shift(q))))
    if t.head[cyc[-1]] != start_orbit:
        raise InvariantViolationError("distinguished path does not close in the quotient")
    return cyc


def dual_form(q: QuotientGraph) -> tuple[Fraction, ...]:
    """The rational vector w with (HNF row_j) . w = [row_j is distinguished].

    For a closed quotient walk, the dot product of w with the walk's lift
    displacement equals the walk's coefficient on the distinguished cycle in
    the basis built by :func:`cycle_basis`.  The HNF of a full-rank lattice
    is upper triangular with a positive diagonal, so w comes out by back
    substitution.
    """
    rows = q.lattice.hnf_rows
    star = distinguished_shift(q)
    n = len(rows)
    w = [Fraction(0)] * n
    for j in reversed(range(n)):
        rest = sum(rows[j][i] * w[i] for i in range(j + 1, n))
        w[j] = Fraction((1 if rows[j] == star else 0) - rest, rows[j][j])
    return tuple(w)


# ---------------------------------------------------------------------------
# exact linear algebra over directed-edge vectors

class _Echelon:
    """Incremental reduced row echelon form, kept fraction-free, for sparse
    integer vectors keyed by edge id; used for rank and independence tests.

    Each row is stored under its smallest key, its pivot, and is primitive:
    int entries with gcd 1 and a positive pivot coefficient.  No row holds
    another row's pivot.  Each row is a nonzero multiple of the matching
    row of the reduced form over Q, so every answer is the one over Q.
    """

    def __init__(self):
        self.rows: dict = {}  # pivot key -> primitive row (dict key->int)

    @staticmethod
    def _primitive(v: dict) -> dict:
        """v divided in place by the gcd of its entries, with the sign that
        makes the smallest key's coefficient positive."""
        if v:
            g = gcd(*v.values())
            if v[min(v)] < 0:
                g = -g
            if g != 1:
                for k in v:
                    v[k] //= g
        return v

    @classmethod
    def _eliminate(cls, v: dict, row: dict, pivot) -> None:
        """Remove ``pivot`` from v in place: v = (a/g)·v − (c/g)·row with
        a = row[pivot], c = v[pivot] and g = gcd(a, c), then primitive."""
        a, c = row[pivot], v[pivot]
        g = gcd(a, c)
        if a != g:
            s = a // g
            for k in v:
                v[k] *= s
        f = c // g
        for k2, c2 in row.items():
            x = v.get(k2, 0) - f * c2
            if x:
                v[k2] = x
            else:
                del v[k2]
        cls._primitive(v)

    def _reduce(self, vec: dict) -> dict:
        # a row holds no other row's pivot, so eliminating one pivot of v
        # leaves its other pivots nonzero (scaled at most)
        v = {k: c for k, c in vec.items() if c != 0}
        for pivot in [k for k in v if k in self.rows]:
            self._eliminate(v, self.rows[pivot], pivot)
        return self._primitive(v)

    def add(self, vec: dict) -> bool:
        """Insert if independent of the current span; returns True if added."""
        row = self._reduce(vec)
        if not row:
            return False
        pivot = min(row)
        for r in self.rows.values():
            if pivot in r:
                self._eliminate(r, row, pivot)
        self.rows[pivot] = row
        return True

    def contains(self, vec: dict) -> bool:
        return not self._reduce(vec)

    @property
    def rank(self) -> int:
        return len(self.rows)


def cycle_vector(cyc) -> dict:
    """How often each edge id occurs in a sequence, as an int vector."""
    v: dict = {}
    for e in cyc:
        v[e] = v.get(e, 0) + 1
    return v


# ---------------------------------------------------------------------------
# public types

@dataclass(frozen=True)
class DirectedCycleBasis:
    """Basis of the directed cycle space of the doubled quotient graph.

    The first ``rho`` elements span the projections of the generating set;
    the last is the distinguished cycle, the only basis element with nonzero
    winding along the distinguished lattice generator.  Elements are stored
    as sequences of edge ids of :func:`quotient_tables` (the
    non-distinguished ones may be formal compositions rather than single
    closed walks).
    """

    cycles: tuple[tuple[int, ...], ...]
    rho: int
    dim: int

    def distinguished(self) -> tuple[int, ...]:
        return self.cycles[-1]


@dataclass(frozen=True)
class EdgeIncrement:
    """Antisymmetric rational edge values on the doubled quotient graph.

    The value of edge id k of ``tables`` is ``nums[k] / den``.  ``nums``
    holds one int per edge id with ``nums[partner k] == -nums[k]``, so
    delta(-e) = -delta(e), and ``den`` is the lcm of the values' reduced
    denominators, so ``gcd(den, *nums) == 1``.  :attr:`values` gives the
    document form.
    """

    tables: QuotientTables = field(repr=False)
    nums: tuple[int, ...] = field(repr=False)
    den: int
    method: str = "staged"

    @property
    def values(self) -> dict:
        """The values on canonical ``(orbit, step)`` edges, as Fractions."""
        t = self.tables
        return {t.edges[c]: Fraction(self.nums[c], self.den) for c in t.undirected}


def cycle_basis(q: QuotientGraph, generators) -> DirectedCycleBasis:
    """Basis of the directed cycle space of the doubled quotient graph.

    Built from the doubled-edge pairs and the spanning-tree fundamental
    cycles (the latter composed with distinguished-cycle copies to cancel
    their distinguished winding), ordered so a maximal independent family of
    generator projections (edge id sequences) comes first and the
    distinguished cycle last.  Dimension is |E| plus the undirected
    cycle-space dimension.

    Independence is decided by one :class:`_Echelon` over split coordinates.
    A walk's edge counts n become, for each canonical id c, the symmetric
    part n(c) + n(partner c) under key c and the antisymmetric part
    n(c) - n(partner c) under key ``len(t.canonical) + c``.  The change of
    coordinates is invertible over Q, so every prefix rank, and with it the
    greedy choice, is the one over edge counts.

    A generator g and its reverse are (s, a) and (s, -a), which span the
    same space as (s, 0) and (0, a).  So each generator adds those two rows
    instead; the span stays block diagonal, and g is chosen iff either row
    is new, its reverse iff both are (an empty row is never new).

    The digons and fundamental cycles stop once the rank reaches the
    dimension: every vector fed in is a sum of closed walks, so it lies in
    the directed cycle space and would be rejected from then on.
    """
    if not check_symmetric(q):
        raise UsageError("cycle basis requires a symmetric quotient")
    n_orb = q.orbit_count
    t = quotient_tables(q)

    # spanning tree over orbits (BFS in edge id order, loops skipped)
    parent_edge: dict[int, int] = {}
    seen = {0}
    frontier = deque([0])
    while frontier:
        i = frontier.popleft()
        for k in t.out_edges(i):
            j = t.head[k]
            if j not in seen:
                seen.add(j)
                parent_edge[j] = k  # directed parent -> child
                frontier.append(j)
    if len(seen) != n_orb:
        raise InvariantViolationError("quotient graph is disconnected")
    tree_canon = {t.canonical[k] for k in parent_edge.values()}

    def tree_path(i: int, j: int) -> list[int]:
        def to_root(v):
            out = []
            while v != 0:
                k = parent_edge[v]
                out.append(k)
                v = t.tail(k)
            return out
        up_i = to_root(i)
        up_j = to_root(j)
        while up_i and up_j and up_i[-1] == up_j[-1]:
            up_i.pop()
            up_j.pop()
        path = [t.partner[k] for k in up_i]  # i up to the meet point
        path.extend(reversed(up_j))          # meet point down to j
        return path

    def fundamental_cycle(f: int) -> tuple[int, ...]:
        return tuple([f] + tree_path(t.head[f], t.tail(f)))

    dist = distinguished_cycle(q)
    rev_dist = tuple(t.partner[k] for k in reversed(dist))
    if t.winding(dist) != 1:
        raise InvariantViolationError("distinguished cycle must have unit winding")

    def cancel_winding(seq) -> tuple[int, ...]:
        c = t.winding(seq)
        if c.denominator != 1:
            raise InvariantViolationError("closed walk with fractional winding")
        c = int(c)
        if c > 0:
            return tuple(seq) + rev_dist * c
        if c < 0:
            return tuple(seq) + dist * (-c)
        return tuple(seq)

    n_ids = len(t.canonical)

    def split(cyc) -> tuple[dict, dict]:
        """The symmetric and antisymmetric parts of cyc's edge counts."""
        sym: dict = {}
        anti: dict = {}
        for k, x in cycle_vector(cyc).items():
            c = t.canonical[k]
            sym[c] = sym.get(c, 0) + x
            anti[n_ids + c] = anti.get(n_ids + c, 0) + (x if k == c else -x)
        return sym, anti

    def joined(cyc) -> dict:
        sym, anti = split(cyc)
        sym.update(anti)
        return sym

    ech = _Echelon()
    chosen: list[tuple[int, ...]] = []
    for g in generators:
        g = tuple(g)
        if any(t.head[a] != t.tail(b) for a, b in zip(g, g[1:] + g[:1])):
            raise InvariantViolationError("generator projection must be a closed walk")
        if t.winding(g) != 0:
            raise InvariantViolationError("generator projection must lift to a cycle")
        sym, anti = split(g)
        sym_new = ech.add(sym)
        anti_new = ech.add(anti)
        if sym_new or anti_new:
            chosen.append(g)
        if sym_new and anti_new:
            chosen.append(tuple(t.partner[k] for k in reversed(g)))

    if not ech.add(joined(dist)):
        raise InvariantViolationError(
            "distinguished cycle lies in the generator span; no room for the unit total")

    n_edges = len(t.undirected)
    expected_dim = n_edges + (n_edges - (n_orb - 1))
    middle: list[tuple[int, ...]] = []
    for k in t.undirected:
        if ech.rank == expected_dim:
            break
        digon = (k, t.partner[k])
        if ech.add(joined(digon)):
            middle.append(digon)
    for f in t.undirected:
        if ech.rank == expected_dim:
            break
        if f in tree_canon:
            continue
        cyc = cancel_winding(fundamental_cycle(f))
        if ech.add(joined(cyc)):
            middle.append(cyc)

    if ech.rank != expected_dim:
        raise InvariantViolationError(
            f"cycle space dimension {ech.rank} != expected {expected_dim}")
    return DirectedCycleBasis(cycles=tuple(chosen + middle + [dist]), rho=len(chosen),
                              dim=expected_dim)


class _StagedStuck(Exception):
    pass


def _staged_solve(basis: DirectedCycleBasis, q: QuotientGraph) -> tuple[list[int], int]:
    """The staged exploration on the compiled quotient; returns the values
    as ``(nums, den)``, one int numerator per edge id over den."""
    t = quotient_tables(q)
    head, partner, canonical = t.head, t.partner, t.canonical

    # the value of each set edge; connectors are set to 0, so None, not the
    # value, tells an unset edge
    value: list[Fraction | None] = [None] * len(t.edges)
    # Every explored cycle sums to its winding, an integer.  So the
    # potential psi, summed along explored edges as each vertex is first
    # reached, gives every explored path from x to y a sum of values minus
    # windings of psi[y] - psi[x]; and phi, the value sum mod 1 along the
    # same edges, is that of every explored walk from the seed.  The touched
    # vertices are those with a potential, and by_phi counts them by phi.
    dist = basis.distinguished()
    seed = t.tail(dist[0])
    psi = {seed: Fraction(0)}
    phi = {seed: Fraction(0)}
    by_phi = Counter(phi.values())
    touched = psi.__contains__

    def closing_total(seg) -> Fraction:
        """The total of a path of unset edges closing a cycle through the
        explored edges: its winding plus psi(end) - psi(start)."""
        return t.winding(seg) + psi[head[seg[-1]]] - psi[t.tail(seg[0])]

    def new_shared(seg, vals) -> int:
        """How many pairs with a new vertex of seg would share a phi under
        vals: seg's new vertices each against the touched ones and the new
        ones before it."""
        p = phi[t.tail(seg[0])]
        new: Counter = Counter()
        count = 0
        for k, v in zip(seg, vals):
            p = (p + v) % 1
            if not touched(head[k]):
                count += by_phi[p] + new[p]
                new[p] += 1
        return count

    def set_segment(seg, candidates):
        """Set the edges of seg, a path from a touched vertex, once: to the
        first candidate values under which the fewest pairs with a new
        vertex share a phi, so that the most touched vertex pairs are joined
        by an explored SAW with a non-integer sum."""
        best = candidates[0]
        fewest = new_shared(seg, best) if len(candidates) > 1 else 0
        for vals in candidates[1:]:
            if fewest == 0:
                break
            count = new_shared(seg, vals)
            if count < fewest:
                best, fewest = vals, count
        for k, v in zip(seg, best):
            value[k], value[partner[k]] = v, -v
        for k in seg:  # the edge or its partner reaches each new vertex
            for e in (k, partner[k]):
                w, tail = head[e], t.tail(e)
                if w not in psi:
                    psi[w] = psi[tail] + value[e] - Fraction(t.lam[e], t.lam_den)
                    phi[w] = p = (phi[tail] + value[e]) % 1
                    by_phi[p] += 1

    def explore_cycle(cyc: tuple[int, ...]):
        # cyc is explored only once it meets the explored region
        start = next(i for i, k in enumerate(cyc) if touched(t.tail(k)))
        run: list[int] = []
        for k in cyc[start:] + cyc[:start]:
            if value[k] is not None:  # k's tail is touched, so no run is open here
                continue
            run.append(k)
            if touched(head[k]):  # the start's tail is, so the last run ends too
                finish_run(run)
                run = []

    def finish_run(seg: list[int]):
        # a non-integer return SAW from b to a exists iff phi[a] != phi[b]
        a, b = t.tail(seg[0]), head[seg[-1]]
        if a != b and phi[a] == phi[b]:
            raise _StagedStuck("no non-integer return SAW for a segment")
        total = closing_total(seg)
        if total == 0:
            raise _StagedStuck("segment total vanished")
        m = len(seg)
        if m == 1:
            set_segment(seg, [[total]])
            return
        # equal shares of total's sign, perturbed so that as many explored
        # path sums as possible avoid the integers; eps <= |share| / 101, so
        # every value is nonzero with total's sign
        share = total / m
        candidates = []
        for attempt in range(3):
            eps = abs(share) / _PERTURB_PRIME ** (attempt + 1)
            for rot in range(min(m, 3)):
                vals = [share] * m
                vals[rot] += eps
                vals[(rot + 1) % m] -= eps
                candidates.append(vals)
        set_segment(seg, candidates)

    # translates of the distinguished cycle through every orbit
    translates = {}
    for i in range(q.orbit_count):
        cyc = distinguished_cycle(q, i)
        if (len({t.tail(k) for k in cyc}) != len(cyc)
                or len({canonical[k] for k in cyc}) != len(cyc)):
            raise _StagedStuck("a distinguished translate is not a simple cycle")
        translates[i] = cyc

    # Stage 1: seed the distinguished cycle uniformly
    set_segment(dist, [[Fraction(1, len(dist))] * len(dist)])

    # Stages 2-4: explore the lowest pending translate that meets the
    # explored region; when none does, the touched vertices are those of the
    # translates explored so far, and the first edge that leaves them is set
    # to zero (one exists: cycle_basis checked that the quotient is connected)
    pending = sorted(translates)
    while pending:
        nxt = next((i for i in pending if any(touched(t.tail(k)) for k in translates[i])),
                   None)
        if nxt is None:
            k = next(k for k in t.undirected if touched(t.tail(k)) != touched(head[k]))
            set_segment([k], [[Fraction(0)]])
            continue
        pending.remove(nxt)
        explore_cycle(translates[nxt])

    # Stage 5: residual edges fixed by the explored-walk rule
    for k in t.undirected:
        if value[k] is None:
            set_segment([k], [[closing_total([k])]])
    den = lcm(*(v.denominator for v in value))
    return [v.numerator * (den // v.denominator) for v in value], den


def _direct_solve(q: QuotientGraph) -> tuple[tuple[int, ...], int]:
    """The dual-form solution delta(i, step) = step . w.

    A closed walk then sums to w . (its lift displacement), which is its
    coefficient on the distinguished cycle, so every basis cycle meets its
    target; and w != 0 gives every vertex out-increments of both signs.
    """
    t = quotient_tables(q)
    return t.lam, t.lam_den


def increment_invariant_problems(inc: EdgeIncrement, basis: DirectedCycleBasis,
                                 q: QuotientGraph) -> list[str]:
    t = quotient_tables(q)
    nums, den = inc.nums, inc.den
    problems = []
    for i, cyc in enumerate(basis.cycles):
        want = den if i == len(basis.cycles) - 1 else 0
        got = sum(map(nums.__getitem__, cyc))
        if got != want:
            problems.append(f"cycle {i}: sum {Fraction(got, den)} != {Fraction(want, den)}")
    for i in range(q.orbit_count):
        outs = [nums[k] for k in t.out_edges(i)]
        if not (any(v > 0 for v in outs) and any(v < 0 for v in outs)):
            problems.append(f"orbit {i}: out-increments miss a strict sign")
    return problems


def solve_increments(basis: DirectedCycleBasis, q: QuotientGraph,
                     method: str = "auto") -> EdgeIncrement:
    """Increments satisfying the cycle constraints and the sign condition.

    ``auto`` runs the staged exploration and falls back to the direct
    dual-form solution when the staged route gets stuck; the method actually
    used is recorded on the result.  A solver's numerator per edge id and
    its denominator are divided by their gcd, so the increment's ``den`` is
    the lcm of its values' reduced denominators.
    """
    if method not in ("auto", "staged", "direct"):
        raise UsageError(f"unknown method {method!r}")
    attempts = []
    if method in ("auto", "staged"):
        attempts.append("staged")
    if method in ("auto", "direct"):
        attempts.append("direct")
    last_error = None
    for name in attempts:
        try:
            nums, den = _staged_solve(basis, q) if name == "staged" else _direct_solve(q)
            g = gcd(den, *nums)
            label = name if name == "staged" or method == "direct" else "direct-fallback"
            inc = EdgeIncrement(tables=quotient_tables(q), nums=tuple(x // g for x in nums),
                                den=den // g, method=label)
            problems = increment_invariant_problems(inc, basis, q)
            if problems:
                raise InvariantViolationError("; ".join(problems))
            return inc
        except (_StagedStuck, InvariantViolationError) as exc:
            last_error = exc
            continue
    raise InvariantViolationError(f"no increment solution found: {last_error}")


# ---------------------------------------------------------------------------
# lifting

@dataclass(frozen=True)
class LiftedHeight:
    """Integer height on the lattice obtained by scaling and integrating an
    edge increment along paths from the origin.

    The scale m is the increments' ``den``, so the scaled increments
    m * delta are their ``nums``, and :meth:`evaluate` sums those along the
    straight path from the origin over the compiled head table.
    """

    increments: EdgeIncrement
    quotient: QuotientGraph = field(repr=False)
    _origin_orbit: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        q = self.quotient
        object.__setattr__(self, "_origin_orbit", q.project((0,) * _dim(q)))

    @property
    def scaling(self) -> int:
        return self.increments.den

    def evaluate(self, v: Label) -> int:
        inc = self.increments
        return inc.tables.straight_sum(inc.nums, self._origin_orbit, v)

    def max_edge_change(self) -> int:
        return max(abs(x) for x in self.increments.nums)

    def as_height_function(self):
        from .heights import HeightFunction
        q = self.quotient
        d = self.max_edge_change()
        n_orb = q.orbit_count
        r_bound = 0 if n_orb == 1 else (n_orb - 1) * (2 * d + 1) + 2
        return HeightFunction(
            spec=f"synth:m={self.scaling}", evaluate=self.evaluate,
            declared_d=d, declared_r=r_bound, h_orbits=q.reps, h_orbit_of=q.project,
        )


def lift_height(inc: EdgeIncrement, family: GraphFamily, q: QuotientGraph) -> LiftedHeight:
    """Scale increments to integers by their denominator and integrate;
    verifies path independence on the radius-4 ball (any closed-walk sum
    must vanish)."""
    lifted = LiftedHeight(increments=inc, quotient=q)
    t, scaled = inc.tables, inc.nums
    b = ball(family, family.origin, 4)
    # accumulation in the ball's breadth-first order (each vertex is reached
    # from an earlier one), then consistency across every ball edge
    cache = {family.origin: 0}
    for v in b.vertices:
        i = q.project(v)
        for u in filter(b.dist.__contains__, b.neighbors[v]):
            h = cache[v] + scaled[t.edge_id((i, tuple(a - c for a, c in zip(u, v))))]
            if cache.setdefault(u, h) != h:
                raise InvariantViolationError(
                    f"path-dependent increments: closed walk through {u!r} has nonzero sum")
    for v in b.vertices[:64]:
        if lifted.evaluate(v) != cache[v]:
            raise InvariantViolationError("straight-path evaluation disagrees with BFS lift")
    return lifted


def verify_cocycle(inc: EdgeIncrement, family: GraphFamily, q: QuotientGraph,
                   trials: int, seed: int = 0) -> bool:
    """Project random closed walks (length <= 20) and check the increment
    sums vanish; vacuously true for zero trials."""
    rng = random.Random(seed)
    n = _dim(q)
    t = quotient_tables(q)
    head, width, nums = t.head, len(t.step_rank), inc.nums
    # the step ranks in _unit_steps order, so choice draws the index it
    # would draw from the step vectors
    ranks = [r for axis in t.axes for r in axis]
    for _ in range(trials):
        start = tuple(rng.randint(-3, 3) for _ in range(n))
        length = rng.randint(2, 10)
        walk = [rng.choice(ranks) for _ in range(length)]
        orbit = q.project(start)
        total = 0
        for r in walk:
            k = orbit * width + r
            total += nums[k]
            orbit = head[k]
        back = [walk.count(down) - walk.count(up) for up, down in t.axes]
        if total + t.straight_sum(nums, orbit, back):
            return False
    return True


def synthesize_height(family: GraphFamily, shifts, method: str = "auto"):
    """Full pipeline: quotient, cycle basis from unit squares, increments,
    integer lift.  Returns (quotient, basis, increments, lifted height)."""
    q = build_quotient(family, shifts)
    if not check_symmetric(q):
        raise InvariantViolationError("translation quotient is unexpectedly asymmetric")
    basis = cycle_basis(q, unit_square_generators(q))
    inc = solve_increments(basis, q, method=method)
    lifted = lift_height(inc, family, q)
    return q, basis, inc, lifted
