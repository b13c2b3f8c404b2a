"""Certified connective-constant brackets and locality quantities.

The n-th roots of bridge counts never exceed the connective constant and
the n-th roots of SAW counts never fall below it, so a count table yields a
two-sided bracket.  Every root that feeds a bound is rounded outward in
floating point (verified against the exact integer), so the printed bracket
is certified despite floating error.

Also here: the rooted-ball isomorphism test, the similarity function K
(largest radius with isomorphic rooted balls), and distinct-part partition
counts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolationError, ResourceBudgetError, UsageError, budget
from .families import Ball, GraphFamily, ball, balls
from .heights import HeightFunction
from .tables import CountTable


def nth_root(value: int, n: int, up: bool) -> float:
    """Smallest float x with x**n >= value when ``up``, else the largest
    float x with x**n <= value."""
    if value < 0 or n < 1:
        raise UsageError("root of a negative count requested")
    if value == 0:
        return 0.0

    def fits(x: float) -> bool:
        power = Fraction(x) ** n
        return power >= value if up else power <= value

    x = math.exp(math.log(value) / n)
    while not fits(x):
        x = math.nextafter(x, math.inf if up else 0.0)
    while fits(y := math.nextafter(x, 0.0 if up else math.inf)):
        x = y
    return x


@dataclass(frozen=True)
class BoundsReport:
    family: str
    height: str
    n_max: int
    lower_candidates: tuple[tuple[int, float], ...]  # (n, b_n^{1/n} rounded down)
    upper_candidates: tuple[tuple[int, float], ...]  # (n, sigma_n^{1/n} rounded up)
    certified_lower: float
    certified_upper: float

    @property
    def width(self) -> float:
        """certified_upper - certified_lower, rounded up."""
        w = self.certified_upper - self.certified_lower
        if Fraction(w) < Fraction(self.certified_upper) - Fraction(self.certified_lower):
            w = math.nextafter(w, math.inf)
        return w

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.certified_lower + self.certified_upper)

    def contains(self, x: float) -> bool:
        return self.certified_lower <= x <= self.certified_upper


def bracket(table: CountTable) -> BoundsReport:
    """Certified bracket from a count table (n >= 1 rows only)."""
    if table.n_max < 1:
        raise UsageError("bracket needs counts up to n_max >= 1")
    lows = tuple((n, nth_root(table.b[n], n, up=False)) for n in range(1, table.n_max + 1))
    ups = tuple((n, nth_root(table.sigma[n], n, up=True)) for n in range(1, table.n_max + 1))
    return BoundsReport(
        family=table.family, height=table.height, n_max=table.n_max,
        lower_candidates=lows, upper_candidates=ups,
        certified_lower=max(v for _, v in lows),
        certified_upper=min(v for _, v in ups),
    )


def check_fekete(table: CountTable) -> bool:
    """sigma_{m+n} <= sigma_m sigma_n and b_{m+n} >= b_m b_n for all stored
    index pairs."""
    sigma, b = table.sigma, table.b
    top = table.n_max
    for m in range(top + 1):
        for n in range(top + 1 - m):
            if sigma[m + n] > sigma[m] * sigma[n]:
                return False
            if b[m + n] < b[m] * b[n]:
                return False
    return True


def check_roots(table: CountTable) -> bool:
    """b_n^m <= sigma_m^n for 1 <= m, n <= n_max, in exact integers: no
    n-th root of b exceeds an m-th root of sigma, so the certified bracket
    is not empty.  The roots are ordered exactly by b_i^j against b_j^i, so
    the largest root of b and the smallest of sigma decide."""
    if table.n_max < 1:
        return True
    b, sigma, top = table.b, table.sigma, range(1, table.n_max + 1)
    n = max(top, key=functools.cmp_to_key(lambda i, j: b[i] ** j - b[j] ** i))
    m = min(top, key=functools.cmp_to_key(lambda i, j: sigma[i] ** j - sigma[j] ** i))
    return b[n] ** m <= sigma[m] ** n


# ---------------------------------------------------------------------------
# rooted isomorphism and the similarity function

def _ball_signature(b: Ball) -> tuple[dict, tuple]:
    """The ball's adjacency sets, and a summary that isomorphic balls share."""
    adj = {v: {u for u in b.neighbors[v] if u in b.dist} for v in b.vertices}
    profile = sorted((b.dist[v], len(adj[v])) for v in b.vertices)
    return adj, (len(b.vertices), sum(map(len, adj.values())) // 2, tuple(profile))


def ball_isomorphic(a: Ball, b: Ball) -> bool:
    """Decide rooted graph isomorphism by backtracking, refining candidate
    sets by distance from the root and degree."""
    cap = budget("ISO_VERTICES")
    if len(a.vertices) > cap or len(b.vertices) > cap:
        raise ResourceBudgetError("ball too large for isomorphism backtracking")
    (adj_a, sig_a), (adj_b, sig_b) = _ball_signature(a), _ball_signature(b)
    if sig_a != sig_b:
        return False
    # order A's vertices by distance from the root: a vertex at distance
    # d >= 1 has a neighbor at distance d - 1, so each (after the root)
    # touches an earlier one
    order = [a.root, *sorted((v for v in a.vertices if v != a.root),
                             key=lambda v: (a.dist[v], -len(adj_a[v]), v))]

    klass_b: dict[tuple, list] = {}
    for v in b.vertices:
        klass_b.setdefault((b.dist[v], len(adj_b[v])), []).append(v)

    mapping = {a.root: b.root}
    rmapping = {b.root: a.root}

    def feasible(v, w) -> bool:
        # mapped neighbors of v must land on neighbors of w, and mapped
        # neighbors of w must come from neighbors of v; together these keep
        # both edges and non-edges of the mapped set consistent
        for u in adj_a[v]:
            if u in mapping and mapping[u] not in adj_b[w]:
                return False
        for y in adj_b[w]:
            if y in rmapping and rmapping[y] not in adj_a[v]:
                return False
        return True

    def candidates(v):
        # checked against the vertices mapped when the iterator is advanced
        for w in klass_b.get((a.dist[v], len(adj_a[v])), ()):
            if w not in rmapping and feasible(v, w):
                yield w

    # backtracking over an explicit stack, so the depth is not bounded by
    # the interpreter's recursion limit: stack[i - 1] walks the candidates
    # for order[i], and order[:i] is mapped
    stack: list = []
    i = 1
    while i < len(order):
        v = order[i]
        if len(stack) < i:
            stack.append(candidates(v))
        w = next(stack[-1], None)
        if w is None:  # v has no image left: remap the vertex before it
            stack.pop()
            i -= 1
            if i == 0:
                return False
            del rmapping[mapping.pop(order[i])]
        else:
            mapping[v] = w
            rmapping[w] = v
            i += 1
    return True


@dataclass(frozen=True)
class SimilarityResult:
    K: int
    cap: int
    capped: bool
    mismatch_radius: int | None


def similarity_K(fam_a: GraphFamily, fam_b: GraphFamily, cap: int) -> SimilarityResult:
    """Largest k <= cap with isomorphic rooted k-balls around the origins.
    Each family's balls come from one growing search (:func:`balls`); the
    k-ball of fam_a is grown before fam_b's, and none beyond radius cap."""
    if cap < 0:
        raise UsageError("cap must be >= 0")
    for k, ba, bb in zip(range(cap + 1), balls(fam_a, fam_a.origin), balls(fam_b, fam_b.origin)):
        if not ball_isomorphic(ba, bb):
            return SimilarityResult(K=k - 1, cap=cap, capped=False, mismatch_radius=k)
    return SimilarityResult(K=cap, cap=cap, capped=True, mismatch_radius=None)


# ---------------------------------------------------------------------------
# partitions

def distinct_partitions(n: int) -> tuple[int, int]:
    """Number of partitions of n into distinct positive parts, and the
    largest part-count among them (dynamic programming over exact counts)."""
    if n < 1:
        raise UsageError("n must be >= 1")
    # q[k][m] = partitions of m into exactly k distinct parts
    max_k = 1
    while (max_k + 1) * (max_k + 2) // 2 <= n:
        max_k += 1
    q = [[0] * (n + 1) for _ in range(max_k + 1)]
    q[0][0] = 1
    # distinct partitions of m with k parts <-> partitions of m - k(k+1)/2
    # into at most k parts; recurrence on (k, m): subtract 1 from every part
    for k in range(1, max_k + 1):
        for m in range(k, n + 1):
            q[k][m] = q[k][m - k] + q[k - 1][m - k]
    total = sum(q[k][n] for k in range(max_k + 1))
    max_order = max((k for k in range(max_k + 1) if q[k][n] > 0), default=0)
    return total, max_order


# ---------------------------------------------------------------------------
# combined locality report

@dataclass(frozen=True)
class LocalityReport:
    similarity: SimilarityResult
    slack: int
    bracket_a: BoundsReport
    bracket_b: BoundsReport
    tables_should_agree: bool
    sigma_divergence_n: int | None
    b_divergence_n: int | None
    cross_ok: bool
    gap: float


def _first_divergence(xs, ys):
    for n, (x, y) in enumerate(zip(xs, ys)):
        if x != y:
            return n
    return None


def _rep_radius(family: GraphFamily, hf: HeightFunction) -> int:
    """The largest breadth-first distance from the origin to a
    representative of hf's orbits."""
    radius = 0
    while True:
        dist = ball(family, family.origin, radius).dist
        if all(v in dist for v in hf.h_orbits):
            return max(dist[v] for v in hf.h_orbits)
        if max(dist.values()) < radius:  # the origin's component is exhausted
            raise InvariantViolationError(
                f"{hf.spec}: an orbit representative is not reachable from the origin")
        radius += 1


def locality_report(fam_a: GraphFamily, hf_a: HeightFunction,
                    fam_b: GraphFamily, hf_b: HeightFunction,
                    n_max: int, cap: int, jobs: int = 1) -> LocalityReport:
    """Similarity radius, both brackets, agreement of the count tables up to
    K - S, and the empirical bracket distance.

    Each table counts walks from every representative of its height's
    orbits, and a walk of length n from a representative at distance s
    from the origin stays in the origin's (n + s)-ball.  So the slack S is
    the largest such s over both heights.
    """
    from .tables import build_count_table
    sim = similarity_K(fam_a, fam_b, cap)
    slack = max(_rep_radius(fam_a, hf_a), _rep_radius(fam_b, hf_b))
    ta = build_count_table(fam_a, hf_a, n_max, jobs=jobs)
    tb = build_count_table(fam_b, hf_b, n_max, jobs=jobs)
    ba, bb = bracket(ta), bracket(tb)
    should_agree = n_max <= sim.K - slack
    div_sigma = _first_divergence(ta.sigma[1:], tb.sigma[1:])
    div_b = _first_divergence(ta.b[1:], tb.b[1:])
    cross_ok = (ba.certified_lower <= bb.certified_upper
                and bb.certified_lower <= ba.certified_upper)
    return LocalityReport(
        similarity=sim, slack=slack, bracket_a=ba, bracket_b=bb,
        tables_should_agree=should_agree,
        sigma_divergence_n=None if div_sigma is None else div_sigma + 1,
        b_divergence_n=None if div_b is None else div_b + 1,
        cross_ok=cross_ok,
        gap=abs(ba.midpoint - bb.midpoint),
    )
