"""Exact backtracking enumeration of SAWs, half-space walks, and bridges.

All counts are exact Python integers.  A walk of length n relative to a
height function h and start vertex v is

* a *half-space walk* if every non-initial height exceeds h(v),
* a *bridge* if in addition no height exceeds the final one, and
* a *reversed bridge* under the mirrored condition.

``decompose`` splits a half-space walk into alternating bridges and
reversed bridges with strictly decreasing spans, following the recursion
that extracts at each step the largest remaining signed height excursion
and breaks at its last maximizer.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from itertools import islice, repeat
from operator import eq
from typing import Iterator, Literal

from .errors import InvariantViolationError, ResourceBudgetError, UsageError, budget
from .families import GraphFamily, Label
from .heights import HeightFunction, default_height

WalkKind = Literal["saw", "halfspace", "bridge"]


@dataclass(frozen=True)
class Walk:
    vertices: tuple[Label, ...]

    def __len__(self) -> int:
        return len(self.vertices) - 1


def make_walk(family: GraphFamily, vertices) -> Walk:
    """Build a walk, checking adjacency and self-avoidance."""
    vs = tuple(vertices)
    if not vs:
        raise UsageError("a walk needs at least one vertex")
    if len(set(vs)) != len(vs):
        raise UsageError("walk revisits a vertex")
    # reading a vertex's neighbors checks its label, the last vertex's too
    for a, b, out in zip(vs, vs[1:], [family.neighbors(v) for v in vs]):
        if b not in out:
            raise UsageError(f"walk step {a!r} -> {b!r} is not an edge")
    return Walk(vs)


def span(hf: HeightFunction, w: Walk) -> int:
    """Max height minus min height over the walk's vertices."""
    hs = [hf.evaluate(v) for v in w.vertices]
    return max(hs) - min(hs)


def is_halfspace(hf: HeightFunction, w: Walk) -> bool:
    h0 = hf.evaluate(w.vertices[0])
    return all(hf.evaluate(v) > h0 for v in w.vertices[1:])


def is_bridge(hf: HeightFunction, w: Walk) -> bool:
    hs = [hf.evaluate(v) for v in w.vertices]
    return all(hs[0] < h <= hs[-1] for h in hs[1:])


def is_reversed_bridge(hf: HeightFunction, w: Walk) -> bool:
    hs = [hf.evaluate(v) for v in w.vertices]
    return all(hs[-1] <= h < hs[0] for h in hs[1:])


# ---------------------------------------------------------------------------
# counting

# Largest ball the cone types are measured on.  Tree balls grow as fast as
# the walk set, so the check covers the short walks exactly and stays cheap;
# the counts beyond it rest on how the family and its height are built.
CONE_CHECK_MAX_VERTICES = 4096


@functools.lru_cache(maxsize=1)
def _cone_ball(family, evaluate, start):
    """Measure a tree's cone types on a ball around ``start``, in the height
    function ``evaluate``.

    In a tree every SAW is a non-backtracking walk, so how a walk may
    continue depends only on the type of its last vertex.  A vertex's type
    is the height increment of the step into it, None for the start, and
    its row maps each increment of its onward steps to their number.  A
    breadth-first search expands the tree until the ball has more than
    CONE_CHECK_MAX_VERTICES vertices, or until the tree ends.  Each expanded
    vertex must list its parent once and only new vertices besides (so the
    ball is a tree), and must have the row of the first expanded vertex of
    its type; when the search stops at the cap, every type must have a row.
    A failure raises InvariantViolationError.  The walks of length n are
    verified exactly when every vertex closer than n to the start was
    expanded; beyond that length the counts rest on how the family and its
    height are built.

    Returns ``(ball, rows)``: ``ball`` maps each label reached to its height
    relative to the start's, and ``rows`` each type to its row.  It depends
    on neither the walk kind nor the length, so the one-entry cache serves
    every count from one start in turn that passes the same function: the
    built-in trees' SAW, half-space and bridge counts all pass
    ``heights._horocyclic``, and so share one ball.
    """
    # a miss: drop the previous start's ball before this one is built, so
    # that two balls are never held at once
    _cone_ball.cache_clear()
    neighbors = family.neighbors
    h0 = evaluate(start)
    ball = {start: 0}
    rows = {}
    # each type's onward increments, sorted, as its first vertex had them
    firsts = {}
    # a level is four parallel lists: vertex, parent, type, height
    level = [start], [None], [None], [0]
    radius = 0
    while level[0]:
        nxt = [], [], [], []
        kids, parents_of, types, heights = nxt
        add_kid, add_height = kids.append, heights.append
        for v, parent, t, hv in zip(*level):
            incs = []
            parents = 0
            for u in neighbors(v):
                if u == parent:
                    parents += 1
                    continue
                # one hash per child: a vertex already in the ball leaves
                # its size unchanged
                size = len(ball)
                hu = ball[u] = evaluate(u) - h0
                if len(ball) == size:
                    raise InvariantViolationError(
                        f"{family.spec} is marked a tree, but {u!r} closes a cycle "
                        f"at distance {radius + 1} from {start!r}")
                add_kid(u)
                add_height(hu)
                incs.append(hu - hv)
            parents_of.extend(repeat(v, len(incs)))
            types.extend(incs)
            if parents != (parent is not None):
                raise InvariantViolationError(
                    f"{family.spec}: {v!r} lists the vertex it was reached from "
                    f"{parents} times")
            first = firsts.get(t)
            if first is None or sorted(incs) != first:
                row = dict(Counter(incs))
                if first is not None:
                    raise InvariantViolationError(
                        f"{family.spec}: {v!r} has onward steps {row} by height increment, "
                        f"where the first vertex entered by a step of increment {t} had "
                        f"{rows[t]}")
                rows[t] = row
                firsts[t] = sorted(incs)
            if len(ball) > CONE_CHECK_MAX_VERTICES:
                unmeasured = {inc for r in rows.values() for inc in r}.difference(rows)
                if unmeasured:
                    raise InvariantViolationError(
                        f"{family.spec}: the cone check passed {CONE_CHECK_MAX_VERTICES} "
                        f"vertices before it expanded a vertex entered by a step of each "
                        f"increment in {sorted(unmeasured)}")
                return ball, rows
        level = nxt
        radius += 1
    return ball, rows


def _count_cones(rows, n_max, mode):
    """The tally of the walks from a start, as :func:`_count_from` returns
    it, by an exact DP over the cone types ``rows`` that
    :func:`_cone_ball` measured around it.

    A walk's state is the type of its last vertex, its height above the
    start and the running maximum of its heights; the walks sharing a state
    continue alike.  Half-space walks and bridges keep only the states
    above the start, and a walk is a bridge when its height is the running
    maximum, its span that height: a bridge row is ``n_max * top + 1`` wide
    for the largest increment top (or 0), the others one.
    """
    top = max([0, *(inc for row in rows.values() for inc in row)]) if mode == "bridge" else 0
    tally = [[0] * (n_max * top + 1) for _ in range(n_max + 1)]
    tally[0][0] = 1
    states = {(None, 0, 0): 1}
    for depth in range(1, n_max + 1):
        nxt = {}
        for (t, h, hi), num in states.items():
            for inc, mult in rows[t].items():
                hu = h + inc
                if mode == "saw":
                    key = (inc, 0, 0)
                elif hu <= 0:
                    continue
                elif mode == "halfspace":
                    key = (inc, hu, 0)
                else:
                    key = (inc, hu, max(hi, hu))
                nxt[key] = nxt.get(key, 0) + num * mult
        states = nxt
        row = tally[depth]
        for (t, h, hi), num in states.items():
            if mode != "bridge":
                row[0] += num
            elif h == hi:
                row[h] += num
    return tally


@functools.lru_cache(maxsize=1)
def _compile_ball(family, start, n_max, cap):
    """The radius-n_max ball around ``start`` as int ids in BFS order.

    Returns ``(labels, adj, perms)`` with start as id 0: ``labels[i]`` is
    vertex i's label and ``adj[i]`` the ids of its neighbors in the oracle's
    order.  Only vertices closer than n_max get an ``adj`` entry, so the
    oracle is called once for each of them: no walk of length n_max steps
    out of the sphere.  The search raises ResourceBudgetError, with
    :func:`families.balls`'s message, as soon as the ball has more than
    ``cap`` vertices.  The kernel counts a walk's last steps from how many
    of a vertex's neighbors the walk holds, so it needs a simple, symmetric
    adjacency: a vertex that lists itself or lists a neighbor twice, or that
    lists a vertex with an ``adj`` entry which does not list it back, raises
    InvariantViolationError.  When start is the origin, ``perms`` holds each
    of the family's declared symmetries as a permutation of the ids,
    verified on the ball; otherwise it is empty.

    The result does not depend on the walk kind, so the one-entry cache
    serves the SAW, half-space and bridge counts from one start in turn;
    ``cap`` is part of its key, so no count reuses a ball built under
    another cap.
    """
    ids = {start: 0}
    adj = []
    level = [start]
    for radius in range(1, n_max + 1):
        first = len(ids)
        for v in level:
            # a vertex seen for the first time takes the next id
            adj.append(tuple([ids.setdefault(u, len(ids)) for u in family.neighbors(v)]))
            if len(ids) > cap:
                raise ResourceBudgetError(
                    f"ball({family.spec}, r={radius}) around {start!r} exceeds {cap} vertices")
        level = list(islice(ids, first, None))
    labels = tuple(ids)
    inner = len(adj)
    if (list(map(len, map(set, adj))) != list(map(len, adj))
            or any(map(tuple.__contains__, adj, range(inner)))):
        v = next(labels[i] for i, nb in enumerate(adj) if i in nb or len(set(nb)) != len(nb))
        raise InvariantViolationError(
            f"{family.spec}: {v!r} lists itself or lists a neighbor twice; "
            f"the counters need a simple graph")
    for i, nb in enumerate(adj):
        for j in nb:
            if j < inner and i not in adj[j]:
                raise InvariantViolationError(
                    f"{family.spec}: {labels[i]!r} lists {labels[j]!r}, which does not "
                    f"list it back; the counters need symmetric adjacency")
    perms = []
    symmetries = family.symmetries if start == family.origin else ()
    sorted_adj = list(map(sorted, adj)) if symmetries else None
    for k, g in enumerate(symmetries):
        perm = tuple(map(ids.get, map(g, labels), repeat(-1)))
        head = perm[:inner]
        if perm[0] != 0:
            why = "moves the origin"
        elif -1 in perm:
            why = "maps a vertex out of the ball"
        elif len(set(perm)) != len(perm):
            why = "is not a bijection"
        elif (max(head, default=-1) >= inner
              or not all(map(eq, map(sorted, map(map, repeat(perm.__getitem__), adj)),
                             map(sorted_adj.__getitem__, head)))):
            why = "does not preserve adjacency"
        else:
            perms.append(perm)
            continue
        raise InvariantViolationError(
            f"{family.spec}: declared symmetry {k} {why} on the radius-{n_max} ball")
    return labels, tuple(adj), tuple(perms)


@functools.lru_cache(maxsize=1)
def _height_ball(family, hf, start, n_max, cap):
    """The compiled ball as the kernel reads it for half-space walks and
    bridges: ``(adj, heights, perms)``, where ``adj[i]`` holds the ids
    higher than the start among vertex i's neighbors, ``heights[i]`` is
    vertex i's height and ``perms`` are the verified symmetries that also
    preserve every height in the ball.  The one-entry cache serves both
    kinds from one start, so each height is evaluated once."""
    labels, adj, perms = _compile_ball(family, start, n_max, cap)
    heights = list(map(hf.evaluate, labels))
    h0 = heights[0]
    adj = tuple([tuple([u for u in nb if heights[u] > h0]) for nb in adj])
    perms = tuple(g for g in perms if list(map(heights.__getitem__, g)) == heights)
    return adj, heights, perms


def _count_from(adj, heights, path, n_max, mode):
    """The tally of the walks extending ``path``: for each length up to
    n_max (zero below ``len(path) - 1``) a row of exact ints.  A SAW or
    half-space row holds the count; a bridge row is indexed by span, the
    height above the start h0, and is ``max(heights) - h0 + 1`` wide, so the
    tallies of two prefixes from one start add elementwise.

    ``adj[v]`` lists the ids a walk may step to from v (for half-space walks
    and bridges only those above the start), and ``heights`` is read for
    bridges only, whose emission test is the running maximum.

    SAWs and half-space walks count their last three steps in place.  The
    search keeps ``near[w]``, the number of walk vertices whose row lists w,
    up to date as it extends and retracts the walk.  A walk of length
    n_max - 3 ending at v gains one walk of length n_max - 2 for each free
    neighbor u of v and, for each free neighbor w of u, one walk of length
    n_max - 1 and ``len(adj[w]) - near[w] - 1`` walks of length n_max, the 1
    being u, which is on the walk but not yet in ``near``.  A path of length
    n_max - 2 or n_max - 1 is counted from set sizes instead:
    ``len(adj[u]) - len(used & adj[u])`` walks of length n_max through each
    free u.  ``near[w]`` equals the walk vertices w lists only when the rows
    are simple and symmetric, which :func:`_compile_ball` checks; the
    half-space start is in no height-filtered row, so its own row is left
    out.  A bridge tests the free neighbors of its last free step u against
    the running maximum through u.
    """
    used = set(path)
    base = len(path) - 1

    if mode != "bridge":
        counts = [0] * (n_max + 1)
        last = n_max - 3

        def walks(v, depth):
            if depth == last:
                free = mid = ends = 0
                for u in adj[v]:
                    if u not in used:
                        free += 1
                        for w in adj[u]:
                            if w not in used:
                                mid += 1
                                ends += len(adj[w]) - near[w]
                counts[n_max - 2] += free
                counts[n_max - 1] += mid
                # near[w] misses u, the walk's last vertex: one more each
                counts[n_max] += ends - mid
                return
            depth += 1
            for u in adj[v]:
                if u not in used:
                    counts[depth] += 1
                    used.add(u)
                    nb = adj[u]
                    for w in nb:
                        near[w] += 1
                    walks(u, depth)
                    for w in nb:
                        near[w] -= 1
                    used.discard(u)

        counts[base] = 1
        v = path[-1]
        if base <= last:
            near = [0] * len(adj)
            # the half-space start is in no row: its height is not above its own
            for x in path[mode != "saw":]:
                for w in adj[x]:
                    near[w] += 1
            walks(v, base)
        elif base == n_max - 2:
            for u in adj[v]:
                if u not in used:
                    counts[n_max - 1] += 1
                    counts[n_max] += len(adj[u]) - len(used.intersection(adj[u]))
        elif base == n_max - 1:
            counts[n_max] = len(adj[v]) - len(used.intersection(adj[v]))
        return [[c] for c in counts]

    h0 = heights[path[0]]
    tally = [[0] * (max(heights) - h0 + 1) for _ in range(n_max + 1)]
    last = n_max - 1
    top = tally[n_max]

    def bridges(v, depth, hi):
        depth += 1
        row = tally[depth]
        for u in adj[v]:
            if u not in used:
                hu = heights[u]
                if hu >= hi:
                    row[hu - h0] += 1
                    hi_u = hu
                else:
                    hi_u = hi
                if depth < last:
                    used.add(u)
                    bridges(u, depth, hi_u)
                    used.discard(u)
                elif depth == last:
                    for w in adj[u]:
                        if w not in used:
                            hw = heights[w]
                            if hw >= hi_u:
                                top[hw - h0] += 1

    hi = max(heights[v] for v in path)
    if heights[path[-1]] == hi:
        tally[base][hi - h0] = 1
    if base < n_max:
        bridges(path[-1], base, hi)
    return tally


# The estimated walk count below which _count stays in process at any
# ``jobs``.  Two workers at best halve the kernel's time t, so a pool pays
# once t / 2 exceeds its start-up and teardown cost O ~ 20 ms: past 2 * O * R
# walks, for the kernel's rate R.  Measured on a 2-core VM, R is 1e7 to 2e7
# estimated walks/s for SAWs but 5e4 to 9e6 for half-space walks and
# bridges, which this one value serves (CHANGES.md has the numbers).
POOL_MIN_WALKS = 200_000

# set in each pool worker by _init_worker; unused in the parent process
_worker_inputs = None


def _init_worker(adj, heights, mode, n_max):
    """Pool initializer: set up the kernel's inputs once per worker, from the
    compiled ball."""
    global _worker_inputs
    _worker_inputs = (adj, heights, n_max, mode)


def _worker_counts(prefix):
    adj, heights, n_max, mode = _worker_inputs
    return _count_from(adj, heights, list(prefix), n_max, mode)


def _prefix_orbits(prefixes, perms):
    """Split the prefixes into orbits under the group the permutations
    generate: returns the first prefix of each orbit and the orbit's size."""
    seen = set()
    reps, weights = [], []
    for p in prefixes:
        if p in seen:
            continue
        orbit = {p}
        todo = [p]
        while todo:
            q = todo.pop()
            for g in perms:
                image = tuple(map(g.__getitem__, q))
                if image not in orbit:
                    orbit.add(image)
                    todo.append(image)
        seen |= orbit
        reps.append(p)
        weights.append(len(orbit))
    return reps, weights


def _count(family, hf, start, n_max, mode, jobs):
    """The tally of the walks from start; see :func:`_count_from`.  SAWs
    are counted on :func:`_compile_ball`'s ball, half-space walks and
    bridges on :func:`_height_ball`'s.

    The walks longer than a fixed depth are split by their prefix of that
    depth.  A symmetry of the ball that fixes the start (and every height,
    for half-space walks and bridges) carries the walks through one prefix
    onto the walks through its image, so only the first prefix of each orbit
    is counted and its tally added elementwise, weighted by the orbit's
    size.  The representatives are counted in a pool of at most ``jobs``
    worker processes, and no more than there are representatives, only when
    that pays: when ``len(reps) * c[s]**k >= POOL_MIN_WALKS * c[s-1]**k``,
    an estimate in exact ints of the walks of length n_max through them
    from the row sums c up to the split depth s, with k = n_max - s.
    Otherwise, and at jobs = 1, they are counted in process.  Totals are sums of exact integers,
    independent of scheduling.  A tree is counted by :func:`_count_cones`
    instead, at every ``jobs``, on the cone types measured in hf (in the
    family's default height for SAWs).
    """
    if n_max < 0:
        raise UsageError("n_max must be >= 0")
    cap = budget("BALL_VERTICES")
    if family.tree:
        ev = (default_height(family) if hf is None else hf).evaluate
        return _count_cones(_cone_ball(family, ev, start)[1], n_max, mode)
    if mode == "saw":
        _, adj, perms = _compile_ball(family, start, n_max, cap)
        heights = None
    else:
        adj, heights, perms = _height_ball(family, hf, start, n_max, cap)
    split = 3
    # the kernel's depth-first search recurses once per step, so a length
    # past the interpreter's recursion limit is a budget, not a traceback
    try:
        if n_max <= split:
            return _count_from(adj, heights, [0], n_max, mode)
        tally = _count_from(adj, heights, [0], split, mode)
        tally += [[0] * len(tally[0]) for _ in range(n_max - split)]
        prefixes = [(0,)]
        for _ in range(split):
            prefixes = [p + (u,) for p in prefixes for u in adj[p[-1]] if u not in p]
        reps, weights = _prefix_orbits(prefixes, perms)

        def add(parts):
            for weight, part in zip(weights, parts):
                for d in range(split + 1, n_max + 1):
                    tally[d] = [x + weight * y for x, y in zip(tally[d], part[d])]

        k = n_max - split
        if (jobs <= 1 or not reps
                or len(reps) * sum(tally[split]) ** k < POOL_MIN_WALKS * sum(tally[split - 1]) ** k):
            add(_count_from(adj, heights, list(p), n_max, mode) for p in reps)
            return tally
        # imported here: concurrent.futures loads logging, which a call that
        # opens no pool need not pay for
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(jobs, len(reps)), initializer=_init_worker,
                initargs=(adj, heights, mode, n_max)) as pool:
            add(pool.map(_worker_counts, reps))
        return tally
    except RecursionError:
        raise ResourceBudgetError(
            f"walks of length {n_max} are deeper than the recursion limit") from None


def count_saws(family: GraphFamily, start: Label, n_max: int, jobs: int = 1,
               node_budget: int | None = None) -> list[int]:
    """Exact per-length SAW counts from a start vertex.

    With a node budget the levels are counted in order, level n costing one
    unit per SAW of length below n (the neighbor lookups a depth-first
    search of it makes).  A level that would not fit is not started, and
    one whose ball is over ``budget("BALL_VERTICES")`` or whose search
    passes the recursion limit is dropped: the completed prefix is returned
    instead of an error, and its length marks the high water.  Half-space
    walks and bridges are SAWs, so their levels cost no more:
    :func:`tables.build_count_table` counts them once, at the SAW mark.

    The walks are counted on the radius-n_max ball compiled to int ids; a
    ball of more than ``budget("BALL_VERTICES")`` vertices raises
    ResourceBudgetError, and a vertex in it that lists itself, lists a
    neighbor twice or is not listed back raises InvariantViolationError.
    ``jobs`` is an upper bound on the worker processes: the walks are split
    by prefix across a pool, each worker receiving the compiled ball once,
    only when the estimated work is past the pool's break-even (see
    :func:`_count`); otherwise they are counted in process.  A tree is
    counted by an exact DP over the cone types measured on its ball instead,
    in process at every ``jobs``.  The same holds for
    :func:`count_halfspace` and :func:`count_bridges`.
    """
    if node_budget is None:
        return [row[0] for row in _count(family, None, start, n_max, "saw", jobs)]
    # level 0 is the start alone and costs nothing; _count refuses a
    # negative n_max before any work
    tally = _count(family, None, start, min(n_max, 0), "saw", jobs)
    spent = 0
    for n in range(1, n_max + 1):
        spent += sum(row[0] for row in tally)
        if spent > node_budget:
            break
        try:
            tally = _count(family, None, start, n, "saw", jobs)
        except ResourceBudgetError:
            break
    return [row[0] for row in tally]


def count_halfspace(family: GraphFamily, hf: HeightFunction, start: Label,
                    n_max: int, jobs: int = 1) -> list[int]:
    """Exact counts of walks whose non-initial heights all exceed the start's."""
    return [row[0] for row in _count(family, hf, start, n_max, "halfspace", jobs)]


def count_bridges(family: GraphFamily, hf: HeightFunction, start: Label,
                  n_max: int, jobs: int = 1) -> tuple[list[int], list[dict]]:
    """Exact bridge counts per length (the tally's row sums), plus per-length
    span distributions (its nonzero entries)."""
    tally = _count(family, hf, start, n_max, "bridge", jobs)
    return [sum(row) for row in tally], [{s: c for s, c in enumerate(row) if c} for row in tally]


# ---------------------------------------------------------------------------
# streaming enumeration (independent code path used as the counting oracle)

def enumerate_walks(family: GraphFamily, hf: HeightFunction | None, start: Label,
                    n: int, kind: WalkKind) -> Iterator[Walk]:
    """Yield each qualifying walk of length exactly n once.

    Deliberately separate from the counters: grows all SAWs in neighbor
    order and applies the predicate as an emission filter, with no
    height-based pruning.
    """
    if n < 0:
        raise UsageError("length must be >= 0")
    if kind not in ("saw", "halfspace", "bridge"):
        raise UsageError(f"unknown walk kind {kind!r}")
    if kind != "saw" and hf is None:
        raise UsageError("half-space and bridge enumeration need a height function")
    cap = budget("ENUM_WALKS")
    emitted = 0

    def qualifies(vs) -> bool:
        if kind == "saw":
            return True
        w = Walk(tuple(vs))
        return is_halfspace(hf, w) if kind == "halfspace" else is_bridge(hf, w)

    def go(path, used):
        nonlocal emitted
        if len(path) - 1 == n:
            if qualifies(path):
                emitted += 1
                if emitted > cap:
                    raise ResourceBudgetError("enumeration budget exceeded")
                yield Walk(tuple(path))
            return
        for u in family.neighbors(path[-1]):
            if u not in used:
                path.append(u)
                used.add(u)
                yield from go(path, used)
                used.discard(u)
                path.pop()

    yield from go([start], {start})


# ---------------------------------------------------------------------------
# bridge decomposition

@dataclass(frozen=True)
class BridgeDecomposition:
    """Spans S_1 > ... > S_k > 0 and break indices 0 < n_1 < ... < n_k = n."""

    spans: tuple[int, ...]
    breaks: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.spans)


def decompose(hf: HeightFunction, w: Walk) -> BridgeDecomposition:
    """Split a half-space walk into alternating bridge / reversed-bridge
    subwalks with strictly decreasing spans."""
    if not is_halfspace(hf, w):
        raise UsageError("decompose expects a half-space walk")
    hs = [hf.evaluate(v) for v in w.vertices]
    n = len(hs) - 1
    if n == 0:
        return BridgeDecomposition(spans=(), breaks=())
    spans: list[int] = []
    breaks: list[int] = []
    prev = 0
    j = 1
    while True:
        sign = -1 if j % 2 else 1  # (-1)^j
        best = None
        arg = prev
        for m in range(prev, n + 1):
            val = sign * (hs[prev] - hs[m])
            if best is None or val >= best:
                best = val
                arg = m
        spans.append(best)
        breaks.append(arg)
        if arg == n:
            break
        prev = arg
        j += 1
    return BridgeDecomposition(spans=tuple(spans), breaks=tuple(breaks))


def subwalks(w: Walk, dec: BridgeDecomposition) -> list[Walk]:
    parts = []
    lo = 0
    for hi in dec.breaks:
        parts.append(Walk(w.vertices[lo:hi + 1]))
        lo = hi
    return parts
