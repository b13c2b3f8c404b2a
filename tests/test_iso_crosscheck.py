"""Cross-check the rooted-isomorphism backtracker against brute force."""

import itertools
import random
from collections import deque

from hypothesis import given, settings, strategies as st

from sawlab.bounds import ball_isomorphic
from sawlab.families import Ball


def ball_from_edges(root, edges):
    """Package a connected edge list as a Ball (BFS distances from root)."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    adj.setdefault(root, set())
    dist = {root: 0}
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for y in sorted(adj[x]):
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    vertices = tuple(sorted(dist, key=lambda v: (dist[v], v)))
    return Ball(root=root, radius=max(dist.values(), default=0), vertices=vertices,
                neighbors={v: tuple(sorted(adj[v])) for v in vertices}, dist=dist)


def brute_force_iso(a, b):
    """Try every root-fixing bijection (tiny graphs only)."""
    if len(a.vertices) != len(b.vertices) or len(a.edges) != len(b.edges):
        return False
    eb = {frozenset(e) for e in b.edges}
    rest_a = [v for v in a.vertices if v != a.root]
    rest_b = [v for v in b.vertices if v != b.root]
    for perm in itertools.permutations(rest_b):
        mapping = dict(zip(rest_a, perm))
        mapping[a.root] = b.root
        if {frozenset((mapping[u], mapping[v])) for u, v in a.edges} == eb:
            return True
    return False


def random_connected_graph(rng, n):
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    extra = rng.randrange(0, n)
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


@settings(max_examples=60)
@given(st.integers(0, 10 ** 6), st.integers(3, 7))
def test_backtracker_matches_brute_force(seed, n):
    rng = random.Random(seed)
    edges = random_connected_graph(rng, n)
    a = ball_from_edges(0, edges)
    # relabeled copy (same root class): shuffle the non-root names
    names = list(range(1, n))
    rng.shuffle(names)
    relabel = {0: 0, **{v: names[v - 1] for v in range(1, n)}}
    b = ball_from_edges(0, [(relabel[u], relabel[v]) for u, v in edges])
    assert ball_isomorphic(a, b)
    assert brute_force_iso(a, b)
    # perturbed copy: rewire one edge if possible
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if (u, v) not in set(edges)]
    if non_edges and len(edges) > n - 1:
        removable = [e for e in edges
                     if sum(1 for f in edges if e[0] in f) > 1
                     and sum(1 for f in edges if e[1] in f) > 1]
        if removable:
            mutated = sorted((set(edges) - {removable[0]}) | {non_edges[0]})
            c = ball_from_edges(0, mutated)
            if len(c.vertices) == n:
                assert ball_isomorphic(a, c) == brute_force_iso(a, c)
