"""Pair graphs of structured endomorphism pairs, and labelled trees.

A pair (f, g) over T^n determines an undirected multigraph on the vertex
set {0, ..., n}: edge i joins the source coordinates theta_f(i) and
theta_g(i).  Refining each edge by the direction in which its coordinate
constraint can be read off gives a directed multigraph whose arrows carry
transport maps on T; composing transports along directed paths is what the
fixed-point analysis consumes.  Whether the undirected graph is a tree is
the headline criterion, so this module also provides Prüfer-sequence
enumeration of labelled trees and the closed count of trees by the degree
of vertex 0.

Arrow naming: edge i induces a forward arrow ("a", i) from theta_f(i) to
theta_g(i) whenever the g-side map can be inverted (theta_g(i) != 0), and
a reverse arrow ("b", i) whenever the f-side can.  With both present the
two transports are mutually inverse automorphisms of T; an arrow whose
tail is vertex 0 carries the constant-identity transport instead, because
the coordinate it constrains must be the identity.  No arrow ever has
head 0.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass

from .groups import compose_perm, invert_perm

__all__ = [
    "UndirectedPairGraph",
    "DirectedPairGraph",
    "Component",
    "Arrow",
    "PathMap",
    "build_undirected",
    "build_directed",
    "bullet_transform",
    "is_tree",
    "components",
    "degree_of_vertex0",
    "gamma_of_path",
    "find_directed_path",
    "bfs_arrow_tree",
    "find_simple_cycle",
    "prufer_decode",
    "prufer_encode",
    "enumerate_labelled_trees",
    "count_trees_root_degree",
    "tree_degree_census",
    "dump_lines",
]


@dataclass(frozen=True)
class Component:
    vertices: tuple
    edge_indices: tuple  # 0-based positions into the edge list

    @property
    def edge_count(self):
        return len(self.edge_indices)

    @property
    def vertex_count(self):
        return len(self.vertices)


@dataclass(frozen=True)
class UndirectedPairGraph:
    """Multigraph on {0..n} with exactly n labelled edges, loops allowed."""

    n: int
    edges: tuple  # edge i (0-based) is the pair (theta_f(i+1), theta_g(i+1))

    def degree(self, v):
        d = 0
        for u, w in self.edges:
            if u == v:
                d += 1
            if w == v:
                d += 1
        return d


@dataclass(frozen=True)
class Arrow:
    kind: str    # "a" = forward along edge, "b" = reverse
    index: int   # 1-based edge label
    tail: int
    head: int
    transport: tuple  # map T -> T; an automorphism unless tail == 0

    @property
    def label(self):
        return f"{self.kind}{self.index}"


@dataclass(frozen=True)
class DirectedPairGraph:
    n: int
    arrows: tuple  # sorted by (index, kind)

    def arrow(self, kind, index):
        for c in self.arrows:
            if c.kind == kind and c.index == index:
                return c
        raise KeyError(f"no arrow {kind}{index} in this graph")


@dataclass(frozen=True)
class PathMap:
    """A composable arrow sequence with its composed transport.

    Arrows are stored in travel order (first traversed first); ``images``
    is the right-to-left composite of their transports, a map T -> T that
    is an automorphism whenever no arrow in the path starts at vertex 0.
    """

    arrows: tuple
    source: int
    target: int
    images: tuple

    @property
    def label(self):
        return " ".join(c.label for c in self.arrows) if self.arrows else "(empty)"


# ── Construction ────────────────────────────────────────────────────────


def build_undirected(mu, nu):
    """Graph with edge i joining mu[i] and nu[i]."""
    n = len(mu)
    if len(nu) != n:
        raise ValueError("mu and nu must have the same length")
    for v in itertools.chain(mu, nu):
        if not 0 <= v <= n:
            raise ValueError(f"vertex {v} is outside 0..{n}")
    return UndirectedPairGraph(n, tuple(zip(mu, nu)))


def _arrow_transport(T, tail_theta, tail_phi, head_phi):
    """Transport along an arrow: invert the head-side map, then apply the
    tail side.  A 0 tail contributes the constant-identity map."""
    auts = T.automorphisms()
    inv_head = invert_perm(auts[head_phi])
    if tail_theta == 0:
        return (0,) * T.order
    return compose_perm(inv_head, auts[tail_phi])


def build_directed(f, g):
    if f.group is not g.group or f.n != g.n:
        raise ValueError("endomorphism pair lives over different powers")
    T, n = f.group, f.n
    arrows = []
    for i in range(n):
        tf, tg = f.theta[i], g.theta[i]
        if tg != 0:  # forward arrow: tail on the f side, head on the g side
            arrows.append(
                Arrow("a", i + 1, tf, tg, _arrow_transport(T, tf, f.phis[i], g.phis[i]))
            )
        if tf != 0:  # reverse arrow
            arrows.append(
                Arrow("b", i + 1, tg, tf, _arrow_transport(T, tg, g.phis[i], f.phis[i]))
            )
    arrows.sort(key=lambda c: (c.index, c.kind))
    return DirectedPairGraph(n, tuple(arrows))


def bullet_transform(graph):
    """Arrow skeleton (tail, head) multiset derived from the undirected
    graph alone: drop loops at 0, orient 0-incident edges away from 0,
    replace every other edge by a pair of opposite arrows."""
    out = []
    for u, v in graph.edges:
        if u == 0 and v == 0:
            continue
        if u == 0:
            out.append((0, v))
        elif v == 0:
            out.append((0, u))
        else:
            out.append((u, v))
            out.append((v, u))
    return sorted(out)


# ── Components and the tree test ────────────────────────────────────────


class _UnionFind:
    def __init__(self, size):
        self.parent = list(range(size))
        self.saw_cycle = False

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            self.saw_cycle = True
        else:
            self.parent[max(ra, rb)] = min(ra, rb)


def _union_find(graph):
    uf = _UnionFind(graph.n + 1)
    for u, v in graph.edges:
        uf.union(u, v)
    return uf


def components(graph):
    """Connected components, sorted by least vertex; isolated vertices
    form singleton components with no edges."""
    uf = _union_find(graph)
    groups = {}
    for v in range(graph.n + 1):
        groups.setdefault(uf.find(v), []).append(v)
    comps = []
    for root in sorted(groups):
        verts = tuple(sorted(groups[root]))
        eidx = tuple(
            i for i, (u, v) in enumerate(graph.edges) if uf.find(u) == root
        )
        comps.append(Component(verts, eidx))
    return comps


def is_tree(graph):
    """Tree test: n edges on n+1 vertices, so connected alone decides it.

    A union-find acyclicity pass runs as a cross-assertion; the two can
    only disagree if the edge bookkeeping is corrupt.
    """
    uf = _union_find(graph)
    root = uf.find(0)
    connected = all(uf.find(v) == root for v in range(graph.n + 1))
    acyclic = not uf.saw_cycle
    if connected != acyclic:
        raise RuntimeError(
            "tree test inconsistency: connectivity and acyclicity disagree "
            f"on a graph with {len(graph.edges)} edges and {graph.n + 1} vertices"
        )
    return connected


def degree_of_vertex0(mu, nu):
    """Degree of vertex 0, computed from the graph and from the zero-count
    formula; the two must agree (loops at 0 contribute 2)."""
    graph = build_undirected(mu, nu)
    by_graph = graph.degree(0)
    by_formula = sum(1 for x in mu if x == 0) + sum(1 for x in nu if x == 0)
    if by_graph != by_formula:
        raise RuntimeError(
            f"degree bookkeeping is inconsistent: graph says {by_graph}, "
            f"zero-count says {by_formula}"
        )
    return by_graph


# ── Paths and transports ────────────────────────────────────────────────


def _identity_images(T):
    return tuple(range(T.order))


def _compose_path(T, arrows, source):
    images = _identity_images(T)
    at = source
    for c in arrows:
        if c.tail != at:
            raise ValueError(
                f"path is not composable: arrow {c.label} starts at {c.tail}, "
                f"expected {at}"
            )
        images = compose_perm(c.transport, images)
        at = c.head
    return PathMap(tuple(arrows), source, at, images)


def gamma_of_path(f, g, labels, source=None):
    """PathMap for a sequence of (kind, index) labels in travel order.

    ``source`` defaults to the tail of the first arrow; an empty path
    needs it to be given explicitly.
    """
    directed = build_directed(f, g)
    arrows = [directed.arrow(kind, index) for kind, index in labels]
    if not arrows:
        if source is None:
            raise ValueError("empty path needs an explicit source vertex")
        return PathMap((), source, source, _identity_images(f.group))
    if source is None:
        source = arrows[0].tail
    return _compose_path(f.group, arrows, source)


def find_directed_path(directed, start, goal, T):
    """Shortest directed path start -> goal as a PathMap.

    BFS explores arrows in (index, kind) order, so among equally short
    paths the lexicographically earliest arrow labels win.  Raises
    ValueError when the goal is unreachable.
    """
    if start == goal:
        return PathMap((), start, goal, _identity_images(T))
    parent = {start: None}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for c in directed.arrows:
            if c.tail != v or c.head in parent:
                continue
            parent[c.head] = c
            if c.head == goal:
                arrows = []
                at = goal
                while parent[at] is not None:
                    arrows.append(parent[at])
                    at = parent[at].tail
                arrows.reverse()
                return _compose_path(T, arrows, start)
            queue.append(c.head)
    raise ValueError(f"no directed path from {start} to {goal}")


def bfs_arrow_tree(directed, base, T, within=None):
    """PathMaps from ``base`` to every reachable vertex (optionally
    restricted to a vertex subset), following BFS order with the same
    (index, kind) tie-break as find_directed_path."""
    maps = {base: PathMap((), base, base, _identity_images(T))}
    queue = deque([base])
    while queue:
        v = queue.popleft()
        for c in directed.arrows:
            if c.tail != v or c.head in maps:
                continue
            if within is not None and c.head not in within:
                continue
            prev = maps[v]
            maps[c.head] = PathMap(
                prev.arrows + (c,), base, c.head, compose_perm(c.transport, prev.images)
            )
            queue.append(c.head)
    return maps


def find_simple_cycle(graph, directed, component, T):
    """The unique simple directed cycle of a unicyclic component, in both
    orientations, based at the least vertex lying on the cycle.

    Returns (forward, reverse) PathMaps.  Raises ValueError when the
    component is a tree or has more than one independent cycle.
    """
    ec, vc = component.edge_count, component.vertex_count
    if ec == vc - 1:
        raise ValueError("component is a tree; it has no cycle")
    if ec != vc:
        raise ValueError(
            f"component has {ec} edges on {vc} vertices; not unicyclic"
        )
    # Peel leaves until only the cycle core remains.
    alive = set(component.edge_indices)
    deg = {v: 0 for v in component.vertices}
    for i in alive:
        u, v = graph.edges[i]
        deg[u] += 1
        deg[v] += 1
    changed = True
    while changed:
        changed = False
        for v in sorted(deg):
            if deg[v] == 1:
                for i in sorted(alive):
                    u, w = graph.edges[i]
                    if v in (u, w):
                        alive.discard(i)
                        deg[u] -= 1
                        deg[w] -= 1
                        changed = True
                        break
    core = sorted(v for v in deg if deg[v] > 0)
    base = core[0]
    # Walk the cycle from the base, taking the lowest-index unused edge.
    order = []  # (edge index, from, to)
    at = base
    used = set()
    while True:
        nxt = None
        for i in sorted(alive - used):
            u, w = graph.edges[i]
            if u == at:
                nxt = (i, u, w)
            elif w == at:
                nxt = (i, w, u)
            if nxt:
                break
        if nxt is None:
            break
        used.add(nxt[0])
        order.append(nxt)
        at = nxt[2]
        if at == base and len(used) == len(alive):
            break
    if at != base or len(used) != len(alive):
        raise RuntimeError("cycle walk failed to close; component bookkeeping corrupt")

    def arrows_for(steps, avoid=frozenset()):
        # A loop edge matches either orientation with both of its arrows;
        # ``avoid`` keeps the reverse walk off the forward walk's choice.
        out = []
        for i, frm, to in steps:
            cands = [
                c
                for c in directed.arrows
                if c.index == i + 1 and c.tail == frm and c.head == to
            ]
            if not cands:
                raise RuntimeError(f"missing arrow for edge {i + 1} from {frm} to {to}")
            pick = next((c for c in cands if c not in avoid), cands[0])
            out.append(pick)
        return out

    fwd = arrows_for(order)
    rev_steps = [(i, to, frm) for i, frm, to in reversed(order)]
    rev = arrows_for(rev_steps, avoid=frozenset(fwd))
    return _compose_path(T, fwd, base), _compose_path(T, rev, base)


# ── Labelled trees via Prüfer sequences ─────────────────────────────────
#
# Trees on the n+1 vertices {0..n} correspond to sequences in {0..n}^(n-1):
# repeatedly remove the smallest leaf and record its neighbour.


def prufer_decode(seq, n):
    """Edge list of the tree on {0..n} encoded by ``seq`` (length n-1)."""
    if len(seq) != n - 1:
        raise ValueError(f"sequence must have length {n - 1}")
    degree = [1] * (n + 1)
    for v in seq:
        if not 0 <= v <= n:
            raise ValueError(f"symbol {v} is outside 0..{n}")
        degree[v] += 1
    leaves = [v for v in range(n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    a = heapq.heappop(leaves)
    b = heapq.heappop(leaves)
    edges.append((min(a, b), max(a, b)))
    return edges


def prufer_encode(edges, n):
    """Inverse of prufer_decode on tree edge lists."""
    if len(edges) != n:
        raise ValueError(f"a tree on {n + 1} vertices needs exactly {n} edges")
    adj = {v: set() for v in range(n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    leaves = [v for v in range(n + 1) if len(adj[v]) == 1]
    heapq.heapify(leaves)
    seq = []
    for _ in range(n - 1):
        leaf = heapq.heappop(leaves)
        nbr = next(iter(adj[leaf]))
        seq.append(nbr)
        adj[nbr].discard(leaf)
        adj[leaf].clear()
        if len(adj[nbr]) == 1:
            heapq.heappush(leaves, nbr)
    return tuple(seq)


def enumerate_labelled_trees(n):
    """Stream (prufer sequence, edge list) over all (n+1)^(n-1) trees."""
    for seq in itertools.product(range(n + 1), repeat=n - 1):
        yield seq, prufer_decode(seq, n)


def count_trees_root_degree(n, d):
    """Number of labelled trees on {0..n} in which vertex 0 has degree d."""
    if not 1 <= d <= n:
        return 0
    return math.comb(n - 1, d - 1) * n ** (n - d)


def tree_degree_census(n):
    """Degree-of-0 histogram over enumerated trees (honest: the degree is
    measured in each decoded tree, not read off the sequence)."""
    hist = {d: 0 for d in range(1, n + 1)}
    for _, edges in enumerate_labelled_trees(n):
        d = sum(1 for u, v in edges if u == 0 or v == 0)
        hist[d] += 1
    return hist


# ── Debug dump ──────────────────────────────────────────────────────────


def dump_lines(graph, directed=None):
    """Edge and arrow lines in the debug TSV format."""
    lines = [f"e{i + 1}\t{u}\t{v}" for i, (u, v) in enumerate(graph.edges)]
    if directed is not None:
        lines += [f"{c.label}\t{c.tail}\t{c.head}" for c in directed.arrows]
    return lines
