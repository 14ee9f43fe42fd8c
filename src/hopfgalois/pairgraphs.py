"""Pair graphs of structured endomorphism pairs, and labelled trees.

A pair (f, g) over T^n determines an undirected multigraph on the vertex
set {0, ..., n}: edge i joins the source coordinates theta_f(i) and
theta_g(i).  Each edge can be read in the directions in which its
coordinate constraint can be solved; those arrows carry transport maps on
T, and composing transports along directed paths is what the fixed-point
analysis consumes.  Whether the undirected graph is a tree is the
headline criterion, so this module also provides Prüfer-sequence
enumeration of labelled trees and the closed count of trees by the degree
of vertex 0.

Only the transports depend on the automorphisms phi; the arrows, the
components, the tree verdict, the breadth-first arrow order in each
component and the walk around each cycle depend on (theta_f, theta_g)
alone.  pair_plan is the one component model: it builds that shape once,
from one breadth-first search per component, and keeps up to
PLAN_STORE_SIZE shapes (all of rank 3).  components() reads the plan,
and the union-find is_tree cross-checks its component count.

Arrow naming: edge i induces a forward arrow ("a", i) from theta_f(i) to
theta_g(i) whenever the g-side map can be inverted (theta_g(i) != 0), and
a reverse arrow ("b", i) whenever the f-side can; arrow_shapes lists them.
An arrow's transport (transport_id) is an automorphism id of T, the
inverse of the head-side automorphism after the tail-side one: one lookup
in T's quotient rows (built with Aut(T)'s rows by fpf._tables), row a
holding the products inverse(a)∘b in Aut(T); paths compose the ids
through Aut(T)'s table.  With both arrows present the two ids are
mutually inverse.  An arrow whose tail is vertex 0 carries the marker
CONSTANT instead, the constant map onto the identity, because the
coordinate it constrains must be the identity.  No arrow ever has head 0.

An UndirectedPairGraph is a plain (n, edges) tuple that refuses a vertex
outside 0..n when it is built.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter, deque
from typing import NamedTuple

__all__ = [
    "CONSTANT",
    "UndirectedPairGraph",
    "ComponentPlan",
    "PairPlan",
    "build_undirected",
    "is_tree",
    "components",
    "PLAN_STORE_SIZE",
    "pair_plan",
    "clear_plans",
    "plan_for",
    "arrow_shapes",
    "transport_id",
    "path_transport",
    "prufer_decode",
    "enumerate_labelled_trees",
    "count_trees_root_degree",
    "tree_degree_census",
    "dump_lines",
]

CONSTANT = -1  # transport of an arrow with tail 0: every element goes to the identity


class _GraphFields(NamedTuple):
    n: int
    edges: tuple  # edge i (0-based) is the pair (theta_f(i+1), theta_g(i+1))


class UndirectedPairGraph(_GraphFields):
    """Multigraph on {0..n} with exactly n labelled edges, loops allowed; a
    tuple whose construction refuses a vertex outside 0..n, naming the
    first one among the f-ends and then the g-ends."""

    __slots__ = ()

    def __new__(cls, n, edges):
        for u, v in edges:
            if not (0 <= u <= n and 0 <= v <= n):
                bad = next(w for w in itertools.chain(*zip(*edges)) if not 0 <= w <= n)
                raise ValueError(f"vertex {bad} is outside 0..{n}")
        return tuple.__new__(cls, (n, edges))

    @classmethod
    def _make(cls, iterable):  # _replace builds through here: check it too
        return cls(*iterable)


class ComponentPlan(NamedTuple):
    """One component of a pair graph's shape.

    A step is an arrow as (head, tail, kind, edge index), the edge index
    0-based.  ``steps`` run breadth-first from ``base`` and reach every
    other vertex of the component once.  When the component avoids 0 and
    has one cycle, ``base`` is the least vertex on the cycle and
    ``forward``/``reverse`` are its arrows in travel order from there;
    otherwise ``base`` is the least vertex and both are empty.
    """

    vertices: tuple
    excess: int  # edges beyond a spanning tree: 0 for a tree, 1 for one cycle
    base: int
    steps: tuple
    forward: tuple
    reverse: tuple

    @property
    def edge_count(self):
        return len(self.vertices) - 1 + self.excess


class PairPlan(NamedTuple):
    tree: bool
    components: tuple  # ComponentPlans, by least vertex
    multicycle: bool  # some component avoiding 0 has two or more independent cycles
    arrows: tuple  # arrow_shapes of the edges


# ── Construction ────────────────────────────────────────────────────────


def build_undirected(mu, nu):
    """Graph with edge i joining mu[i] and nu[i]."""
    if len(nu) != len(mu):
        raise ValueError("mu and nu must have the same length")
    return UndirectedPairGraph(len(mu), tuple(zip(mu, nu)))


def arrow_shapes(edges):
    """(kind, 0-based edge index, tail, head) of every arrow, sorted by
    (index, kind)."""
    out = []
    for i, (tf, tg) in enumerate(edges):
        if tg != 0:  # forward arrow: tail on the f side, head on the g side
            out.append(("a", i, tf, tg))
        if tf != 0:  # reverse arrow
            out.append(("b", i, tg, tf))
    return out


def transport_id(quot, f, g, kind, i, tail):
    """Transport of arrow (kind, i) of the pair (f, g): the head-side
    automorphism inverted after the tail-side one, one lookup
    ``quot[head phi][tail phi]`` in T's quotient rows (row a is Aut(T)'s
    product row of inverse(a)), or CONSTANT for a 0 tail."""
    if tail == 0:
        return CONSTANT
    if kind == "a":
        return quot[g.phis[i]][f.phis[i]]
    return quot[f.phis[i]][g.phis[i]]


def path_transport(quot, mul, f, g, steps):
    """Transport of a path given as steps in travel order: the ids composed
    through ``mul``, the rows of automorphism_table_group(T), last step
    outermost.  CONSTANT absorbs, since every automorphism fixes the
    identity."""
    t = 0
    for _head, tail, kind, i in steps:
        a = transport_id(quot, f, g, kind, i, tail)
        t = CONSTANT if CONSTANT in (a, t) else mul[a][t]
    return t


# ── The tree test ───────────────────────────────────────────────────────


def is_tree(graph):
    """Tree test: n edges on n+1 vertices, so connected alone decides it.

    A union-find acyclicity pass runs as a cross-assertion; the two can
    only disagree if the edge bookkeeping is corrupt.
    """
    parent = list(range(graph.n + 1))
    acyclic = True
    for u, v in graph.edges:
        while parent[u] != u:  # path halving; a root is the least vertex of its set
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u == v:
            acyclic = False
        elif u < v:
            parent[v] = u
        else:
            parent[u] = v
    connected = True
    for v in range(1, graph.n + 1):  # vertex 0 is always a root
        while parent[v] != v:
            v = parent[v]
        if v:
            connected = False
            break
    if connected != acyclic:
        raise RuntimeError(
            "tree test inconsistency: connectivity and acyclicity disagree "
            f"on a graph with {len(graph.edges)} edges and {graph.n + 1} vertices"
        )
    return connected


# ── Shape plans ─────────────────────────────────────────────────────────


PLAN_STORE_SIZE = 4096  # every shape of rank 3; rank n has (n+1)^(2n)

_PLANS = {}  # (theta_f, theta_g) -> PairPlan
_PARTS = {}  # part of a kept plan -> the one shared object equal to it


def _intern(value):
    return _PARTS.setdefault(value, value)


def clear_plans():
    """Drop every kept plan, and the parts they share."""
    _PLANS.clear()
    _PARTS.clear()


def _bfs_steps(shapes, base):
    """Breadth-first arrow steps from ``base``, arrows tried in (index,
    kind) order."""
    seen = {base}
    steps = []
    queue = deque([base])
    while queue:
        v = queue.popleft()
        for kind, i, tail, head in shapes:
            if tail == v and head not in seen:
                seen.add(head)
                steps.append(_intern((head, tail, kind, i)))
                queue.append(head)
    return _intern(tuple(steps))


def _other_arrow(step):
    """The step back along the same edge, on its other arrow."""
    head, tail, kind, i = step
    return _intern((tail, head, "b" if kind == "a" else "a", i))


def _cycle_plan(edges, shapes, indices):
    """(base, steps, forward, reverse) of a unicyclic component avoiding 0,
    given its edge indices.

    Leaf edges are peeled until only the cycle is left; its least vertex
    is the base.  The one edge that the BFS tree from the base leaves unused closes the
    cycle: ``forward`` runs the tree path to its f-end, its "a" arrow, and
    the tree path to its g-end backwards; ``reverse`` is ``forward``
    walked backwards, every step on its edge's other arrow.
    """
    core = set(indices)
    while True:
        degree = Counter(v for i in core for v in edges[i])
        leaf_edges = {i for i in core if 1 in (degree[edges[i][0]], degree[edges[i][1]])}
        if not leaf_edges:
            break
        core -= leaf_edges
    base = min(v for i in core for v in edges[i])
    steps = _bfs_steps(shapes, base)
    into = {step[0]: step for step in steps}

    def tree_path(v):  # steps from the base to v, in travel order
        path = []
        while v != base:
            path.append(into[v])
            v = path[-1][1]
        return path[::-1]

    (j,) = set(indices) - {step[3] for step in steps}
    tf, tg = edges[j]
    forward = (
        tree_path(tf)
        + [_intern((tg, tf, "a", j))]
        + [_other_arrow(s) for s in reversed(tree_path(tg))]
    )
    reverse = [_other_arrow(s) for s in reversed(forward)]
    return base, steps, _intern(tuple(forward)), _intern(tuple(reverse))


def pair_plan(theta_f, theta_g):
    """The shape of the pair graph of every pair with these source maps,
    kept by value so that its tree test and cross-assertion run once.  A
    new shape that finds PLAN_STORE_SIZE plans kept empties the store
    first, so the plans and their shared parts stay bounded at every rank.

    Each component is read from one BFS, from its least vertex: arrows run
    both ways along every edge that avoids 0 and away from 0 along the
    others, so the BFS reaches exactly the undirected component.
    """
    key = (theta_f, theta_g)
    plan = _PLANS.get(key)
    if plan is not None:
        return plan
    if len(_PLANS) >= PLAN_STORE_SIZE:
        clear_plans()
    graph = build_undirected(theta_f, theta_g)
    # Distinct shapes have distinct arrow tuples, so only the arrows are shared.
    shapes = tuple([_intern(arrow) for arrow in arrow_shapes(graph.edges)])
    comps = []
    seen = set()
    for v in range(graph.n + 1):
        if v in seen:
            continue
        steps = _bfs_steps(shapes, v)
        vertices = _intern(tuple(sorted([v, *(step[0] for step in steps)])))
        seen.update(vertices)
        indices = [i for i, (u, _) in enumerate(graph.edges) if u in vertices]
        excess = len(indices) - (len(vertices) - 1)
        base, forward, reverse = v, (), ()
        if excess == 1 and v != 0:
            base, steps, forward, reverse = _cycle_plan(graph.edges, shapes, indices)
        comps.append(_intern(ComponentPlan(vertices, excess, base, steps, forward, reverse)))
    tree = is_tree(graph)
    if tree != (len(comps) == 1):
        raise RuntimeError(
            f"the BFS finds {len(comps)} components on {theta_f} / {theta_g}, "
            f"but the union-find tree test says tree={tree}"
        )
    multicycle = any(c.excess > 1 and c.vertices[0] != 0 for c in comps)
    plan = _PLANS[key] = _intern(PairPlan(tree, tuple(comps), multicycle, shapes))
    return plan


def components(graph):
    """The graph's ComponentPlans, by least vertex, read from its shape
    plan; an isolated vertex is a component with no edges."""
    theta_f, theta_g = zip(*graph.edges) if graph.edges else ((), ())
    return pair_plan(theta_f, theta_g).components


def plan_for(f, g):
    """pair_plan of the pair's source maps, once both are known to live
    over the same T^n."""
    if f.group is not g.group or f.n != g.n:
        raise ValueError("endomorphism pair lives over different powers")
    return pair_plan(f.theta, g.theta)


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


def enumerate_labelled_trees(n):
    """Stream (prufer sequence, edge list) over all (n+1)^(n-1) trees."""
    if n < 1:
        raise ValueError(f"need at least one non-root vertex, got n = {n}")
    return (
        (seq, prufer_decode(seq, n))
        for seq in itertools.product(range(n + 1), repeat=n - 1)
    )


def count_trees_root_degree(n, d):
    """Number of labelled trees on {0..n} in which vertex 0 has degree d."""
    if n < 1:
        raise ValueError(f"need at least one non-root vertex, got n = {n}")
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


def dump_lines(graph):
    """Edge and arrow lines in the debug TSV format, 1-based edge labels."""
    lines = [f"e{i + 1}\t{u}\t{v}" for i, (u, v) in enumerate(graph.edges)]
    for kind, i, tail, head in arrow_shapes(graph.edges):
        lines.append(f"{kind}{i + 1}\t{tail}\t{head}")
    return lines
