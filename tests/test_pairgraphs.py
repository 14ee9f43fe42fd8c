"""Pair graphs, tree tests, Pruefer sequences, and arrow transports."""

import itertools
import random

import pytest

from hopfgalois.endomorphisms import StructuredEndo, enumerate_end0
from hopfgalois.fpf import _tables, is_fpf_by_tree
from hopfgalois.groups import (
    automorphism_table_group,
    catalog_names,
    compose_perm,
    invert_perm,
    load_group,
)
from hopfgalois import pairgraphs
from hopfgalois.pairgraphs import (
    CONSTANT,
    PLAN_STORE_SIZE,
    UndirectedPairGraph,
    arrow_shapes,
    build_undirected,
    clear_plans,
    components,
    count_trees_root_degree,
    dump_lines,
    enumerate_labelled_trees,
    is_tree,
    pair_plan,
    path_transport,
    prufer_decode,
    transport_id,
    tree_degree_census,
)

S3 = load_group("s3")


# ── Undirected graphs ────────────────────────────────────────────────────


def test_build_undirected_edges():
    g = build_undirected((0, 1, 3), (1, 2, 3))
    assert g.n == 3
    assert g.edges == ((0, 1), (1, 2), (3, 3))


def test_build_undirected_validates():
    with pytest.raises(ValueError, match="same length"):
        build_undirected((0, 1), (1,))
    with pytest.raises(ValueError, match="outside"):
        build_undirected((0, 5), (1, 2))


def test_pair_graph_tuple_validates_on_every_construction():
    g = build_undirected((0, 1), (1, 2))
    assert g == (2, ((0, 1), (1, 2))) and isinstance(g, tuple)
    # the first vertex out of range among the f-ends, then the g-ends
    with pytest.raises(ValueError, match="vertex 5 is outside 0..2"):
        build_undirected((0, 5), (7, 2))
    with pytest.raises(ValueError, match="vertex -1 is outside 0..2"):
        UndirectedPairGraph(2, ((0, 1), (1, -1)))
    with pytest.raises(ValueError, match="vertex 2 is outside 0..1"):
        g._replace(n=1)


def test_is_tree_small_cases():
    assert is_tree(build_undirected((0,), (1,)))
    assert is_tree(build_undirected((1,), (0,)))
    assert not is_tree(build_undirected((0,), (0,)))  # loop at 0, vertex 1 cut off
    assert not is_tree(build_undirected((1,), (1,)))  # loop at 1, vertex 0 cut off
    assert is_tree(build_undirected((0, 1), (1, 2)))
    assert not is_tree(build_undirected((1, 2), (2, 1)))  # 2-cycle misses 0
    assert not is_tree(build_undirected((0, 0), (1, 1)))  # double edge


def test_is_tree_equals_one_component_of_the_plan():
    # The union-find test is independent of the plan store; over every
    # rank-3 shape and seeded shapes of rank 4 to 7 the two agree.
    shapes = [
        (tf, tg)
        for tf in itertools.product(range(4), repeat=3)
        for tg in itertools.product(range(4), repeat=3)
    ]
    rng = random.Random(0x7EE)
    for n in range(4, 8):
        shapes += [
            tuple(tuple(rng.randrange(n + 1) for _ in range(n)) for _ in range(2))
            for _ in range(500)
        ]
    verdicts = set()
    for tf, tg in shapes:
        tree = is_tree(build_undirected(tf, tg))
        assert tree == (len(pair_plan(tf, tg).components) == 1), (tf, tg)
        verdicts.add(tree)
    assert verdicts == {True, False}
    # Three edges on three vertices: connected, but not acyclic.
    with pytest.raises(RuntimeError, match="tree test inconsistency"):
        is_tree(UndirectedPairGraph(2, ((0, 1), (1, 2), (2, 0))))


def test_components_partition_vertices():
    g = build_undirected((1, 2, 0, 4), (2, 1, 0, 4))
    comps = components(g)
    seen = sorted(v for c in comps for v in c.vertices)
    assert seen == [0, 1, 2, 3, 4]
    assert sum(c.edge_count for c in comps) == 4
    by_vertices = {c.vertices: c for c in comps}
    assert (3,) in by_vertices  # isolated vertex forms its own component
    assert by_vertices[(3,)].edge_count == 0
    assert by_vertices[(1, 2)].edge_count == 2


# ── Pruefer machinery ────────────────────────────────────────────────────


def test_prufer_decode_is_a_bijection_onto_labelled_trees():
    # (n+1)^(n-1) sequences decode to as many distinct trees, Cayley's count
    for n in range(1, 6):
        seen = set()
        for seq in itertools.product(range(n + 1), repeat=max(0, n - 1)):
            edges = prufer_decode(seq, n)
            assert len(edges) == n
            assert is_tree(UndirectedPairGraph(n, tuple(edges)))
            seen.add(tuple(sorted(tuple(sorted(e)) for e in edges)))
        assert len(seen) == (n + 1) ** max(0, n - 1)


def test_prufer_decode_validates():
    with pytest.raises(ValueError):
        prufer_decode((0, 0), 2)  # wrong length
    with pytest.raises(ValueError):
        prufer_decode((5,), 2)  # label out of range


def test_enumerate_labelled_trees():
    trees = list(enumerate_labelled_trees(3))
    assert len(trees) == 16
    for seq, edges in trees:
        assert prufer_decode(seq, 3) == list(edges)
    for n in (0, -1):
        with pytest.raises(ValueError, match="need at least one non-root vertex"):
            enumerate_labelled_trees(n)


def test_degree_census_matches_formula():
    for n in range(1, 7):
        census = tree_degree_census(n)
        for d in range(1, n + 1):
            assert census[d] == count_trees_root_degree(n, d)
        assert sum(census.values()) == (n + 1) ** (n - 1)
    assert count_trees_root_degree(4, 0) == 0
    assert count_trees_root_degree(4, 5) == 0


# ── Arrows and transports ────────────────────────────────────────────────


F = StructuredEndo(S3, 2, (0, 1), (None, 3))
G = StructuredEndo(S3, 2, (1, 2), (2, 4))


def expanded(transport):
    """Images of a transport id, the constant map for CONSTANT."""
    return (0,) * S3.order if transport == CONSTANT else S3.automorphisms()[transport]


def by_tuples(head_phi, tail_phi):
    """The transport as permutation tuples: head side inverted after tail side."""
    auts = S3.automorphisms()
    return compose_perm(invert_perm(auts[head_phi]), auts[tail_phi])


def arrows_of(f, g):
    """(tail, head, transport id) of every arrow of (f, g), by label."""
    quot = _tables(f.group).quot
    return {
        f"{kind}{i + 1}": (tail, head, transport_id(quot, f, g, kind, i, tail))
        for kind, i, tail, head in arrow_shapes(tuple(zip(f.theta, g.theta)))
    }


@pytest.mark.parametrize("name", catalog_names())
def test_quotient_rows_expand_to_inverse_then_compose(name):
    T = load_group(name)
    assert _tables(T) is _tables(T)  # built once, kept on T
    quot, mul = _tables(T).quot, _tables(T).mul
    aut = automorphism_table_group(T)
    # each row is Aut(T)'s own row of the inverse, the very same tuple
    assert all(quot[a] is mul[aut.inv[a]] for a in range(aut.order))
    assert mul == aut.mul
    auts = T.automorphisms()
    assert len(quot) == len(auts) and all(len(row) == len(auts) for row in quot)
    for a, row in zip(auts, quot):
        undo = invert_perm(a)
        assert [auts[t] for t in row] == [compose_perm(undo, b) for b in auts]


def test_arrow_shapes_inventory():
    arrows = arrows_of(F, G)
    # edge 1 has theta_f = 0: only the forward arrow exists (tail 0).
    assert list(arrows) == ["a1", "a2", "b2"]
    tail, head, transport = arrows["a1"]
    assert (tail, head) == (0, 1)
    assert transport == CONSTANT
    assert expanded(transport) == (0,) * 6  # constant identity from a 0 tail
    # Forward arrows invert g's automorphism after f's, reverse ones the other way.
    assert expanded(arrows["a2"][2]) == by_tuples(G.phis[1], F.phis[1])
    assert expanded(arrows["b2"][2]) == by_tuples(F.phis[1], G.phis[1])


def test_forward_and_reverse_transports_are_inverse():
    arrows = arrows_of(F, G)
    a2, b2 = arrows["a2"][2], arrows["b2"][2]
    assert compose_perm(expanded(a2), expanded(b2)) == tuple(range(6))
    assert invert_perm(expanded(a2)) == expanded(b2)
    aut = automorphism_table_group(S3)
    assert aut.mul[a2][b2] == 0
    assert aut.inv[a2] == b2


def test_find_simple_cycle_on_a_unicyclic_component():
    # theta pair (1,2)/(2,1) over coordinates {1,2}: a 2-cycle off vertex 0.
    f = StructuredEndo(S3, 2, (1, 2), (0, 0))
    g = StructuredEndo(S3, 2, (2, 1), (5, 1))
    und = build_undirected(f.theta, g.theta)
    comp = next(c for c in components(und) if 0 not in c.vertices)
    base, fwd, rev = comp.base, comp.forward, comp.reverse
    assert base == 1
    for steps in (fwd, rev):
        # (head, tail) pairs chain from the base back to it
        assert steps[0][1] == base and steps[-1][0] == base
        assert all(a[0] == b[1] for a, b in zip(steps, steps[1:]))
    quot, mul = _tables(S3).quot, _tables(S3).mul
    fwd_id, rev_id = (path_transport(quot, mul, f, g, steps) for steps in (fwd, rev))
    assert compose_perm(expanded(fwd_id), expanded(rev_id)) == tuple(range(6))
    # The composed id expands to the composite of the per-arrow tuples.
    want = tuple(range(6))
    for _head, _tail, kind, i in fwd:
        head_phi, tail_phi = (g.phis[i], f.phis[i]) if kind == "a" else (f.phis[i], g.phis[i])
        want = compose_perm(by_tuples(head_phi, tail_phi), want)
    assert expanded(fwd_id) == want
    # both orientations are automorphisms of T
    assert sorted(expanded(fwd_id)) == list(range(6))
    # A tree component carries no cycle walks.
    tree_comp = next(c for c in components(und) if 0 in c.vertices)
    assert tree_comp.excess == 0 and tree_comp.forward == tree_comp.reverse == ()


def test_pair_plans_are_kept_by_value(tmp_path):
    # Freshly built but equal source maps hit the same plan.
    plan = pair_plan(tuple([0, 1]), tuple([1, 2]))
    assert pair_plan(tuple([0, 1]), tuple([1, 2])) is plan
    assert plan.tree and len(plan.components) == 1
    (comp,) = plan.components
    assert comp.base == 0 and sorted(head for head, *_ in comp.steps) == [1, 2]
    # Every n = 3 shape, visited twice, fills one entry each: the store
    # holds all of rank 3.
    clear_plans()
    thetas = list(itertools.product(range(4), repeat=3))
    for _ in range(2):
        for tf in thetas:
            for tg in thetas:
                pair_plan(tuple(tf), tuple(tg))
    assert len(pairgraphs._PLANS) == PLAN_STORE_SIZE == 4096
    # Rank 4 has 390,625 shapes; a new one that finds the store full
    # empties it, so plans and their shared parts stay bounded.
    pair_plan((1, 2, 3, 4), (2, 3, 4, 0))
    assert len(pairgraphs._PLANS) == 1
    rng = random.Random(0x4A7)
    for _ in range(5000):
        pair_plan(*(tuple(rng.randrange(5) for _ in range(4)) for _ in range(2)))
        assert len(pairgraphs._PLANS) <= PLAN_STORE_SIZE
    # per plan: itself, and per component its plan, vertices and three
    # step tuples; steps (head, tail, kind, index) and arrows (kind,
    # index, tail, head) number 2·4·5² each at rank 4
    assert len(pairgraphs._PARTS) <= PLAN_STORE_SIZE * (1 + 5 * 5) + 2 * (2 * 4 * 5**2)
    clear_plans()
    assert not pairgraphs._PLANS and not pairgraphs._PARTS
    # A second S3, loaded from a table file, gets the same verdicts.
    path = tmp_path / "s3.txt"
    rows = "\n".join(" ".join(map(str, row)) for row in S3.mul)
    path.write_text(f"{S3.order}\n{rows}\n")
    other = load_group(str(path))
    assert other is not S3
    rng = random.Random(0x51A)
    mine, theirs = list(enumerate_end0(S3, 2)), list(enumerate_end0(other, 2))
    for _ in range(300):
        i, j = rng.randrange(len(mine)), rng.randrange(len(mine))
        assert is_fpf_by_tree(mine[i], mine[j]) == is_fpf_by_tree(theirs[i], theirs[j])


def test_dump_lines_format():
    und = build_undirected(F.theta, G.theta)
    lines = dump_lines(und)
    assert lines == ["e1\t0\t1", "e2\t1\t2", "a1\t0\t1", "a2\t1\t2", "b2\t2\t1"]


def test_theta_only_dependence_of_the_tree_verdict():
    # The undirected graph ignores the phi decorations entirely, so any
    # two endo pairs sharing source maps get the same verdict.
    rng = random.Random(0x7355)
    endos = list(enumerate_end0(S3, 2))
    for _ in range(200):
        f1, g1 = rng.choice(endos), rng.choice(endos)
        assert build_undirected(f1.theta, g1.theta).edges == tuple(
            zip(f1.theta, g1.theta)
        )
