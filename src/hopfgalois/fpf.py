"""Fixed-point-freeness of endomorphism pairs.

A pair (f, g) over G = T^n is fixed point free when f and g agree only on
the identity.  Two routes decide this:

* a brute-force scan of all |T|^n elements (always available at desk
  scale, and the oracle everything else is judged against);
* the tree criterion: when T admits no fixed-point-free automorphism,
  (f, g) is fixed point free exactly when its undirected pair graph is a
  tree.  A non-tree graph then always yields an explicit non-identity
  element on which f and g agree, built by seeding a coordinate inside a
  suitable component and transporting it along arrows, so the negative
  verdict certifies itself.

check_path_conditions evaluates the arrow constraints that a coordinate
tuple must satisfy for f and g to agree on it; the conjunction over single
arrows is provably the same condition as f(x) = g(x), and the composed
path/cycle constraint set is asserted consistent with it on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .endomorphisms import image_coords_table
from .groups import BudgetError, all_coords, has_fpf_automorphism, power_identity
from .pairgraphs import (
    bfs_arrow_tree,
    build_directed,
    build_undirected,
    components,
    find_simple_cycle,
    is_tree,
)

__all__ = [
    "FpfVerdict",
    "TreeCriterionError",
    "WitnessError",
    "is_fpf_bruteforce",
    "is_fpf_by_tree",
    "construct_witness",
    "check_path_conditions",
    "decide_fpf",
]

DEFAULT_SCAN_BUDGET = 10_000


class TreeCriterionError(ValueError):
    """The tree criterion was asked about a T that admits a fixed-point-free
    automorphism; only the brute-force route is valid there."""


class WitnessError(RuntimeError):
    """No component supports a witness construction (every non-0 component
    is multi-cyclic or has a fixed-point-free cycle transport)."""


@dataclass(frozen=True)
class FpfVerdict:
    is_fpf: bool
    method: str  # "bruteforce" or "tree-criterion"
    witness: tuple | None  # non-identity x with f(x) = g(x), when not fpf

    def __post_init__(self):
        if self.witness is not None and self.is_fpf:
            raise ValueError("a witness contradicts a positive verdict")


def _assert_witness(f, g, witness):
    if witness == power_identity(f.n):
        raise RuntimeError("constructed witness is the identity")
    if f.apply(witness) != g.apply(witness):
        raise RuntimeError(
            f"constructed witness {witness} does not satisfy f(x) = g(x)"
        )


def is_fpf_bruteforce(f, g, budget=DEFAULT_SCAN_BUDGET):
    """Scan all of T^n; the first non-identity agreement is the witness."""
    T, n = f.group, f.n
    if T.order**n > budget:
        raise BudgetError(
            f"|{T.name}|^{n} = {T.order ** n} elements exceed the scan budget {budget}"
        )
    coords = all_coords(T, n)
    agree = (image_coords_table(f, coords) == image_coords_table(g, coords)).all(axis=1)
    agree[0] = False  # the identity always agrees and never counts
    hits = np.flatnonzero(agree)
    if hits.size == 0:
        return FpfVerdict(True, "bruteforce", None)
    witness = tuple(int(v) for v in coords[hits[0]])
    _assert_witness(f, g, witness)
    return FpfVerdict(False, "bruteforce", witness)


def construct_witness(f, g):
    """A non-identity element on which f and g agree, from the graph.

    Works through the components not containing vertex 0, lowest vertex
    first.  In a tree component any seed works; in a unicyclic component
    the seed must be a fixed point of the cycle transport, and the lowest
    non-identity one is taken.  The seed value is transported along BFS
    arrow paths to every coordinate of the component; all other
    coordinates stay at the identity.  The result is re-checked against
    f and g before being returned.
    """
    T, n = f.group, f.n
    und = build_undirected(f.theta, g.theta)
    directed = build_directed(f, g)
    for comp in components(und):
        if 0 in comp.vertices:
            continue
        ec, vc = comp.edge_count, comp.vertex_count
        if ec == vc - 1:
            base = comp.vertices[0]
            seed = 1
        elif ec == vc:
            fwd, _ = find_simple_cycle(und, directed, comp, T)
            base = fwd.source
            seed = next(
                (x for x in range(1, T.order) if fwd.images[x] == x), None
            )
            if seed is None:
                continue  # cycle transport is fixed point free; unusable
        else:
            continue  # more than one independent cycle; unusable
        maps = bfs_arrow_tree(directed, base, T, within=set(comp.vertices))
        if set(maps) != set(comp.vertices):
            raise RuntimeError(
                f"component {comp.vertices} not fully reachable from {base}"
            )
        sigma = [0] * n
        for v, pm in maps.items():
            sigma[v - 1] = pm.images[seed]
        witness = tuple(sigma)
        _assert_witness(f, g, witness)
        return witness
    raise WitnessError(
        "no usable component: every non-0 component is multi-cyclic or its "
        "cycle transport has no non-trivial fixed point"
    )


def is_fpf_by_tree(f, g):
    """Tree criterion, valid only when T has no fixed-point-free
    automorphism: fpf iff the pair graph is a tree, with an explicit
    witness constructed in the negative case."""
    T = f.group
    if has_fpf_automorphism(T):
        raise TreeCriterionError(
            f"{T.name} admits a fixed-point-free automorphism; "
            "the tree criterion does not apply"
        )
    und = build_undirected(f.theta, g.theta)
    if is_tree(und):
        return FpfVerdict(True, "tree-criterion", None)
    return FpfVerdict(False, "tree-criterion", construct_witness(f, g))


def decide_fpf(f, g, budget=DEFAULT_SCAN_BUDGET):
    """Tree criterion when T allows it, brute force otherwise."""
    try:
        return is_fpf_by_tree(f, g)
    except TreeCriterionError:
        return is_fpf_bruteforce(f, g, budget=budget)


# ── Path-condition evaluation ───────────────────────────────────────────


def _single_arrow_conditions(directed, sigma):
    for c in directed.arrows:
        src = 0 if c.tail == 0 else sigma[c.tail - 1]
        if sigma[c.head - 1] != c.transport[src]:
            return False
    return True


def _reduced_path_conditions(f, g, sigma):
    """The composed-path constraint set: BFS tree paths in every component
    plus both cycle orientations in unicyclic components.  Complete for
    graphs whose components are trees or unicyclic; in the presence of a
    multi-cyclic component it is only a necessary condition."""
    T = f.group
    und = build_undirected(f.theta, g.theta)
    directed = build_directed(f, g)
    ok = True
    saw_multicycle = False
    for comp in components(und):
        base = comp.vertices[0]
        maps = bfs_arrow_tree(directed, base, T, within=set(comp.vertices))
        if set(maps) != set(comp.vertices):
            raise RuntimeError(
                f"component {comp.vertices} not fully reachable from {base}"
            )
        base_val = 0 if base == 0 else sigma[base - 1]
        for v, pm in maps.items():
            if v != base and sigma[v - 1] != pm.images[base_val]:
                ok = False
        if 0 in comp.vertices:
            # Paths from 0 force the identity on the whole component, which
            # already subsumes any cycle constraints here.
            continue
        excess = comp.edge_count - (comp.vertex_count - 1)
        if excess == 1:
            fwd, rev = find_simple_cycle(und, directed, comp, T)
            for cyc in (fwd, rev):
                val = sigma[cyc.source - 1]
                if cyc.images[val] != val:
                    ok = False
        elif excess >= 2:
            saw_multicycle = True
    return ok, saw_multicycle


def check_path_conditions(f, g, sigma):
    """True iff every arrow constraint holds on ``sigma``.

    The single-arrow conjunction is the exact transcription of
    f(sigma) = g(sigma); both the direct equality and the composed
    path/cycle constraint set are evaluated alongside it and any
    disagreement raises, so a True/False answer is triple-checked.
    """
    directed = build_directed(f, g)
    verdict = _single_arrow_conditions(directed, sigma)
    direct = f.apply(sigma) == g.apply(sigma)
    if verdict != direct:
        raise RuntimeError(
            "arrow conditions disagree with direct evaluation on "
            f"sigma={sigma}: arrows say {verdict}, equality says {direct}"
        )
    reduced, saw_multicycle = _reduced_path_conditions(f, g, sigma)
    if saw_multicycle:
        if verdict and not reduced:
            raise RuntimeError(
                "reduced path set rejected a satisfying element "
                f"sigma={sigma} in a multi-cyclic graph"
            )
    elif reduced != verdict:
        raise RuntimeError(
            "reduced path set disagrees with the arrow conditions on "
            f"sigma={sigma}: reduced says {reduced}, arrows say {verdict}"
        )
    return verdict
