"""Fixed-point-freeness of endomorphism pairs.

A pair (f, g) over G = T^n is fixed point free when f and g agree only on
the identity.  Two routes decide this:

* a brute-force scan of all |T|^n elements (always available at desk
  scale, and the oracle everything else is judged against), which reads
  each coordinate of f(x) and g(x) for every x at once from one table of
  coordinate images per (T, n), built from the automorphism array and
  the coordinate list alone;
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

The tree verdict, the witness and the path constraints read the graph's
shape from pairgraphs.pair_plan, built once per (theta_f, theta_g); per
pair they only look up automorphism ids in the Aut(T) table and expand an
id to an image where a coordinate value is read.  The brute-force scan
uses no pair graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .endomorphisms import coordinate_images
from .groups import (
    BudgetError,
    automorphism_table_group,
    has_fpf_automorphism,
    lowest_fixed_points,
    power_coords,
    power_identity,
)
from .pairgraphs import CONSTANT, path_transport, plan_for, transport_id

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

SCAN_BUDGET = 10_000


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


def is_fpf_bruteforce(f, g):
    """Scan all of T^n; the first non-identity agreement is the witness.

    Reads the n rows of f and the n rows of g (``f.rows``, ``g.rows``)
    from the coordinate-image table of (T, n) and compares them element
    by element, so a scan builds nothing per pair and shares no code with
    the pair graph; the witness is decoded from its index by
    power_coords.  The budget is checked before the table is built.
    """
    T, n = f.group, f.n
    if g.group is not T or g.n != n:
        raise ValueError("endomorphism pair lives over different powers")
    if T.order**n > SCAN_BUDGET:
        raise BudgetError(
            f"|{T.name}|^{n} = {T.order ** n} elements exceed the scan budget {SCAN_BUDGET}; "
            "when T has no fixed-point-free automorphism, is_fpf_by_tree or "
            "decide_fpf decides the pair from its pair graph instead"
        )
    table = coordinate_images(T, n)
    agree = None
    for a, b in zip(f.rows, g.rows):
        if a == b:  # a coordinate both read through the same row agrees everywhere
            continue
        if agree is None:
            agree = table[a] == table[b]
        else:
            agree &= table[a] == table[b]
    if agree is None:
        agree = np.ones(T.order**n, dtype=bool)
    agree[0] = False  # the identity always agrees and never counts
    first = int(agree.argmax())
    if not agree[first]:
        return FpfVerdict(True, "bruteforce", None)
    witness = power_coords(T, n, first)
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
    T = f.group
    aut, auts = automorphism_table_group(T), T.automorphisms()
    for comp in plan_for(f, g).components:
        if comp.vertices[0] == 0 or comp.excess > 1 or T.order == 1:
            continue  # the identity's component, two cycles, or no seed but 0
        seed = 1
        if comp.excess == 1:
            seed = lowest_fixed_points(T)[path_transport(aut, f, g, comp.forward)]
            if seed is None:
                continue  # cycle transport is fixed point free; unusable
        sigma = [0] * f.n
        sigma[comp.base - 1] = seed
        # No arrow inside a component avoiding 0 starts at 0, so every
        # transport here is an automorphism.
        for head, tail, kind, i in comp.steps:
            sigma[head - 1] = auts[transport_id(aut, f, g, kind, i, tail)][sigma[tail - 1]]
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
    if plan_for(f, g).tree:
        return FpfVerdict(True, "tree-criterion", None)
    return FpfVerdict(False, "tree-criterion", construct_witness(f, g))


def decide_fpf(f, g):
    """Tree criterion when T allows it, brute force otherwise."""
    try:
        return is_fpf_by_tree(f, g)
    except TreeCriterionError:
        return is_fpf_bruteforce(f, g)


# ── Path-condition evaluation ───────────────────────────────────────────


def _single_arrow_conditions(aut, auts, plan, f, g, sigma):
    """Every arrow's constraint sigma[head] = transport(sigma[tail]),
    read from the plan's arrows and the transport ids of the pair."""
    for kind, i, tail, head in plan.arrows:
        t = transport_id(aut, f, g, kind, i, tail)
        if sigma[head - 1] != (0 if t == CONSTANT else auts[t][sigma[tail - 1]]):
            return False
    return True


def _reduced_path_conditions(aut, auts, plan, f, g, sigma):
    """The composed-path constraint set: BFS tree paths in every component
    plus both cycle orientations in unicyclic components.  Complete for
    graphs whose components are trees or unicyclic; in the presence of a
    multi-cyclic component it is only a necessary condition."""
    ok = True
    for comp in plan.components:
        # want[v] is the base value carried along the BFS path to v.
        want = {comp.base: 0 if comp.base == 0 else sigma[comp.base - 1]}
        for head, tail, kind, i in comp.steps:
            t = transport_id(aut, f, g, kind, i, tail)
            want[head] = 0 if t == CONSTANT else auts[t][want[tail]]
            if sigma[head - 1] != want[head]:
                ok = False
        # Paths from 0 force the identity on the whole component, which
        # already subsumes any cycle constraints there; such components
        # carry no cycle steps.
        if comp.forward:
            val = sigma[comp.base - 1]
            for cycle in (comp.forward, comp.reverse):
                if auts[path_transport(aut, f, g, cycle)][val] != val:
                    ok = False
    return ok


def check_path_conditions(f, g, sigma):
    """True iff every arrow constraint holds on ``sigma``.

    The single-arrow conjunction is the exact transcription of
    f(sigma) = g(sigma); both the direct equality and the composed
    path/cycle constraint set are evaluated alongside it and any
    disagreement raises, so a True/False answer is triple-checked.
    """
    plan = plan_for(f, g)  # also checks that f and g share T^n
    aut, auts = automorphism_table_group(f.group), f.group.automorphisms()
    verdict = _single_arrow_conditions(aut, auts, plan, f, g, sigma)
    direct = f.apply(sigma) == g.apply(sigma)
    if verdict != direct:
        raise RuntimeError(
            "arrow conditions disagree with direct evaluation on "
            f"sigma={sigma}: arrows say {verdict}, equality says {direct}"
        )
    reduced = _reduced_path_conditions(aut, auts, plan, f, g, sigma)
    if plan.multicycle:
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
