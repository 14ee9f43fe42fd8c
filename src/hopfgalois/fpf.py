"""Fixed-point-freeness of endomorphism pairs.

A pair (f, g) over G = T^n is fixed point free when f and g agree only on
the identity.  Where each route and its argument live:

* is_fpf_bruteforce scans all |T|^n elements: always available at desk
  scale, it is the oracle everything else is judged against, and reads
  no pair graph and no quotient rows.  Its docstring gives the agreement
  store it keeps on T and that store's sizes.
* is_fpf_by_tree applies the tree criterion, valid only when T admits no
  fixed-point-free automorphism; construct_witness turns a non-tree graph
  into an explicit agreement, so the negative verdict certifies itself.
* check_path_conditions evaluates the arrow constraints on a coordinate
  tuple; its docstring gives the two evaluations that check each answer.
* _agree_at checks every witness and every direct f(x) = g(x)
  comparison, independently of the scan.

The graph routes read the graph's shape from pairgraphs.pair_plan, built
once per (theta_f, theta_g), and T's _AutTables in one memo read per pair;
an arrow transport is one lookup in its quotient rows.  A verdict is a
tuple that refuses a witness on a positive answer.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .endomorphisms import coordinate_images
from .groups import (
    BudgetError,
    automorphism_table_group,
    has_fpf_automorphism,
    lowest_fixed_points,
    power_coords,
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


class _VerdictFields(NamedTuple):
    is_fpf: bool
    method: str  # "bruteforce" or "tree-criterion"
    witness: tuple | None  # non-identity x with f(x) = g(x), when not fpf


class FpfVerdict(_VerdictFields):
    """A tuple (is_fpf, method, witness) whose construction refuses a
    witness on a positive verdict."""

    __slots__ = ()

    def __new__(cls, is_fpf, method, witness):
        if witness is not None and is_fpf:
            raise ValueError("a witness contradicts a positive verdict")
        return tuple.__new__(cls, (is_fpf, method, witness))

    @classmethod
    def _make(cls, iterable):  # _replace builds through here: check it too
        return cls(*iterable)


class _AutTables(NamedTuple):
    """What the graph routes read of T, kept on T as one memo entry."""

    auts: tuple  # T.automorphisms()
    quot: tuple  # row a is mul[inv a], so quot[a][b] is the id of inverse(a)∘b
    mul: tuple  # automorphism_table_group(T)'s table as rows of ints, for scalar reads
    lowest: tuple  # lowest_fixed_points(T)
    has_fpf: bool  # has_fpf_automorphism(T)


def _build_tables(T):
    aut = automorphism_table_group(T)
    mul = tuple(map(tuple, aut.np_mul.tolist()))
    quot = tuple(mul[i] for i in aut.inv)  # Aut(T)'s own rows, not a copy
    lowest = lowest_fixed_points(T)
    return _AutTables(T.automorphisms(), quot, mul, lowest, has_fpf_automorphism(T))


def _tables(T):
    """T's _AutTables, built on first use: one memo read per route."""
    return T.memo("fpf_tables", _build_tables, T)


def _agree_at(auts, f, g, x):
    """f(x) == g(x), read from theta, phis and T's automorphisms ``auts``
    one output coordinate at a time, stopping at the first mismatch.  It
    reads neither ``rows`` nor coordinate_images, so it stays independent
    of the element scan whose witnesses it checks."""
    for tf, pf, tg, pg in zip(f.theta, f.phis, g.theta, g.phis):
        if (auts[pf][x[tf - 1]] if tf else 0) != (auts[pg][x[tg - 1]] if tg else 0):
            return False
    return True


def _assert_witness(auts, f, g, witness):
    if not any(witness):
        raise RuntimeError("constructed witness is the identity")
    if not _agree_at(auts, f, g, witness):
        raise RuntimeError(
            f"constructed witness {witness} does not satisfy f(x) = g(x)"
        )


def _agreement_store(T, n):
    """(R, store, auts) for T^n, kept on T: R = 1 + n|Aut T| is the row
    count of coordinate_images(T, n), store[a*R + b] is None until rows a
    and b have been compared, then the int whose bit k says that they agree
    on element k, and auts is T's automorphisms, which check a witness."""
    auts = T.automorphisms()
    R = 1 + n * len(auts)
    return R, [None] * R**2, auts


def _fill_agreement_bits(T, n, R, store, a):
    """Row a and column a of the store (agreement is symmetric), filled on
    a store miss from one numpy comparison of row a of
    coordinate_images(T, n) with every row; returns row a's R bitsets."""
    table = coordinate_images(T, n)
    packed = np.packbits(table == table[a], axis=1, bitorder="little")
    width, raw = packed.shape[1], packed.tobytes()
    bits = [int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]
    store[a * R:(a + 1) * R] = bits
    store[a::R] = bits
    return bits


def is_fpf_bruteforce(f, g):
    """Scan all of T^n; the first non-identity agreement is the witness.

    Coordinate i of f and of g reads rows ``f.rows[i]`` and ``g.rows[i]``
    of the coordinate-image table of (T, n), and each pair of rows its
    agreement bitset in the store kept on T (_agreement_store), filled a
    whole row at a time on a miss (_fill_agreement_bits).  A scan ANDs
    its n bitsets, drops the identity's bit 0 and decodes the lowest set
    bit, the first agreeing index, with power_coords; it builds nothing
    else per pair and shares no code with the pair graph.  Filled
    completely, the store holds R^2 bitsets, R^2·|T|^n/8 bytes of bits:
    10 KB for S3^3, 0.1 MB for A5, 4.8 MB for Q8^4, 8.2 MB for D5^4 and
    about 26 MB for A5^2, beside the uint8 table's 0.87 MB.  A row fill
    costs about 0.6 ms on A5^2 (241 rows of 3,600 elements, one uint8
    comparison and packbits), so a few thousand pairs there scan slower
    cold than a per-pair comparison would and faster once the rows are
    filled.  The budget is checked before anything is built.
    """
    T, n = f.group, f.n
    if g.group is not T or g.n != n:
        raise ValueError("endomorphism pair lives over different powers")
    size = T.order**n
    if size > SCAN_BUDGET:
        others = (
            f"{T.name} admits a fixed-point-free automorphism, so the tree criterion "
            "does not apply and no other route decides the pair"
            if has_fpf_automorphism(T)
            else "when T has no fixed-point-free automorphism, is_fpf_by_tree or "
            "decide_fpf decides the pair from its pair graph instead"
        )
        raise BudgetError(
            f"|{T.name}|^{n} = {size} elements exceed the scan budget {SCAN_BUDGET}; {others}"
        )
    R, store, auts = T.memo(("agreement_bits", n), _agreement_store, T, n)
    agree = (1 << size) - 2  # every element but the identity, which never counts
    for a, b in zip(f.rows, g.rows):
        if a != b:  # a coordinate both read through the same row agrees everywhere
            bits = store[a * R + b]
            agree &= _fill_agreement_bits(T, n, R, store, a)[b] if bits is None else bits
    if not agree:
        return FpfVerdict(True, "bruteforce", None)
    witness = power_coords(T, n, (agree & -agree).bit_length() - 1)
    _assert_witness(auts, f, g, witness)
    return FpfVerdict(False, "bruteforce", witness)


def _witness_from_plan(f, g, plan, tables):
    """construct_witness on the pair's plan and T's _tables."""
    auts, quot, mul, lowest, _ = tables
    for comp in plan.components:
        if comp.vertices[0] == 0 or comp.excess > 1 or f.group.order == 1:
            continue  # the identity's component, two cycles, or no seed but 0
        seed = 1
        if comp.excess == 1:
            seed = lowest[path_transport(quot, mul, f, g, comp.forward)]
            if seed is None:
                continue  # cycle transport is fixed point free; unusable
        sigma = [0] * f.n
        sigma[comp.base - 1] = seed
        # No arrow inside a component avoiding 0 starts at 0, so every
        # transport here is an automorphism.
        for head, tail, kind, i in comp.steps:
            sigma[head - 1] = auts[transport_id(quot, f, g, kind, i, tail)][sigma[tail - 1]]
        witness = tuple(sigma)
        _assert_witness(auts, f, g, witness)
        return witness
    raise WitnessError(
        "no usable component: every non-0 component is multi-cyclic or its "
        "cycle transport has no non-trivial fixed point"
    )


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
    return _witness_from_plan(f, g, plan_for(f, g), _tables(f.group))


def is_fpf_by_tree(f, g):
    """Tree criterion, valid only when T has no fixed-point-free
    automorphism: fpf iff the pair graph is a tree, with an explicit
    witness built in the negative case from the same plan and tables."""
    T = f.group
    tables = _tables(T)
    if tables.has_fpf:
        raise TreeCriterionError(
            f"{T.name} admits a fixed-point-free automorphism; "
            "the tree criterion does not apply"
        )
    plan = plan_for(f, g)
    if plan.tree:
        return FpfVerdict(True, "tree-criterion", None)
    return FpfVerdict(False, "tree-criterion", _witness_from_plan(f, g, plan, tables))


def decide_fpf(f, g):
    """Tree criterion when T allows it, brute force otherwise."""
    try:
        return is_fpf_by_tree(f, g)
    except TreeCriterionError:
        return is_fpf_bruteforce(f, g)


# ── Path-condition evaluation ───────────────────────────────────────────


def _single_arrow_conditions(quot, auts, plan, f, g, sigma):
    """Every arrow's constraint sigma[head] = transport(sigma[tail]),
    read from the plan's arrows and the transport ids of the pair."""
    for kind, i, tail, head in plan.arrows:
        t = transport_id(quot, f, g, kind, i, tail)
        if sigma[head - 1] != (0 if t == CONSTANT else auts[t][sigma[tail - 1]]):
            return False
    return True


def _reduced_path_conditions(quot, mul, auts, plan, f, g, sigma):
    """The composed-path constraint set: BFS tree paths in every component
    plus both cycle orientations in unicyclic components.  Complete for
    graphs whose components are trees or unicyclic; in the presence of a
    multi-cyclic component it is only a necessary condition."""
    ok = True
    for comp in plan.components:
        # want[v] is the base value carried along the BFS path to v.
        want = {comp.base: 0 if comp.base == 0 else sigma[comp.base - 1]}
        for head, tail, kind, i in comp.steps:
            t = transport_id(quot, f, g, kind, i, tail)
            want[head] = 0 if t == CONSTANT else auts[t][want[tail]]
            if sigma[head - 1] != want[head]:
                ok = False
        # Paths from 0 force the identity on the whole component, which
        # already subsumes any cycle constraints there; such components
        # carry no cycle steps.
        if comp.forward:
            val = sigma[comp.base - 1]
            for cycle in (comp.forward, comp.reverse):
                if auts[path_transport(quot, mul, f, g, cycle)][val] != val:
                    ok = False
    return ok


def check_path_conditions(f, g, sigma):
    """True iff every arrow constraint holds on ``sigma``.

    The single-arrow conjunction is the exact transcription of
    f(sigma) = g(sigma); both the direct equality and the composed
    path/cycle constraint set are evaluated alongside it and any
    disagreement raises, so a True/False answer is triple-checked.
    ``sigma`` must hold exactly n entries in 0..|T|-1; anything else is a
    ValueError.
    """
    plan = plan_for(f, g)  # also checks that f and g share T^n
    T, n = f.group, f.n
    if len(sigma) != n or min(sigma) < 0 or max(sigma) >= T.order:
        raise ValueError(f"sigma={sigma} must hold n = {n} entries in 0..|T|-1 = 0..{T.order - 1}")
    auts, quot, mul, _, _ = _tables(T)
    verdict = _single_arrow_conditions(quot, auts, plan, f, g, sigma)
    direct = _agree_at(auts, f, g, sigma)
    if verdict != direct:
        raise RuntimeError(
            "arrow conditions disagree with direct evaluation on "
            f"sigma={sigma}: arrows say {verdict}, equality says {direct}"
        )
    reduced = _reduced_path_conditions(quot, mul, auts, plan, f, g, sigma)
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
