"""The holomorph and its regular subgroups.

Hol(N) is modelled as pairs (trans, aut): the permutation of N sending x
to aut(x)·trans⁻¹.  In these coordinates the right-translation embedding
is aut-free, the composition law is (a, i)·(b, j) = (a·aut_i(b), i∘j), and
a subgroup is regular exactly when its translation parts exhaust N; the
translation-exhaustion test and the honest transitive-plus-free orbit test
are both run and must agree.  The product i∘j of automorphism ids is read
from Aut(N) as a table group, which is built once and kept on N.

Three routes find regular subgroups:

* enumerate_regular_subgroups finds those isomorphic to N in parametrized
  form: f in Hom(N, Aut(N)) and a crossed map g (g(st) = g(s)·f(s)(g(t)))
  give {(g(s), f(s))}, regular precisely when g is bijective, both from
  the generator-image backtracker of :mod:`.groups`; its docstring gives
  the Aut(N)-orbit argument that cuts the crossed-map searches;
* regular_subgroups_oracle, an independent walk over the subgroups of the
  full holomorph table, is the oracle the enumeration is judged against;
* fpf_pair_to_subgroup gives the subgroup of a fixed point free pair of
  structured endomorphisms through a store no other route reads; its
  docstring gives the store and why its key needs no sort.

The structure lemmas on direct powers T^n live in :mod:`.powerlemmas`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .endomorphisms import image_indices
from .fpf import is_fpf_bruteforce
from .groups import (
    BudgetError,
    FiniteGroup,
    _read_only,
    automorphism_table_group,
    crossed_homomorphisms,
    enumerate_homomorphisms,
    find_isomorphism,
    power_base,
    power_group,
    row_finder,
)

__all__ = [
    "HolElement",
    "Holomorph",
    "holomorph_of",
    "RegularSubgroup",
    "enumerate_regular_subgroups",
    "regular_subgroups_oracle",
    "classify_inn_out",
    "fpf_pair_to_subgroup",
    "byott_translate",
]

HOL_BUDGET = 200_000
# The oracle takes 0.060-0.075 s on a4 (|Hol| 288) and 0.18-0.28 s on s4 (576), five cold
# runs on a 2-vCPU Intel Xeon VM (Python 3.11.7, numpy 2.4.6); a5's Hol has 7200 elements.
ORACLE_HOL_LIMIT = 600


@dataclass(frozen=True, order=True)
class HolElement:
    trans: int
    aut: int


class Holomorph:
    """Hol(N) for a table group N, with its regularity tests and tables.

    The checks on element sets (closure, regularity, the subgroup and
    holomorph tables) take the set as an array of flat indices
    trans·|Aut| + aut and gather all products at once."""

    def __init__(self, N):
        self.group = N
        self.aut_count = len(N.automorphisms())
        self.order = N.order * self.aut_count
        self.inner_ids = frozenset(N.inner_automorphism_ids())
        self._inv = np.array(N.inv, dtype=np.int64)

    # -- regularity -------------------------------------------------------

    def _indices(self, elements):
        """Flat indices of ``elements`` in the given order, repeats kept."""
        return np.fromiter(map(self.index_of_element, elements), dtype=np.int64)

    def _products(self, flat):
        """Matrix of flat indices: entry (k, l) is element flat[k] composed
        with element flat[l]."""
        N, K = self.group, self.aut_count
        t, a = np.divmod(flat, K)
        trans = N.np_mul[t[:, None], N.aut_array()[a[:, None], t[None, :]]]
        return trans * K + automorphism_table_group(N).np_mul[a[:, None], a[None, :]]

    def _closed_positions(self, flat):
        """Positions in the sorted distinct indices ``flat`` of all their
        products; a ValueError names a product that escapes the set."""
        if flat.size == 0 or flat[0] != 0:
            raise ValueError("subgroup candidate does not contain the identity")
        where = np.full(self.order, -1)  # position in flat of each holomorph element
        where[flat] = np.arange(flat.size)
        pos = where[self._products(flat)]
        if (pos < 0).any():
            e1, e2 = (self.element_of_index(int(flat[k])) for k in np.argwhere(pos < 0)[0])
            raise ValueError(f"set is not closed under composition: {e1} * {e2} escapes")
        return pos

    def _regularity(self, flat):
        """(translation-exhaustion verdict, transitive-and-free verdict) of
        the flat indices ``flat``, equivalent on a subgroup and computed
        independently, from the xi values and from every element's action
        on N; repeats count."""
        N, m = self.group, self.group.order
        t, a = np.divmod(flat, self.aut_count)
        xi = self._inv[t]
        xi_bijective = flat.size == m and np.bincount(xi, minlength=m).all()
        action = N.np_mul[N.aut_array()[a], xi[:, None]]  # row k: x ↦ aut(x)·trans⁻¹
        transitive = np.bincount(action[:, 0], minlength=m).all()
        free = not (action[flat != 0] == np.arange(m)).any()
        return bool(xi_bijective), bool(transitive and free and flat.size == m)

    def _regular(self, flat, closed=False):
        """(regular verdict, table) of the flat indices ``flat``, repeats
        counted, with the two regularity tests asserted equal.  The table
        (``_closed_positions``) checks closure; a set known ``closed`` gets
        one only when it is regular, and None otherwise."""
        by_xi, by_orbit = self._regularity(flat)
        pos = self._closed_positions(np.unique(flat)) if by_xi or not closed else None
        if by_xi != by_orbit:
            raise RuntimeError(
                f"regularity tests disagree on a subgroup of Hol({self.group.name}): "
                f"xi-bijective {by_xi}, transitive+free {by_orbit}"
            )
        return by_xi, pos

    # -- table form -------------------------------------------------------

    def as_table_group(self):
        """The full holomorph as a validated FiniteGroup on the flat
        indices, so the identity (0, 0) sits at index 0 as required."""
        return self.group.memo("holomorph_table", lambda: FiniteGroup(
            self._products(np.arange(self.order)), name=f"Hol({self.group.name})"
        ))

    def element_of_index(self, k):
        return HolElement(k // self.aut_count, k % self.aut_count)

    def index_of_element(self, e):
        return e.trans * self.aut_count + e.aut

    def subgroup_table_group(self, elements):
        """A subgroup of the holomorph as its own validated FiniteGroup,
        elements sorted so the identity is index 0."""
        pos = self._closed_positions(np.unique(self._indices(elements)))
        return FiniteGroup(pos, name=f"sub{pos.shape[0]}-of-Hol({self.group.name})")


def holomorph_of(N):
    """Hol(N), built once and kept on N."""
    return N.memo("holomorph", Holomorph, N)


def _hol_order_floor(T, n):
    """A lower bound on |Hol(T^n)| read off T: neither T^n nor an automorphism
    of it is built.  For |T| > 1 and n ≥ 2 it is |T|^n·|Aut T|^n·n!, as
    Aut(T) wr S_n acts faithfully on T^n (exact for S3^3); otherwise
    |N|·|Inn N| = (|T|·|T/Z(T)|)^n."""
    if T.order > 1 and n >= 2:
        return (T.order * len(T.automorphisms())) ** n * math.factorial(n)
    center = T.memo("center_order", lambda: int((T.np_mul == T.np_mul.T).all(axis=0).sum()))
    return (T.order * (T.order // center)) ** n


def _priced_holomorph(T, n, limit, refusal):
    """Hol(T^n), or a BudgetError when it has more than ``limit`` elements,
    raised on the floor before T^n is built or Aut(T^n) searched, and on the
    exact order after.  The message ends in ``refusal``, formatted with the
    limit and the name of T^n only when refusing."""
    bound = _hol_order_floor(T, n)
    hol = holomorph_of(power_group(T, n)) if bound <= limit else None
    if hol is None or hol.order > limit:
        name = T.name if n == 1 else f"{T.name}^{n}"
        size = f">= {bound}" if hol is None else f"= {hol.order}"
        raise BudgetError(f"|Hol({name})| {size} " + refusal.format(limit=limit, name=name))
    return hol


# ── (f, g) parametrized subgroups ───────────────────────────────────────


@dataclass(frozen=True)
class RegularSubgroup:
    elements: tuple  # sorted HolElements
    classification: str  # "inn" or "out"


def _row_keys(rows):
    """One void scalar per row of non-negative ints: as big-endian bytes they
    compare as the rows do lexicographically, so np.unique sorts them so."""
    rows = np.ascontiguousarray(rows, dtype=">i8")
    return rows.view(f"V{8 * rows.shape[1]}").ravel()


def classify_inn_out(hol, elements):
    """inn when every automorphism part is a conjugation, out otherwise."""
    return "inn" if all(e.aut in hol.inner_ids for e in elements) else "out"


def enumerate_regular_subgroups(N):
    """All regular subgroups of Hol(N) isomorphic to N, by (f, g) search.

    f runs over Hom(N, Aut(N)); for each f the backtracker yields only the
    bijective crossed maps g, which contribute subgroups (the others are
    never regular, a biconditional the test suite checks over every
    crossed map).  Injective f with the same automorphism image yield the
    same subgroups (they differ by precomposing an automorphism of N,
    which only reindexes sigma), so one f per image class (a non-injective
    f is its own) is needed; the oracle test keeps this honest.

    Conjugation by α in Aut(N), (t, β) ↦ (α(t), αβα⁻¹), is an automorphism
    of Hol(N) that keeps the type and inn/out class (α c_x α⁻¹ = c_{α(x)})
    and maps the subgroups of (f, g) onto those of (c_α∘f∘α⁻¹, α∘g∘α⁻¹).
    So one f per Aut(N)-orbit of image classes is searched, and each other
    class of its orbit is reached by one gather, with the least α moving f
    into it.  Each α·h is found in Hom(N, Aut(N)) by its images of the
    generating sequence; a miss raises RuntimeError.  Every distinct
    subgroup has its closure checked, both regularity tests asserted, and
    s ↦ (g(s), f(s)) asserted to carry N's table onto the subgroup's;
    other types need the oracle.  Hol(N) is priced from (T, n) when N is a
    ``power_group``.
    """
    hol = _priced_holomorph(
        *power_base(N), HOL_BUDGET,
        "exceeds the budget {limit}; census.formula_Einn gives the structure "
        "count without Hol(N), but only for N = T^n with T non-abelian simple",
    )
    m, K, auts_arr = N.order, hol.aut_count, N.aut_array()
    aut = automorphism_table_group(N)
    amul, ainv = aut.np_mul, np.array(aut.inv)
    inv_perms = auts_arr[list(aut.inv)]  # row α is α⁻¹ as a permutation of N
    homs = np.array(list(enumerate_homomorphisms(N, aut)), dtype=np.int64).reshape(-1, m)
    gens = list(N.generating_sequence())  # a hom is fixed by its images of these
    find = row_finder(homs[:, gens], K)

    def conj(a, b):  # αβα⁻¹, elementwise
        return amul[amul[a, b], ainv[a]]

    def moved(rows, alphas):  # positions of α·h: (α·h)(s) = conj[α, h(α⁻¹(s))]
        at = find(conj(alphas[:, None], rows[:, inv_perms[alphas][:, gens]]))
        if at is None:
            raise RuntimeError(
                f"Hom({N.name}, Aut {N.name}) is not closed under conjugation by Aut({N.name})"
            )
        return at

    # closed under the generators of Aut(N), so under Aut(N)
    moved(homs, np.array(aut.generating_sequence(), dtype=np.int64))
    # one class per image for injective h, one per map otherwise
    ranked = np.sort(homs, axis=1)
    injective = (np.diff(ranked, axis=1) != 0).all(axis=1)
    keys = _row_keys(np.where(injective[:, None], ranked, homs))
    classes = np.unique(keys, return_inverse=True)[1]

    candidates = []  # rows s ↦ flat index of (g'(s), f'(s)), f' = α·f and g' = α∘g∘α⁻¹
    met = set()  # the classes of the orbits searched so far
    for f, c in enumerate(classes.tolist()):
        if c in met:
            continue
        orbit_classes = classes[moved(homs[f : f + 1], np.arange(K))[0]]
        met.update(orbit_classes.tolist())
        alphas = np.unique(orbit_classes, return_index=True)[1]  # the least α per class
        crossed = list(crossed_homomorphisms(N, auts_arr[homs[f]], bijective=True))
        g = np.array(crossed, dtype=np.int64).reshape(-1, m)[:, inv_perms[alphas]]
        beta, alphas = homs[f][inv_perms[alphas]], alphas[:, None]
        candidates.append((auts_arr[alphas, g] * K + conj(alphas, beta)).reshape(-1, m))
    images = np.concatenate(candidates)
    flats = np.sort(images, axis=1)
    first = np.unique(_row_keys(flats), return_index=True)[1]  # in lexicographic order

    subgroups = []
    for flat, image in zip(flats[first], images[first]):
        regular, pos = hol._regular(flat)
        if not regular:
            raise RuntimeError(
                f"a bijective crossed map must give a regular subgroup of Hol({N.name})"
            )
        at = np.searchsorted(flat, image)  # position of each image in flat
        if not (pos[at[:, None], at[None, :]] == at[N.np_mul]).all():
            raise RuntimeError(
                f"a regular subgroup of Hol({N.name}) from a bijective "
                f"crossed map is not isomorphic to {N.name} by s ↦ (g(s), f(s))"
            )
        elems = tuple(map(hol.element_of_index, flat.tolist()))
        subgroups.append(RegularSubgroup(elems, classify_inn_out(hol, elems)))
    return subgroups


def _greedy_extension(table, sub, inside, gens, x, limit):
    """<H, x> as a sorted tuple, for the subgroup H = ``sub`` (the set
    ``inside``) of the table group generated by ``gens``, when x is the
    least element of it outside H; else None, and None too once it passes
    ``limit`` elements.

    Right products close it: H's elements meet only x, since H is closed
    under its own generators, and each new element meets every generator.
    The walk stops at the first new element below x."""
    new, added, room = [], set(), limit - len(sub)
    columns = table.right_products((*gens, x))
    for elems, meets in ((sub, columns[-1:]), (new, columns)):
        for y in elems:  # runs over the elements appended below too
            for col in meets:
                z = col[y]
                if z not in inside and z not in added:
                    if z < x or len(new) == room:
                        return None
                    added.add(z)
                    new.append(z)
    return tuple(sorted((*sub, *new)))


def _subgroups_dividing(table, want):
    """Every subgroup of the table group whose order divides ``want``, as
    sorted tuples, each reached once.

    Every subgroup K has one greedy chain: g1 the least element of K but
    the identity, and g_{k+1} the least element of K outside <g1, ..., gk>;
    the g_k increase, every member of the chain is a subgroup of K, so its
    order divides |K|, and g_{k+1} is the least generator of <g_{k+1}>, as
    each generator lies in K outside <g1, ..., gk> too.  A subgroup found
    through g1 < ... < gk is extended only by such x > gk of order dividing
    ``want``, and only when x is the least element of <H, x> outside H
    (``_greedy_extension``), so the walk follows exactly the greedy chains
    and reaches each K once; a subgroup reached twice raises RuntimeError.
    The first thing that closure checks, that no element of the coset H·x
    lies below x, is run for all later seeds at once before it: one gather
    of H's rows and a column minimum."""
    dividing = want % np.array(table.element_orders()) == 0
    seed_ids = np.flatnonzero(dividing & table.least_generators())[1:]  # not the identity
    seeds = seed_ids.tolist()  # the x that can extend a greedy chain, ascending
    found, work = {(0,)}, [((0,), (), 0)]  # subgroups to extend, their seeds, the next seed
    while work:
        sub, gens, start = work.pop()
        inside = set(sub)
        later = seed_ids[start:]
        least = table.np_mul[list(sub)][:, later].min(axis=0)  # of each coset H·x; x itself is in it
        for at in (start + np.flatnonzero(least == later)).tolist():
            x = seeds[at]
            cl = _greedy_extension(table, sub, inside, gens, x, want)
            if cl is None or want % len(cl):
                continue
            if cl in found:
                raise RuntimeError(f"the subgroup walk reached a subgroup of order {len(cl)} twice")
            found.add(cl)
            if len(cl) < want:
                work.append((cl, (*gens, x), at + 1))
    return found


def regular_subgroups_oracle(N, iso_type=None, with_stats=False):
    """Independent check: enumerate the subgroups of order |N| in the full
    holomorph table, then filter by regularity and isomorphism type.

    The subgroups are found by a walk from {1} along greedy chains
    (``_subgroups_dividing``): each subgroup found is extended by a larger
    element than the ones that generated it, through a closure by right
    products that is dropped as soon as it holds a smaller element outside
    the subgroup or passes |N| elements.  By Lagrange only subgroups and
    elements whose orders divide |N| lie in a subgroup of that order.
    A regular subgroup whose element orders, read from the holomorph's
    table, differ from the target's is dropped before it is built as a
    group, by the same necessary test find_isomorphism makes first.
    Returns sorted element-key tuples; with_stats adds a dict of counts.
    Hol(N) over ORACLE_HOL_LIMIT is refused.
    """
    target = iso_type if iso_type is not None else N
    hol = _priced_holomorph(
        *power_base(N), ORACLE_HOL_LIMIT,
        "is too large for the exhaustive subgroup walk (limit {limit}); "
        "for {name}'s own type use enumerate_regular_subgroups",
    )
    want, table = N.order, hol.as_table_group()
    found = _subgroups_dividing(table, want)
    subgroup_sets = [cl for cl in found if len(cl) == want]
    orders, target_orders = table.element_orders(), sorted(target.element_orders())
    kept, regular_count = [], 0
    for cl in subgroup_sets:
        regular, pos = hol._regular(np.array(cl), closed=True)
        if not regular:
            continue
        regular_count += 1
        # find_isomorphism's element-order test, made before the subgroup is built
        if sorted(map(orders.__getitem__, cl)) != target_orders:
            continue
        sub = FiniteGroup(pos, name=f"sub{want}-of-Hol({N.name})")
        if find_isomorphism(sub, target) is not None:
            kept.append(cl)
    kept = [tuple(map(hol.element_of_index, cl)) for cl in sorted(kept)]
    if with_stats:
        return kept, {"subgroups_of_order": len(subgroup_sets), "regular": regular_count}
    return kept


def _pair_route(T, n):
    """What fpf_pair_to_subgroup keeps on T per n, priced first: Hol(T^n),
    its key template (no aut part placed yet), the aut id of conjugation
    by each element of T^n, and the verified subgroups, keyed by their aut
    parts indexed by translation part, as bytes."""
    hol = _priced_holomorph(
        T, n, HOL_BUDGET,
        "exceeds the budget {limit}; fpf.decide_fpf decides the pair without Hol(N)",
    )
    N = hol.group
    return hol, _read_only(np.full(N.order, -1, dtype=np.int64)), N.conjugation_aut_ids(), {}


def fpf_pair_to_subgroup(f, g):
    """The regular subgroup {x ↦ f(s)·x·g(s)⁻¹ : s in G} of Hol(G) attached
    to a fixed point free pair, as holomorph elements.

    In (trans, aut) coordinates the element for s is
    (g(s)·f(s)⁻¹, conjugation by f(s)).  The pair must be fixed point
    free; otherwise the map s ↦ element is not injective and a ValueError
    reports it.  Hol(T^n) over HOL_BUDGET is refused on every call; the
    route's state is built once by ``_pair_route`` and kept on T.

    The aut parts are scattered into an array indexed by translation part,
    -1 where no element lands.  For an fpf pair the translation parts are
    distinct and so exhaust G: no entry stays -1, and t·|Aut| + entry t
    is the set's flat indices, sorted by construction.  That array is the
    key of a store private to this route (the enumeration and the oracle
    never read it): many pairs give the same subgroup, so a pair costs the
    element scan, image_indices, a copy of the -1 template, three gathers
    and a scatter, and one lookup, and a hit returns the stored frozenset
    itself.  On a miss the set is asserted to be a regular subgroup
    (closure and both regularity tests) with inner projection before it
    is stored.
    """
    T, n = f.group, f.n
    hol, unplaced, conj_ids, stored = T.memo(("pair_route", n), _pair_route, T, n)
    N = hol.group
    verdict = is_fpf_bruteforce(f, g)
    fv, gv = image_indices(f, g)
    auts = unplaced.copy()  # aut part by translation part
    auts[N.np_mul[gv, hol._inv[fv]]] = conj_ids[fv]
    key = auts.tobytes()
    elems = stored.get(key)
    distinct = elems is not None or auts.min() >= 0  # no stored key holds a -1
    if not verdict.is_fpf:
        # s and s' with f(s)f(s')^-1 = g(s)g(s')^-1 share a translation
        # part, so the evaluation-at-identity map cannot be injective.
        if distinct:
            raise RuntimeError("non-fpf pair produced distinct translations")
        raise ValueError(
            f"pair is not fixed point free: only {np.count_nonzero(auts >= 0)} of "
            f"{N.order} translation parts are distinct, the action cannot "
            "be regular"
        )
    if not distinct:
        raise RuntimeError("fpf pair produced colliding holomorph elements")
    if elems is None:
        flat = np.arange(N.order) * hol.aut_count + auts
        if not hol._regular(flat)[0]:
            raise RuntimeError("fpf pair produced a non-regular subgroup")
        elems = frozenset(map(hol.element_of_index, flat.tolist()))
        if classify_inn_out(hol, elems) != "inn":
            raise RuntimeError("fpf pair produced a subgroup with outer projection")
        stored[key] = elems
    return elems


def byott_translate(count_e_prime, aut_g_order, aut_n_order):
    """Structure count from the regular-subgroup count: multiply by
    |Aut(G)|/|Aut(N)| in exact arithmetic; a non-integer result means the
    inputs are inconsistent."""
    value, rest = divmod(count_e_prime * aut_g_order, aut_n_order)
    if rest:
        raise ValueError(
            f"{count_e_prime}·{aut_g_order}/{aut_n_order} is not an integer"
        )
    return value
