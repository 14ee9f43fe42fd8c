"""The holomorph and its regular subgroups.

Hol(N) is modelled as pairs (trans, aut): the permutation of N sending x
to aut(x)·trans⁻¹.  In these coordinates the right-translation embedding
is aut-free, the composition law is (a, i)·(b, j) = (a·aut_i(b), i∘j), and
a subgroup is regular exactly when its translation parts exhaust N; the
translation-exhaustion test and the honest transitive-plus-free orbit test
are both run and must agree.  The product i∘j of automorphism ids is read
from Aut(N) as a table group, which is built once and kept on N.  Checks
on element sets (closure, regularity, the subgroup and holomorph tables)
take the set as an array of flat indices trans·|Aut| + aut and gather all
products at once; the scalar compose and action are their reference.

Regular subgroups isomorphic to N arise in parametrized form: a
homomorphism f from N into Aut(N) plus a crossed map g (g(st) =
g(s)·f(s)(g(t))) give the subgroup {(g(s), f(s))}, regular precisely when
g is bijective.  Both f and g come from the generator-image backtracker
of :mod:`.groups`.  Enumerating all (f, g) pairs and deduplicating element
sets therefore enumerates the regular subgroups isomorphic to N, and an
independent brute-force subgroup scan of the full holomorph table serves
as the oracle for it.

The second half of the module is the verification toolkit for direct
powers G = T^n: crossed pairs in wreath coordinates, the commuting-pair
relation on g-values, orbit decompositions of the coordinate set under a
rank-n elementary abelian subgroup, and the resulting image-size bounds
that force inner projections at large primes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .endomorphisms import enumerate_aut0, image_coords_table
from .fpf import is_fpf_bruteforce
from .groups import (
    BudgetError,
    FiniteGroup,
    _is_prime,
    automorphism_table_group,
    commutator_closure,
    choose_prime_subgroups,
    crossed_homomorphisms,
    enumerate_homomorphisms,
    find_isomorphism,
    invert_perm,
    is_solvable,
    power_coords,
    power_group,
    power_index,
    quotient_group,
    subgroup_closure,
)

__all__ = [
    "HolElement",
    "Holomorph",
    "holomorph_of",
    "RegularSubgroup",
    "subgroup_from_fg_pair",
    "enumerate_regular_subgroups",
    "regular_subgroups_oracle",
    "classify_inn_out",
    "fpf_pair_to_subgroup",
    "byott_translate",
    "PowerContext",
    "FGPair",
    "rho_pair",
    "lambda_pair",
    "OrbitDecomposition",
    "RankReport",
    "GBoundReport",
    "PrimeAuditReport",
    "CheckResult",
    "orbit_decompose",
    "orbit_decompose_from_thetas",
    "check_rank_bounds",
    "check_relations_lemma",
    "f_kernel_inner",
    "g_bound_report",
    "audit_prime_bound",
    "check_out_prop1",
    "run_power_lemma_suite",
]

DEFAULT_HOL_BUDGET = 200_000


@dataclass(frozen=True, order=True)
class HolElement:
    trans: int
    aut: int


class Holomorph:
    """Hol(N) for a table group N, with composition and regularity tests.

    compose, inverse, action and xi work on single elements and are the
    definitional reference; the set-level checks run on index arrays."""

    def __init__(self, N):
        self.group = N
        self.auts = N.automorphisms()
        self.aut_count = len(self.auts)
        self.order = N.order * self.aut_count
        self.inner_ids = frozenset(N.inner_automorphism_ids())
        self._inv = np.array(N.inv, dtype=np.int64)
        self._aut_group = None

    # -- arithmetic -----------------------------------------------------

    def aut_group(self):
        """Aut(N) as a table group, bound on first use: fpf_pair_to_subgroup
        builds holomorphs of powers with a large Aut that may never compose.
        A method, not a property or functools.cached_property: both make
        the reads in compose slower on CPython 3.11."""
        if self._aut_group is None:
            self._aut_group = automorphism_table_group(self.group)
        return self._aut_group

    @property
    def identity(self):
        return HolElement(0, 0)

    def compose(self, e1, e2):
        N = self.group
        return HolElement(
            N.mul[e1.trans][self.auts[e1.aut][e2.trans]],
            self.aut_group().mul[e1.aut][e2.aut],
        )

    def inverse(self, e):
        N = self.group
        j = self.aut_group().inv[e.aut]
        return HolElement(self.auts[j][N.inv[e.trans]], j)

    def action(self, e, x):
        """The permutation of N that ``e`` stands for: x ↦ aut(x)·trans⁻¹."""
        N = self.group
        return N.mul[self.auts[e.aut][x]][N.inv[e.trans]]

    def xi(self, e):
        """Evaluation of the permutation at the identity."""
        return self.group.inv[e.trans]

    def lambda_embed(self, s):
        """Left translation by s, as a holomorph element."""
        N = self.group
        return HolElement(N.inv[s], N.conjugation_aut_id(s))

    def rho_embed(self, s):
        """Right translation by s⁻¹, aut-free in these coordinates."""
        return HolElement(s, 0)

    def lambda_image(self):
        return frozenset(self.lambda_embed(s) for s in range(self.group.order))

    def rho_image(self):
        return frozenset(self.rho_embed(s) for s in range(self.group.order))

    # -- regularity -------------------------------------------------------

    def check_closed(self, elements):
        """Raise ValueError unless ``elements`` contains the identity and
        every product of two of its elements."""
        self._closed_positions(np.unique(self._indices(elements)))

    def regularity_tests(self, elements):
        """(translation-exhaustion verdict, transitive-and-free verdict).

        The two are logically equivalent; they are computed independently,
        from the xi values and from the table of every element's action on
        N, so the test suite can compare them.  Repeats count towards the
        size.
        """
        return self._regularity(self._indices(elements))

    def is_regular(self, elements):
        """Regularity with the closure precondition enforced and the two
        independent tests cross-asserted."""
        return self._is_regular(self._indices(elements))

    def _indices(self, elements):
        """Flat indices of ``elements`` in the given order, repeats kept."""
        return np.fromiter(map(self.index_of_element, elements), dtype=np.int64)

    def _products(self, flat):
        """Matrix of flat indices: entry (k, l) is element flat[k] composed
        with element flat[l]."""
        N, K = self.group, self.aut_count
        t, a = np.divmod(flat, K)
        trans = N.np_mul[t[:, None], N.aut_array()[a[:, None], t[None, :]]]
        return trans * K + self.aut_group().np_mul[a[:, None], a[None, :]]

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
        N, m = self.group, self.group.order
        t, a = np.divmod(flat, self.aut_count)
        xi = self._inv[t]
        xi_bijective = flat.size == m and np.bincount(xi, minlength=m).all()
        action = N.np_mul[N.aut_array()[a], xi[:, None]]  # row k: x ↦ aut(x)·trans⁻¹
        transitive = np.bincount(action[:, 0], minlength=m).all()
        free = not (action[flat != 0] == np.arange(m)).any()
        return bool(xi_bijective), bool(transitive and free and flat.size == m)

    def _is_regular(self, flat):
        self._closed_positions(np.unique(flat))
        by_xi, by_orbit = self._regularity(flat)
        if by_xi != by_orbit:
            raise RuntimeError(
                f"regularity tests disagree: xi-bijective {by_xi}, "
                f"transitive+free {by_orbit}"
            )
        return by_xi

    # -- table form -------------------------------------------------------

    def as_table_group(self):
        """The full holomorph as a validated FiniteGroup.

        Element index is trans·(aut count) + aut, so the identity (0, 0)
        sits at index 0 as required.
        """
        return self.group.memo("holomorph_table", lambda: FiniteGroup(
            self._products(np.arange(self.order)).tolist(), name=f"Hol({self.group.name})"
        ))

    def element_of_index(self, k):
        return HolElement(k // self.aut_count, k % self.aut_count)

    def index_of_element(self, e):
        return e.trans * self.aut_count + e.aut

    def subgroup_table_group(self, elements):
        """A subgroup of the holomorph as its own validated FiniteGroup,
        elements sorted so the identity is index 0."""
        pos = self._closed_positions(np.unique(self._indices(elements)))
        return FiniteGroup(pos.tolist(), name=f"sub{pos.shape[0]}-of-Hol({self.group.name})")


def holomorph_of(N):
    """Hol(N), built once and kept on N."""
    return N.memo("holomorph", lambda: Holomorph(N))


# ── (f, g) parametrized subgroups ───────────────────────────────────────


@dataclass(frozen=True)
class RegularSubgroup:
    elements: tuple  # sorted HolElements
    classification: str  # "inn" or "out"

    @property
    def order(self):
        return len(self.elements)


def classify_inn_out(hol, elements):
    """inn when every automorphism part is a conjugation, out otherwise."""
    return "inn" if all(e.aut in hol.inner_ids for e in elements) else "out"


def _subgroup_from_tables(N, f_aut_ids, g_values):
    """Sorted holomorph indices of {(g(s), f(s)) : s in N}, with the
    regularity biconditional (regular iff g bijective) asserted on the set.

    A non-bijective g may still produce |N| distinct elements when f
    separates the collisions; such subgroups exist and are non-regular,
    so the size of the set never decides regularity.
    """
    hol = holomorph_of(N)
    flat = np.asarray(g_values, dtype=np.int64) * hol.aut_count + f_aut_ids
    g_bijective = len(set(g_values)) == N.order
    if g_bijective:
        hol._closed_positions(np.unique(flat))
    by_xi, by_orbit = hol._regularity(flat)
    if not by_xi == by_orbit == g_bijective:
        raise RuntimeError(
            f"regularity tests ({by_xi}, {by_orbit}) and g-bijectivity "
            f"({g_bijective}) disagree on an (f, g) subgroup"
        )
    return np.sort(flat)


def enumerate_regular_subgroups(N, hol_budget=DEFAULT_HOL_BUDGET):
    """All regular subgroups of Hol(N) isomorphic to N, by (f, g) search.

    f runs over Hom(N, Aut(N)); for each f the bijective crossed maps g
    contribute subgroups (the others are never regular, a biconditional
    the test suite checks over every crossed map).  Injective f with the
    same automorphism image yield the same subgroups (they differ by
    precomposing an automorphism of N, which only reindexes sigma), so one
    representative per image is searched; the oracle test keeps this
    honest.  Every produced subgroup is verified regular and asserted
    isomorphic to N, as s ↦ (g(s), f(s)) is injective for bijective g;
    other types need the oracle.
    """
    hol = holomorph_of(N)
    if hol.order > hol_budget:
        raise BudgetError(
            f"|Hol({N.name})| = {hol.order} exceeds the budget {hol_budget}"
        )
    aut_group = automorphism_table_group(N)
    auts_arr = N.aut_array()

    seen_images = set()
    found = {}
    for f in enumerate_homomorphisms(N, aut_group):
        if len(set(f)) == N.order:
            image = frozenset(f)
            if image in seen_images:
                continue
            seen_images.add(image)
        F = auts_arr[np.array(f, dtype=np.int64)]
        for g in crossed_homomorphisms(N, F):
            if len(set(g)) != N.order:
                continue
            flat = _subgroup_from_tables(N, f, g)
            key = tuple(flat.tolist())
            if key in found:
                continue
            elems = tuple(map(hol.element_of_index, key))
            if find_isomorphism(hol.subgroup_table_group(elems), N) is None:
                raise RuntimeError(
                    f"a regular subgroup of Hol({N.name}) from a bijective "
                    f"crossed map is not isomorphic to {N.name}"
                )
            found[key] = RegularSubgroup(elems, classify_inn_out(hol, elems))
    return [found[k] for k in sorted(found)]


def regular_subgroups_oracle(N, iso_type=None, with_stats=False):
    """Independent check: enumerate the subgroups of order |N| in the full
    holomorph table by closing singletons and pairs (a closure is dropped
    once it passes |N| elements), then filter by regularity and
    isomorphism type.

    Pair closures find exactly the subgroups generated by at most two
    elements, which includes every subgroup isomorphic to a target that
    itself needs at most two generators.  A target that needs more is
    refused with a ValueError rather than answered with a short count;
    the stats count only the subgroups that pair closures reach.
    Returns sorted element-key tuples; with_stats adds a dict of counts.
    """
    target = iso_type if iso_type is not None else N
    ngens = len(target.generating_sequence("short"))
    if ngens > 2:
        raise ValueError(
            f"the oracle closes only pairs of elements, but the target "
            f"{target.name} needs {ngens} generators"
        )
    hol = holomorph_of(N)
    table = hol.as_table_group()
    want = N.order
    subgroup_sets = set()
    for x in range(table.order):
        cl = subgroup_closure(table, [x], limit=want)
        if cl is None:
            continue
        if len(cl) == want:
            subgroup_sets.add(cl)
        else:
            for y in range(x + 1, table.order):
                cl2 = subgroup_closure(table, [x, y], limit=want)
                if cl2 is not None and len(cl2) == want:
                    subgroup_sets.add(cl2)
    kept = []
    xi_orbit_agreements = 0
    regular_count = 0
    for cl in subgroup_sets:
        elems = frozenset(hol.element_of_index(k) for k in cl)
        by_xi, by_orbit = hol.regularity_tests(elems)
        if by_xi != by_orbit:
            raise RuntimeError("regularity tests disagree on an oracle subgroup")
        xi_orbit_agreements += 1
        if not by_xi:
            continue
        regular_count += 1
        sub_table = hol.subgroup_table_group(elems)
        if find_isomorphism(sub_table, target) is not None:
            kept.append(tuple(sorted(elems)))
    kept.sort()
    if with_stats:
        return kept, {
            "subgroups_of_order": len(subgroup_sets),
            "regular": regular_count,
            "tests_compared": xi_orbit_agreements,
        }
    return kept


def fpf_pair_to_subgroup(f, g, verdict=None):
    """The regular subgroup {x ↦ f(s)·x·g(s)⁻¹ : s in G} of Hol(G) attached
    to a fixed point free pair, as holomorph elements.

    In (trans, aut) coordinates the element for s is
    (g(s)·f(s)⁻¹, conjugation by f(s)).  The pair must be fixed point
    free; otherwise the map s ↦ element is not injective and a ValueError
    reports it.  The result is asserted to be a regular subgroup with
    inner projection.
    """
    T, n = f.group, f.n
    N = power_group(T, n)
    hol = holomorph_of(N)
    if verdict is None:
        verdict = is_fpf_bruteforce(f, g)
    fv = power_index(T, image_coords_table(f).T)
    gv = power_index(T, image_coords_table(g).T)
    trans = N.np_mul[gv, hol._inv[fv]]
    flat = trans * hol.aut_count + [N.conjugation_aut_id(v) for v in fv.tolist()]
    translations = np.unique(trans).size
    if not verdict.is_fpf:
        # s and s' with f(s)f(s')^-1 = g(s)g(s')^-1 share a translation
        # part, so the evaluation-at-identity map cannot be injective.
        if translations == N.order:
            raise RuntimeError("non-fpf pair produced distinct translations")
        raise ValueError(
            f"pair is not fixed point free: only {translations} of "
            f"{N.order} translation parts are distinct, the action cannot "
            "be regular"
        )
    if np.unique(flat).size != N.order or translations != N.order:
        raise RuntimeError("fpf pair produced colliding holomorph elements")
    if not hol._is_regular(flat):
        raise RuntimeError("fpf pair produced a non-regular subgroup")
    elems = frozenset(map(hol.element_of_index, flat.tolist()))
    if classify_inn_out(hol, elems) != "inn":
        raise RuntimeError("fpf pair produced a subgroup with outer projection")
    return elems


def byott_translate(count_e_prime, aut_g_order, aut_n_order):
    """Structure count from the regular-subgroup count: multiply by
    |Aut(G)|/|Aut(N)| in exact arithmetic; a non-integer result means the
    inputs are inconsistent."""
    value = Fraction(count_e_prime * aut_g_order, aut_n_order)
    if value.denominator != 1:
        raise ValueError(
            f"{count_e_prime}·{aut_g_order}/{aut_n_order} is not an integer"
        )
    return int(value)


# ── Direct-power (wreath coordinate) toolkit ────────────────────────────


class PowerContext:
    """Shared tables for G = T^n: the power table group, the invertible
    structured endomorphisms in enumeration order, and their permutation
    realizations on G."""

    def __init__(self, T, n, aut0_budget=10**6):
        self.T = T
        self.n = n
        self.group = power_group(T, n)
        self.aut0 = tuple(enumerate_aut0(T, n, budget=aut0_budget))
        self._index = {(e.theta, e.phis): i for i, e in enumerate(self.aut0)}
        self._perms = None
        self.identity_theta = tuple(range(1, n + 1))

    def aut0_index(self, e):
        try:
            return self._index[(e.theta, e.phis)]
        except KeyError:
            raise ValueError("endomorphism is not invertible over this power") from None

    def aut0_perms(self):
        """(count, |G|) array: row k is aut0 element k acting on G."""
        if self._perms is None:
            rows = [power_index(self.T, image_coords_table(e).T) for e in self.aut0]
            self._perms = np.array(rows, dtype=np.int64)
            self._perms.setflags(write=False)
        return self._perms

    def is_inner_aut0(self, aut0_id):
        """Inner automorphisms of T^n are exactly identity-theta elements
        whose coordinate maps are all conjugations of T."""
        e = self.aut0[aut0_id]
        if e.theta != self.identity_theta:
            return False
        inner = self.T.inner_automorphism_ids()
        return all(p in inner for p in e.phis)

    def conj_aut0_id(self, coords):
        """aut0 id of conjugation by the element with these coordinates."""
        phis = tuple(self.T.conjugation_aut_id(c) for c in coords)
        return self._index[(self.identity_theta, phis)]


@dataclass(frozen=True)
class FGPair:
    """A parametrized subgroup candidate over G = T^n: a homomorphism into
    the invertible structured endomorphisms (stored as aut0 ids per group
    element) and a crossed map (stored as G-indices per group element).
    Construction validates the homomorphism and crossed laws in full."""

    ctx: PowerContext
    f_ids: tuple  # length |G|, aut0 ids
    g_values: tuple  # length |G|, G element indices

    def __post_init__(self):
        ctx = self.ctx
        G = ctx.group
        if len(self.f_ids) != G.order or len(self.g_values) != G.order:
            raise ValueError("f and g tables must cover the whole group")
        if self.g_values[0] != 0:
            raise ValueError("crossed map must send the identity to the identity")
        perms = ctx.aut0_perms()
        f = np.array(self.f_ids, dtype=np.int64)
        g = np.array(self.g_values, dtype=np.int64)
        mul = G.np_mul
        order = G.order
        fperm = perms[f]  # row s is the permutation realized by f(s)
        lhs = fperm[mul]  # [s, t, x] -> f(st)(x)
        comp = fperm[np.arange(order)[:, None, None], fperm[None, :, :]]
        if not (lhs == comp).all():
            raise ValueError("f is not a homomorphism into the wreath elements")
        rhs_g = mul[g[:, None], fperm[np.arange(order)[:, None], g[None, :]]]
        if not (g[mul] == rhs_g).all():
            raise ValueError("g does not satisfy the crossed-homomorphism law")

    # -- notation shortcuts ---------------------------------------------

    def theta_of(self, s):
        return self.ctx.aut0[self.f_ids[s]].theta

    def phi_of(self, s, i):
        """T-automorphism images feeding output coordinate i (1-based) of
        f(s); None on collapsed coordinates never occurs here."""
        e = self.ctx.aut0[self.f_ids[s]]
        return self.ctx.T.automorphisms()[e.phis[i - 1]]

    def a_of(self, s):
        """g(s) as a coordinate tuple."""
        return power_coords(self.ctx.T, self.ctx.n, self.g_values[s])

    def kernel_fsn(self):
        """Elements whose wreath part has identity coordinate action."""
        ident = self.ctx.identity_theta
        return tuple(
            s for s in range(self.ctx.group.order) if self.theta_of(s) == ident
        )

    def fsn_image(self):
        """The set of coordinate actions realized by f, closed under
        composition (theta composes contravariantly, so the closure is
        taken to be safe)."""
        return _close_thetas(self.theta_of(s) for s in range(self.ctx.group.order))

    def g_is_bijective(self):
        return len(set(self.g_values)) == self.ctx.group.order


def rho_pair(ctx):
    """f trivial, g the identity map: parametrizes right translations."""
    return FGPair(ctx, (0,) * ctx.group.order, tuple(range(ctx.group.order)))


def lambda_pair(ctx):
    """f = conjugation, g = inversion: parametrizes left translations."""
    G, T, n = ctx.group, ctx.T, ctx.n
    f = tuple(
        ctx.conj_aut0_id(power_coords(T, n, s)) for s in range(G.order)
    )
    return FGPair(ctx, f, tuple(G.inv))


def subgroup_from_fg_pair(pair):
    """The holomorph subgroup {(g(s), f(s)) : s in G} of a validated pair.

    The wreath parts are converted to plain automorphism ids of the power
    group (for n = 1 they coincide by construction).  Regularity iff
    g-bijectivity is asserted on the result.
    """
    ctx = pair.ctx
    N = ctx.group
    if ctx.n == 1:
        plain = [ctx.aut0[k].phis[0] for k in pair.f_ids]
    else:
        perms = ctx.aut0_perms()
        plain = [
            N.aut_index(tuple(int(x) for x in perms[k])) for k in pair.f_ids
        ]
    flat = _subgroup_from_tables(N, plain, pair.g_values)
    return frozenset(map(holomorph_of(N).element_of_index, flat.tolist()))


# ── Orbit decompositions of the coordinate set ──────────────────────────


@dataclass(frozen=True)
class OrbitDecomposition:
    """Orbits of 1..n under the coordinate actions realized by f on a
    rank-n elementary abelian p-subgroup.

    ``fixed`` collects the coordinates every realized permutation leaves
    alone; ``orbits`` are the nontrivial orbits with ``reps`` their least
    members.  ``transporters`` maps each non-fixed coordinate i to a label
    (a group element) whose permutation carries the orbit representative
    to i.  ``m`` is the p-rank of the realized permutation group and
    ``orbit_ranks`` the exponents of the orbit sizes.
    ``transporters_commute`` records whether every chosen transporter
    commutes with the whole kernel of the coordinate action; None means
    no commuting information was requested.
    """

    p: int
    n: int
    fixed: tuple
    orbits: tuple
    reps: tuple
    transporters: tuple  # pairs (coordinate, label)
    m: int
    orbit_ranks: tuple
    transporters_commute: bool | None

    def __post_init__(self):
        covered = set(self.fixed)
        for orbit in self.orbits:
            covered.update(orbit)
        if covered != set(range(1, self.n + 1)):
            raise ValueError("fixed set and orbits do not partition 1..n")
        for orbit, mk in zip(self.orbits, self.orbit_ranks):
            if len(orbit) != self.p**mk:
                raise ValueError(
                    f"orbit size {len(orbit)} is not p^{mk} for p = {self.p}"
                )

    @property
    def r(self):
        return len(self.orbits)


def _close_thetas(thetas):
    """The closure of a set of 1-based permutation tuples under composition."""
    group = set(thetas)
    while True:
        fresh = {tuple(t1[x - 1] for x in t2) for t1 in group for t2 in group} - group
        if not fresh:
            return group
        group |= fresh


def orbit_decompose_from_thetas(labelled_thetas, n, p, prefer=None):
    """Core decomposition engine working on realized coordinate
    permutations alone.

    ``labelled_thetas`` is a sequence of (label, theta) pairs, theta a
    1-based permutation tuple of 1..n; labels identify which group element
    realized it.  ``prefer`` is an optional predicate on labels used to
    pick transporters (the commuting search); when given,
    transporters_commute reports whether every chosen one satisfied it.
    """
    realized = {}
    for label, theta in labelled_thetas:
        theta = tuple(theta)
        if sorted(theta) != list(range(1, n + 1)):
            raise ValueError(f"theta {theta} is not a permutation of 1..{n}")
        realized.setdefault(theta, []).append(label)

    group = _close_thetas(realized)
    size = len(group)
    m = 0
    while p**m < size:
        m += 1
    if p**m != size:
        raise ValueError(f"realized action has size {size}, not a power of {p}")

    seen = set()
    fixed, orbits = [], []
    for i in range(1, n + 1):
        if i in seen:
            continue
        orbit = {theta[i - 1] for theta in group}
        if orbit == {i}:
            fixed.append(i)
            seen.add(i)
            continue
        # orbits of a group action: the image set of one point is the orbit
        frontier = set(orbit)
        while frontier:
            j = frontier.pop()
            more = {theta[j - 1] for theta in group} - orbit
            orbit |= more
            frontier |= more
        orbits.append(tuple(sorted(orbit)))
        seen |= orbit
    orbits.sort(key=min)

    transporters = []
    all_preferred = True
    for orbit in orbits:
        rep = min(orbit)
        for i in orbit:
            candidates = [
                label
                for theta, labels in sorted(realized.items())
                if theta[rep - 1] == i
                for label in labels
            ]
            if not candidates:
                raise ValueError(
                    f"no realized permutation carries {rep} to {i}; "
                    "the labelled thetas are not closed"
                )
            chosen = None
            if prefer is not None:
                for label in candidates:
                    if prefer(label):
                        chosen = label
                        break
            if chosen is None:
                chosen = candidates[0]
                if prefer is not None:
                    all_preferred = False
            transporters.append((i, chosen))

    ranks = []
    for orbit in orbits:
        mk = 0
        while p**mk < len(orbit):
            mk += 1
        ranks.append(mk)

    return OrbitDecomposition(
        p=p,
        n=n,
        fixed=tuple(fixed),
        orbits=tuple(orbits),
        reps=tuple(min(o) for o in orbits),
        transporters=tuple(transporters),
        m=m,
        orbit_ranks=tuple(ranks),
        transporters_commute=(all_preferred if prefer is not None else None),
    )


def orbit_decompose(pair, p, variant=0):
    """Decomposition of the coordinate set for a crossed pair, using the
    rank-n subgroup built from the variant-th order-p element of T.

    Transporters are searched among elements commuting with the whole
    kernel of the coordinate action, as the bound lemma wants; failure to
    find commuting ones is recorded, not fatal.
    """
    ctx = pair.ctx
    T, n, G = ctx.T, ctx.n, ctx.group
    choice = choose_prime_subgroups(T, n, p, variant)
    members = [power_index(T, c) for c in choice.member_tuples(T)]
    kernel = pair.kernel_fsn()

    def commutes_with_kernel(s):
        return all(G.mul[s][t] == G.mul[t][s] for t in kernel)

    labelled = [(s, pair.theta_of(s)) for s in sorted(members)]
    return orbit_decompose_from_thetas(
        labelled, n, p, prefer=commutes_with_kernel
    )


@dataclass(frozen=True)
class RankReport:
    partition_ok: bool  # n - #X_0 equals the sum of orbit sizes p^(m_k)
    rank_ok: bool  # m is at most the sum of the m_k

    @property
    def ok(self):
        return self.partition_ok and self.rank_ok


def check_rank_bounds(decomp):
    """The two numeric relations tying the total rank to the orbit ranks.

    Orbit sizes being p-powers is already enforced at construction; this
    verifies the partition count and the rank inequality.
    """
    total = sum(decomp.p**mk for mk in decomp.orbit_ranks)
    return RankReport(
        partition_ok=(decomp.n - len(decomp.fixed) == total),
        rank_ok=(decomp.m <= sum(decomp.orbit_ranks)),
    )


# ── Commuting-pair relation and image bounds ────────────────────────────


def check_relations_lemma(pair, sigma, tau):
    """Componentwise relation tying g(sigma) and g(tau) for commuting
    sigma, tau with tau acting trivially on coordinates:

        phi_{sigma,i}(a_tau at theta_sigma(i))
            = (a_sigma at i)^-1 · (a_tau at i) · phi_{tau,i}(a_sigma at i)

    Preconditions are errors, not silent skips.
    """
    ctx = pair.ctx
    G, T, n = ctx.group, ctx.T, ctx.n
    if G.mul[sigma][tau] != G.mul[tau][sigma]:
        raise ValueError(
            f"elements {sigma} and {tau} do not commute; the relation "
            "assumes sigma·tau = tau·sigma"
        )
    if pair.theta_of(tau) != ctx.identity_theta:
        raise ValueError(
            f"element {tau} permutes coordinates; it must lie in the "
            "kernel of the coordinate action"
        )
    theta_s = pair.theta_of(sigma)
    a_s, a_t = pair.a_of(sigma), pair.a_of(tau)
    for i in range(1, n + 1):
        phi_s = pair.phi_of(sigma, i)
        phi_t = pair.phi_of(tau, i)
        lhs = phi_s[a_t[theta_s[i - 1] - 1]]
        rhs = T.mul[T.mul[T.inv[a_s[i - 1]]][a_t[i - 1]]][phi_t[a_s[i - 1]]]
        if lhs != rhs:
            return False
    return True


def f_kernel_inner(pair):
    """Whether f sends the whole coordinate-action kernel into inner
    automorphisms of the power (identity action, all conjugation parts)."""
    return all(pair.ctx.is_inner_aut0(pair.f_ids[t]) for t in pair.kernel_fsn())


@dataclass(frozen=True)
class GBoundReport:
    containment_ok: bool
    image_size: int
    kernel_inner: bool
    bound: int  # |T|^#X_0 · (|T|·|phi-range|)^r for the applicable phi range
    coarse_bound: int  # |T|^(#X_0 + 2r)

    @property
    def ok(self):
        if not self.containment_ok:
            return False
        if self.kernel_inner:
            return self.image_size <= self.bound <= self.coarse_bound
        return self.image_size <= self.bound


def g_bound_report(pair, decomp):
    """Image-size bound for g on the kernel of the coordinate action.

    Every kernel value is first reconstructed coordinate-by-coordinate
    from its orbit-representative block through the transporters (the
    containment statement), then the numeric bounds are compared:
    per orbit at most |T|·|Inn(T)| blocks when f maps the kernel to inner
    automorphisms, |T|·|Aut(T)| otherwise, and |T| per fixed coordinate.

    Raises when a transporter fails to commute with the kernel: the
    containment argument is unavailable then.
    """
    ctx = pair.ctx
    T, G = ctx.T, ctx.group
    kernel = pair.kernel_fsn()
    trans = dict(decomp.transporters)
    for s in trans.values():
        for t in kernel:
            if G.mul[s][t] != G.mul[t][s]:
                raise ValueError(
                    f"transporter {s} does not commute with kernel element "
                    f"{t}; the image bound does not apply"
                )
    kernel_inner = f_kernel_inner(pair)
    containment_ok = True
    for tau in kernel:
        a_tau = pair.a_of(tau)
        for orbit, rep in zip(decomp.orbits, decomp.reps):
            phi_tau_rep = pair.phi_of(tau, rep)
            for i in orbit:
                s = trans[i]
                a_s = pair.a_of(s)
                anchor = a_s[rep - 1]
                inner_val = T.mul[
                    T.mul[T.inv[anchor]][a_tau[rep - 1]]
                ][phi_tau_rep[anchor]]
                recon = invert_perm(pair.phi_of(s, rep))[inner_val]
                if recon != a_tau[i - 1]:
                    containment_ok = False
    x0, r = len(decomp.fixed), decomp.r
    phi_range = (
        len(T.inner_automorphism_ids()) if kernel_inner else len(T.automorphisms())
    )
    return GBoundReport(
        containment_ok=containment_ok,
        image_size=len({pair.g_values[t] for t in kernel}),
        kernel_inner=kernel_inner,
        bound=T.order**x0 * (T.order * phi_range) ** r,
        coarse_bound=T.order ** (x0 + 2 * r),
    )


@dataclass(frozen=True)
class PrimeAuditReport:
    """Instance audit of the small-prime forcing argument.

    ``derived_inequality`` is sum(p^(m_k) - 2) <= sum(m_k); whenever the
    action is nontrivial and it holds, p must be at most 3 (pure
    arithmetic: p^x - 2 > x for p >= 5, x >= 1).  When the fully
    quantified hypotheses hold (nontrivial action, coordinate-action
    image of full size |T|^m, bijective g, image bound satisfied) the
    derived inequality itself is forced.
    """

    p: int
    action_nontrivial: bool
    image_size_hypothesis: bool
    g_bijective: bool
    inequality_holds: bool
    derived_inequality: bool

    @property
    def arithmetic_consistent(self):
        if self.action_nontrivial and self.derived_inequality:
            return self.p <= 3
        return True

    @property
    def forced_inequality_ok(self):
        hyp = (
            self.action_nontrivial
            and self.image_size_hypothesis
            and self.g_bijective
            and self.inequality_holds
        )
        return (not hyp) or (self.derived_inequality and self.p <= 3)

    @property
    def ok(self):
        return self.arithmetic_consistent and self.forced_inequality_ok


def audit_prime_bound(pair, decomp):
    ctx = pair.ctx
    T = ctx.T
    kernel = pair.kernel_fsn()
    image_size = len({pair.g_values[t] for t in kernel})
    x0, r = len(decomp.fixed), decomp.r
    return PrimeAuditReport(
        p=decomp.p,
        action_nontrivial=decomp.m >= 1,
        image_size_hypothesis=(len(pair.fsn_image()) == T.order**decomp.m),
        g_bijective=pair.g_is_bijective(),
        inequality_holds=(image_size <= T.order ** (x0 + 2 * r)),
        derived_inequality=(
            sum(decomp.p**mk - 2 for mk in decomp.orbit_ranks)
            <= sum(decomp.orbit_ranks)
        ),
    )


# ── Inner-image criterion and the whole suite ────────────────────────────


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass", "fail" or "skipped"
    detail: str = ""


def check_out_prop1(pair):
    """When Out(T) is solvable and the coordinate-action kernel is perfect,
    f must send that kernel into inner automorphisms.

    Both hypotheses are established by direct computation (derived series
    of the automorphism quotient, commutator closure of the kernel); the
    conclusion is only asserted when they hold.
    """
    ctx = pair.ctx
    T, G = ctx.T, ctx.group
    aut_t = automorphism_table_group(T)
    outer, _ = quotient_group(aut_t, T.inner_automorphism_ids())
    out_solvable = is_solvable(outer)
    kernel = pair.kernel_fsn()
    perfect = commutator_closure(G, kernel) == tuple(sorted(kernel))
    if not out_solvable or not perfect:
        missing = []
        if not out_solvable:
            missing.append("outer automorphism group not solvable")
        if not perfect:
            missing.append("kernel not perfect")
        return CheckResult(
            "inner-image criterion", "skipped", "; ".join(missing)
        )
    conclusion = f_kernel_inner(pair)
    return CheckResult(
        "inner-image criterion",
        "pass" if conclusion else "fail",
        f"kernel of size {len(kernel)} maps into inner automorphisms: "
        f"{conclusion}",
    )


def _sign_table(T):
    """0/1 parity against the derived subgroup, when it has index 2."""
    derived = commutator_closure(T, range(T.order))
    if 2 * len(derived) != T.order:
        return None
    dset = set(derived)
    return [0 if x in dset else 1 for x in range(T.order)]


def _suite_pairs(ctx, max_g_per_f):
    """Named crossed pairs over G = T^n exercising distinct f shapes:
    the two translation pairs, extra crossed maps for the conjugation f,
    coordinate-swapping fs driven by parity (n = 2 only), and a diagonal
    conjugation f."""
    T, n, G = ctx.T, ctx.n, ctx.group
    pairs = [("rho", rho_pair(ctx)), ("lambda", lambda_pair(ctx))]
    perms = ctx.aut0_perms()

    def searched(name, f_ids):
        f_arr = np.array(f_ids, dtype=np.int64)
        out = []
        for j, g in enumerate(
            itertools.islice(
                crossed_homomorphisms(G, perms[f_arr]), max_g_per_f
            )
        ):
            out.append((f"{name}/g{j}", FGPair(ctx, tuple(f_ids), g)))
        return out

    conj_f = pairs[1][1].f_ids
    pairs += searched("conj", conj_f)

    sign = _sign_table(T)
    if sign is not None and n == 2:
        swap_id = ctx._index[((2, 1), (0, 0))]
        for name, pick in (
            ("swap-first", lambda c: sign[c[0]]),
            ("swap-second", lambda c: sign[c[1]]),
            ("swap-product", lambda c: (sign[c[0]] + sign[c[1]]) % 2),
        ):
            f_ids = tuple(
                swap_id if pick(power_coords(T, n, s)) else 0
                for s in range(G.order)
            )
            pairs += searched(name, f_ids)

    diag_f = tuple(
        ctx._index[
            (
                ctx.identity_theta,
                (T.conjugation_aut_id(power_coords(T, n, s)[0]),) * n,
            )
        ]
        for s in range(G.order)
    )
    pairs += searched("diag-conj", diag_f)
    return pairs


def run_power_lemma_suite(T, n=2, max_g_per_f=4):
    """Run every structural check we have over G = T^n and report.

    For each constructed pair: the commuting-pair relation on all
    qualifying (sigma, tau), orbit decompositions for every prime dividing
    |T| and up to two generator choices, the g-image bound where its
    commuting hypothesis holds, the prime audit, and the inner-image
    criterion.  Returns CheckResult rows; no row may be "fail".
    """
    ctx = PowerContext(T, n)
    G = ctx.group
    results = []
    primes = sorted(
        {p for p in range(2, T.order + 1) if T.order % p == 0 and _is_prime(p)}
    )
    for name, pair in _suite_pairs(ctx, max_g_per_f):
        kernel = set(pair.kernel_fsn())
        qualifying = 0
        failures = 0
        for sigma in range(G.order):
            for tau in kernel:
                if G.mul[sigma][tau] != G.mul[tau][sigma]:
                    continue
                qualifying += 1
                if not check_relations_lemma(pair, sigma, tau):
                    failures += 1
        results.append(
            CheckResult(
                f"{name}: commuting-pair relation",
                "pass" if failures == 0 else "fail",
                f"{qualifying} qualifying pairs, {failures} failures",
            )
        )
        for p in primes:
            order_p = [x for x in range(T.order) if T.element_order(x) == p]
            for variant in range(min(2, len(order_p))):
                tag = f"p={p} choice {variant}"
                decomp = orbit_decompose(pair, p, variant)
                rep = check_rank_bounds(decomp)
                results.append(
                    CheckResult(
                        f"{name}: orbit ranks {tag}",
                        "pass" if rep.ok else "fail",
                        f"m={decomp.m} fixed={len(decomp.fixed)} "
                        f"orbit-ranks={list(decomp.orbit_ranks)}",
                    )
                )
                if decomp.transporters_commute:
                    grep = g_bound_report(pair, decomp)
                    results.append(
                        CheckResult(
                            f"{name}: g-image bound {tag}",
                            "pass" if grep.ok else "fail",
                            f"image {grep.image_size} <= {grep.bound} "
                            f"<= {grep.coarse_bound}, inner kernel: "
                            f"{grep.kernel_inner}",
                        )
                    )
                else:
                    results.append(
                        CheckResult(
                            f"{name}: g-image bound {tag}",
                            "skipped",
                            "no commuting transporters found",
                        )
                    )
                audit = audit_prime_bound(pair, decomp)
                results.append(
                    CheckResult(
                        f"{name}: prime audit {tag}",
                        "pass" if audit.ok else "fail",
                        f"derived inequality {audit.derived_inequality}, "
                        f"p={audit.p}",
                    )
                )
        prop1 = check_out_prop1(pair)
        results.append(
            CheckResult(f"{name}: {prop1.name}", prop1.status, prop1.detail)
        )
    return results
