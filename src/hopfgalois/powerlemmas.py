"""Verification toolkit for the structure lemmas on direct powers G = T^n.

Crossed pairs (f, g) in wreath coordinates, the commuting-pair relation
on g-values, orbit decompositions of the coordinate set under a rank-n
elementary abelian subgroup, and the resulting image-size bounds that
force inner projections at large primes, together with the two group
helpers only these checks use: commutator closure and ``out_is_solvable``.
Each check returns the ``CheckResult`` row it contributes, and
``run_power_lemma_suite`` runs every check over one power and names each
row by its pair.

The module sits on top of the core: it reads groups and structured
endomorphisms, and no core module imports it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .endomorphisms import enumerate_aut0, image_indices
from .groups import (
    _is_prime,
    _read_only,
    all_coords,
    automorphism_table_group,
    crossed_homomorphisms,
    power_coords,
    power_group,
    power_index,
    row_finder,
    subgroup_closure,
)

__all__ = [
    "PowerContext",
    "FGPair",
    "rho_pair",
    "lambda_pair",
    "OrbitDecomposition",
    "RankReport",
    "CheckResult",
    "orbit_decompose",
    "orbit_decompose_from_thetas",
    "check_rank_bounds",
    "check_relations_lemma",
    "g_bound_report",
    "audit_prime_bound",
    "commutator_closure",
    "out_is_solvable",
    "check_out_prop1",
    "run_power_lemma_suite",
]

MAX_G_PER_F = 4  # crossed maps g kept per searched f in the lemma suite


# ── Crossed pairs in wreath coordinates ─────────────────────────────────


class PowerContext:
    """Shared tables for G = T^n: the power table group, the invertible
    structured endomorphisms in enumeration order and, indexed by their
    ids, ``perms`` (row k is aut0 element k acting on G), ``keys`` (row k
    is its images of G's generating sequence), ``thetas`` (0-based source
    coordinates) and ``phis`` (T-automorphism ids), all read-only; and
    ``find``, which maps rows of generator images to the ids they key."""

    def __init__(self, T, n):
        self.T = T
        self.n = n
        self.group = power_group(T, n)
        self.aut0 = tuple(enumerate_aut0(T, n))
        self._index = {(e.theta, e.phis): i for i, e in enumerate(self.aut0)}
        self.perms = _read_only(image_indices(*self.aut0).reshape(len(self.aut0), -1))
        # an automorphism is its images of a generating sequence, so a∘b is
        # found among the rows by the images a(b(x)) of the generators x
        self.keys = _read_only(self.perms[:, list(self.group.generating_sequence())])
        self.find = row_finder(self.keys, self.group.order)
        self.thetas = _read_only(np.array([e.theta for e in self.aut0], dtype=np.int64) - 1)
        self.phis = _read_only(np.array([e.phis for e in self.aut0], dtype=np.int64))
        self.identity_theta = tuple(range(1, n + 1))

    def aut0_index(self, theta, phis):
        try:
            return self._index[(theta, phis)]
        except KeyError:
            raise ValueError("endomorphism is not invertible over this power") from None

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
        return self.aut0_index(self.identity_theta, phis)


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
        f = np.array(self.f_ids, dtype=np.int64)
        g = np.array(self.g_values, dtype=np.int64)
        mul = G.np_mul
        # compose only the distinct images of f: [i, j] is the id of u[i]∘u[j]
        u, at = np.unique(f, return_inverse=True)
        composite = ctx.find(ctx.perms[u][:, ctx.keys[u]])
        if not (f[mul] == composite[at[:, None], at[None, :]]).all():
            raise ValueError("f is not a homomorphism into the wreath elements")
        # [s, t]: g(s)·f(s)(g(t))
        if not (g[mul] == mul[g[:, None], ctx.perms[f[:, None], g[None, :]]]).all():
            raise ValueError("g does not satisfy the crossed-homomorphism law")

    # -- notation shortcuts, decoded once per pair ------------------------

    def theta_of(self, s):
        return self.ctx.aut0[self.f_ids[s]].theta

    @cached_property
    def wreath(self):
        """(theta, phis, a): (|G|, n) arrays whose row s holds the 0-based
        source coordinates and the T-automorphism ids of f(s), and the
        coordinates of g(s)."""
        ctx, f = self.ctx, list(self.f_ids)
        return ctx.thetas[f], ctx.phis[f], all_coords(ctx.T, ctx.n)[list(self.g_values)]

    @cached_property
    def kernel_fsn(self):
        """Elements whose wreath part has identity coordinate action."""
        trivial = (self.wreath[0] == np.arange(self.ctx.n)).all(axis=1)
        return tuple(np.flatnonzero(trivial).tolist())

    @cached_property
    def kernel_commutes(self):
        """Bool (|G|, |kernel|) array: [s, j] says s commutes with the j-th
        kernel element."""
        mul, kernel = self.ctx.group.np_mul, list(self.kernel_fsn)
        return mul[:, kernel] == mul[kernel].T

    @cached_property
    def kernel_inner(self):
        """Whether f sends the whole coordinate-action kernel into inner
        automorphisms of the power (identity action, all conjugation parts)."""
        return all(map(self.ctx.is_inner_aut0, {self.f_ids[t] for t in self.kernel_fsn}))

    def fsn_image(self):
        """The set of coordinate actions realized by f: a subgroup, as f is
        a homomorphism."""
        return {self.ctx.aut0[k].theta for k in set(self.f_ids)}

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

    @property
    def r(self):
        return len(self.orbits)


def _p_exponent(size, p, what):
    """k with p^k = size; a ValueError names ``what`` otherwise."""
    k = 0
    while p**k < size:
        k += 1
    if p**k != size:
        raise ValueError(f"{what} has size {size}, not a power of {p}")
    return k


def _order_p_elements(T, p):
    """The elements of T of order p, ascending."""
    return [x for x, k in enumerate(T.element_orders()) if k == p]


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

    group = set(realized)  # closed below into the group it generates
    while fresh := {tuple(a[x - 1] for x in b) for a in group for b in group} - group:
        group |= fresh
    m = _p_exponent(len(group), p, "realized action")
    # group is closed, so the image set of one point is its orbit; disjoint
    # orbits sort by their least members
    cells = sorted({tuple(sorted({t[i - 1] for t in group})) for i in range(1, n + 1)})
    orbits = tuple(c for c in cells if len(c) > 1)

    ordered = [(theta, label) for theta, labels in sorted(realized.items()) for label in labels]
    transporters = []
    all_preferred = True
    for orbit in orbits:
        rep = orbit[0]
        for i in orbit:
            candidates = [label for theta, label in ordered if theta[rep - 1] == i]
            if not candidates:
                raise ValueError(
                    f"no realized permutation carries {rep} to {i}; "
                    "the labelled thetas are not closed"
                )
            chosen = next((c for c in candidates if prefer is None or prefer(c)), None)
            if chosen is None:
                chosen, all_preferred = candidates[0], False
            transporters.append((i, chosen))

    return OrbitDecomposition(
        p=p,
        n=n,
        fixed=tuple(c[0] for c in cells if len(c) == 1),
        orbits=orbits,
        reps=tuple(o[0] for o in orbits),
        transporters=tuple(transporters),
        m=m,
        orbit_ranks=tuple(_p_exponent(len(o), p, "orbit") for o in orbits),
        transporters_commute=(all_preferred if prefer is not None else None),
    )


def orbit_decompose(pair, p, variant=0):
    """Decomposition of the coordinate set for a crossed pair, using the
    rank-n subgroup C^n, C generated by the variant-th lowest-index
    order-p element of T.  variant=0 is the deterministic default; passing
    1 exercises independence from the choice when a second element exists.
    The members of C^n are built once per (p, variant) and kept on G.

    Transporters are searched among elements commuting with the whole
    kernel of the coordinate action, as the bound lemma wants; failure to
    find commuting ones is recorded, not fatal.
    """
    ctx = pair.ctx
    T, n = ctx.T, ctx.n
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if T.order % p != 0:
        raise ValueError(f"p = {p} does not divide |{T.name}| = {T.order}")
    elems = _order_p_elements(T, p)
    if variant >= len(elems):
        raise ValueError(f"only {len(elems)} elements of order {p}, variant {variant} unavailable")

    def members():
        cyclic = subgroup_closure(T, [elems[variant]])
        return sorted(power_index(T, c) for c in itertools.product(cyclic, repeat=n))

    labelled = [
        (s, pair.theta_of(s))
        for s in ctx.group.memo(("prime_members", p, variant), members)
    ]
    commuting = pair.kernel_commutes.all(axis=1)
    return orbit_decompose_from_thetas(labelled, n, p, prefer=commuting.__getitem__)


@dataclass(frozen=True)
class RankReport:
    partition_ok: bool  # n - #X_0 equals the sum of orbit sizes p^(m_k)
    rank_ok: bool  # m is at most the sum of the m_k

    @property
    def ok(self):
        return self.partition_ok and self.rank_ok


def check_rank_bounds(decomp):
    """The two numeric relations tying the total rank to the orbit ranks:
    the partition count and the rank inequality (orbit sizes are p-powers
    by construction)."""
    total = sum(decomp.p**mk for mk in decomp.orbit_ranks)
    return RankReport(
        partition_ok=(decomp.n - len(decomp.fixed) == total),
        rank_ok=(decomp.m <= sum(decomp.orbit_ranks)),
    )


# ── Commuting-pair relation and image bounds ────────────────────────────


@dataclass(frozen=True)
class CheckResult:
    """One row of the lemma suite: every check returns the row it adds."""

    name: str
    status: str  # "pass", "fail" or "skipped"
    detail: str = ""


def _relation_by_coordinate(pair, sigma, tau):
    """Per coordinate i, whether

        phi_{sigma,i}(a_tau at theta_sigma(i))
            = (a_sigma at i)^-1 · (a_tau at i) · phi_{tau,i}(a_sigma at i)

    holds, a_s being the coordinates of g(s): for index arrays (or ints)
    sigma and tau that broadcast to one shape, a bool array of that shape
    with a last axis of n, gathered from ``pair.wreath``.  It checks no
    precondition."""
    T = pair.ctx.T
    auts, mul, inv = T.aut_array(), T.np_mul, np.array(T.inv)
    theta, phis, a = pair.wreath
    a_s, a_t = a[sigma], a[tau]
    lhs = auts[phis[sigma], a[np.asarray(tau)[..., None], theta[sigma]]]
    return lhs == mul[mul[inv[a_s], a_t], auts[phis[tau], a_s]]


def check_relations_lemma(pair, sigma, tau):
    """Componentwise relation tying g(sigma) and g(tau) for commuting
    sigma, tau with tau acting trivially on coordinates:

        phi_{sigma,i}(a_tau at theta_sigma(i))
            = (a_sigma at i)^-1 · (a_tau at i) · phi_{tau,i}(a_sigma at i)

    Preconditions are errors, not silent skips.
    """
    ctx = pair.ctx
    G = ctx.group
    if G.np_mul[sigma, tau] != G.np_mul[tau, sigma]:
        raise ValueError(
            f"elements {sigma} and {tau} do not commute; the relation "
            "assumes sigma·tau = tau·sigma"
        )
    if pair.theta_of(tau) != ctx.identity_theta:
        raise ValueError(
            f"element {tau} permutes coordinates; it must lie in the "
            "kernel of the coordinate action"
        )
    return bool(_relation_by_coordinate(pair, sigma, tau).all())


def g_bound_report(pair, decomp):
    """Image-size bound for g on the kernel of the coordinate action, as
    the "g-image bound" row.

    Every kernel value is first reconstructed coordinate-by-coordinate
    from its orbit-representative block through the transporters (the
    containment statement): for tau in the kernel and the transporter s
    carrying rep to i, a_tau at i is fixed by the commuting-pair relation
    of (s, tau) at coordinate rep, which reads it as a_tau at
    theta_s(rep) = i.  Then the numeric bounds are compared:
    per orbit at most |T|·|Inn(T)| blocks when f maps the kernel to inner
    automorphisms, |T|·|Aut(T)| otherwise, and |T| per fixed coordinate.
    With inner kernel images that bound must also sit under the coarse
    bound |T|^(#X_0 + 2r).

    The row is skipped unless the decomposition found commuting
    transporters: the containment argument is unavailable then.
    """
    if not decomp.transporters_commute:
        return CheckResult("g-image bound", "skipped", "no commuting transporters found")
    T = pair.ctx.T
    kernel = pair.kernel_fsn
    trans = dict(decomp.transporters)
    kernel_inner = pair.kernel_inner
    containment_ok = all(
        _relation_by_coordinate(pair, trans[i], np.array(kernel))[:, rep - 1].all()
        for orbit, rep in zip(decomp.orbits, decomp.reps)
        for i in orbit
    )
    x0, r = len(decomp.fixed), decomp.r
    phi_range = (
        len(T.inner_automorphism_ids()) if kernel_inner else len(T.automorphisms())
    )
    image_size = len({pair.g_values[t] for t in kernel})
    bound = T.order**x0 * (T.order * phi_range) ** r
    coarse_bound = T.order ** (x0 + 2 * r)
    ok = (
        containment_ok
        and image_size <= bound
        and (bound <= coarse_bound or not kernel_inner)
    )
    return CheckResult(
        "g-image bound",
        "pass" if ok else "fail",
        f"image {image_size} <= {bound} <= {coarse_bound}, inner kernel: "
        f"{kernel_inner}",
    )


def audit_prime_bound(pair, decomp):
    """Instance audit of the small-prime forcing argument, as the
    "prime audit" row.

    The derived inequality is sum(p^(m_k) - 2) <= sum(m_k); whenever the
    action is nontrivial and it holds, p must be at most 3 (pure
    arithmetic: p^x - 2 > x for p >= 5, x >= 1).  When the fully
    quantified hypotheses hold (nontrivial action, coordinate-action
    image of full size |T|^m, bijective g, image bound satisfied) the
    derived inequality itself is forced.
    """
    T, p = pair.ctx.T, decomp.p
    x0, r = len(decomp.fixed), decomp.r
    image_size = len({pair.g_values[t] for t in pair.kernel_fsn})
    nontrivial = decomp.m >= 1
    derived = sum(p**mk - 2 for mk in decomp.orbit_ranks) <= sum(decomp.orbit_ranks)
    hypotheses = (
        nontrivial
        and len(pair.fsn_image()) == T.order**decomp.m
        and pair.g_is_bijective()
        and image_size <= T.order ** (x0 + 2 * r)
    )
    arithmetic_consistent = not (nontrivial and derived) or p <= 3
    forced = not hypotheses or (derived and p <= 3)
    return CheckResult(
        "prime audit",
        "pass" if arithmetic_consistent and forced else "fail",
        f"derived inequality {derived}, p={p}",
    )


# ── Inner-image criterion and the whole suite ────────────────────────────


def commutator_closure(G, subset):
    """The subgroup generated by commutators of elements of ``subset``,
    all gathered at once: [a, b] = ab·(ba)^-1."""
    s = np.fromiter(subset, dtype=np.int64)
    ab = G.np_mul[s[:, None], s[None, :]]
    comms = G.np_mul[ab, np.array(G.inv)[ab.T]]
    return subgroup_closure(G, np.unique(comms).tolist())


def out_is_solvable(T):
    """Whether Out(T) = Aut(T)/Inn(T) is solvable, kept on T.

    (G/N)^(k) = G^(k)N/N, so Out(T) is solvable exactly when the derived
    series of Aut(T) enters Inn(T).
    """

    def build():
        aut = automorphism_table_group(T)
        inner = set(T.inner_automorphism_ids())
        current = tuple(range(aut.order))
        while not inner.issuperset(current):
            nxt = commutator_closure(aut, current)
            if nxt == current:
                return False
            current = nxt
        return True

    return T.memo("out_solvable", build)


def check_out_prop1(pair):
    """When Out(T) is solvable and the coordinate-action kernel is perfect,
    f must send that kernel into inner automorphisms.

    Both hypotheses are established by direct computation (derived series
    of Aut(T) against Inn(T), commutator closure of the kernel); the
    conclusion is only asserted when they hold.
    """
    ctx = pair.ctx
    T, G = ctx.T, ctx.group
    out_solvable = out_is_solvable(T)
    kernel = pair.kernel_fsn
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
    conclusion = pair.kernel_inner
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


def _suite_pairs(ctx):
    """Named crossed pairs over G = T^n exercising distinct f shapes:
    the two translation pairs, extra crossed maps for the conjugation f,
    coordinate-swapping fs driven by parity (n = 2 only), and a diagonal
    conjugation f."""
    T, n, G = ctx.T, ctx.n, ctx.group
    pairs = [("rho", rho_pair(ctx)), ("lambda", lambda_pair(ctx))]
    perms = ctx.perms

    def searched(name, f_ids):
        f_arr = np.array(f_ids, dtype=np.int64)
        out = []
        for j, g in enumerate(
            itertools.islice(
                crossed_homomorphisms(G, perms[f_arr]), MAX_G_PER_F
            )
        ):
            out.append((f"{name}/g{j}", FGPair(ctx, tuple(f_ids), g)))
        return out

    conj_f = pairs[1][1].f_ids
    pairs += searched("conj", conj_f)

    sign = _sign_table(T)
    if sign is not None and n == 2:
        swap_id = ctx.aut0_index((2, 1), (0, 0))
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
        ctx.aut0_index(
            ctx.identity_theta,
            (T.conjugation_aut_id(power_coords(T, n, s)[0]),) * n,
        )
        for s in range(G.order)
    )
    pairs += searched("diag-conj", diag_f)
    return pairs


def run_power_lemma_suite(T, n=2):
    """Run every structural check we have over G = T^n and report.

    For each constructed pair: the commuting-pair relation on all
    qualifying (sigma, tau), orbit decompositions for every prime dividing
    |T| and up to two generator choices, the g-image bound where its
    commuting hypothesis holds, the prime audit, and the inner-image
    criterion.  Returns CheckResult rows; no row may be "fail".
    """
    ctx = PowerContext(T, n)
    results = []
    # by Cauchy's theorem these are the primes dividing |T|
    primes = sorted({k for k in T.element_orders() if _is_prime(k)})
    for name, pair in _suite_pairs(ctx):
        # every commuting (sigma, tau) with tau in the kernel, in one gather
        sigma, j = np.nonzero(pair.kernel_commutes)
        tau = np.array(pair.kernel_fsn)[j]
        failures = int((~_relation_by_coordinate(pair, sigma, tau).all(axis=1)).sum())
        results.append(CheckResult(
            f"{name}: commuting-pair relation",
            "pass" if failures == 0 else "fail",
            f"{len(sigma)} qualifying pairs, {failures} failures",
        ))
        for p in primes:
            for variant in range(min(2, len(_order_p_elements(T, p)))):
                decomp = orbit_decompose(pair, p, variant)
                ranks = CheckResult(
                    "orbit ranks",
                    "pass" if check_rank_bounds(decomp).ok else "fail",
                    f"m={decomp.m} fixed={len(decomp.fixed)} "
                    f"orbit-ranks={list(decomp.orbit_ranks)}",
                )
                results += [
                    CheckResult(f"{name}: {row.name} p={p} choice {variant}", row.status, row.detail)
                    for row in (ranks, g_bound_report(pair, decomp), audit_prime_bound(pair, decomp))
                ]
        row = check_out_prop1(pair)
        results.append(CheckResult(f"{name}: {row.name}", row.status, row.detail))
    return results
