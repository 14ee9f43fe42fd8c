"""Counting fixed point free pairs on direct powers, three independent ways.

For a target T^n with A = |Aut T| the closed count of fixed point free
pairs is

    F(A, n) = 2^n * n! * A^n * (n*A + 1)^(n-1)

and the per-structure count after dividing out inner automorphisms of
the holomorph is E_inn(A, n) = F / (A^n * n!).  This module computes F
three ways that share no code path:

  * ``formula_F`` evaluates the closed form (exact integers, A is a
    free parameter, no group needed);
  * ``tree_weighted_F`` sums A^(2n - d) over labelled trees on n+1
    vertices grouped by the degree d of vertex 0, with the degree
    census taken from actual Pruefer decoding when n is small;
  * ``brute_F`` walks real endomorphism pairs of an actual group and
    decides each one, either by the tree criterion on its pair graph
    or by scanning all of T^n for a non-identity agreement.

``run_verification`` packages the cross-checks (including holomorph
regular-subgroup counts for small targets) into CensusReport rows so
the CLI and the tests consume the same machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .endomorphisms import count_end0, enumerate_end0
from .fpf import is_fpf_bruteforce
from .groups import BudgetError, load_group
from .holomorph import (
    classify_inn_out,
    enumerate_regular_subgroups,
    holomorph_of,
    regular_subgroups_oracle,
)
from .pairgraphs import (
    build_undirected,
    count_trees_root_degree,
    degree_of_vertex0,
    is_tree,
    tree_degree_census,
)

DEFAULT_BRUTE_BUDGET = 2 * 10**9

# Past this the degree census falls back to the binomial formula instead
# of decoding every Pruefer sequence; n = 7 is 262144 decodes.
ENUMERATE_CENSUS_LIMIT = 7


# ── Closed formulas ──────────────────────────────────────────────────────


def formula_F(aut_order, n):
    """Closed count of fixed point free pairs on a rank-n power,
    as a function of A = |Aut T| alone."""
    if n < 1:
        raise ValueError(f"the power exponent must be positive, got {n}")
    if aut_order < 1:
        raise ValueError(f"the automorphism count must be positive, got {aut_order}")
    A = aut_order
    return 2**n * math.factorial(n) * A**n * (n * A + 1) ** (n - 1)


def formula_Einn(aut_order, n):
    """Structure count F / (A^n * n!), checked to divide exactly."""
    A = aut_order
    total = formula_F(A, n)
    denom = A**n * math.factorial(n)
    value = 2**n * (n * A + 1) ** (n - 1)
    if value * denom != total:
        raise RuntimeError(
            f"pair count {total} is not {denom} times the structure count {value}"
        )
    return value


# ── Tree-weighted route ──────────────────────────────────────────────────


def tree_degree_counts(n, method="auto"):
    """Number of labelled trees on {0..n} by degree of vertex 0.

    Returns a dict d -> count for 1 <= d <= n.  ``enumerate`` decodes
    every Pruefer sequence and measures degrees; ``formula`` uses the
    binomial count; ``auto`` enumerates up to n = 7 and then switches.
    Either way the row sum must be (n+1)^(n-1).
    """
    if n < 1:
        raise ValueError(f"need at least one non-root vertex, got n = {n}")
    if method == "auto":
        method = "enumerate" if n <= ENUMERATE_CENSUS_LIMIT else "formula"
    if method == "enumerate":
        counts = tree_degree_census(n)
    elif method == "formula":
        counts = {d: count_trees_root_degree(n, d) for d in range(1, n + 1)}
    else:
        raise ValueError(f"unknown method {method!r}")
    total = sum(counts.values())
    if total != (n + 1) ** (n - 1):
        raise RuntimeError(
            f"degree census sums to {total}, not the Cayley count {(n + 1) ** (n - 1)}"
        )
    return counts


def tree_weighted_F(aut_order, n, method="auto"):
    """Sum A^(2n-d) * 2^n * n! over the tree degree census.

    Independent of ``formula_F`` term by term, but the totals must
    agree; a mismatch is raised rather than returned because it means
    one of the two routes is miscoded, not that the input is bad.
    """
    A = aut_order
    counts = tree_degree_counts(n, method=method)
    total = sum(
        count * 2**n * math.factorial(n) * A ** (2 * n - d)
        for d, count in counts.items()
    )
    closed = formula_F(A, n)
    if total != closed:
        raise RuntimeError(
            f"tree-weighted count {total} disagrees with the closed form {closed} "
            f"at A = {A}, n = {n}"
        )
    return total


def tree_pair_census(aut_order, n):
    """Sum A^(2n - d(mu,nu)) over all source-map pairs whose pair graph
    is a tree, visiting the (n+1)^(2n) source-map pairs directly.

    This is the structured route with multiplicities: each source map
    with k live coordinates stands for A^k endomorphisms.
    """
    import itertools

    A = aut_order
    total = 0
    for mu in itertools.product(range(n + 1), repeat=n):
        for nu in itertools.product(range(n + 1), repeat=n):
            if is_tree(build_undirected(mu, nu)):
                total += A ** (2 * n - degree_of_vertex0(mu, nu))
    return total


# ── Brute force over real pairs ──────────────────────────────────────────


def _theta_index(theta, n):
    idx = 0
    for t in reversed(theta):
        idx = idx * (n + 1) + t
    return idx


def _tree_matrix(n):
    """Boolean matrix over source-map pairs: entry (i, j) says whether
    the pair graph of the i-th and j-th source maps is a tree.  Every
    entry comes from an actual graph build and tree test."""
    import itertools

    maps = list(itertools.product(range(n + 1), repeat=n))
    k = len(maps)
    mat = np.zeros((k, k), dtype=bool)
    for i, mu in enumerate(maps):
        for j, nu in enumerate(maps):
            mat[i, j] = is_tree(build_undirected(mu, nu))
    return mat


def brute_F(T, n, mode="tree", budget=DEFAULT_BRUTE_BUDGET):
    """Count fixed point free pairs by visiting every endomorphism pair.

    mode="tree" decides each pair through its pair graph (the graphs
    are memoised per source-map pair, since the verdict depends only on
    the source maps); mode="fpf" runs the element scan on every pair
    and is gated by pairs * |T|^n against the budget.
    """
    total_endos = count_end0(T, n)
    pair_space = total_endos * total_endos
    if mode == "tree":
        if pair_space > budget:
            raise BudgetError(
                f"{pair_space} pairs exceed the budget of {budget}; "
                "use the tree-weighted or closed-form routes instead"
            )
        endos = list(enumerate_end0(T, n))
        mat = _tree_matrix(n)
        ids = np.array([_theta_index(e.theta, n) for e in endos], dtype=np.intp)
        count = 0
        # Chunk the f axis so the boolean slab stays near 8M entries.
        step = max(1, (1 << 23) // total_endos)
        for lo in range(0, total_endos, step):
            block = ids[lo : lo + step]
            count += int(mat[block[:, None], ids[None, :]].sum())
        return count
    if mode == "fpf":
        cost = pair_space * T.order**n
        if cost > budget:
            raise BudgetError(
                f"scanning {pair_space} pairs over {T.order ** n} elements "
                f"costs {cost}, over the budget of {budget}"
            )
        endos = list(enumerate_end0(T, n))
        return sum(
            1 for f in endos for g in endos if is_fpf_bruteforce(f, g).is_fpf
        )
    raise ValueError(f"unknown mode {mode!r}: expected 'tree' or 'fpf'")


# ── Reports ──────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class CensusReport:
    """One target's counts from every route that was affordable.

    Optional fields stay None when a route was skipped; ``comparisons``
    lists only the checks whose inputs are present, and ``match`` is
    their conjunction.  hol_inn / hol_out count regular subgroups of
    the holomorph isomorphic to the target, split by whether the pair
    lands inside inner automorphisms.
    """

    T_name: str
    n: int
    aut_order: int
    formula_F: int
    tree_weighted_F: int
    brute_F: int | None = None
    fpf_count: int | None = None
    formula_Einn: int | None = None
    hol_inn: int | None = None
    hol_out: int | None = None
    hol_expected_inn: int | None = None

    def comparisons(self):
        rows = [
            ("formula == tree-weighted", self.formula_F == self.tree_weighted_F),
        ]
        if self.brute_F is not None:
            rows.append(("brute (tree mode) == formula", self.brute_F == self.formula_F))
        if self.fpf_count is not None:
            rows.append(("brute (fpf mode) == formula", self.fpf_count == self.formula_F))
        if self.formula_Einn is not None:
            denom = self.aut_order**self.n * math.factorial(self.n)
            rows.append(
                ("structure count divides out", self.formula_Einn * denom == self.formula_F)
            )
        if self.hol_inn is not None and self.hol_expected_inn is not None:
            rows.append(("holomorph inn count", self.hol_inn == self.hol_expected_inn))
        if self.hol_out is not None:
            rows.append(("no out-type structures", self.hol_out == 0))
        return rows

    @property
    def match(self):
        return all(ok for _, ok in self.comparisons())


def _hol_counts(G, cross_check_oracle):
    """(inn, out, expected_inn) regular-subgroup counts for Hol(G).

    With cross_check_oracle the expectation comes from the exhaustive
    subgroup scan of the full holomorph table, which is only affordable
    when |Hol(G)| is tiny (36 for s3; the a5 holomorph has 7200 elements
    and a quadratic pair-closure scan there is out of reach).  Without
    it the expectation is the closed structure count.
    """
    subs = enumerate_regular_subgroups(G)
    inn = sum(1 for s in subs if s.classification == "inn")
    out = len(subs) - inn
    if cross_check_oracle:
        hol = holomorph_of(G)
        oracle = regular_subgroups_oracle(G, iso_type=G)
        if len(oracle) != len(subs):
            raise RuntimeError(
                f"holomorph enumeration found {len(subs)} regular subgroups "
                f"but the exhaustive oracle found {len(oracle)}"
            )
        expected_inn = sum(1 for key in oracle if classify_inn_out(hol, key) == "inn")
    else:
        expected_inn = formula_Einn(len(G.automorphisms()), 1)
    return inn, out, expected_inn


def run_verification(level="quick"):
    """Cross-validate every affordable route and return CensusReport rows.

    quick: S3 at n = 1 and n = 2 with both brute modes and holomorph
    counts, plus arithmetic-only rows for a few free values of A.
    full: adds A5 at n = 1 (its holomorph has 7200 elements and its
    endomorphism pair space has 14641 entries) and S3 at n = 3, where
    only the tree-mode brute count is affordable.
    """
    if level not in ("quick", "full"):
        raise ValueError(f"unknown level {level!r}: expected 'quick' or 'full'")
    reports = []

    s3 = load_group("s3")
    a_s3 = len(s3.automorphisms())
    inn, out, oracle_inn = _hol_counts(s3, cross_check_oracle=True)
    reports.append(
        CensusReport(
            T_name="s3",
            n=1,
            aut_order=a_s3,
            formula_F=formula_F(a_s3, 1),
            tree_weighted_F=tree_weighted_F(a_s3, 1),
            brute_F=brute_F(s3, 1, mode="tree"),
            fpf_count=brute_F(s3, 1, mode="fpf"),
            formula_Einn=formula_Einn(a_s3, 1),
            hol_inn=inn,
            hol_out=out,
            hol_expected_inn=oracle_inn,
        )
    )
    reports.append(
        CensusReport(
            T_name="s3",
            n=2,
            aut_order=a_s3,
            formula_F=formula_F(a_s3, 2),
            tree_weighted_F=tree_weighted_F(a_s3, 2),
            brute_F=brute_F(s3, 2, mode="tree"),
            fpf_count=brute_F(s3, 2, mode="fpf"),
            formula_Einn=formula_Einn(a_s3, 2),
        )
    )
    for free_a in (1, 2, 6, 2520):
        for n in (1, 2):
            reports.append(
                CensusReport(
                    T_name=f"(A={free_a})",
                    n=n,
                    aut_order=free_a,
                    formula_F=formula_F(free_a, n),
                    tree_weighted_F=tree_weighted_F(free_a, n),
                    formula_Einn=formula_Einn(free_a, n),
                )
            )

    if level == "full":
        a5 = load_group("a5")
        a_a5 = len(a5.automorphisms())
        inn, out, oracle_inn = _hol_counts(a5, cross_check_oracle=False)
        reports.append(
            CensusReport(
                T_name="a5",
                n=1,
                aut_order=a_a5,
                formula_F=formula_F(a_a5, 1),
                tree_weighted_F=tree_weighted_F(a_a5, 1),
                brute_F=brute_F(a5, 1, mode="tree"),
                fpf_count=brute_F(a5, 1, mode="fpf"),
                formula_Einn=formula_Einn(a_a5, 1),
                hol_inn=inn,
                hol_out=out,
                hol_expected_inn=oracle_inn,
            )
        )
        reports.append(
            CensusReport(
                T_name="s3",
                n=3,
                aut_order=a_s3,
                formula_F=formula_F(a_s3, 3),
                tree_weighted_F=tree_weighted_F(a_s3, 3),
                brute_F=brute_F(s3, 3, mode="tree"),
                formula_Einn=formula_Einn(a_s3, 3),
            )
        )
    return reports


__all__ = [
    "DEFAULT_BRUTE_BUDGET",
    "CensusReport",
    "brute_F",
    "formula_Einn",
    "formula_F",
    "run_verification",
    "tree_degree_counts",
    "tree_pair_census",
    "tree_weighted_F",
]
