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
  * ``brute_F`` counts over the real endomorphisms of an actual group,
    by the tree verdict of every source-map pair or, using no pair
    graph, by comparing images on the prime-order columns of T^n; its
    docstring gives the argument for each mode.

``run_verification`` lists the cross-checks (including holomorph
regular-subgroup counts for small targets) as the rows that
``hopfgalois verify`` prints; it is the one user of :mod:`.holomorph`
here and imports it when called, so the counting routes load without it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .endomorphisms import ENDO_BUDGET, count_end0, enumerate_end0
from .fpf import TreeCriterionError
from .groups import BudgetError, _is_prime, all_coords, has_fpf_automorphism, load_group
from .pairgraphs import build_undirected, count_trees_root_degree, is_tree, tree_degree_census

DEFAULT_BRUTE_BUDGET = 2 * 10**9

# Past this the degree census falls back to the binomial formula instead
# of decoding every Pruefer sequence; n = 7 is 262144 decodes.
ENUMERATE_CENSUS_LIMIT = 7


# ── Closed formulas ──────────────────────────────────────────────────────


def _check_power(n):
    if n < 1:
        raise ValueError(f"the power exponent must be positive, got {n}")


def formula_F(aut_order, n):
    """Closed count of fixed point free pairs on a rank-n power,
    as a function of A = |Aut T| alone."""
    _check_power(n)
    if aut_order < 1:
        raise ValueError(f"the automorphism count must be positive, got {aut_order}")
    A = aut_order
    return 2**n * math.factorial(n) * A**n * (n * A + 1) ** (n - 1)


def _structure_count(A, n):
    return 2**n * (n * A + 1) ** (n - 1)


def formula_Einn(aut_order, n):
    """Structure count F / (A^n * n!), checked to divide exactly."""
    A = aut_order
    total = formula_F(A, n)
    denom = A**n * math.factorial(n)
    value = _structure_count(A, n)
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
    binomial count; ``auto`` enumerates up to n = 7 and then switches,
    and ``enumerate`` past n = 7 is refused.  Either way the row sum must
    be (n+1)^(n-1).
    """
    if n < 1:
        raise ValueError(f"need at least one non-root vertex, got n = {n}")
    if method == "auto":
        method = "enumerate" if n <= ENUMERATE_CENSUS_LIMIT else "formula"
    if method == "enumerate":
        if n > ENUMERATE_CENSUS_LIMIT:
            raise BudgetError(
                f"enumerating the {(n + 1) ** (n - 1)} labelled trees on {n + 1} vertices "
                f"is past n = {ENUMERATE_CENSUS_LIMIT}; use method='formula'"
            )
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


def _tree_weighted_sum(A, counts):
    """Sum A^(2n-d) * 2^n * n! over the degree census ``counts`` of the
    trees on n+1 vertices, unchecked."""
    n = len(counts)
    return sum(
        count * 2**n * math.factorial(n) * A ** (2 * n - d)
        for d, count in counts.items()
    )


def tree_weighted_F(aut_order, n, method="auto"):
    """Sum A^(2n-d) * 2^n * n! over the tree degree census.

    Independent of ``formula_F`` term by term, but the totals must
    agree; a mismatch is raised rather than returned because it means
    one of the two routes is miscoded, not that the input is bad.
    """
    return _checked_weighted_sum(aut_order, tree_degree_counts(n, method=method))


def _checked_weighted_sum(A, counts):
    total, closed = _tree_weighted_sum(A, counts), formula_F(A, len(counts))
    if total != closed:
        raise RuntimeError(
            f"tree-weighted count {total} disagrees with the closed form {closed} "
            f"at A = {A}, n = {len(counts)}"
        )
    return total


# ── Brute force over real pairs ──────────────────────────────────────────


def _theta_index(theta, n):
    """Position of ``theta`` in itertools.product order."""
    idx = 0
    for t in theta:
        idx = idx * (n + 1) + t
    return idx


def _tree_matrix(n):
    """Boolean matrix over source-map pairs, in itertools.product order:
    entry (i, j) says whether the pair graph of the i-th and j-th source
    maps is a tree.  Every entry comes from an actual graph build and
    tree test."""
    maps = list(itertools.product(range(n + 1), repeat=n))
    return np.array([[is_tree(build_undirected(mu, nu)) for nu in maps] for mu in maps])


def _prime_orders(T):
    return [p for p in set(T.element_orders()) if _is_prime(p)]


def prime_column_count(T, n):
    """Number of cyclic subgroups of prime order in T^n, from the element
    orders of T alone: with e_p elements of order p in T there are
    (1 + e_p)^n - 1 of order p in T^n, p - 1 to each subgroup."""
    orders = T.element_orders()
    return sum(((1 + orders.count(p)) ** n - 1) // (p - 1) for p in _prime_orders(T))


def prime_columns(T, n):
    """Flat indices into T^n of one generator per cyclic subgroup of
    prime order, ascending.

    Element orders are taken coordinate-wise: x has prime order p exactly
    when every non-identity coordinate has order p in T.  The generators
    x^k of <x> share their first non-identity coordinate position, where
    they run over the generators of a cyclic subgroup of T; the kept x is
    the one whose coordinate there is the least of those.
    """
    orders, primes = T.element_orders(), _prime_orders(T)
    coords = all_coords(T, n)
    coord_orders = np.array(orders)[coords]
    p = coord_orders.max(axis=1)
    single = ((coord_orders == p[:, None]) | (coord_orders == 1)).all(axis=1)
    first = coords[np.arange(len(coords)), (coords != 0).argmax(axis=1)]
    columns = np.flatnonzero(np.isin(p, primes) & single & T.least_generators()[first])
    if len(columns) != prime_column_count(T, n):
        raise RuntimeError(
            f"found {len(columns)} prime-order cyclic subgroups of {T.name}^{n}, "
            f"but the element orders of {T.name} give {prime_column_count(T, n)}"
        )
    return columns


def image_block(T, theta, columns, aut_ids=None):
    """Flat T^n indices of the images of ``columns`` under every
    endomorphism with source map ``theta``, one row per endomorphism in
    enumerate_end0 order (phi ids lexicographic, first coordinate
    slowest).  ``aut_ids`` restricts every phi to those ids; the dtype is
    the smallest that holds |T|^n.  The block is column-major, so that a
    reduction over the columns runs over contiguous images."""
    n = len(theta)
    auts = T.aut_array() if aut_ids is None else T.aut_array()[list(aut_ids)]
    dtype = np.min_scalar_type(T.order**n - 1)
    coords = all_coords(T, n)[columns]
    # Built transposed, a row of images per column, so every step appends
    # the next phi as the fastest axis without a copy.
    images = np.zeros((len(columns), 1), dtype=dtype)
    for i, t in enumerate(theta):
        if t:
            term = (auts.T[coords[:, t - 1]] * T.order ** (n - 1 - i)).astype(dtype)
            endos = images.shape[1] * len(auts)
            images = (images[:, :, None] + term[:, None, :]).reshape(len(columns), endos)
    return images.T


def _rows_differing(block, rows):
    """For each of ``rows``, how many rows of ``block`` differ from it in
    every column."""
    counts = np.zeros(len(rows), dtype=np.int64)
    # Chunk the rows so the comparison slab stays near 4M entries.
    step = max(1, (1 << 22) // max(1, block.size))
    for lo in range(0, len(rows), step):
        differ = block[None, :, :] != rows[lo : lo + step, None, :]
        counts[lo : lo + step] = differ.all(axis=2).sum(axis=1)
    return counts


def brute_F(T, n, mode="tree", budget=DEFAULT_BRUTE_BUDGET):
    """Count fixed point free pairs of real endomorphisms of T^n.

    mode="tree" reads the verdict of every source-map pair from the tree
    matrix and counts c . M . c, where c[i] is how many endomorphisms
    enumerate_end0 yields with the i-th source map; the verdict depends
    on the source maps alone.  The tree criterion holds only when T has
    no fixed point free automorphism; on any other T this mode raises
    TreeCriterionError up front.  Its cost, |End0| endomorphisms plus
    (n+1)^(2n) graph builds, is gated by the budget; |End0| by ENDO_BUDGET.

    mode="fpf" reads only the images of real endomorphisms.  Where f and
    g agree is a subgroup, the equalizer of two homomorphisms, so the
    pair is fpf exactly when f and g differ on a generator of every
    cyclic subgroup of prime order (``prime_columns``).  The row count
    #{g : (f, g) fpf} is the same for f and for alpha o f with alpha in
    Aut0, because g -> alpha o g permutes End0 and alpha is injective;
    so one row per source map, with identity phis, stands for the
    A^(non-zero entries of theta) endomorphisms of that source map.  The
    rows are compared with every endomorphism's images one source-map
    block at a time, and the cost rows * |End0| * columns is gated by
    the budget.  A refusal names the routes that would still run; when T
    has a fixed point free automorphism there are none, since the tree
    mode, tree_weighted_F and formula_F all assume that T has none.
    """
    _check_power(n)
    total_endos = count_end0(T, n)
    graph_builds = (n + 1) ** (2 * n)
    tree_cost = total_endos + graph_builds

    def tree_refusal():
        if has_fpf_automorphism(T):
            return TreeCriterionError(
                f"{T.name} admits a fixed-point-free automorphism, so the tree "
                "criterion does not apply; mode='fpf' still counts by element scan"
            )
        if total_endos > ENDO_BUDGET:
            return BudgetError(
                f"End0({T.name}^{n}) has {total_endos} elements, over the budget of "
                f"{ENDO_BUDGET}; other routes: tree_weighted_F or formula_F (closed form)"
            )
        if tree_cost > budget:
            return BudgetError(
                f"enumerating {total_endos} endomorphisms and building {graph_builds} "
                f"pair graphs costs {tree_cost}, over the budget of {budget}; other "
                "routes: mode='fpf', tree_weighted_F or formula_F (closed form)"
            )

    if mode == "tree":
        refusal = tree_refusal()
        if refusal is not None:
            raise refusal
        c = np.bincount(
            [_theta_index(e.theta, n) for e in enumerate_end0(T, n)], minlength=(n + 1) ** n
        )
        return int(c @ _tree_matrix(n) @ c)
    if mode == "fpf":
        width = prime_column_count(T, n)
        cost = (n + 1) ** n * total_endos * width
        if cost > budget:
            if has_fpf_automorphism(T):
                others = (
                    f"{T.name} admits a fixed-point-free automorphism, and the tree "
                    "mode and the closed routes assume none, so no other route counts it"
                )
            elif tree_refusal():
                others = "other routes: tree_weighted_F or formula_F (closed form)"
            else:
                others = f"other routes: mode='tree' (cost {tree_cost}) or formula_F (closed form)"
            raise BudgetError(
                f"comparing {(n + 1) ** n} rows with {total_endos} endomorphisms "
                f"over {width} columns costs {cost}, over the budget of {budget}; {others}"
            )
        thetas = list(itertools.product(range(n + 1), repeat=n))  # only past the budget check
        columns = prime_columns(T, n)
        # automorphisms() sorts its image tuples, so the identity is id 0
        rows = np.concatenate([image_block(T, th, columns, [0]) for th in thetas])
        fpf_per_row = sum(_rows_differing(image_block(T, th, columns), rows) for th in thetas)
        A = len(T.automorphisms())
        return sum(
            A ** sum(1 for t in th if t) * int(c) for th, c in zip(thetas, fpf_per_row)
        )
    raise ValueError(f"unknown mode {mode!r}: expected 'tree' or 'fpf'")


# ── Verification ─────────────────────────────────────────────────────────


def _count_rows(T, n, *modes):
    """Check rows for T^n, where T is a group or a free |Aut T|: the
    closed count against the tree-weighted sum and against ``brute_F`` in
    each of ``modes``, then divided into structures.  Each row compares
    the unchecked values, so a disagreement is a failed row, not the
    error that tree_weighted_F and formula_Einn raise."""
    target, A = (f"(A={T})", T) if isinstance(T, int) else (T.name, len(T.automorphisms()))
    F = formula_F(A, n)
    return [
        (target, n, "formula == tree-weighted", _tree_weighted_sum(A, tree_degree_counts(n)) == F),
        *((target, n, f"brute ({m} mode) == formula", brute_F(T, n, mode=m) == F) for m in modes),
        (target, n, "structure count divides out",
         _structure_count(A, n) * A**n * math.factorial(n) == F),
    ]


def _hol_rows(T, regulars):
    """Check rows for the regular subgroups of Hol(T) isomorphic to T: as
    many of inner type as the structure count, and none of outer type."""
    inn = sum(1 for s in regulars if s.classification == "inn")
    return [
        (T.name, 1, "holomorph inn count", inn == _structure_count(len(T.automorphisms()), 1)),
        (T.name, 1, "no out-type structures", inn == len(regulars)),
    ]


def run_verification(level="quick"):
    """Cross-validate every affordable route, as the (target, n, check,
    ok) rows that ``hopfgalois verify`` prints.

    quick: S3 at n = 1 and n = 2 with both brute modes, the holomorph
    counts of S3 (whose (f, g) search must find exactly the subgroups of
    the exhaustive oracle), and arithmetic-only rows for a few free values
    of A.  full: adds A5 at n = 1 with its holomorph counts (its
    holomorph has 7200 elements, past the oracle), S3 at n = 3 with both
    brute modes, and A5 at n = 2, the first power of a non-abelian simple
    group, where only the fpf-mode count is affordable (3.4e9 pairs, but
    9 rows against 58081 endomorphisms over 631 columns).
    """
    if level not in ("quick", "full"):
        raise ValueError(f"unknown level {level!r}: expected 'quick' or 'full'")
    from .holomorph import enumerate_regular_subgroups, regular_subgroups_oracle

    s3 = load_group("s3")
    s3_regulars = enumerate_regular_subgroups(s3)
    oracle = regular_subgroups_oracle(s3, iso_type=s3)
    if oracle != [s.elements for s in s3_regulars]:
        raise RuntimeError(
            f"holomorph enumeration found {len(s3_regulars)} regular subgroups of "
            f"Hol(s3), the exhaustive oracle {len(oracle)}, and they must be the same"
        )
    rows = [
        *_count_rows(s3, 1, "tree", "fpf"),
        *_hol_rows(s3, s3_regulars),
        *_count_rows(s3, 2, "tree", "fpf"),
    ]
    rows += [row for A in (1, 2, 6, 2520) for n in (1, 2) for row in _count_rows(A, n)]
    if level == "full":
        a5 = load_group("a5")
        rows += [
            *_count_rows(a5, 1, "tree", "fpf"),
            *_hol_rows(a5, enumerate_regular_subgroups(a5)),
            *_count_rows(s3, 3, "tree", "fpf"),
            *_count_rows(a5, 2, "fpf"),
        ]
    return rows


__all__ = [
    "DEFAULT_BRUTE_BUDGET",
    "brute_F",
    "formula_Einn",
    "formula_F",
    "image_block",
    "prime_column_count",
    "prime_columns",
    "run_verification",
    "tree_degree_counts",
    "tree_weighted_F",
]
