"""Closed formulas against tree-weighted and brute-force pair counts."""

import itertools

import numpy as np
import pytest

from hopfgalois.census import (
    brute_F,
    formula_Einn,
    formula_F,
    image_block,
    prime_column_count,
    prime_columns,
    run_verification,
    tree_degree_counts,
    tree_weighted_F,
)
from hopfgalois.endomorphisms import enumerate_end0, image_indices
from hopfgalois.fpf import TreeCriterionError, is_fpf_bruteforce
from hopfgalois.groups import BudgetError, load_group, power_group

S3 = load_group("s3")
A5 = load_group("a5")
C6 = load_group("c6")  # has a fixed point free automorphism and order-6 elements
SMALL_POWERS = [(S3, 1), (S3, 2), (A5, 1), (C6, 2)]


def test_formula_values():
    assert formula_F(6, 1) == 12
    assert formula_F(6, 2) == 3744
    assert formula_F(6, 3) == 3742848
    assert formula_F(120, 1) == 240
    assert formula_F(2520, 1) == 5040
    assert formula_Einn(6, 1) == 2
    assert formula_Einn(6, 2) == 52
    assert formula_Einn(120, 1) == 2
    assert formula_Einn(2520, 2) == 20164


def test_formula_validates_inputs():
    with pytest.raises(ValueError):
        formula_F(6, 0)
    with pytest.raises(ValueError):
        formula_F(0, 2)


def test_tree_weighted_equals_formula_for_free_aut_orders():
    for a in (1, 2, 3, 6, 7, 120, 2520):
        for n in (1, 2, 3, 4):
            assert tree_weighted_F(a, n) == formula_F(a, n)


def test_tree_weighted_methods_agree():
    assert tree_weighted_F(6, 3, method="enumerate") == tree_weighted_F(
        6, 3, method="formula"
    )
    with pytest.raises(ValueError, match="unknown method"):
        tree_weighted_F(6, 2, method="guess")


def test_degree_counts_enumerate_vs_formula():
    for n in range(1, 7):
        assert tree_degree_counts(n, "enumerate") == tree_degree_counts(n, "formula")
    with pytest.raises(ValueError):
        tree_degree_counts(0)


def test_degree_counts_refuse_enumerating_past_the_limit():
    # n = 8 is 9^7 = 4,782,969 Pruefer decodes; auto switches to the formula there.
    with pytest.raises(BudgetError, match=r"4782969 labelled trees.*method='formula'"):
        tree_degree_counts(8, method="enumerate")
    with pytest.raises(BudgetError, match="method='formula'"):
        tree_weighted_F(6, 9, method="enumerate")
    assert tree_degree_counts(8) == tree_degree_counts(8, method="formula")


def test_tree_mode_weights_the_tree_matrix_by_source_map_counts():
    assert brute_F(S3, 1, "tree") == 12
    assert brute_F(S3, 2, "tree") == 3744
    assert brute_F(load_group("c2"), 2, "tree") == 24 == formula_F(1, 2)


def test_brute_modes_agree_with_the_formula():
    assert brute_F(S3, 1, mode="tree") == 12
    assert brute_F(S3, 1, mode="fpf") == 12
    assert brute_F(S3, 2, mode="tree") == 3744


def test_brute_budget_gates():
    # 64 rows x 6859 endomorphisms x 76 columns is about 3.3e7.
    with pytest.raises(BudgetError, match="rows.*mode='tree'.*formula_F"):
        brute_F(S3, 3, mode="fpf", budget=10**6)
    # 169 endomorphisms and 3^4 graph builds.
    with pytest.raises(BudgetError, match="costs 250, over the budget of 10.*mode='fpf'.*tree_weighted_F.*formula_F"):
        brute_F(S3, 2, mode="tree", budget=10)
    with pytest.raises(ValueError, match="unknown mode"):
        brute_F(S3, 1, mode="magic")


def test_brute_refuses_tree_mode_past_the_end0_limit_up_front():
    # Tree mode at S3^5 costs 28,629,151 + 6^10, under the budget, but
    # enumerate_end0 would refuse its 28,629,151 endomorphisms.
    with pytest.raises(BudgetError, match=r"End0\(s3\^5\) has 28629151 .*tree_weighted_F or formula_F"):
        brute_F(S3, 5, mode="tree", budget=10**12)
    # So fpf mode, over its budget there, no longer recommends tree mode.
    with pytest.raises(BudgetError, match="other routes: tree_weighted_F or formula_F") as err:
        brute_F(S3, 5, mode="fpf")
    assert "mode='tree'" not in str(err.value)


def test_brute_fpf_mode_refuses_before_listing_its_source_maps():
    # 10^9 source maps of S3^9 would not fit in memory as a list
    with pytest.raises(BudgetError, match="comparing 1000000000 rows with"):
        brute_F(S3, 9, mode="fpf")


@pytest.mark.parametrize("mode", ["tree", "fpf"])
def test_brute_refuses_a_non_positive_power(mode):
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"the power exponent must be positive, got {n}"):
            brute_F(S3, n, mode=mode)


def test_tree_mode_refuses_a_group_with_an_fpf_automorphism():
    # C3 has 6 fpf pairs; the tree criterion would count 4.
    c3 = load_group("c3")
    with pytest.raises(TreeCriterionError, match="mode='fpf'"):
        brute_F(c3, 1, mode="tree")
    assert brute_F(c3, 1, mode="fpf") == 6


def test_fpf_mode_refusal_names_no_route_for_a_group_with_an_fpf_automorphism():
    # C3^5 is over the fpf-mode budget, and the tree mode, tree_weighted_F
    # and formula_F all assume no fpf automorphism: C3 has 6 fpf pairs,
    # but formula_F(2, 1) is 4.
    c3 = load_group("c3")
    with pytest.raises(BudgetError, match="fixed-point-free automorphism") as err:
        brute_F(c3, 5, mode="fpf")
    for route in ("formula_F", "tree_weighted_F", "mode='tree'", "other routes"):
        assert route not in str(err.value)


def _end0_image_matrix(T, n, columns):
    """Images of the columns under every endomorphism, one row each in
    enumerate_end0 order, through the per-endomorphism image table.
    Column-major, so that a reduction over columns is a few fast passes."""
    rows = [image_indices(e)[columns] for e in enumerate_end0(T, n)]
    return np.array(rows, dtype=np.min_scalar_type(T.order**n - 1), order="F")


@pytest.mark.parametrize("T,n", SMALL_POWERS, ids=lambda v: getattr(v, "name", v))
def test_fpf_count_equals_the_per_pair_scan(T, n):
    endos = list(enumerate_end0(T, n))
    per_pair = sum(1 for f in endos for g in endos if is_fpf_bruteforce(f, g).is_fpf)
    assert brute_F(T, n, mode="fpf") == per_pair


def test_fpf_count_over_the_trivial_group(tmp_path):
    # No prime-order element, so no columns: every pair is fpf.
    path = tmp_path / "c1.txt"
    path.write_text("1\n0\n")
    C1 = load_group(str(path))
    assert len(prime_columns(C1, 2)) == 0
    assert brute_F(C1, 2, mode="fpf") == 9**2


@pytest.mark.parametrize("T,n", SMALL_POWERS, ids=lambda v: getattr(v, "name", v))
def test_image_blocks_are_the_end0_images_at_the_columns(T, n):
    columns = prime_columns(T, n)
    thetas = itertools.product(range(n + 1), repeat=n)
    matrix = np.concatenate([image_block(T, theta, columns) for theta in thetas])
    assert matrix.dtype == np.min_scalar_type(T.order**n - 1)
    assert (matrix == _end0_image_matrix(T, n, columns)).all()


@pytest.mark.parametrize(
    "T,n", [*SMALL_POWERS, (S3, 3)], ids=lambda v: getattr(v, "name", v)
)
def test_one_column_per_prime_order_cyclic_subgroup(T, n):
    G = power_group(T, n)
    orders = G.element_orders()
    prime_order = {x for x in range(G.order) if orders[x] in (2, 3, 5)}
    subgroups = set()
    for c in prime_columns(T, n):
        c = int(c)
        assert c in prime_order
        y, members = c, set()
        while y != 0:
            members.add(y)
            y = G.mul[y][c]
        subgroups.add(frozenset(members))
    expected = sum(
        sum(1 for x in prime_order if orders[x] == p) // (p - 1) for p in (2, 3, 5)
    )
    assert len(subgroups) == len(prime_columns(T, n)) == expected
    assert prime_column_count(T, n) == expected
    assert set().union(*subgroups) == prime_order


def test_s3_cube_reduced_count_equals_every_row():
    matrix = _end0_image_matrix(S3, 3, prime_columns(S3, 3))
    unreduced = 0
    for lo in range(0, len(matrix), 64):
        differ = matrix[lo : lo + 64, None, :] != matrix[None, :, :]
        unreduced += int(differ.all(axis=2).sum())
    assert brute_F(S3, 3, mode="fpf") == unreduced == formula_F(6, 3)


def test_fpf_mode_reaches_the_first_non_simple_power():
    assert brute_F(S3, 3, mode="fpf") == 3742848
    assert brute_F(A5, 2, mode="fpf") == 27763200 == formula_F(120, 2)


def test_run_verification_quick():
    rows = run_verification("quick")
    assert len(rows) == 26
    assert all(ok for *_, ok in rows)
    assert rows[4:6] == [
        ("s3", 1, "holomorph inn count", True),
        ("s3", 1, "no out-type structures", True),
    ]
    with pytest.raises(ValueError, match="unknown level"):
        run_verification("exhaustive")


def test_run_verification_full_counts_the_s3_cube_and_the_a5_square():
    rows = run_verification("full")
    assert all(ok for *_, ok in rows)
    checks = {(target, n, check) for target, n, check, _ in rows}
    assert ("s3", 3, "brute (fpf mode) == formula") in checks
    assert ("a5", 1, "holomorph inn count") in checks
    a5_square = [check for target, n, check, _ in rows if (target, n) == ("a5", 2)]
    assert a5_square == [
        "formula == tree-weighted",
        "brute (fpf mode) == formula",
        "structure count divides out",
    ]
