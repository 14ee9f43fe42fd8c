"""CLI subcommands: outputs and exit codes."""

from pathlib import Path

import pytest

from hopfgalois import census
from hopfgalois.cli import main

C2CUBE = Path(__file__).parent / "data" / "c2cube.txt"
LEMMAS_S3 = Path(__file__).parent / "data" / "hol_s3_lemmas.txt"
VERIFY = {level: Path(__file__).parent / "data" / f"verify_{level}.txt" for level in ("quick", "full")}

PAIR_FPF = """\
n=2
theta_f=0,1
phi_f=-,0
theta_g=1,2
phi_g=0,0
"""

PAIR_NOT_FPF = """\
n=2
theta_f=1,1
phi_f=0,0
theta_g=1,1
phi_g=0,0
"""


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_census_formula(capsys):
    rc, out, _ = run(capsys, "census", "formula", "--aut-order", "6", "--n", "2")
    assert rc == 0
    assert "F\t3744" in out
    assert "Einn\t52" in out


def test_census_weighted(capsys):
    rc, out, _ = run(capsys, "census", "weighted", "--aut-order", "6", "--n", "2")
    assert rc == 0
    assert "weighted_F\t3744" in out
    assert "trees_degree_1\t2" in out


def test_census_brute(capsys):
    rc, out, _ = run(capsys, "census", "brute", "--group", "s3", "--n", "1",
                     "--mode", "fpf")
    assert rc == 0
    assert "brute_F\t12" in out
    assert "match\ttrue" in out


def _no_formula(brute, name):
    # formula_F assumes that T has no fixed-point-free automorphism
    return [f"brute_F\t{brute}", "formula_F\tn/a",
            f"match\tn/a: {name} admits a fixed-point-free automorphism"]


def test_census_brute_has_no_formula_for_an_fpf_automorphism(capsys):
    # x -> x^2 fixes only the identity of C3
    rc, out, _ = run(capsys, "census", "brute", "--group", "c3", "--n", "1", "--mode", "fpf")
    assert (rc, out.splitlines()[3:]) == (0, _no_formula(6, "c3"))


def test_census_brute_has_no_formula_for_a_one_element_table(tmp_path, capsys):
    # the one automorphism of the trivial group fixes only the identity
    path = tmp_path / "c1.txt"
    path.write_text("1\n0\n")
    rc, out, _ = run(capsys, "census", "brute", "--group", str(path), "--n", "2", "--mode", "fpf")
    assert (rc, out.splitlines()[3:]) == (0, _no_formula(81, "c1"))


def test_census_brute_fpf_reaches_the_s3_cube(capsys):
    rc, out, _ = run(capsys, "census", "brute", "--group", "s3", "--n", "3",
                     "--mode", "fpf")
    assert rc == 0
    assert "brute_F\t3742848" in out
    assert "match\ttrue" in out


def test_census_brute_tree_mode_prices_graph_builds_not_pairs(capsys):
    # 390,625 endomorphisms and 5^8 graph builds, under the default budget;
    # the 1.5e11 pairs are never visited.
    rc, out, _ = run(capsys, "census", "brute", "--group", "s3", "--n", "4", "--mode", "tree")
    assert rc == 0
    assert "brute_F\t7776000000" in out
    assert "match\ttrue" in out


@pytest.mark.parametrize("budget", [[], ["--budget", "1000000000000"]])
def test_census_brute_at_the_s3_fifth_power_names_only_routes_that_run(capsys, budget):
    # 28,629,151 endomorphisms: tree mode's cost 89,095,327 is under the
    # default budget, but End0 is over the enumeration limit.
    rc, out, err = run(capsys, "census", "brute", "--group", "s3", "--n", "5",
                       "--mode", "tree", *budget)
    assert rc == 1
    assert out == ""
    assert "End0(s3^5) has 28629151 elements" in err
    assert "tree_weighted_F or formula_F" in err
    rc, out, err = run(capsys, "census", "brute", "--group", "s3", "--n", "5",
                       "--mode", "fpf", *budget)
    assert rc == 1
    assert "other routes: tree_weighted_F or formula_F" in err
    assert "mode='tree'" not in err


def test_census_brute_tree_mode_refuses_an_fpf_automorphism(capsys):
    rc, out, err = run(capsys, "census", "brute", "--group", "c3", "--n", "1",
                       "--mode", "tree")
    assert rc == 1
    assert out == ""
    assert "mode='fpf'" in err


def test_census_brute_fpf_refusal_names_no_closed_route_for_an_fpf_automorphism(capsys):
    # Neither closed route counts C3, which has a fixed-point-free automorphism.
    rc, out, err = run(capsys, "census", "brute", "--group", "c3", "--n", "5", "--mode", "fpf")
    assert rc == 1
    assert out == ""
    assert "over the budget" in err and "c3 admits a fixed-point-free automorphism" in err
    assert "formula_F" not in err and "tree_weighted_F" not in err


@pytest.mark.parametrize("mode", ["tree", "fpf"])
@pytest.mark.parametrize("n", ["0", "-1"])
def test_census_brute_refuses_a_non_positive_power(capsys, mode, n):
    rc, out, err = run(capsys, "census", "brute", "--group", "s3", "--n", n, "--mode", mode)
    assert rc == 1
    assert out == ""
    assert err == f"error: the power exponent must be positive, got {n}\n"


def test_census_weighted_refuses_enumerating_past_the_limit(capsys):
    rc, out, err = run(capsys, "census", "weighted", "--aut-order", "6", "--n", "9",
                       "--method", "enumerate")
    assert rc == 1
    assert out == ""
    assert "100000000 labelled trees" in err and "method='formula'" in err


def test_census_brute_budget_is_a_usage_error(capsys):
    rc, _, err = run(capsys, "census", "brute", "--group", "s3", "--n", "3",
                     "--mode", "fpf", "--budget", "1000000")
    assert rc == 1
    assert "budget" in err


def test_trees_count(capsys):
    rc, out, _ = run(capsys, "trees", "count", "--n", "3")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "3\t1\t9"
    assert lines[-1] == "3\t-\t16"
    rc, out, _ = run(capsys, "trees", "count", "--n", "3", "--degree", "2")
    assert out.strip() == "3\t2\t6"
    for n in ("0", "-2"):
        rc, out, err = run(capsys, "trees", "count", "--n", n, "--degree", "1")
        assert rc == 1
        assert out == ""
        assert err == f"error: need at least one non-root vertex, got n = {n}\n"


def test_trees_enumerate(capsys):
    rc, out, _ = run(capsys, "trees", "enumerate", "--n", "2")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].split("\t")[0] == "0"
    for n in ("0", "-1"):
        rc, out, err = run(capsys, "trees", "enumerate", "--n", n)
        assert rc == 1
        assert out == ""
        assert err == f"error: need at least one non-root vertex, got n = {n}\n"


def test_fpf_check_positive(tmp_path, capsys):
    pair = tmp_path / "pair.txt"
    pair.write_text(PAIR_FPF)
    rc, out, _ = run(capsys, "fpf", "check", "--group", "s3", "--pair", str(pair))
    assert rc == 0
    assert out.splitlines()[0] == "fpf\ttree-criterion\t-"


def test_fpf_check_negative_with_graph(tmp_path, capsys):
    pair = tmp_path / "pair.txt"
    pair.write_text(PAIR_NOT_FPF)
    rc, out, _ = run(capsys, "fpf", "check", "--group", "s3", "--pair", str(pair),
                     "--dump-graph")
    assert rc == 0
    assert out.splitlines() == [
        "not-fpf\ttree-criterion\t0,1",
        "e1\t1\t1",
        "e2\t1\t1",
        "a1\t1\t1",
        "b1\t1\t1",
        "a2\t1\t1",
        "b2\t1\t1",
    ]


def test_fpf_check_dump_graph_arrows(tmp_path, capsys):
    # Edges 1 and 3 touch vertex 0, so a1 and b3 have tail 0 and their
    # reverse arrows are missing.
    pair = tmp_path / "pair.txt"
    pair.write_text("n=3\ntheta_f=0,1,2\nphi_f=-,0,3\ntheta_g=1,3,0\nphi_g=2,0,-\n")
    rc, out, _ = run(capsys, "fpf", "check", "--group", "s3", "--pair", str(pair),
                     "--dump-graph")
    assert rc == 0
    assert out.splitlines() == [
        "fpf\ttree-criterion\t-",
        "e1\t0\t1",
        "e2\t1\t3",
        "e3\t2\t0",
        "a1\t0\t1",
        "a2\t1\t3",
        "b2\t3\t1",
        "b3\t0\t2",
    ]


def test_fpf_check_falls_back_to_bruteforce(tmp_path, capsys):
    pair = tmp_path / "pair.txt"
    pair.write_text("n=1\ntheta_f=1\nphi_f=0\ntheta_g=0\nphi_g=-\n")
    rc, out, _ = run(capsys, "fpf", "check", "--group", "c5", "--pair", str(pair))
    assert rc == 0
    assert out.splitlines()[0] == "fpf\tbruteforce\t-"


def test_fpf_check_rejects_bad_pair_file(tmp_path, capsys):
    pair = tmp_path / "pair.txt"
    pair.write_text("nonsense")
    rc, _, err = run(capsys, "fpf", "check", "--group", "s3", "--pair", str(pair))
    assert rc == 1
    assert "error" in err


def test_fpf_check_missing_file(capsys):
    rc, _, err = run(capsys, "fpf", "check", "--group", "s3", "--pair", "/no/such/file")
    assert rc == 1


def test_hol_regulars(capsys):
    rc, out, _ = run(capsys, "hol", "regulars", "--group", "s3")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "total\t2"
    assert lines[0] == "0\t6\ttrue\tinn"


def test_hol_regulars_cross_type(capsys):
    rc, out, _ = run(capsys, "hol", "regulars", "--group", "c6", "--iso", "s3")
    assert rc == 0
    assert out.strip().splitlines()[-1] == "total\t1"
    rc, _, err = run(capsys, "hol", "regulars", "--group", "a5", "--iso", "s3")
    assert rc == 1
    assert "too large" in err
    # Hol(D4) has 2 regular subgroups isomorphic to C2^3; C2^3 needs 3
    # generators, so only a walk over subgroups reaches them.
    rc, out, _ = run(capsys, "hol", "regulars", "--group", "d4", "--iso", str(C2CUBE))
    assert rc == 0
    assert out.strip().splitlines() == ["0\t8\ttrue\tinn", "1\t8\ttrue\tinn", "total\t2"]


def test_hol_lemma_suite(capsys):
    rc, out, _ = run(capsys, "hol", "verify-s3-lemmas")
    assert rc == 0
    total = out.strip().splitlines()[-1]
    assert total.startswith("total\t308")
    assert "fail=0" in total
    # every row name, status and detail, as pinned in the golden file
    assert out == LEMMAS_S3.read_text()


def test_verify_quick(capsys):
    rc, out, _ = run(capsys, "verify", "--level", "quick")
    assert rc == 0
    assert out == VERIFY["quick"].read_text()


def test_verify_full(capsys):
    rc, out, _ = run(capsys, "verify", "--level", "full")
    assert rc == 0
    assert out == VERIFY["full"].read_text()


def test_verify_reports_a_failed_row(capsys, monkeypatch):
    rows = [
        ("s3", 1, "formula == tree-weighted", True),
        ("s3", 1, "brute (tree mode) == formula", False),
    ]
    monkeypatch.setattr("hopfgalois.cli.run_verification", lambda level: rows)
    rc, out, _ = run(capsys, "verify")
    assert rc == 2
    assert out.splitlines() == [
        "s3\tn=1\tformula == tree-weighted\tpass",
        "s3\tn=1\tbrute (tree mode) == formula\tFAIL",
        "result\tfail",
    ]


def test_verify_fails_a_row_when_two_routes_disagree(capsys, monkeypatch):
    # One labelled tree too many at degree 1 miscodes the tree-weighted
    # route; every row that reads it fails and the run still finishes.
    degree_counts = census.tree_degree_counts

    def one_tree_too_many(n, method="auto"):
        counts = dict(degree_counts(n, method=method))
        counts[1] += 1
        return counts

    monkeypatch.setattr(census, "tree_degree_counts", one_tree_too_many)
    rc, out, _ = run(capsys, "verify")
    assert rc == 2
    expected = VERIFY["quick"].read_text()
    expected = expected.replace("formula == tree-weighted\tpass", "formula == tree-weighted\tFAIL")
    assert out == expected.replace("result\tpass", "result\tfail")


def test_unknown_group_is_exit_1(capsys):
    rc, _, err = run(capsys, "census", "brute", "--group", "zz", "--n", "1")
    assert rc == 1
    assert "not a catalog name" in err


def test_table_entry_past_int64_is_exit_1(tmp_path, capsys):
    path = tmp_path / "overflow.tbl"
    path.write_text("2\n0 1\n1 99999999999999999999\n")
    rc, out, err = run(capsys, "hol", "regulars", "--group", str(path))
    assert (rc, out) == (1, "")
    assert err == "error: closure violated: mul[1][1] = 99999999999999999999 is outside 0..1\n"


def test_non_associative_table_is_exit_1(tmp_path, capsys):
    # the quasigroup of test_groups.test_rejects_broken_associativity
    path = tmp_path / "quasigroup.tbl"
    path.write_text("5\n0 1 2 3 4\n1 0 3 4 2\n2 4 0 1 3\n3 2 4 0 1\n4 3 1 2 0\n")
    rc, out, err = run(capsys, "hol", "regulars", "--group", str(path))
    assert (rc, out) == (1, "")
    assert err == "error: associativity violated at (1, 1, 2): (ab)c = 2 but a(bc) = 4\n"


def test_usage_error_is_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "formula", "--n", "2"])  # missing --aut-order
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
