"""Fixed point free verdicts: brute scan, tree criterion, witnesses, paths."""

import hashlib
import itertools
import random

import pytest

from hopfgalois.endomorphisms import StructuredEndo, enumerate_end0
from hopfgalois.fpf import (
    FpfVerdict,
    TreeCriterionError,
    WitnessError,
    _agree_at,
    check_path_conditions,
    construct_witness,
    decide_fpf,
    is_fpf_bruteforce,
    is_fpf_by_tree,
)
from hopfgalois.groups import (
    BudgetError,
    FiniteGroup,
    load_group,
    lowest_fixed_points,
    power_coords,
)
from hopfgalois.pairgraphs import build_undirected, is_tree

S3 = load_group("s3")
C5 = load_group("c5")


def identity_endo(T, n):
    return StructuredEndo(T, n, tuple(range(1, n + 1)), (0,) * n)


def trivial_endo(T, n):
    return StructuredEndo(T, n, (0,) * n, (None,) * n)


def test_identity_trivial_pair_is_fpf():
    f = identity_endo(S3, 1)
    g = trivial_endo(S3, 1)
    v = is_fpf_bruteforce(f, g)
    assert v.is_fpf and v.witness is None
    # and symmetrically
    assert is_fpf_bruteforce(g, f).is_fpf


def test_identity_identity_pair_is_not_fpf():
    f = identity_endo(S3, 2)
    v = is_fpf_bruteforce(f, f)
    assert not v.is_fpf
    assert v.witness is not None and v.witness != (0, 0)
    assert f.apply(v.witness) == f.apply(v.witness)


def test_bruteforce_budget():
    a5 = load_group("a5")  # 60^3 = 216,000 elements, over the scan budget of 10,000
    with pytest.raises(BudgetError, match="216000 elements exceed the scan budget 10000"):
        is_fpf_bruteforce(identity_endo(a5, 3), trivial_endo(a5, 3))


def test_bruteforce_refusal_names_the_graph_routes():
    a5 = load_group("a5")  # no fixed-point-free automorphism: the tree routes apply
    f, g = identity_endo(a5, 3), trivial_endo(a5, 3)
    with pytest.raises(BudgetError, match="is_fpf_by_tree or decide_fpf"):
        is_fpf_bruteforce(f, g)
    assert decide_fpf(f, g).method == "tree-criterion"


def test_bruteforce_refusal_names_no_tree_route_for_an_fpf_automorphism():
    c3 = load_group("c3")  # x -> x^2 fixes only the identity: no tree route applies
    f, g = identity_endo(c3, 9), trivial_endo(c3, 9)
    for decide in (is_fpf_bruteforce, decide_fpf):
        with pytest.raises(BudgetError, match="c3 admits a fixed-point-free automorphism") as err:
            decide(f, g)
        assert "is_fpf_by_tree" not in str(err.value) and "decide_fpf" not in str(err.value)


def test_bruteforce_refuses_a_pair_over_different_powers():
    # The rows of g index the coordinate-image table of its own T^n only.
    for g in (identity_endo(S3, 3), identity_endo(C5, 2)):
        with pytest.raises(ValueError, match="different powers"):
            is_fpf_bruteforce(identity_endo(S3, 2), g)


@pytest.mark.parametrize("name,n,seed", [("s3", 3, 0x5C3), ("a5", 1, 0xA5), ("c5", 2, 0xC52)])
def test_scan_witness_is_the_least_non_identity_agreement(name, n, seed):
    # The reference walks T^n in all_coords (row-major) order in plain
    # Python; C5 has fixed-point-free automorphisms, so its pairs include
    # fpf pairs that no tree criterion decides.
    T = load_group(name)
    endos = list(enumerate_end0(T, n))
    elements = list(itertools.product(range(T.order), repeat=n))[1:]
    rng = random.Random(seed)
    verdicts = set()
    for _ in range(150):
        f, g = rng.choice(endos), rng.choice(endos)
        least = next((x for x in elements if f.apply(x) == g.apply(x)), None)
        v = is_fpf_bruteforce(f, g)
        assert (v.is_fpf, v.witness) == (least is None, least), (f, g)
        verdicts.add(v.is_fpf)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name,n", [("s3", 3), ("a5", 1)])
def test_scan_of_a_pair_whose_rows_all_agree(name, n):
    # No row differs, so every element agrees and the least non-identity
    # one, index 1, is the witness.
    T = load_group(name)
    twisted = StructuredEndo(T, n, tuple(range(n, 0, -1)), (1,) * n)
    for f in (identity_endo(T, n), trivial_endo(T, n), twisted):
        assert is_fpf_bruteforce(f, f) == FpfVerdict(False, "bruteforce", power_coords(T, n, 1))


def test_scan_over_the_trivial_group(tmp_path):
    # T^n has only the identity, which never counts: every pair is fpf.
    path = tmp_path / "c1.txt"
    path.write_text("1\n0\n")
    C1 = load_group(str(path))
    endos = list(enumerate_end0(C1, 2))
    for f, g in itertools.product(endos, endos):
        assert is_fpf_bruteforce(f, g) == FpfVerdict(True, "bruteforce", None)


def test_bruteforce_shares_no_code_with_the_routes_it_checks(monkeypatch):
    endos = list(enumerate_end0(S3, 2))
    pairs = list(itertools.product(endos, endos))
    before = [is_fpf_bruteforce(f, g) for f, g in pairs]

    def forbidden(*args, **kwargs):
        raise RuntimeError("the element scan must not reach this route")

    monkeypatch.setattr("hopfgalois.fpf.plan_for", forbidden)
    monkeypatch.setattr("hopfgalois.census.image_block", forbidden)
    with pytest.raises(RuntimeError, match="must not reach"):
        is_fpf_by_tree(*pairs[0])
    assert [is_fpf_bruteforce(f, g) for f, g in pairs] == before


def _plain_scan(f, g, elements, images):
    """(is_fpf, witness) from the first x in all_coords order, identity
    skipped, with f.apply(x) == g.apply(x); ``images[e]`` lists e.apply(x)
    over ``elements``."""
    least = next((x for x, a, b in zip(elements, images[f], images[g]) if a == b), None)
    return least is None, least


@pytest.mark.parametrize("name,n", [("s3", 2), ("a5", 1)])
def test_scan_matches_a_plain_python_scan_on_every_pair(name, n):
    T = FiniteGroup(load_group(name).mul, name=name)  # a store of this test's own
    endos = list(enumerate_end0(T, n))
    elements = list(itertools.product(range(T.order), repeat=n))[1:]
    images = {e: [e.apply(x) for x in elements] for e in endos}
    for f, g in itertools.product(endos, endos):
        v = is_fpf_bruteforce(f, g)
        assert (v.is_fpf, v.witness) == _plain_scan(f, g, elements, images), (f, g)


def _fresh_s3(tmp_path, stem):
    path = tmp_path / f"{stem}.tbl"
    path.write_text("6\n" + "\n".join(" ".join(map(str, row)) for row in S3.mul) + "\n")
    return load_group(str(path))


def _over(G, e):
    return StructuredEndo(G, e.n, e.theta, e.phis)


def test_scan_store_lives_on_the_group_and_gives_cold_and_warm_verdicts_alike(tmp_path):
    T = _fresh_s3(tmp_path, "first")
    endos = list(enumerate_end0(T, 2))
    pairs = list(itertools.product(endos, endos))
    assert ("agreement_bits", 2) not in T._memo
    cold = [is_fpf_bruteforce(f, g) for f, g in pairs]
    R, store, auts = T._memo["agreement_bits", 2]
    assert (R, len(store)) == (13, 13 * 13)
    assert auts is T.automorphisms()  # the scan's witness check reads them from the store
    # Every pair of distinct rows has been read, so those are all filled.
    assert all(store[a * R + b] is not None for a in range(R) for b in range(R) if a != b)
    assert [is_fpf_bruteforce(f, g) for f, g in pairs] == cold
    # A second group from the same file starts with no store of its own,
    # and a scan there fills only the row and column it reads.
    U = _fresh_s3(tmp_path, "second")
    assert ("agreement_bits", 2) not in U._memo
    i = pairs.index((StructuredEndo(T, 2, (1, 0), (1, None)), StructuredEndo(T, 2, (2, 0), (3, None))))
    f, g = (_over(U, e) for e in pairs[i])
    assert is_fpf_bruteforce(f, g) == cold[i]
    _, fresh, _ = U._memo["agreement_bits", 2]
    a = f.rows[0]  # the second coordinate reads row 0 on both sides
    assert {k for k, bits in enumerate(fresh) if bits is not None} == (
        {a * R + b for b in range(R)} | {b * R + a for b in range(R)}
    )
    # Cold from the other end of the pair list, on a third fresh group.
    V = _fresh_s3(tmp_path, "third")
    moved = [(_over(V, f), _over(V, g)) for f, g in reversed(pairs)]
    assert [is_fpf_bruteforce(f, g) for f, g in moved] == cold[::-1]


def test_scan_witness_check_catches_a_wrong_index(monkeypatch):
    # Decode the index after the first agreeing one: for a pair where that
    # element does not agree, the fused f(x) = g(x) check must refuse it.
    endos = list(enumerate_end0(S3, 2))
    elements = list(itertools.product(range(6), repeat=2))

    def misses_the_next_element(f, g):
        v = is_fpf_bruteforce(f, g)
        if v.is_fpf or v.witness == elements[-1]:
            return False
        nxt = elements[elements.index(v.witness) + 1]
        return f.apply(nxt) != g.apply(nxt)

    f, g = next((f, g) for f in endos for g in endos if misses_the_next_element(f, g))
    monkeypatch.setattr("hopfgalois.fpf.power_coords", lambda T, n, k: power_coords(T, n, k + 1))
    with pytest.raises(RuntimeError, match="does not satisfy f\\(x\\) = g\\(x\\)"):
        is_fpf_bruteforce(f, g)


def test_fused_agreement_check_equals_apply_on_every_element():
    rng = random.Random(0xA6EE)
    endos = list(enumerate_end0(S3, 3))
    elements = list(itertools.product(range(6), repeat=3))
    verdicts, outcomes = set(), set()
    for _ in range(150):
        f, g = rng.choice(endos), rng.choice(endos)
        verdicts.add(is_fpf_bruteforce(f, g).is_fpf)
        for x in elements:
            agree = _agree_at(S3.automorphisms(), f, g, x)
            assert agree == (f.apply(x) == g.apply(x)), (f, g, x)
            outcomes.add(agree)
    assert verdicts == outcomes == {True, False}


def test_verdict_rejects_contradictory_witness():
    with pytest.raises(ValueError):
        FpfVerdict(True, "bruteforce", (1, 0))


def test_verdict_is_a_tuple_that_checks_every_construction():
    v = FpfVerdict(False, "bruteforce", (1, 0))
    assert v == (False, "bruteforce", (1, 0)) and (v.is_fpf, v.method, v.witness) == tuple(v)
    with pytest.raises(ValueError, match="contradicts"):
        v._replace(is_fpf=True)


def test_tree_criterion_matches_bruteforce_exhaustively_n1():
    endos = list(enumerate_end0(S3, 1))
    assert len(endos) == 7
    for f in endos:
        for g in endos:
            tree = is_fpf_by_tree(f, g)
            brute = is_fpf_bruteforce(f, g)
            assert tree.is_fpf == brute.is_fpf, (f.theta, f.phis, g.theta, g.phis)


def test_tree_criterion_matches_bruteforce_sampled_n2():
    rng = random.Random(0xF9F)
    endos = list(enumerate_end0(S3, 2))
    for _ in range(400):
        f, g = rng.choice(endos), rng.choice(endos)
        assert is_fpf_by_tree(f, g).is_fpf == is_fpf_bruteforce(f, g).is_fpf


def test_tree_criterion_matches_bruteforce_sampled_n3():
    rng = random.Random(0x53C)
    endos = list(enumerate_end0(S3, 3))
    for _ in range(2000):
        f, g = rng.choice(endos), rng.choice(endos)
        assert is_fpf_by_tree(f, g).is_fpf == is_fpf_bruteforce(f, g).is_fpf, (f, g)


def test_tree_criterion_refuses_groups_with_fpf_automorphisms():
    with pytest.raises(TreeCriterionError, match="fixed-point-free automorphism"):
        is_fpf_by_tree(identity_endo(C5, 1), trivial_endo(C5, 1))


def test_decide_fpf_picks_the_right_method():
    assert decide_fpf(identity_endo(S3, 1), trivial_endo(S3, 1)).method == "tree-criterion"
    assert decide_fpf(identity_endo(C5, 1), trivial_endo(C5, 1)).method == "bruteforce"


def test_negative_verdicts_carry_verified_witnesses():
    rng = random.Random(0x3117)
    endos = list(enumerate_end0(S3, 2))
    negatives = 0
    while negatives < 60:
        f, g = rng.choice(endos), rng.choice(endos)
        v = is_fpf_by_tree(f, g)
        if v.is_fpf:
            continue
        negatives += 1
        assert v.witness != (0, 0)
        assert f.apply(v.witness) == g.apply(v.witness)


def test_construct_witness_needs_a_usable_component():
    # Over C5 a 2-cycle component whose transport is the doubling map has
    # no non-trivial fixed point, so no witness can be transported.
    doubling = C5.aut_index(tuple(2 * x % 5 for x in range(5)))
    f = StructuredEndo(C5, 2, (1, 2), (0, 0))
    g = StructuredEndo(C5, 2, (2, 1), (doubling, 0))
    assert not is_tree(build_undirected(f.theta, g.theta))
    with pytest.raises(WitnessError, match="no usable component"):
        construct_witness(f, g)
    # and indeed the pair really is fixed point free
    assert is_fpf_bruteforce(f, g).is_fpf


def test_construct_witness_over_the_trivial_group(tmp_path):
    # The order-1 group has no non-identity seed, so neither a loop at
    # vertex 1 nor a tree component on {1, 2} is usable: the answer is
    # WitnessError, not an IndexError or an error from numpy.
    path = tmp_path / "c1.txt"
    path.write_text("1\n0\n")
    C1 = load_group(str(path))
    assert lowest_fixed_points(C1) == (None,)
    loop = StructuredEndo(C1, 1, (1,), (0,))
    f = StructuredEndo(C1, 2, (1, 0), (0, None))
    g = StructuredEndo(C1, 2, (2, 0), (0, None))
    for pair in ((loop, loop), (f, g)):
        with pytest.raises(WitnessError, match="no usable component"):
            construct_witness(*pair)


def test_witness_from_a_unicyclic_component():
    # Same shape over S3: inversion-free transports always fix something.
    f = StructuredEndo(S3, 2, (1, 2), (0, 0))
    g = StructuredEndo(S3, 2, (2, 1), (1, 0))
    w = construct_witness(f, g)
    assert w != (0, 0)
    assert f.apply(w) == g.apply(w)


def _seeded_pairs(n):
    """S3^3: every (theta_f, theta_g), 4096 shapes.  S3^4: 20,000 random
    shapes.  The phis are drawn from one fixed seed either way."""
    rng = random.Random(0x5EED0 + n)
    if n == 3:
        thetas = list(itertools.product(range(4), repeat=3))
        shapes = itertools.product(thetas, thetas)
    else:
        shapes = (
            tuple(tuple(rng.randrange(n + 1) for _ in range(n)) for _ in range(2))
            for _ in range(20000)
        )
    for theta_pair in shapes:
        yield tuple(
            StructuredEndo(S3, n, th, tuple(rng.randrange(6) if t else None for t in th))
            for th in theta_pair
        )


# SHA-256 of repr(list of witnesses) over every non-tree pair with a
# usable component.  S3^2 and A5 run every pair, f outer and g inner in
# enumeration order, recorded from the per-pair graph construction that
# the shape plans replaced.  S3^3 and S3^4 run _seeded_pairs, recorded
# from the lowest-edge cycle walk that the BFS-tree cycle replaced: 48
# rank-3 witnesses sit on a 3-cycle, 429 rank-4 ones on a 3- or 4-cycle.
WITNESS_DIGESTS = {
    ("s3", 2): (24817, "74db6f075d95b131e70c267e29eea63629817ff2c1220c8b148720476cec401b"),
    ("a5", 1): (14401, "df5aeb0305ad9445d7f5a36c535a6e8d209a9747186eacf4ead90b0e934b472b"),
    ("s3", 3): (3328, "aa9fbd246e2a4469240c9aa8d2ff910a1e1c1e41c55ffde7351924187bb2724c"),
    ("s3", 4): (17462, "58597402611f633c89f8ad1a75a05c3e462bbfdc2269dd4a5ec53d0d94af70bf"),
}


@pytest.mark.parametrize("name,n", sorted(WITNESS_DIGESTS))
def test_witnesses_match_the_recorded_digest(name, n):
    if n <= 2:
        endos = list(enumerate_end0(load_group(name), n))
        pairs = itertools.product(endos, endos)
    else:
        pairs = _seeded_pairs(n)
    witnesses = []
    for f, g in pairs:
        if is_tree(build_undirected(f.theta, g.theta)):
            continue
        try:
            w = construct_witness(f, g)
        except WitnessError:
            continue
        # Runs both cycle walks on an element that satisfies them.
        assert check_path_conditions(f, g, w)
        witnesses.append(w)
    count, digest = WITNESS_DIGESTS[name, n]
    assert len(witnesses) == count
    assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == digest


# ── Path conditions ──────────────────────────────────────────────────────


def test_path_conditions_agree_with_direct_equality():
    rng = random.Random(0x9A7B)
    endos2 = list(enumerate_end0(S3, 2))
    endos3 = list(enumerate_end0(S3, 3))
    for endos, n in ((endos2, 2), (endos3, 3)):
        for _ in range(400):
            f, g = rng.choice(endos), rng.choice(endos)
            sigma = tuple(rng.randrange(6) for _ in range(n))
            assert check_path_conditions(f, g, sigma) == (
                f.apply(sigma) == g.apply(sigma)
            )


def test_path_conditions_exhaustive_small_pair():
    f = StructuredEndo(S3, 2, (0, 1), (None, 2))
    g = StructuredEndo(S3, 2, (1, 1), (3, 0))
    hits = [
        sigma
        for sigma in itertools.product(range(6), repeat=2)
        if check_path_conditions(f, g, sigma)
    ]
    direct = [
        sigma
        for sigma in itertools.product(range(6), repeat=2)
        if f.apply(sigma) == g.apply(sigma)
    ]
    assert hits == direct


@pytest.mark.parametrize("sigma", [(1, 1, 1), (1,), (-1, -1), (6, 6), (0, 6)])
def test_path_conditions_refuse_a_malformed_sigma(sigma):
    f = StructuredEndo(S3, 2, (1, 2), (0, 0))
    g = StructuredEndo(S3, 2, (2, 1), (0, 0))
    assert check_path_conditions(f, g, (1, 1))
    with pytest.raises(ValueError, match=r"sigma=.* n = 2 entries in 0\.\.\|T\|-1 = 0\.\.5"):
        check_path_conditions(f, g, sigma)


def test_tree_criterion_matches_bruteforce_on_sampled_a5_squares():
    # The A5^2 counterpart of the A5 randomized cross-check: each scan
    # visits all 3600 elements, inside the default scan budget of 10k.
    a5 = load_group("a5")
    endos = list(enumerate_end0(a5, 2))
    rng = random.Random(0xA5A52)
    verdicts = []
    for _ in range(2000):
        f, g = rng.choice(endos), rng.choice(endos)
        by_tree, by_scan = is_fpf_by_tree(f, g), is_fpf_bruteforce(f, g)
        assert by_tree.is_fpf == by_scan.is_fpf, (f, g)
        verdicts.append(by_tree.is_fpf)
    assert 0 < sum(verdicts) < len(verdicts)
