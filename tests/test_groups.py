"""Multiplication-table groups: validation, catalog, automorphisms, powers."""

import hashlib
import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest

from hol_reference import HolReference, compose_perm
from hopfgalois import endomorphisms, groups, holomorph
from hopfgalois.groups import (
    FiniteGroup,
    GroupValidationError,
    all_coords,
    catalog_names,
    enumerate_homomorphisms,
    find_isomorphism,
    has_fpf_automorphism,
    load_group,
    lowest_fixed_points,
    power_coords,
    power_group,
    power_index,
    subgroup_closure,
)
from hopfgalois.powerlemmas import (
    PowerContext,
    commutator_closure,
    lambda_pair,
    orbit_decompose,
    out_is_solvable,
)

S3 = load_group("s3")
C6 = load_group("c6")
Q8 = load_group("q8")
C2CUBE = Path(__file__).parent / "data" / "c2cube.txt"

# automorphisms() of every catalog group as recorded before the search ran
# on batches over the short generating sequence: the automorphism ids, the
# positions in that list, must not move.
AUT_DIGESTS = {
    "a4": "84af63c054865af8", "a5": "cd30610e0c967fe9", "c10": "da1cd3c2ccc01310",
    "c11": "4dff06a5bfe17228", "c12": "3318ba6afcb6ee15", "c2": "5cc3a6551605a0b4",
    "c3": "f505b8eb8679d81b", "c4": "7be1205822bd0d39", "c5": "2656722d4c303af6",
    "c6": "7d35dfebf60086aa", "c7": "57d1bb6a84f31c88", "c8": "47b6d3a68a1588e0",
    "c9": "e72b836cb9c7414b", "d4": "6ad1f70ec49cbbf5", "d5": "40c9d191a2eb0bba",
    "q8": "526e80a313b607b7", "s3": "ace7daf88f493522", "s4": "6869baa107d9896c",
    "s5": "57a9754d7d7a0d27",
}


# ── Table validation ─────────────────────────────────────────────────────


def test_catalog_basics():
    assert S3.order == 6
    assert C6.order == 6
    assert load_group("a5").order == 60
    assert load_group("d4").order == 8
    assert "s3" in catalog_names()
    # catalog loads are cached by name
    assert load_group("s3") is S3


def _is_even(p):
    return sum(p[i] > p[j] for i, j in itertools.combinations(range(len(p)), 2)) % 2 == 0


# The permutations each permutation catalog group is built from.
CATALOG_PERMS = {
    **{f"s{k}": list(itertools.permutations(range(k))) for k in (3, 4, 5)},
    **{f"a{k}": [p for p in itertools.permutations(range(k)) if _is_even(p)] for k in (4, 5)},
    **{
        f"d{k}": {tuple((s + e * i) % k for i in range(k)) for s in range(k) for e in (1, -1)}
        for k in (4, 5)
    },
}


@pytest.mark.parametrize("name", sorted(CATALOG_PERMS))
def test_permutation_catalog_tables_match_a_per_pair_composition(name):
    # element i is the i-th permutation in sorted order, and i·j applies j first
    perms = sorted(CATALOG_PERMS[name])
    index = {p: i for i, p in enumerate(perms)}
    want = [[index[compose_perm(a, b)] for b in perms] for a in perms]
    assert load_group(name).mul == tuple(map(tuple, want))


def test_identity_and_inverses():
    for G in (S3, C6, Q8):
        assert G.mul[0] == tuple(range(G.order))
        for x in range(G.order):
            assert G.mul[x][G.inv[x]] == 0
            assert G.mul[G.inv[x]][x] == 0


def test_rejects_non_square_table():
    with pytest.raises(GroupValidationError, match="not square"):
        FiniteGroup([[0, 1], [1]])


def test_table_entries_are_plain_ints_from_any_container():
    arr = np.array(S3.mul, dtype=np.int64)
    built = [FiniteGroup(table) for table in (arr, tuple(map(tuple, arr.tolist())), arr.tolist())]
    assert all(G.mul == S3.mul for G in built)
    assert all(type(v) is int for G in built for row in G.mul for v in row)


def test_table_group_keeps_its_own_read_only_copy():
    arr = np.array(S3.mul, dtype=np.int64)
    G = FiniteGroup(arr)
    arr[1] = arr[2]
    assert G.mul == S3.mul and (G.np_mul == np.array(S3.mul)).all()
    assert not G.np_mul.flags.writeable and not np.shares_memory(G.np_mul, arr)
    # the builders that hand their int64 arrays straight in give the same groups
    hol = holomorph.holomorph_of(FiniteGroup(S3.mul))
    for H in (power_group(FiniteGroup(S3.mul), 2), hol.as_table_group(),
              hol.subgroup_table_group(HolReference(hol.group).lambda_image())):
        ref = FiniteGroup(H.np_mul.tolist())
        assert (H.mul, H.inv) == (ref.mul, ref.inv) and (H.np_mul == ref.np_mul).all()
        assert all(type(v) is int for row in H.mul for v in row)


def test_memo_builds_once_from_the_given_arguments_and_keeps_no_failed_build():
    G, calls = FiniteGroup(S3.mul), []

    def build(*args):
        calls.append(args)
        return object()

    value = G.memo("probe", build, G, 3)
    assert calls == [(G, 3)]  # the arguments reach build on a miss
    assert G.memo("probe", build, G, 4) is value and len(calls) == 1

    def refuse(n):
        raise ValueError(f"refused {n}")

    with pytest.raises(ValueError, match="refused 5"):
        G.memo("refused", refuse, 5)
    assert "refused" not in G._memo
    assert G.memo("refused", build) is not value and calls[-1] == ()


def test_rejects_bad_identity():
    with pytest.raises(GroupValidationError, match="identity"):
        FiniteGroup([[1, 0], [0, 1]])


def test_rejects_bad_identity_column():
    with pytest.raises(GroupValidationError, match=r"identity violated: mul\[1\]\[0\] = 0, expected 1"):
        FiniteGroup([[0, 1], [0, 1]])


def test_rejects_closure_violation():
    with pytest.raises(GroupValidationError, match="closure"):
        FiniteGroup([[0, 1], [1, 7]])


def test_rejects_broken_associativity():
    # Rows and columns are Latin (every element appears once), identity
    # is fine, but (1·1)·2 != 1·(1·2): this is a quasigroup, not a group.
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(GroupValidationError, match="associativity|inverse"):
        FiniteGroup(table)


def test_rejects_a_loop_that_random_triples_miss():
    # The XOR table of C2^9 with one intercalate swapped: rows 1 and 6 by
    # columns 170 and 173 (1 ^ 6 = 170 ^ 173 = 7, no entry is 0).  It is
    # still a Latin square with identity 0 and x·x = 0, so only
    # associativity fails, at 8144 of the 512^3 triples; 100,000 uniform
    # triples from numpy's default_rng(0) miss every one of them.
    m = 512
    table = [[x ^ y for y in range(m)] for x in range(m)]
    for x, y in ((1, 170), (1, 173), (6, 170), (6, 173)):
        table[x][y] ^= 7
    with pytest.raises(GroupValidationError, match="associativity"):
        FiniteGroup(table)


def test_file_round_trip(tmp_path):
    path = tmp_path / "c3.tbl"
    body = "3\n" + "\n".join(" ".join(str(C3_MUL[x][y]) for y in range(3)) for x in range(3))
    path.write_text(body + "\n")
    G = load_group(str(path))
    assert G.order == 3
    assert G.name == "c3"
    assert find_isomorphism(G, load_group("c3")) is not None


C3_MUL = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


def test_file_rejects_corrupt_table(tmp_path):
    path = tmp_path / "broken.tbl"
    path.write_text("2\n0 1\n1 1\n")
    with pytest.raises(GroupValidationError):
        load_group(str(path))
    path.write_text("3\n0 1 2\n1 2 0\n")
    with pytest.raises(GroupValidationError, match="expected 3 table rows"):
        load_group(str(path))


@pytest.mark.parametrize(
    "body,complaint",
    [
        ("\n  \n", "empty file"),
        ("three\n0\n", "line 1 must be the group order"),
        ("0\n", "order must be positive, got 0"),
        ("2\n0 1\n1\n", "row 1 has 1 entries, expected 2"),
        ("2\n0 1\n1 x\n", "row 1 contains a non-integer"),
        # past int64: the same refusal as any other out-of-range entry
        ("2\n0 1\n1 99999999999999999999\n", r"mul\[1\]\[1\] = 99999999999999999999 is outside 0\.\.1"),
        ("2\n0 -99999999999999999999\n1 0\n", r"mul\[0\]\[1\] = -99999999999999999999 is outside"),
    ],
)
def test_file_parser_names_the_malformed_line(tmp_path, body, complaint):
    path = tmp_path / "bad.tbl"
    path.write_text(body)
    with pytest.raises(GroupValidationError, match=complaint):
        load_group(str(path))


def test_unknown_source_is_an_error():
    with pytest.raises(GroupValidationError, match="not a catalog name"):
        load_group("definitely-not-a-group")


# ── Element structure ────────────────────────────────────────────────────


def _powers_reference(G):
    """Each x's order, and whether x is the least generator of <x>, from
    the scalar powers x, x^2, ..., 1: x^k generates <x> when gcd(k, order)
    is 1."""
    orders, least = [], []
    for x in range(G.order):
        powers = [x]
        while powers[-1]:
            powers.append(G.mul[powers[-1]][x])
        k = len(powers)
        orders.append(k)
        least.append(all(y >= x for i, y in enumerate(powers, 1) if math.gcd(i, k) == 1))
    return tuple(orders), least


def test_element_orders():
    assert sorted(S3.element_orders()) == [1, 2, 2, 2, 3, 3]
    assert sorted(C6.element_orders()) == [1, 2, 3, 3, 6, 6]
    assert sorted(Q8.element_orders()) == [1, 2, 4, 4, 4, 4, 4, 4]
    # every catalog group (c2-c12 give every cyclic order), a power and a holomorph table
    hol_s4 = holomorph.holomorph_of(load_group("s4")).as_table_group()
    for G in (*map(load_group, catalog_names()), power_group(S3, 3), hol_s4):
        orders, least = _powers_reference(G)
        assert G.element_orders() == orders, G.name
        assert all(type(k) is int for k in G.element_orders())
        assert G.least_generators().tolist() == least, G.name
    assert sum(load_group("c12").least_generators()) == 6  # one per divisor of 12


# Every search yields its maps in the order of the generating sequence, and
# `hol verify-s3-lemmas` keeps a prefix of the crossed maps of S3^2, so its
# golden file depends on the pair (7, 15): of 16 other generating pairs of
# S3^2, 11 changed 32 to 40 of the suite's 308 rows.
GENERATING_SEQUENCES = {
    "a4": (1, 3), "a5": (1, 15), "d4": (1, 2), "d5": (1, 2), "q8": (2, 4),
    "s3": (1, 2), "s4": (1, 8), "s5": (1, 32),
    **{f"c{k}": (1,) for k in range(2, 13)},
}


def test_generating_sequences_are_pinned():
    pinned = {name: load_group(name).generating_sequence() for name in catalog_names()}
    assert pinned == GENERATING_SEQUENCES
    s3_cube = power_group(S3, 3)
    more = {  # no generating pair in S3^3, D4^2, Q8^2 or C2^3: the closure sequence
        power_group(S3, 2): (7, 15),
        s3_cube: (1, 2, 6, 12, 36, 72),
        power_group(load_group("a4"), 2): (13, 40),
        power_group(load_group("d4"), 2): (1, 2, 8, 16),
        power_group(Q8, 2): (1, 2, 4, 8, 16, 32),
        groups.automorphism_table_group(load_group("a5")): (1, 21),
        load_group(C2CUBE): (1, 2, 4),
    }
    assert {G.name: G.generating_sequence() for G in more} == {G.name: v for G, v in more.items()}
    assert s3_cube._closure_sequence() == (1, 2, 6, 12, 36, 72)
    # right products of the closure sequence (subgroup_closure's walk) reach every element
    for G in [*map(load_group, catalog_names()), *more]:
        assert len(subgroup_closure(G, G._closure_sequence())) == G.order


def _first_generating_pair(G):
    """Reference for the pruned pair scan: every pair in index order."""
    for pair in itertools.combinations(range(1, G.order), 2):
        if len(subgroup_closure(G, pair)) == G.order:
            return pair
    return None


@pytest.mark.parametrize("name", [*catalog_names(), "s3^2", "a4^2", "c2cube"])
def test_pair_scan_returns_the_first_generating_pair(name):
    G = load_group(C2CUBE if name == "c2cube" else name.split("^")[0])
    G = power_group(G, 2) if "^" in name else G
    orders = G.element_orders()
    want = (
        (orders.index(G.order),) if G.order in orders
        else _first_generating_pair(G) or G._closure_sequence()
    )
    assert G._find_generators() == want


def test_center_and_abelian():
    # |Z(G)| = |G| / |Inn(G)|: S3 has a trivial center, Q8 one of order 2
    assert S3.order // len(S3.inner_automorphism_ids()) == 1
    assert Q8.order // len(Q8.inner_automorphism_ids()) == 2
    assert C6.is_abelian()
    assert not S3.is_abelian()


def test_conjugation_is_an_automorphism():
    for g in range(S3.order):
        images = S3.conjugation_images(g)
        assert images in S3.automorphisms()
        assert S3.automorphisms()[S3.conjugation_aut_id(g)] == images


# ── Automorphisms and homomorphisms ──────────────────────────────────────


def test_automorphism_counts():
    assert len(S3.automorphisms()) == 6
    assert len(C6.automorphisms()) == 2
    assert len(Q8.automorphisms()) == 24
    assert len(load_group("d4").automorphisms()) == 8
    assert len(load_group("c2").automorphisms()) == 1
    # textbook orders: Aut(A4) = Aut(S4) = S4, Aut(D5) = Hol(C5),
    # Aut(A5) = Aut(S5) = S5
    for name, count in (("a4", 24), ("d5", 20), ("s4", 24), ("a5", 120), ("s5", 120)):
        assert len(load_group(name).automorphisms()) == count


def test_aut_id_zero_is_identity():
    for G in (S3, C6, Q8):
        assert G.automorphisms()[0] == tuple(range(G.order))


def test_aut_index_round_trip():
    for i, a in enumerate(S3.automorphisms()):
        assert S3.aut_index(a) == i
    with pytest.raises(ValueError):
        S3.aut_index(tuple([0] * 6))
    arr = S3.aut_array()
    assert [tuple(map(int, row)) for row in arr] == list(S3.automorphisms())
    assert not arr.flags.writeable


@pytest.mark.parametrize("name", catalog_names())
def test_automorphism_ids_match_the_recorded_digests(name):
    text = "\n".join(" ".join(map(str, a)) for a in load_group(name).automorphisms())
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == AUT_DIGESTS[name]


def test_bijective_search_finds_every_automorphism_of_c2cube():
    # GL(3, 2) has order 168; the bijective search prunes repeats level by
    # level and must keep exactly the bijective homomorphisms.
    G = load_group(C2CUBE)
    bijective = {h for h in enumerate_homomorphisms(G, G) if len(set(h)) == G.order}
    assert len(G.automorphisms()) == len(bijective) == 168
    assert set(G.automorphisms()) == bijective


def test_inner_automorphisms():
    # S3 is centerless so conjugation is faithful: all 6 auts are inner.
    assert len(S3.inner_automorphism_ids()) == 6
    # Q8 has center of order 2: 4 inner auts out of 24.
    assert len(Q8.inner_automorphism_ids()) == 4
    assert C6.inner_automorphism_ids() == (0,)


def test_hom_counts():
    c2 = load_group("c2")
    assert len(list(enumerate_homomorphisms(C6, c2))) == 2
    # maps factor through the abelianization S3 -> C2 -> C6
    assert len(list(enumerate_homomorphisms(S3, C6))) == 2
    # identity plus one per involution of S3
    assert len(list(enumerate_homomorphisms(c2, S3))) == 4
    # no element of S3 has order 6, so the bijective search has no candidate
    assert list(enumerate_homomorphisms(C6, S3, bijective=True)) == []


@pytest.mark.parametrize(
    "src_name, dst_name", [("c6", "s3"), ("s3", "d4"), ("d4", "s3"), ("q8", "s3"), ("a4", "s3")]
)
def test_homs_match_a_brute_force_over_generator_images(src_name, dst_name):
    src, dst = load_group(src_name), load_group(dst_name)
    gens = src.generating_sequence()
    smul, dmul = np.array(src.mul), np.array(dst.mul)
    kept = []
    for images in itertools.product(range(dst.order), repeat=len(gens)):
        # Extend by breadth-first search over right multiplication by gens.
        img = np.full(src.order, -1)
        img[0] = 0
        queue = [0]
        for x in queue:
            for g, y in zip(gens, images):
                if img[smul[x, g]] < 0:
                    img[smul[x, g]] = dmul[img[x], y]
                    queue.append(int(smul[x, g]))
        assert len(queue) == src.order
        # Keep the map iff it is a homomorphism on all |src|^2 pairs.
        if (img[list(gens)] == images).all() and (img[smul] == dmul[img[:, None], img]).all():
            kept.append(tuple(img.tolist()))
    assert kept  # the trivial map is always kept
    assert sorted(enumerate_homomorphisms(src, dst)) == sorted(kept)


def test_homs_are_really_homomorphisms():
    rng = random.Random(0x5E11)
    for f in enumerate_homomorphisms(S3, Q8):
        for _ in range(20):
            x, y = rng.randrange(6), rng.randrange(6)
            assert f[S3.mul[x][y]] == Q8.mul[f[x]][f[y]]


def test_find_isomorphism_on_relabeled_table():
    # Relabel C6 by a permutation fixing the identity; the search must
    # still see through it.
    perm = [0, 3, 5, 1, 4, 2]
    inv = [perm.index(i) for i in range(6)]
    mul = [[perm[C6.mul[inv[x]][inv[y]]] for y in range(6)] for x in range(6)]
    H = FiniteGroup(mul, name="c6-relabeled")
    images = find_isomorphism(C6, H)
    assert images is not None
    for x in range(6):
        for y in range(6):
            assert images[C6.mul[x][y]] == H.mul[images[x]][images[y]]
    assert find_isomorphism(S3, C6) is None


def test_fixed_point_free_automorphisms():
    c5 = load_group("c5")
    doubling = c5.aut_index(tuple(2 * x % 5 for x in range(5)))
    assert lowest_fixed_points(c5)[doubling] is None  # x = 2x only at 0
    assert has_fpf_automorphism(c5)
    # These are the targets the tree criterion needs: no fpf automorphism.
    assert not has_fpf_automorphism(S3)
    assert not has_fpf_automorphism(C6)
    assert not has_fpf_automorphism(load_group("a5"))


# ── Direct powers ────────────────────────────────────────────────────────


def test_power_group_shape():
    G = power_group(S3, 2)
    assert G.order == 36
    assert power_group(S3, 1) is S3
    assert power_group(S3, 2) is G  # cached


def test_power_index_round_trip():
    rng = random.Random(0xA0)
    for _ in range(50):
        coords = tuple(rng.randrange(6) for _ in range(3))
        assert power_coords(S3, 3, power_index(S3, coords)) == coords
    rows = all_coords(S3, 3)
    assert rows.shape == (216, 3) and not rows.flags.writeable
    assert [tuple(r) for r in rows.tolist()] == [power_coords(S3, 3, k) for k in range(216)]
    assert (power_index(S3, rows.T) == range(216)).all()


def test_power_multiplication_is_componentwise():
    G = power_group(S3, 2)
    rng = random.Random(7)
    for _ in range(100):
        a = tuple(rng.randrange(6) for _ in range(2))
        b = tuple(rng.randrange(6) for _ in range(2))
        k = G.mul[power_index(S3, a)][power_index(S3, b)]
        assert power_coords(S3, 2, k) == tuple(S3.mul[x][y] for x, y in zip(a, b))


@pytest.fixture
def colliding_ids(monkeypatch):
    """Every id() in the modules that build derived data returns 0, so a
    cache keyed on id() would hand one group's data to the next."""
    for module in (groups, endomorphisms, holomorph):
        monkeypatch.setattr(module, "id", lambda obj: 0, raising=False)


def test_power_and_holomorph_belong_to_their_own_group(colliding_ids):
    c6_copy = FiniteGroup(C6.mul, name="c6copy")
    assert power_group(c6_copy, 2).is_abelian()
    assert holomorph.holomorph_of(c6_copy).group is c6_copy
    s3_copy = FiniteGroup(S3.mul, name="s3copy")
    P = power_group(s3_copy, 2)
    assert P.name == "s3copy^2"
    assert not P.is_abelian()
    assert holomorph.holomorph_of(s3_copy).group is s3_copy


def test_all_coords_belongs_to_its_own_group(colliding_ids):
    assert all_coords(FiniteGroup(C6.mul), 2).shape == (36, 2)
    assert all_coords(load_group("c5"), 2).shape == (25, 2)


# ── Subgroup machinery ───────────────────────────────────────────────────


def test_subgroup_closure():
    rot = next(x for x in range(6) if S3.element_orders()[x] == 3)
    assert len(subgroup_closure(S3, [rot])) == 3
    assert len(subgroup_closure(S3, [0])) == 1


def _two_sided_closure(G, seed):
    """Reference: multiply every element found by every other, on both
    sides, until nothing new appears."""
    have = {0, *seed}
    while True:
        new = {G.mul[x][y] for x in have for y in have} - have
        if not new:
            return tuple(sorted(have))
        have |= new


@pytest.mark.parametrize("name", ["s3", "d4", "q8", "a4", "s4", "a5"])
def test_subgroup_closure_walk_equals_the_two_sided_closure(name):
    G, rng = load_group(name), random.Random(f"closure-{name}")
    for _ in range(40):
        seed = rng.sample(range(G.order), rng.randint(0, 3))
        want = _two_sided_closure(G, seed)
        assert subgroup_closure(G, seed) == want


def test_commutator_and_quotient():
    derived = commutator_closure(S3, range(6))
    assert len(derived) == 3
    assert S3.order // len(derived) == 2  # S3 / [S3, S3] is C2


def _normal_closure_order(G, x):
    return len(subgroup_closure(G, {G.conjugation_images(g)[x] for g in range(G.order)}))


def test_solvability_and_simplicity():
    a5 = load_group("a5")
    # Out(T) = Aut(T)/Inn(T): trivial for s3, S3 for q8, C2 for a5, GL(3,2) for C2^3
    assert out_is_solvable(S3)
    assert out_is_solvable(Q8)
    assert out_is_solvable(a5)
    assert not out_is_solvable(load_group(Path(__file__).parent / "data" / "c2cube.txt"))
    # simple: every element other than 1 has the whole group as normal closure
    assert all(_normal_closure_order(a5, x) == 60 for x in range(1, 60))
    rot = next(x for x in range(6) if S3.element_orders()[x] == 3)
    assert _normal_closure_order(S3, rot) == 3


def test_prime_subgroup_choices():
    pair = lambda_pair(PowerContext(S3, 2))
    for variant in (0, 1):  # a second order-3 element exists
        decomp = orbit_decompose(pair, 3, variant)
        assert decomp.fixed == (1, 2) and decomp.m == 0
    with pytest.raises(ValueError, match="not prime"):
        orbit_decompose(pair, 4)
    with pytest.raises(ValueError, match="does not divide"):
        orbit_decompose(pair, 5)
    with pytest.raises(ValueError, match="variant"):
        orbit_decompose(pair, 3, variant=9)
