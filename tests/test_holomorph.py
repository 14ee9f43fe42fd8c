"""Holomorphs, regular subgroups, pair parametrization, and the
structure lemmas over direct powers."""

import hashlib
import json
import random
import re
import time
from pathlib import Path

import numpy as np
import pytest

from hopfgalois.census import brute_F, formula_Einn
from hopfgalois.endomorphisms import enumerate_end0, identity_endo, trivial_endo
from hopfgalois.fpf import FpfVerdict, construct_witness, decide_fpf, is_fpf_by_tree
from hopfgalois.groups import (
    BudgetError,
    FiniteGroup,
    automorphism_table_group,
    compose_perm,
    crossed_homomorphisms,
    enumerate_homomorphisms,
    find_isomorphism,
    load_group,
    power_coords,
    power_group,
    power_index,
    subgroup_closure,
)
from hopfgalois.holomorph import (
    HolElement,
    _subgroups_dividing,
    byott_translate,
    classify_inn_out,
    enumerate_regular_subgroups,
    fpf_pair_to_subgroup,
    holomorph_of,
    regular_subgroups_oracle,
)
from hopfgalois.powerlemmas import (
    FGPair,
    PowerContext,
    _relation_by_coordinate,
    _suite_pairs,
    check_out_prop1,
    check_rank_bounds,
    check_relations_lemma,
    lambda_pair,
    orbit_decompose,
    orbit_decompose_from_thetas,
    rho_pair,
    run_power_lemma_suite,
)

S3 = load_group("s3")
C4 = load_group("c4")
GOLDEN = Path(__file__).parent / "data" / "hol_s3_regulars.json"


# ── Holomorph group structure ────────────────────────────────────────────


def test_holomorph_order():
    hol = holomorph_of(S3)
    assert hol.order == 36
    assert hol.aut_count == 6
    assert holomorph_of(S3) is hol  # cached per group


def test_group_laws_on_random_triples():
    hol = holomorph_of(S3)
    rng = random.Random(0x401)
    elems = [hol.element_of_index(rng.randrange(36)) for _ in range(60)]
    for _ in range(2000):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert hol.compose(hol.compose(a, b), c) == hol.compose(a, hol.compose(b, c))
    for e in elems:
        assert hol.compose(e, hol.inverse(e)) == hol.identity
        assert hol.compose(hol.inverse(e), e) == hol.identity
        assert hol.compose(e, hol.identity) == e


def test_action_is_by_bijections_and_composes():
    hol = holomorph_of(S3)
    rng = random.Random(0xAC7)
    for _ in range(200):
        e1 = hol.element_of_index(rng.randrange(36))
        e2 = hol.element_of_index(rng.randrange(36))
        x = rng.randrange(6)
        assert hol.action(hol.compose(e1, e2), x) == hol.action(e1, hol.action(e2, x))
    images = {hol.action(e1, x) for x in range(6)}
    assert images == set(range(6))


def test_element_index_round_trip():
    hol = holomorph_of(S3)
    for k in range(36):
        assert hol.index_of_element(hol.element_of_index(k)) == k


def test_lambda_rho_are_embeddings():
    hol = holomorph_of(S3)
    for s in range(6):
        for t in range(6):
            st = S3.mul[s][t]
            assert hol.compose(hol.lambda_embed(s), hol.lambda_embed(t)) == hol.lambda_embed(st)
            assert hol.compose(hol.rho_embed(s), hol.rho_embed(t)) == hol.rho_embed(st)
            # left and right translations commute elementwise
            assert hol.compose(hol.lambda_embed(s), hol.rho_embed(t)) == hol.compose(
                hol.rho_embed(t), hol.lambda_embed(s)
            )


def test_lambda_rho_coincide_exactly_for_abelian():
    hol_ab = holomorph_of(C4)
    assert hol_ab.lambda_image() == hol_ab.rho_image()
    hol = holomorph_of(S3)
    assert hol.lambda_image() != hol.rho_image()


def test_lambda_and_rho_images_are_regular():
    for G in (S3, C4):
        hol = holomorph_of(G)
        assert hol.is_regular(hol.lambda_image())
        assert hol.is_regular(hol.rho_image())


def test_non_regular_subgroup_is_rejected_by_both_tests():
    hol = holomorph_of(S3)
    # The automorphism-part subgroup {(0, phi)} fixes the identity of S3.
    stab = frozenset(HolElement(0, a) for a in range(6))
    by_xi, by_orbit = hol.regularity_tests(stab)
    assert by_xi == by_orbit == False  # noqa: E712
    assert not hol.is_regular(stab)


def test_closure_checks_reject_non_subgroups():
    hol = holomorph_of(S3)
    broken = {hol.element_of_index(1), hol.element_of_index(7)}
    for check in (hol.is_regular, hol.subgroup_table_group):
        with pytest.raises(ValueError):
            check(broken)


# Plain-Python references for the set-level checks, from the scalar
# compose, action and xi alone.


def _reference_escapes(hol, elements):
    """Pairs of elements whose product leaves the set."""
    eset = set(elements)
    return {(e1, e2) for e1 in eset for e2 in eset if hol.compose(e1, e2) not in eset}


def _reference_regularity(hol, elements):
    elements = list(elements)
    m = hol.group.order
    by_xi = len(elements) == m and len({hol.xi(e) for e in elements}) == m
    transitive = len({hol.action(e, 0) for e in elements}) == m
    free = all(
        hol.action(e, x) != x for e in elements if e != hol.identity for x in range(m)
    )
    return by_xi, transitive and free and len(elements) == m


def _reference_closure(hol, seed):
    have = {hol.identity, *seed}
    work = list(have)
    while work:
        x = work.pop()
        for y in list(have):
            for z in (hol.compose(x, y), hol.compose(y, x)):
                if z not in have:
                    have.add(z)
                    work.append(z)
    return have


def _candidate_sets(hol, rng):
    """Closed subgroups (lambda, rho and small random closures), each also
    with one element removed, one added, one swapped for an element with
    the same translation part, the identity removed, and as a list with a
    repeat."""
    subgroups = [set(hol.lambda_image()), set(hol.rho_image())]
    while len(subgroups) < 8:
        seed = [hol.element_of_index(rng.randrange(hol.order)) for _ in range(rng.randint(1, 2))]
        sub = _reference_closure(hol, seed)
        if len(sub) < min(48, hol.order):
            subgroups.append(sub)
    for sub in subgroups:
        ordered = sorted(sub)
        outside = [e for e in map(hol.element_of_index, range(hol.order)) if e not in sub]
        yield ordered
        if len(ordered) > 1:
            dropped = rng.choice(ordered[1:])
            yield [e for e in ordered if e != dropped]
        yield ordered + [rng.choice(outside)]
        swaps = [(e, o) for e in ordered[1:] for o in outside if o.trans == e.trans]
        if swaps:
            gone, new = rng.choice(swaps)
            yield [e for e in ordered if e != gone] + [new]
        yield ordered[1:]
        yield ordered + [rng.choice(ordered)]


@pytest.mark.parametrize("name", ["s3", "d4", "a4"])
def test_set_checks_agree_with_the_scalar_reference(name):
    hol = holomorph_of(load_group(name))
    rng = random.Random(f"set-checks-{name}")
    for elements in _candidate_sets(hol, rng):
        assert hol.regularity_tests(elements) == _reference_regularity(hol, elements)
        escapes = _reference_escapes(hol, elements)
        closure_checks = (hol.is_regular, hol.subgroup_table_group)
        if hol.identity not in elements:
            for check in closure_checks:
                with pytest.raises(ValueError, match="identity"):
                    check(elements)
        elif escapes:
            for check in closure_checks:
                with pytest.raises(ValueError, match="escapes") as err:
                    check(elements)
                named = re.findall(r"HolElement\(trans=(\d+), aut=(\d+)\)", str(err.value))
                e1, e2 = (HolElement(int(t), int(a)) for t, a in named)
                assert (e1, e2) in escapes
        else:
            assert hol.is_regular(elements) == _reference_regularity(hol, elements)[0]
            table = hol.subgroup_table_group(elements)
            ordered = sorted(set(elements))
            for i, e1 in enumerate(ordered):
                for j, e2 in enumerate(ordered):
                    assert ordered[table.mul[i][j]] == hol.compose(e1, e2)
    full = hol.as_table_group()
    for k in range(hol.order):
        e1 = hol.element_of_index(k)
        assert full.mul[k] == tuple(
            hol.index_of_element(hol.compose(e1, hol.element_of_index(l)))
            for l in range(hol.order)
        )


def test_table_group_and_subgroup_extraction():
    hol = holomorph_of(S3)
    table = hol.as_table_group()
    assert table.order == 36
    sub = hol.subgroup_table_group(hol.lambda_image())
    assert sub.order == 6
    assert find_isomorphism(sub, S3) is not None


@pytest.mark.parametrize("name", ["s4", "a5", "s3^2"])
def test_aut_table_entries_are_the_compositions(name):
    # fresh groups, so each table is built here; auts[i] ∘ auts[j], from aut_array alone
    s3 = FiniteGroup(S3.mul, name="s3")
    N = power_group(s3, 2) if name == "s3^2" else FiniteGroup(load_group(name).mul, name=name)
    auts = N.aut_array()
    table = np.array(automorphism_table_group(N).mul)
    assert (auts[table] == auts[:, auts]).all()


def test_automorphism_table_group():
    for name, iso in (("s3", "s3"), ("q8", "s4")):  # Aut(S3) = S3, Aut(Q8) = S4
        N = load_group(name)
        aut = automorphism_table_group(N)
        assert automorphism_table_group(N) is aut  # built once, kept on N
        assert find_isomorphism(aut, load_group(iso)) is not None
        auts = N.automorphisms()
        for i, a in enumerate(auts):
            for j, b in enumerate(auts):
                assert aut.mul[i][j] == N.aut_index(compose_perm(a, b))
            assert compose_perm(a, auts[aut.inv[i]]) == auts[0] == tuple(range(N.order))


# ── Crossed homomorphisms ────────────────────────────────────────────────


def test_crossed_homs_for_trivial_f_are_plain_endomorphisms():
    auts = np.array(S3.automorphisms(), dtype=np.int64)
    F = auts[np.zeros(6, dtype=np.int64)]  # f constantly the identity
    crossed = sorted(crossed_homomorphisms(S3, F))
    plain = sorted(enumerate_homomorphisms(S3, S3))
    assert crossed == plain
    assert len(crossed) == 10


@pytest.mark.parametrize("name, hom_count", [("s3", 10), ("c6", 2)])
def test_crossed_homs_are_exactly_the_maps_obeying_the_crossed_law(name, hom_count):
    N = load_group(name)
    m, mul = N.order, N.np_mul
    auts = np.array(N.automorphisms(), dtype=np.int64)
    # Every map g with g(1) = 1, one per row: 6^5 candidates.
    maps = np.zeros((m ** (m - 1), m), dtype=np.int64)
    maps[:, 1:] = np.indices((m,) * (m - 1)).reshape(m - 1, -1).T
    s = np.arange(m)[:, None]
    homs = list(enumerate_homomorphisms(N, automorphism_table_group(N)))
    assert len(homs) == hom_count
    for f in homs:
        F = auts[np.array(f)]  # row s is the permutation f(s)
        lhs = maps[:, mul]  # [k, s, t] -> g_k(st)
        rhs = mul[maps[:, :, None], F[s, maps[:, None, :]]]  # g_k(s)·f(s)(g_k(t))
        lawful = maps[(lhs == rhs).all(axis=(1, 2))]
        expected = sorted(tuple(row) for row in lawful.tolist())
        assert expected  # g = 1 is always crossed
        assert sorted(crossed_homomorphisms(N, F)) == expected


def _generator_images(maps, gens):
    return [tuple(m[x] for x in gens) for m in maps]


@pytest.mark.parametrize("name", ["s3", "a4", "s4"])
def test_crossed_homs_come_out_in_lexicographic_order_of_generator_images(name):
    # The lemma suite keeps a prefix of this order and find_isomorphism its
    # first element; every candidate is an element, so position = value.
    N = load_group(name)
    gens = N.generating_sequence()
    for f in enumerate_homomorphisms(N, automorphism_table_group(N)):
        keys = _generator_images(crossed_homomorphisms(N, N.aut_array()[list(f)]), gens)
        assert keys == sorted(set(keys))


def test_homs_come_out_in_lexicographic_order_over_three_levels():
    # c2cube needs three generators; each goes to an element of s3 whose
    # order divides 2, candidates ascending: the identity and the three
    # involutions, and a hom is trivial or onto one involution's C2.
    c2cube = load_group(GOLDEN.parent / "c2cube.txt")
    gens = c2cube.generating_sequence()
    assert len(gens) == 3
    keys = _generator_images(enumerate_homomorphisms(c2cube, S3), gens)
    assert keys == sorted(set(keys))
    assert len(keys) == 1 + 3 * 7


def test_crossed_homs_refuse_an_action_that_is_not_a_homomorphism():
    C6 = load_group("c6")
    auts = np.array(C6.automorphisms(), dtype=np.int64)
    # Every row the inversion automorphism: f(1·g) = f(g) but f(1)∘f(g) = id.
    with pytest.raises(ValueError, match="f is not a homomorphism"):
        crossed_homomorphisms(C6, auts[np.ones(6, dtype=np.int64)])
    # Every row the same bijection that swaps 1 and 2, which breaks products.
    swap = np.array([0, 2, 1, 3, 4, 5])
    with pytest.raises(ValueError, match="is not an automorphism of c6"):
        crossed_homomorphisms(C6, np.tile(swap, (6, 1)))


# ── Regular subgroup enumeration against the golden oracle ──────────────


def test_golden_file_is_reproduced_by_the_oracle():
    golden = json.loads(GOLDEN.read_text())
    keys, stats = regular_subgroups_oracle(S3, with_stats=True)
    assert stats["subgroups_of_order"] == golden["order6_subgroups"]
    assert stats["regular"] == golden["regular_order6"]
    got = [
        {
            "elements": [[e.trans, e.aut] for e in key],
            "classification": classify_inn_out(holomorph_of(S3), key),
        }
        for key in keys
    ]
    assert got == golden["regular_iso_s3"]


@pytest.mark.parametrize("name, built, regular", [("d4", 6, 20), ("s3", 2, 8), ("c6", 1, 2)])
def test_oracle_builds_only_subgroups_with_the_targets_element_orders(monkeypatch, name, built, regular):
    N = FiniteGroup(load_group(name).mul, name=name)  # fresh, so Hol(N)'s table is built here
    enumerated = [s.elements for s in enumerate_regular_subgroups(N)]
    names = []

    def counting(mul, name="?"):
        names.append(name)
        return FiniteGroup(mul, name)

    monkeypatch.setattr("hopfgalois.holomorph.FiniteGroup", counting)
    kept, stats = regular_subgroups_oracle(N, with_stats=True)
    assert kept == enumerated and stats["regular"] == regular
    assert names == [f"Hol({name})"] + [f"sub{N.order}-of-Hol({name})"] * built


def test_enumeration_agrees_with_the_oracle_live():
    subs = enumerate_regular_subgroups(S3)
    oracle = regular_subgroups_oracle(S3)
    assert [s.elements for s in subs] == oracle
    assert all(s.classification == "inn" for s in subs)
    assert len(subs) == 2
    for name in ("c2", "c8", "c9", "d4", "q8", "d5", "a4"):  # Aut(c2) is trivial
        G = load_group(name)
        assert [s.elements for s in enumerate_regular_subgroups(G)] == regular_subgroups_oracle(G)


# enumerate_regular_subgroups as recorded before the search ran on batches
# over the short generating sequence; only s3 is pinned element by element
# elsewhere (the oracle and holomorph_tour.txt).
REGULAR_DIGESTS = {
    "d4": "c980415730a946ca", "q8": "afffa449b74dc16d", "a4": "3478b423f55ab6fe",
    "s4": "1d0128387da89131", "a5": "91cb375825026e09", "s5": "fc445559b8850945",
    "s3^2": "0e3b2eb764856cd4",
}


def _regulars_digest(subgroups):
    text = "\n".join(
        s.classification + " " + " ".join(f"{e.trans}.{e.aut}" for e in s.elements)
        for s in subgroups
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", ["d4", "q8", "a4", "s4", "a5", "s5", "s3^2"])
def test_regular_subgroups_match_the_recorded_digests(name):
    subs = enumerate_regular_subgroups(power_group(S3, 2) if name == "s3^2" else load_group(name))
    assert _regulars_digest(subs) == REGULAR_DIGESTS[name]


@pytest.mark.parametrize("name", ["s3", "d4", "s4"])
def test_regular_iff_g_bijective_over_every_crossed_map(name):
    # enumerate_regular_subgroups skips every g that is not a bijection;
    # this is the biconditional that makes that exact, on all (f, g).
    N = load_group(name)
    hol = holomorph_of(N)
    maps = regular = 0
    for f in enumerate_homomorphisms(N, automorphism_table_group(N)):
        for g in crossed_homomorphisms(N, N.aut_array()[list(f)]):
            bijective = len(set(g)) == N.order
            elems = [HolElement(g[s], f[s]) for s in range(N.order)]
            assert hol.regularity_tests(elems) == (bijective, bijective), (f, g)
            maps += 1
            regular += bijective
    assert maps > regular > 0


def test_the_two_s3_structures_are_lambda_and_rho():
    hol = holomorph_of(S3)
    subs = enumerate_regular_subgroups(S3)
    images = {frozenset(s.elements) for s in subs}
    assert images == {hol.lambda_image(), hol.rho_image()}


def test_cyclic_structures_on_s3_and_the_translation():
    golden = json.loads(GOLDEN.read_text())
    c6 = load_group("c6")
    keys = regular_subgroups_oracle(S3, iso_type=c6)
    assert len(keys) == golden["regular_iso_c6_count"] == 6
    assert byott_translate(len(keys), 2, 6) == golden["byott_c6_structures"] == 2


def test_oracle_reaches_targets_that_need_three_generators():
    c2cube = load_group(GOLDEN.parent / "c2cube.txt")
    assert c2cube.generating_sequence() == (1, 2, 4)
    d4 = load_group("d4")
    kept = regular_subgroups_oracle(d4, iso_type=c2cube)
    assert len(kept) == 2
    assert all(len(key) == 8 and classify_inn_out(holomorph_of(d4), key) == "inn" for key in kept)


def _reference_walk(table, want):
    """The oracle's subgroup walk before it followed greedy chains: extend
    each subgroup found by one element per left coset through a closure
    from its seeds."""
    found, work = {(0,)}, [((0,), ())]  # subgroups to extend, with the seeds that built them
    while work:
        sub, gens = work.pop()
        covered = set(sub)
        for x in range(table.order):
            if x in covered:
                continue
            covered.update(table.mul[x][h] for h in sub)
            cl = subgroup_closure(table, gens + (x,), limit=want)
            if cl is not None and want % len(cl) == 0 and cl not in found:
                found.add(cl)
                if len(cl) < want:
                    work.append((cl, gens + (x,)))
    return found


ORACLE_QUERIES = [
    ("s3", None), ("s3", "c6"), ("c6", None), ("c6", "s3"), ("d4", None),
    ("d4", "c2cube"), ("d4", "q8"), ("q8", None), ("q8", "d4"), ("a4", None),
]


def test_greedy_walk_finds_what_the_coset_walk_found(monkeypatch):
    for name in ("s3", "c6", "d4", "q8", "a4"):
        N = load_group(name)
        table = holomorph_of(N).as_table_group()
        assert _subgroups_dividing(table, N.order) == _reference_walk(table, N.order)
    c2cube = load_group(GOLDEN.parent / "c2cube.txt")
    iso = {None: None, "c2cube": c2cube} | {k: load_group(k) for k in ("s3", "c6", "d4", "q8")}
    got = {q: regular_subgroups_oracle(load_group(q[0]), iso[q[1]], True) for q in ORACLE_QUERIES}
    monkeypatch.setattr("hopfgalois.holomorph._subgroups_dividing", _reference_walk)
    for (name, target), answer in got.items():
        assert answer == regular_subgroups_oracle(load_group(name), iso[target], True), (name, target)
    assert got["d4", "c2cube"][1]["regular"] == 20 and len(got["d4", "c2cube"][0]) == 2


def test_walk_that_leaves_the_greedy_chains_is_caught(monkeypatch):
    # closing <H, x> without asking that x be its least element outside H
    # reaches a subgroup once per chain of seeds that generates it
    def closure(table, sub, inside, gens, x, limit):
        return subgroup_closure(table, (*gens, x), limit)

    monkeypatch.setattr("hopfgalois.holomorph._greedy_extension", closure)
    with pytest.raises(RuntimeError, match=r"the subgroup walk reached a subgroup of order \d+ twice"):
        regular_subgroups_oracle(load_group("c6"))


def test_oracle_refuses_a_large_holomorph_before_searching_aut():
    a5 = FiniteGroup(load_group("a5").mul, name="a5")  # fresh, so nothing is kept on it yet
    with pytest.raises(BudgetError, match="too large.*limit 600.*enumerate_regular_subgroups"):
        regular_subgroups_oracle(a5)
    assert "auts" not in a5._memo


def test_enumeration_refuses_on_the_holomorph_bound_before_searching_aut():
    # |Hol(S4^2)| >= 24^2 · 24^2 · 2!, as Aut(S4) wr S_2 acts faithfully on S4^2.
    N = power_group(FiniteGroup(load_group("s4").mul, name="s4"), 2)
    with pytest.raises(BudgetError, match=r"\|Hol\(s4\^2\)\| >= 663552 exceeds the budget"):
        enumerate_regular_subgroups(N)
    assert "auts" not in N._memo


def test_byott_translate_arithmetic():
    assert byott_translate(3, 24, 6) == 12
    with pytest.raises(ValueError, match="not an integer"):
        byott_translate(5, 2, 6)
    # past 2**64 the quotient stays exact, where a float would round it
    assert byott_translate(3**45 + 3, 2**70, 3) == (3**44 + 1) * 2**70
    with pytest.raises(ValueError, match="not an integer"):
        byott_translate(2**70 + 1, 1, 2)


def test_c4_has_one_structure_of_its_own_type():
    subs = enumerate_regular_subgroups(C4)
    assert len(subs) == 1
    hol = holomorph_of(C4)
    assert frozenset(subs[0].elements) == hol.lambda_image() == hol.rho_image()
    assert subs[0].classification == "inn"


# ── Pair to subgroup ─────────────────────────────────────────────────────


def test_identity_trivial_pair_gives_left_translations():
    hol = holomorph_of(S3)
    elems = fpf_pair_to_subgroup(identity_endo(S3, 1), trivial_endo(S3, 1))
    assert elems == hol.lambda_image()


def test_trivial_identity_pair_gives_right_translations():
    hol = holomorph_of(S3)
    elems = fpf_pair_to_subgroup(trivial_endo(S3, 1), identity_endo(S3, 1))
    assert elems == hol.rho_image()


def test_non_fpf_pair_is_rejected_with_translation_counts():
    f = identity_endo(S3, 1)
    with pytest.raises(ValueError) as refusal:
        fpf_pair_to_subgroup(f, f)
    assert str(refusal.value) == (
        "pair is not fixed point free: only 1 of 6 translation parts are "
        "distinct, the action cannot be regular"
    )


def _pair_subgroup_reference(f, g):
    """{(g(s)·f(s)⁻¹, conjugation id of f(s))} over every s, from apply and
    N's scalar tables."""
    N = power_group(f.group, f.n)
    out = set()
    for k in range(N.order):
        s = power_coords(f.group, f.n, k)
        fs, gs = power_index(f.group, f.apply(s)), power_index(f.group, g.apply(s))
        out.add(HolElement(N.mul[gs][N.inv[fs]], N.conjugation_aut_id(fs)))
    return out


def test_pair_route_matches_the_scalar_reference():
    rng = random.Random(0x5A1125)
    # fresh, so the stores start empty
    s3, a5 = (FiniteGroup(load_group(k).mul, name=k) for k in ("s3", "a5"))
    for T, n, sample, count in ((s3, 1, None, 12), (s3, 2, 150, 3744), (a5, 1, None, 240)):
        endos = list(enumerate_end0(T, n))
        pairs = [(f, g) for f in endos for g in endos if is_fpf_by_tree(f, g).is_fpf]
        assert len(pairs) == count
        for f, g in pairs if sample is None else rng.sample(pairs, sample):
            assert fpf_pair_to_subgroup(f, g) == _pair_subgroup_reference(f, g)


def test_pair_route_keeps_its_priced_holomorph_but_never_a_refusal():
    T = FiniteGroup(S3.mul, name="s3")  # fresh, so nothing is kept on it yet
    elems = fpf_pair_to_subgroup(identity_endo(T, 1), trivial_endo(T, 1))
    assert elems == holomorph_of(T).lambda_image()
    assert T._memo["pair_holomorph", 1] is holomorph_of(T)
    messages = []
    for _ in range(2):  # priced afresh, and refused before S3^3 is built, each time
        with pytest.raises(BudgetError) as refusal:
            fpf_pair_to_subgroup(identity_endo(T, 3), trivial_endo(T, 3))
        assert ("power", 3) not in T._memo
        messages.append(str(refusal.value))
    assert messages[0] == messages[1] == (
        "|Hol(s3^3)| >= 279936 exceeds the budget 200000; "
        "fpf.decide_fpf decides the pair without Hol(N)"
    )
    assert ("pair_holomorph", 3) not in T._memo
    assert "auts" not in power_group(T, 3)._memo


def test_non_fpf_refusal_leaves_the_aut_table_unbuilt():
    T = FiniteGroup(S3.mul, name="s3")  # fresh, so nothing is kept on it yet
    f = identity_endo(T, 2)
    with pytest.raises(ValueError, match="translation parts"):
        fpf_pair_to_subgroup(f, f)
    assert "aut_group" not in power_group(T, 2)._memo


def test_a5_square_pair_is_refused_before_the_power_is_built():
    # 60^2 · 120^2 · 2! bounds |Hol(A5^2)| from below; building A5^2 alone
    # takes seconds, and its automorphisms would be searched next.
    T = FiniteGroup(load_group("a5").mul, name="a5")
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=r"\|Hol\(a5\^2\)\| >= 103680000 exceeds the budget"):
        fpf_pair_to_subgroup(identity_endo(T, 2), trivial_endo(T, 2))
    assert time.perf_counter() - start < 1
    assert ("power", 2) not in T._memo


def test_s3_cube_is_refused_on_both_routes_before_searching_aut():
    # 6^3 · 6^3 · 3! = 279936 = |Hol(S3^3)| exceeds the budget; the old
    # floor (6 · 6)^3 = 46656 let both calls search Aut(S3^3) first.
    T = FiniteGroup(S3.mul, name="s3")  # fresh, so nothing is kept on it yet
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=r"\|Hol\(s3\^3\)\| >= 279936 exceeds the budget") as enum:
        enumerate_regular_subgroups(power_group(T, 3))
    with pytest.raises(BudgetError, match=r"\|Hol\(s3\^3\)\| >= 279936 exceeds the budget") as pair:
        fpf_pair_to_subgroup(identity_endo(T, 3), trivial_endo(T, 3))
    assert time.perf_counter() - start < 1
    # each refusal names a route that answers without Hol(N), and its reach
    assert "formula_Einn" in str(enum.value) and "non-abelian simple" in str(enum.value)
    assert "decide_fpf" in str(pair.value)
    assert "auts" not in power_group(T, 3)._memo


def test_oracle_refuses_on_the_exact_order_past_the_floor():
    # a file-loaded group carries no (T, n): the floor |N|·|Inn N| is 64
    c2cube = load_group(GOLDEN.parent / "c2cube.txt")
    with pytest.raises(BudgetError, match=r"\|Hol\(c2cube\)\| = 1344 is too large"):
        regular_subgroups_oracle(c2cube)


def test_enumeration_rejects_a_bijective_crossed_map_that_is_not_a_homomorphism(monkeypatch):
    # For the trivial f of c6 the identity map with 1 and 2 swapped is
    # bijective and its set is rho(c6), a regular subgroup isomorphic to
    # c6, but s -> (g(s), f(s)) does not carry c6's table onto it.
    C6 = FiniteGroup(load_group("c6").mul, name="c6")

    def patched(N, F, bijective=False):
        if (F == np.arange(N.order)).all():
            yield (0, 2, 1, 3, 4, 5)
        else:
            yield from crossed_homomorphisms(N, F, bijective)

    monkeypatch.setattr("hopfgalois.holomorph.crossed_homomorphisms", patched)
    with pytest.raises(RuntimeError, match="not isomorphic to c6"):
        enumerate_regular_subgroups(C6)


def test_enumeration_rejects_a_hom_list_not_closed_under_aut(monkeypatch):
    # One map of Hom(s4, Aut s4) dropped: an automorphism of s4 moves
    # another map onto it, and the code of that image is found nowhere.
    S4 = FiniteGroup(load_group("s4").mul, name="s4")
    homs = list(enumerate_homomorphisms(S4, automorphism_table_group(S4)))
    homs.pop()
    monkeypatch.setattr("hopfgalois.holomorph.enumerate_homomorphisms", lambda src, dst: iter(homs))
    with pytest.raises(RuntimeError, match=r"Hom\(s4, Aut s4\) is not closed under conjugation"):
        enumerate_regular_subgroups(S4)


def test_pair_to_subgroup_over_a_power():
    G = power_group(S3, 2)
    hol = holomorph_of(G)
    elems = fpf_pair_to_subgroup(identity_endo(S3, 2), trivial_endo(S3, 2))
    assert elems == hol.lambda_image()
    assert hol.is_regular(elems)


# The 52 subgroups that fpf_pair_to_subgroup built from S3^2's fpf pairs
# when it still checked every pair's set in full.
S3_SQUARE_PAIR_SETS_DIGEST = "cbe5d4fa60b02931"


def _sets_digest(sets):
    text = "\n".join(sorted(" ".join(f"{e.trans}.{e.aut}" for e in sorted(s)) for s in sets))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_pair_store_keeps_one_checked_set_per_subgroup(monkeypatch):
    a5 = FiniteGroup(load_group("a5").mul, name="a5")  # fresh, so its store is empty
    endos = list(enumerate_end0(a5, 1))
    pairs = [(f, g) for f in endos for g in endos if is_fpf_by_tree(f, g).is_fpf]
    hol = holomorph_of(a5)
    assert len(pairs) == 240
    built = [fpf_pair_to_subgroup(f, g) for f, g in pairs]
    assert set(built) == {hol.lambda_image(), hol.rho_image()}
    assert len(hol._pair_subgroups) == 2
    # every pair of one subgroup gets back the one stored set itself
    stored = {id(s) for s in hol._pair_subgroups.values()}
    assert {id(s) for s in built} == stored and len(stored) == 2
    # a warm store changes no refusal: the verdict is checked before the lookup
    f = identity_endo(a5, 1)
    with pytest.raises(ValueError, match="translation parts"):
        fpf_pair_to_subgroup(f, f)
    # a scan that wrongly said fpf would be caught by the collision check
    wrong = FpfVerdict(True, "bruteforce", None)
    monkeypatch.setattr("hopfgalois.holomorph.is_fpf_bruteforce", lambda f, g: wrong)
    with pytest.raises(RuntimeError, match="colliding"):
        fpf_pair_to_subgroup(f, f)
    monkeypatch.undo()
    # and the enumeration, which never reads the store, gives what it gave
    assert _regulars_digest(enumerate_regular_subgroups(a5)) == REGULAR_DIGESTS["a5"]
    assert len(hol._pair_subgroups) == 2


def test_s3_square_pairs_build_52_of_its_328_regular_subgroups():
    # S3 is not simple, so the structure count covers only the subgroups
    # that structured fpf pairs build; Hol(S3^2) has many more of its type.
    endos = list(enumerate_end0(S3, 2))
    verdicts = [(f, g, is_fpf_by_tree(f, g)) for f in endos for g in endos]
    built = {fpf_pair_to_subgroup(f, g) for f, g, v in verdicts if v.is_fpf}
    assert sum(v.is_fpf for *_, v in verdicts) == 3744
    assert len(built) == formula_Einn(6, 2) == 52
    assert _sets_digest(built) == S3_SQUARE_PAIR_SETS_DIGEST
    regulars = enumerate_regular_subgroups(power_group(S3, 2))
    assert len(regulars) == 328
    assert _regulars_digest(regulars) == REGULAR_DIGESTS["s3^2"]
    assert all(s.classification == "inn" for s in regulars)
    assert built <= {frozenset(s.elements) for s in regulars}


def test_a5_lambda_image_passes_both_regularity_tests():
    a5 = load_group("a5")
    hol = holomorph_of(a5)
    by_xi, by_orbit = hol.regularity_tests(hol.lambda_image())
    assert by_xi and by_orbit


def _kept_groups(G, kept):
    """G and every table group kept in its memo, recursively, by id."""
    if id(G) not in kept:
        kept[id(G)] = G
        for value in G._memo.values():
            if isinstance(value, FiniteGroup):
                _kept_groups(value, kept)
    return kept


def test_no_route_reads_the_tuple_table():
    # every route reads np_mul and the columns gathered from it; the tuple
    # view `mul` is built, and kept in the memo, only when something asks
    s3, c3 = (FiniteGroup(load_group(k).np_mul, name=k) for k in ("s3", "c3"))
    s3.automorphisms()
    enumerate_regular_subgroups(s3)
    enumerate_regular_subgroups(power_group(s3, 2))
    regular_subgroups_oracle(s3)
    for T, n in ((s3, 2), (c3, 1)):
        brute_F(T, n, "fpf")
    brute_F(s3, 2, "tree")
    rng = random.Random(27)
    for T, n in ((s3, 1), (s3, 2), (c3, 1)):
        endos = list(enumerate_end0(T, n))
        for f, g in (rng.sample(endos, 2) for _ in range(60)):
            if decide_fpf(f, g).is_fpf:
                fpf_pair_to_subgroup(f, g)
            elif T is s3:
                construct_witness(f, g)
    run_power_lemma_suite(s3, 2)
    kept = _kept_groups(c3, _kept_groups(s3, {}))
    named = {G.name for G in kept.values()}
    assert {"s3", "s3^2", "Aut(s3)", "Aut(s3^2)", "Hol(s3)", "c3", "Aut(c3)"} <= named
    assert [G.name for G in kept.values() if "mul" in G._memo] == []
    assert s3.mul == load_group("s3").mul and "mul" in s3._memo  # the key checked above


# ── FGPair and the power toolkit ─────────────────────────────────────────


CTX2 = PowerContext(S3, 2)


def test_power_context_aut0_bookkeeping():
    assert len(CTX2.aut0) == 72
    for i, e in enumerate(CTX2.aut0):
        assert CTX2.aut0_index(e.theta, e.phis) == i
    with pytest.raises(ValueError, match="not invertible"):
        CTX2.aut0_index((1, 2), (0, 99))
    # id 0 is the identity: inner, identity theta
    assert CTX2.is_inner_aut0(0)
    assert CTX2.aut0[0].theta == CTX2.identity_theta == (1, 2)


def test_conj_aut0_matches_componentwise_conjugation():
    rng = random.Random(0xC03)
    for _ in range(50):
        coords = (rng.randrange(6), rng.randrange(6))
        k = CTX2.conj_aut0_id(coords)
        e = CTX2.aut0[k]
        assert e.theta == (1, 2)
        assert e.phis == tuple(S3.conjugation_aut_id(c) for c in coords)
        assert CTX2.is_inner_aut0(k)


def test_rho_pair_shape():
    pair = rho_pair(CTX2)
    assert pair.g_is_bijective()
    assert len(pair.kernel_fsn) == 36  # f is constant: everything acts trivially
    assert len(pair.fsn_image()) == 1
    assert pair.kernel_inner


def test_lambda_pair_shape():
    pair = lambda_pair(CTX2)
    assert pair.g_is_bijective()
    assert len(pair.kernel_fsn) == 36  # conjugations never permute coordinates
    assert len(pair.fsn_image()) == 1
    assert pair.kernel_inner  # all conjugation parts are inner


def test_fg_pair_validation():
    pair = rho_pair(CTX2)
    order = CTX2.group.order
    with pytest.raises(ValueError):
        FGPair(CTX2, pair.f_ids[:-1], pair.g_values)
    with pytest.raises(ValueError, match="identity"):
        FGPair(CTX2, pair.f_ids, (1,) + pair.g_values[1:])
    # break the crossed law by swapping two non-identity g values
    g = list(pair.g_values)
    g[1], g[2] = g[2], g[1]
    with pytest.raises(ValueError, match="crossed"):
        FGPair(CTX2, pair.f_ids, tuple(g))
    # break the homomorphism property of f
    f = list(pair.f_ids)
    f[1] = 5
    with pytest.raises(ValueError, match="homomorphism"):
        FGPair(CTX2, tuple(f), pair.g_values)


@pytest.mark.parametrize(
    "ctx",
    [CTX2, PowerContext(load_group("a5"), 1), PowerContext(load_group(GOLDEN.parent / "c2cube.txt"), 1)],
    ids=["s3^2", "a5", "c2cube"],
)
def test_aut0_composition_table(ctx):
    # the query FGPair makes, applied to every pair of ids at once
    perms, count = ctx.perms, len(ctx.aut0)
    composite = ctx.find(perms[:, ctx.keys])
    assert composite.shape == (count, count)
    # [a, b, x] = a(b(x))
    composed = perms[np.arange(count)[:, None, None], perms[None, :, :]]
    assert (perms[composite] == composed).all()


# ── Orbit decompositions ─────────────────────────────────────────────────


def test_orbit_decomposition_of_a_three_cycle():
    cyc = (2, 3, 1)
    decomp = orbit_decompose_from_thetas(
        [("t", cyc), ("t2", (3, 1, 2)), ("e", (1, 2, 3))], 3, 3
    )
    assert decomp.m == 1
    assert decomp.fixed == ()
    assert decomp.orbits == ((1, 2, 3),)
    assert decomp.orbit_ranks == (1,)
    assert decomp.r == 1
    report = check_rank_bounds(decomp)
    assert report.partition_ok and report.rank_ok


def test_orbit_engine_rejects_non_p_power_groups():
    flip = (2, 1, 3)
    cyc = (2, 3, 1)
    thetas = [("e", (1, 2, 3)), ("a", flip), ("b", cyc)]
    with pytest.raises(ValueError, match="power of"):
        orbit_decompose_from_thetas(thetas, 3, 2)


def test_orbit_engine_rejects_non_permutations():
    with pytest.raises(ValueError):
        orbit_decompose_from_thetas([("x", (1, 1))], 2, 2)


def test_random_involution_actions_satisfy_rank_bounds():
    def compose(a, b):
        return tuple(a[b[i] - 1] for i in range(4))

    rng = random.Random(0x0B17)
    swaps = [(2, 1, 3, 4), (1, 2, 4, 3), (2, 1, 4, 3)]  # commuting involutions
    for _ in range(20):
        chosen = [s for s in swaps if rng.random() < 0.7]
        # the engine wants the realized set closed, so close it by hand
        group = {(1, 2, 3, 4)}
        frontier = list(chosen)
        while frontier:
            t = frontier.pop()
            if t in group:
                continue
            group.add(t)
            frontier.extend(compose(t, u) for u in list(group))
        labelled = [(f"g{i}", t) for i, t in enumerate(sorted(group))]
        decomp = orbit_decompose_from_thetas(labelled, 4, 2)
        assert check_rank_bounds(decomp).ok
        assert 2 ** decomp.m == len(group)


def test_rank_bound_is_tight_for_a_regular_klein_group():
    klein = [(1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)]
    labelled = [(f"k{i}", t) for i, t in enumerate(klein)]
    decomp = orbit_decompose_from_thetas(labelled, 4, 2)
    assert decomp.m == 2
    assert decomp.orbits == ((1, 2, 3, 4),)
    assert decomp.orbit_ranks == (2,)
    assert check_rank_bounds(decomp).ok  # equality case: m == sum of ranks


def test_orbit_decompose_from_a_pair():
    pair = lambda_pair(CTX2)
    decomp = orbit_decompose(pair, 2)
    # the coordinate action of a lambda pair is trivial: everything fixed
    assert decomp.fixed == (1, 2)
    assert decomp.orbits == ()
    assert decomp.m == 0
    other = orbit_decompose(pair, 3, variant=1)
    assert other.fixed == decomp.fixed


# ── Structure lemmas ─────────────────────────────────────────────────────


def test_relations_lemma_preconditions():
    pair = lambda_pair(CTX2)
    G = CTX2.group
    # find a non-commuting pair of group elements
    sigma, tau = next(
        (s, t)
        for s in range(G.order)
        for t in range(G.order)
        if G.mul[s][t] != G.mul[t][s]
    )
    with pytest.raises(ValueError, match="commute"):
        check_relations_lemma(pair, sigma, tau)


def test_relations_lemma_requires_kernel_membership():
    # f swaps the two coordinates according to the parity of the first
    # one; the constant-identity g satisfies the crossed law under any f.
    from hopfgalois.groups import power_coords

    ctx = CTX2
    swap_id = next(
        i for i, e in enumerate(ctx.aut0) if e.theta == (2, 1) and e.phis == (0, 0)
    )
    f_ids = []
    for s in range(ctx.group.order):
        first = power_coords(S3, 2, s)[0]
        f_ids.append(swap_id if S3.element_orders()[first] == 2 else 0)
    pair = FGPair(ctx, tuple(f_ids), (0,) * ctx.group.order)
    tau = next(s for s in range(ctx.group.order) if pair.theta_of(s) != ctx.identity_theta)
    with pytest.raises(ValueError, match="kernel"):
        check_relations_lemma(pair, tau, tau)


def _relation_scalar(pair, sigma, tau):
    """The relation transcribed coordinate by coordinate from theta, phis,
    T's automorphisms and power_coords, with no precondition:
    phi_{sigma,i}(a_tau at theta_sigma(i))
        = (a_sigma at i)^-1 · (a_tau at i) · phi_{tau,i}(a_sigma at i)."""
    ctx = pair.ctx
    T, n, auts = ctx.T, ctx.n, ctx.T.automorphisms()
    e_s, e_t = ctx.aut0[pair.f_ids[sigma]], ctx.aut0[pair.f_ids[tau]]
    a_s = power_coords(T, n, pair.g_values[sigma])
    a_t = power_coords(T, n, pair.g_values[tau])
    for i in range(n):
        lhs = auts[e_s.phis[i]][a_t[e_s.theta[i] - 1]]
        rhs = T.mul[T.mul[T.inv[a_s[i]]][a_t[i]]][auts[e_t.phis[i]][a_s[i]]]
        if lhs != rhs:
            return False
    return True


def test_relation_helper_matches_scalar_transcription():
    # every (sigma, tau) in G x G, not only the commuting kernel pairs the
    # suite asks about, so that both verdicts are exercised
    G = CTX2.group
    sigma, tau = (a.ravel() for a in np.indices((G.order, G.order)))
    seen = set()
    for name, pair in _suite_pairs(CTX2):
        got = _relation_by_coordinate(pair, sigma, tau).all(axis=1)
        want = [_relation_scalar(pair, s, t) for s, t in zip(sigma.tolist(), tau.tolist())]
        assert got.tolist() == want, name
        seen.update(want)
        kernel = set(pair.kernel_fsn)
        for s, t in zip(sigma.tolist(), tau.tolist()):
            if t in kernel and G.mul[s][t] == G.mul[t][s]:
                assert check_relations_lemma(pair, s, t) == _relation_scalar(pair, s, t)
    assert seen == {True, False}


def test_relations_lemma_holds_on_canonical_pairs():
    pair = lambda_pair(CTX2)
    G = CTX2.group
    rng = random.Random(0x137)
    checked = 0
    while checked < 100:
        s, t = rng.randrange(G.order), rng.randrange(G.order)
        if G.mul[s][t] != G.mul[t][s]:
            continue
        assert check_relations_lemma(pair, s, t)
        checked += 1


def test_out_prop1_on_simple_target():
    a5 = load_group("a5")
    ctx = PowerContext(a5, 1)
    for pair in (lambda_pair(ctx), rho_pair(ctx)):
        res = check_out_prop1(pair)
        assert res.status == "pass", res.detail


def test_out_prop1_skips_when_kernel_is_not_perfect():
    res = check_out_prop1(rho_pair(CTX2))
    assert res.status == "skipped"
    assert "perfect" in res.detail


def test_out_prop1_skips_when_out_is_not_solvable():
    # Out(C2^3) = GL(3,2) is simple, and the abelian kernel is not perfect
    ctx = PowerContext(load_group(GOLDEN.parent / "c2cube.txt"), 1)
    for pair in (rho_pair(ctx), lambda_pair(ctx)):
        res = check_out_prop1(pair)
        assert res.status == "skipped"
        assert res.detail == "outer automorphism group not solvable; kernel not perfect"


def test_power_lemma_suite_is_clean():
    results = run_power_lemma_suite(S3, n=2)
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for r in results:
        counts[r.status] += 1
    assert counts["fail"] == 0
    assert counts["pass"] == 262
    assert counts["skipped"] == 46
    assert len(results) == 308


def test_c2_square_suite_runs_the_containment_loop():
    # Over C2^2 the swapping pairs give one-orbit decompositions with
    # commuting transporters, so the g-image bound reconstructs kernel
    # values through them (bound 2 = |T|·|Inn T|), which S3^2 never does.
    # The digest was recorded before the suite was rewritten.
    results = run_power_lemma_suite(load_group("c2"), n=2)
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for r in results:
        counts[r.status] += 1
    assert counts == {"pass": 88, "fail": 0, "skipped": 22}
    one_orbit = [
        r for r in results
        if "g-image bound" in r.name and re.fullmatch(r"image \d <= 2 <= 4, inner kernel: True", r.detail)
    ]
    assert len(one_orbit) == 12 and all(r.status == "pass" for r in one_orbit)
    text = "\n".join(f"{r.name}\t{r.status}\t{r.detail}" for r in results)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1ee88892737f468a61aaed28a97129ec6ba99c8bf307939345d14fdbb2b33497"
    )


# Rows of run_power_lemma_suite pinned before the suite became array work:
# row count and the first 12 hex digits of the sha256 of its
# name/status/detail lines.
SUITE_DIGESTS = {
    ("a5", 1): "200:b7590e033380",
    ("s3", 1): "140:d93696675b78",
    ("a4", 1): "140:f98c07c2d43f",
    ("d4", 1): "80:bbc4fc03454f",
    ("q8", 1): "50:d5e072e36405",
    ("s4", 1): "140:3ce9ed36a7d8",
    ("s3", 2): "308:500441090d47",
    ("d4", 2): "80:81f3620613fc",
    ("q8", 2): "50:cc5be4d71a7a",
    ("a4", 2): "140:acbf0efb0a3b",
    ("s4", 2): "308:14096b8414f8",
}


@pytest.mark.parametrize("name,n", list(SUITE_DIGESTS), ids=[f"{t}^{n}" for t, n in SUITE_DIGESTS])
def test_power_lemma_suite_digests(name, n):
    rows = run_power_lemma_suite(load_group(name), n)
    text = "\n".join(f"{r.name}\t{r.status}\t{r.detail}" for r in rows)
    got = f"{len(rows)}:{hashlib.sha256(text.encode()).hexdigest()[:12]}"
    assert got == SUITE_DIGESTS[name, n]
