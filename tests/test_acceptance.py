"""Acceptance gate: one test per criterion, one printed verdict line each.

Each test prints ``ACCEPTANCE <k> PASS/FAIL: <detail>`` through
``capsys.disabled()`` so the line lands in the terminal even under
default capture.  Every count asserted here is exact; the elapsed-time
ceilings are part of the criteria and are asserted too.
"""

import itertools
import json
import random
import time
from pathlib import Path

from hol_reference import HolReference
from hopfgalois.census import brute_F, formula_F, tree_weighted_F
from hopfgalois.endomorphisms import enumerate_end0
from hopfgalois.fpf import (
    WitnessError,
    check_path_conditions,
    construct_witness,
    is_fpf_bruteforce,
    is_fpf_by_tree,
)
from hopfgalois.groups import has_fpf_automorphism, load_group
from hopfgalois.holomorph import (
    classify_inn_out,
    enumerate_regular_subgroups,
    fpf_pair_to_subgroup,
    holomorph_of,
    regular_subgroups_oracle,
)
from hopfgalois.pairgraphs import (
    UndirectedPairGraph,
    build_undirected,
    components,
    count_trees_root_degree,
    is_tree,
    prufer_decode,
)
from hopfgalois.powerlemmas import run_power_lemma_suite

GOLDEN = Path(__file__).parent / "data" / "hol_s3_regulars.json"


def _verdict(capsys, k, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {k} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {k}: {detail}"


def test_acceptance_1_a5_structure_count(capsys):
    t0 = time.monotonic()
    a5 = load_group("a5")
    aut_count = len(a5.automorphisms())
    endos = list(enumerate_end0(a5, 1))

    fpf_pairs = [
        (f, g) for f in endos for g in endos if is_fpf_by_tree(f, g).is_fpf
    ]

    rng = random.Random(0xA5A5)
    disagreements = 0
    for _ in range(100_000):
        f = rng.choice(endos)
        g = rng.choice(endos)
        if is_fpf_by_tree(f, g).is_fpf != is_fpf_bruteforce(f, g).is_fpf:
            disagreements += 1

    structures, remainder = divmod(len(fpf_pairs), aut_count)

    subs = enumerate_regular_subgroups(a5)
    ref = HolReference(a5)
    from_pairs = {fpf_pair_to_subgroup(f, g) for f, g in fpf_pairs}
    elapsed = time.monotonic() - t0

    ok = (
        aut_count == 120
        and len(endos) == 121
        and len(fpf_pairs) == 240
        and disagreements == 0
        and (structures, remainder) == (2, 0)
        and len(subs) == 2
        and all(s.classification == "inn" for s in subs)
        and from_pairs == {ref.lambda_image(), ref.rho_image()}
        and {frozenset(s.elements) for s in subs} == from_pairs
        and elapsed < 600
    )
    _verdict(
        capsys,
        1,
        ok,
        f"|Aut|={aut_count}, |End0|={len(endos)}, fpf pairs={len(fpf_pairs)}, "
        f"1e5 random cross-checks disagreements={disagreements}, "
        f"structures={structures} (rem {remainder}), holomorph enum={len(subs)} "
        f"both inn, pair-built subgroups match, {elapsed:.1f}s < 600s",
    )


def test_acceptance_2_brute_counts_match_formula(capsys):
    t0 = time.monotonic()
    s3 = load_group("s3")
    rows = []
    ok = True
    for n in (1, 2):
        want = formula_F(6, n)
        tree = brute_F(s3, n, mode="tree")
        fpf = brute_F(s3, n, mode="fpf")
        rows.append(f"n={n}: tree={tree} fpf={fpf} formula={want}")
        ok = ok and tree == fpf == want
    weighted = tree_weighted_F(6, 3)
    ok = ok and weighted == formula_F(6, 3) == 3742848
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30
    _verdict(
        capsys, 2, ok,
        "; ".join(rows) + f"; weighted n=3 {weighted}; {elapsed:.1f}s < 30s",
    )


def test_acceptance_3_tree_criterion_exhaustive_equivalence(capsys):
    t0 = time.monotonic()
    s3 = load_group("s3")
    applicable = not has_fpf_automorphism(s3)
    endos = list(enumerate_end0(s3, 2))
    pairs = 0
    mismatches = 0
    for f in endos:
        for g in endos:
            pairs += 1
            if is_fpf_by_tree(f, g).is_fpf != is_fpf_bruteforce(f, g).is_fpf:
                mismatches += 1
    elapsed = time.monotonic() - t0
    ok = applicable and pairs == 28561 and mismatches == 0 and elapsed < 30
    _verdict(
        capsys, 3, ok,
        f"tree criterion applicable={applicable}, {pairs} pairs scanned, "
        f"{mismatches} mismatches, {elapsed:.1f}s < 30s",
    )


def test_acceptance_4_tree_degree_formula(capsys):
    t0 = time.monotonic()
    bad = []
    for n in range(1, 8):
        census = {d: 0 for d in range(1, n + 1)}
        for seq in itertools.product(range(n + 1), repeat=n - 1):
            edges = prufer_decode(seq, n)
            census[sum(1 for u, v in edges if 0 in (u, v))] += 1
        for d in range(1, n + 1):
            if census[d] != count_trees_root_degree(n, d):
                bad.append((n, d))
        if sum(census.values()) != (n + 1) ** (n - 1):
            bad.append((n, "total"))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 60
    _verdict(
        capsys, 4, ok,
        f"degrees checked for all n <= 7 against 8^6-and-under Pruefer "
        f"enumerations, failures={bad}, {elapsed:.1f}s < 60s",
    )


def test_acceptance_5_component_structure_and_witnesses(capsys):
    s3 = load_group("s3")
    endos = list(enumerate_end0(s3, 2))
    structure_bad = 0
    witness_bad = 0
    fpf_count = 0
    witnessed = 0
    for f in endos:
        for g in endos:
            und = build_undirected(f.theta, g.theta)
            if is_fpf_bruteforce(f, g).is_fpf:
                fpf_count += 1
                for comp in components(und):
                    if 0 in comp.vertices:
                        if comp.edge_count != len(comp.vertices) - 1:
                            structure_bad += 1
                    elif comp.edge_count != len(comp.vertices):
                        structure_bad += 1
            elif not is_tree(und):
                usable = any(
                    0 not in c.vertices and c.edge_count <= len(c.vertices)
                    for c in components(und)
                )
                if not usable:
                    continue
                try:
                    w = construct_witness(f, g)
                except WitnessError:
                    witness_bad += 1
                    continue
                witnessed += 1
                if w == (0, 0) or f.apply(w) != g.apply(w):
                    witness_bad += 1
    ok = structure_bad == 0 and witness_bad == 0 and fpf_count == 3744
    _verdict(
        capsys, 5, ok,
        f"{fpf_count} fpf pairs with tree 0-component and balanced others "
        f"({structure_bad} violations); {witnessed} non-fpf pairs yielded "
        f"verified witnesses ({witness_bad} failures)",
    )


def test_acceptance_6_path_conditions_randomized(capsys):
    s3 = load_group("s3")
    rng = random.Random(0x6A11)
    endos_by_n = {n: list(enumerate_end0(s3, n)) for n in (1, 2, 3)}
    mismatches = 0
    for _ in range(10_000):
        n = rng.choice((1, 2, 3))
        f = rng.choice(endos_by_n[n])
        g = rng.choice(endos_by_n[n])
        sigma = tuple(rng.randrange(6) for _ in range(n))
        if check_path_conditions(f, g, sigma) != (f.apply(sigma) == g.apply(sigma)):
            mismatches += 1
    ok = mismatches == 0
    _verdict(
        capsys, 6, ok,
        f"10000 randomized (f, g, sigma) draws over n in 1..3, "
        f"{mismatches} disagreements with direct evaluation",
    )


def test_acceptance_7_holomorph_oracle_and_golden(capsys):
    t0 = time.monotonic()
    s3 = load_group("s3")
    hol = holomorph_of(s3)
    keys, stats = regular_subgroups_oracle(s3, with_stats=True)
    golden = json.loads(GOLDEN.read_text())
    live = [
        {
            "elements": [[e.trans, e.aut] for e in key],
            "classification": classify_inn_out(hol, key),
        }
        for key in keys
    ]
    subs = enumerate_regular_subgroups(s3)
    ref = HolReference(s3)
    lam_ok = all(hol._regular(hol._indices(image))[0] for image in (ref.lambda_image(), ref.rho_image()))
    elapsed = time.monotonic() - t0
    ok = (
        stats["subgroups_of_order"] == 20
        and stats["regular"] == 8
        and lam_ok
        and live == golden["regular_iso_s3"]
        and [s.elements for s in subs] == keys
        and elapsed < 60
    )
    _verdict(
        capsys, 7, ok,
        f"{stats['subgroups_of_order']} order-6 subgroups, both regularity "
        f"tests agreed on all, {stats['regular']} regular, lambda/rho regular, "
        f"enumeration == oracle == golden file, {elapsed:.1f}s < 60s",
    )


def test_acceptance_8_structure_lemma_suite(capsys):
    s3 = load_group("s3")
    results = run_power_lemma_suite(s3, n=2)
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for r in results:
        counts[r.status] += 1
    failures = [r.name for r in results if r.status == "fail"]
    ok = counts["fail"] == 0 and counts["pass"] > 0
    _verdict(
        capsys, 8, ok,
        f"{len(results)} checks over the square of s3: {counts['pass']} pass, "
        f"{counts['skipped']} skipped with named missing hypotheses, "
        f"failures={failures}",
    )
