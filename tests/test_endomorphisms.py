"""Structured endomorphisms of T^n and the pair file format."""

import dataclasses
import itertools
import random
import re

import numpy as np
import pytest

from hopfgalois.endomorphisms import (
    PairFileError,
    StructuredEndo,
    compose,
    coordinate_images,
    count_aut0,
    count_end0,
    enumerate_aut0,
    enumerate_end0,
    identity_endo,
    image_indices,
    is_automorphism,
    parse_pair_file,
    trivial_endo,
)
from hopfgalois.groups import BudgetError, all_coords, load_group, power_identity, power_index

S3 = load_group("s3")
A5 = load_group("a5")


def test_counts():
    assert count_end0(S3, 1) == 7
    assert count_end0(S3, 2) == 169
    assert count_end0(S3, 3) == 6859
    assert count_end0(A5, 1) == 121
    assert count_aut0(S3, 2) == 72
    assert count_aut0(S3, 3) == 1296


def test_enumeration_matches_count_and_is_duplicate_free():
    seen = set()
    for e in enumerate_end0(S3, 2):
        seen.add((e.theta, e.phis))
    assert len(seen) == 169


def test_budget_gate():
    with pytest.raises(BudgetError):
        list(enumerate_end0(S3, 8))


def test_budget_refusals_name_the_counting_routes():
    with pytest.raises(BudgetError, match=r"End0\(s3\^8\) has 33232930569601 .*count_end0.*formula_F"):
        list(enumerate_end0(S3, 8))
    with pytest.raises(BudgetError, match=r"Aut0\(s3\^8\) has 67722117120 .*count_aut0.*formula_F"):
        list(enumerate_aut0(S3, 8))
    assert count_end0(S3, 8) == 33232930569601 and count_aut0(S3, 8) == 67722117120


def test_every_enumerated_endo_is_a_homomorphism():
    rng = random.Random(0xE11D0)
    coords = [tuple(rng.randrange(6) for _ in range(2)) for _ in range(8)]
    for e in enumerate_end0(S3, 2):
        for a in coords:
            for b in coords:
                ab = tuple(S3.mul[x][y] for x, y in zip(a, b))
                image = tuple(S3.mul[x][y] for x, y in zip(e.apply(a), e.apply(b)))
                assert e.apply(ab) == image


def test_identity_and_trivial():
    ident = identity_endo(S3, 3)
    triv = trivial_endo(S3, 3)
    x = (2, 5, 1)
    assert ident.apply(x) == x
    assert triv.apply(x) == power_identity(3)
    assert is_automorphism(ident)
    assert not is_automorphism(triv)


def test_validation_rejects_malformed_endos():
    for n, theta, phis, message in [
        (0, (), (), "n must be at least 1"),
        (2, (1,), (0, 0), "theta and phis must both have length n"),
        (2, (3, 1), (0, 0), "theta[0] = 3 is outside 0..2"),
        (2, (0, 1), (0, 0), "phis[0] must be None when theta[0] = 0"),
        (2, (1, 1), (None, 0), "phis[0] = None is not an automorphism id"),
        (2, (1, 1), (0, 99), "phis[1] = 99 is not an automorphism id"),
        (2, (1, 2), (0, "1"), "phis[1] = '1' is not an automorphism id"),
        # bools count as ints in Python, but are neither coordinates nor ids
        (2, (True, 2), (0, 0), "theta[0] = True is outside 0..2"),
        (2, (1, False), (0, None), "theta[1] = False is outside 0..2"),
        (1, (1,), (True,), "phis[0] = True is not an automorphism id"),
        (2, (2, 1), (0, False), "phis[1] = False is not an automorphism id"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            StructuredEndo(S3, n, theta, phis)


@pytest.mark.parametrize("T, n", [(S3, 3), (A5, 1)])
def test_rows_are_set_at_construction(T, n):
    # rows is an instance value written by __post_init__, not a lazily
    # cached property: no descriptor on the class, and no field either
    assert not hasattr(StructuredEndo, "rows")
    assert "rows" not in {f.name for f in dataclasses.fields(StructuredEndo)}
    A = len(T.automorphisms())
    count = 0
    for e in enumerate_end0(T, n):
        assert vars(e)["rows"] == tuple(
            1 + (t - 1) * A + p if t else 0 for t, p in zip(e.theta, e.phis)
        )
        count += 1
    assert count == count_end0(T, n)
    e = StructuredEndo(T, n, (0,) * n, (None,) * n)
    assert e == trivial_endo(T, n) and hash(e) == hash(trivial_endo(T, n))
    assert "rows" not in repr(e)


def test_compose_agrees_with_pointwise_composition():
    rng = random.Random(0xC0437)
    endos = list(enumerate_end0(S3, 2))
    coords = [tuple(rng.randrange(6) for _ in range(2)) for _ in range(6)]
    for _ in range(200):
        e1 = rng.choice(endos)
        e2 = rng.choice(endos)
        c = compose(e1, e2)
        for x in coords:
            assert c.apply(x) == e1.apply(e2.apply(x))


def test_compose_is_associative():
    rng = random.Random(0xA550C)
    endos = list(enumerate_end0(S3, 2))
    for _ in range(100):
        a, b, c = (rng.choice(endos) for _ in range(3))
        lhs = compose(compose(a, b), c)
        rhs = compose(a, compose(b, c))
        assert (lhs.theta, lhs.phis) == (rhs.theta, rhs.phis)


def test_aut0_enumeration_and_inverses():
    auts = list(enumerate_aut0(S3, 2))
    assert len(auts) == count_aut0(S3, 2)
    assert all(is_automorphism(e) for e in auts)

    def key(e):
        return e.theta, e.phis

    ident = key(identity_endo(S3, 2))
    for e in auts:  # each has a two-sided inverse inside Aut0
        assert any(key(compose(e, d)) == ident == key(compose(d, e)) for d in auts)


def test_aut0_is_exactly_the_invertible_part_of_end0():
    invertible = {
        (e.theta, e.phis) for e in enumerate_end0(S3, 2) if is_automorphism(e)
    }
    assert invertible == {(e.theta, e.phis) for e in enumerate_aut0(S3, 2)}


def test_image_table_matches_apply():
    assert all_coords(S3, 2).shape == (36, 2)
    for e in (
        StructuredEndo(S3, 2, (2, 2), (1, 4)),
        StructuredEndo(S3, 3, (3, 0, 1), (5, None, 2)),
        StructuredEndo(A5, 1, (1,), (77,)),
    ):
        coords, images = all_coords(e.group, e.n), image_indices(e)
        assert images.shape == (len(coords),)
        for x, image in zip(coords.tolist(), images.tolist()):
            assert image == power_index(e.group, e.apply(tuple(x)))


def test_narrow_image_table_widens_to_flat_indices():
    # the table holds coordinates of A5 in uint8, but flat indices of A5^2
    # reach 3599: image_indices must widen before power_index multiplies
    assert coordinate_images(A5, 2).dtype == np.uint8
    e = StructuredEndo(A5, 2, (2, 1), (7, 77))
    images = image_indices(e)
    assert images.dtype == np.int64 and images.max() == 3599
    for x, image in zip(all_coords(A5, 2).tolist(), images.tolist()):
        assert image == power_index(A5, e.apply(tuple(x)))


# ── Pair files ──────────────────────────────────────────────────────


PAIR_TEXT = """\
# comment lines and blanks are skipped

n=2
theta_f=0,1
phi_f=-,3
theta_g=1,2
phi_g=0,2
"""


def test_parse_pair_file():
    f, g = parse_pair_file(PAIR_TEXT, S3)
    assert f.theta == (0, 1) and f.phis == (None, 3)
    assert g.theta == (1, 2) and g.phis == (0, 2)


@pytest.mark.parametrize(
    "mutation,complaint",
    [
        ("n=2\ntheta_f=0,1\nphi_f=-,3\ntheta_g=1,2", "missing field phi_g"),
        ("n=x\ntheta_f=0\nphi_f=-\ntheta_g=1\nphi_g=0", "n must be an integer"),
        ("n=2\ntheta_f=0\nphi_f=-,0\ntheta_g=1,1\nphi_g=0,0", "must have 2 entries"),
        ("n=2\ntheta_f=0,1\nphi_f=0,0\ntheta_g=1,1\nphi_g=0,0", 'must be "-"'),
        ("n=2\ntheta_f=0,1\nphi_f=-,-\ntheta_g=1,1\nphi_g=0,0", 'is "-" but'),
        ("n=2\ntheta_f=0,9\nphi_f=-,0\ntheta_g=1,1\nphi_g=0,0", "invalid endomorphism f"),
        ("just some text", "expected key=value"),
        # a repeated key is refused, not read as its last value
        (
            "n=2\ntheta_f=1,2\nphi_f=0,0\ntheta_g=0,0\nphi_g=-,-\ntheta_f=0,0\nphi_f=-,-",
            "line 6: key theta_f is given a second time",
        ),
    ],
)
def test_pair_file_errors(mutation, complaint):
    with pytest.raises(PairFileError, match=complaint):
        parse_pair_file(mutation, S3)


@pytest.mark.parametrize(
    "mutation,complaint",
    [
        ("n=0\ntheta_f=0\nphi_f=-\ntheta_g=1\nphi_g=0", "n must be at least 1"),
        ("n=2\ntheta_f=0,x\nphi_f=-,0\ntheta_g=1,2\nphi_g=0,2", "theta_f contains a non-integer entry"),
        ("n=2\ntheta_f=0,1\nphi_f=-\ntheta_g=1,2\nphi_g=0,2", "phi_f must have 2 entries, found 1"),
        ("n=2\ntheta_f=0,1\nphi_f=-,x\ntheta_g=1,2\nphi_g=0,2", r'phi_f\[1\] is neither an id nor "-"'),
    ],
)
def test_pair_file_entry_errors(mutation, complaint):
    with pytest.raises(PairFileError, match=complaint):
        parse_pair_file(mutation, S3)
