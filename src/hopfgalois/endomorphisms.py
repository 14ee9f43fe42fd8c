"""The structured endomorphism monoid of a direct power G = T^n.

A structured endomorphism is described by a source-coordinate table
``theta`` (length n, entries in 0..n, where entry 0 collapses the output
coordinate to the identity) together with one automorphism of T per
non-collapsed coordinate.  Output coordinate i is phi_i applied to input
coordinate theta(i).  These maps form a monoid under composition whose
invertible elements are exactly the theta-permutations; both sets are
enumerated here in a fixed, reproducible order, and pairs of them are what
the pair-graph and fixed-point-freeness machinery consumes.

Coordinates in ``theta`` are 1-based so that 0 can mean "collapsed",
matching the pair file format; tuple positions are 0-based as usual.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .groups import BudgetError, FiniteGroup, _read_only, all_coords

__all__ = [
    "StructuredEndo",
    "identity_endo",
    "trivial_endo",
    "compose",
    "is_automorphism",
    "count_end0",
    "count_aut0",
    "enumerate_end0",
    "enumerate_aut0",
    "coordinate_images",
    "image_indices",
    "parse_pair_file",
    "PairFileError",
]

ENDO_BUDGET = 10**6


class PairFileError(ValueError):
    """A pair file failed to parse or validate."""


@dataclass(frozen=True)
class StructuredEndo:
    """One endomorphism of T^n in source-table form.

    ``theta[i]`` is the 1-based input coordinate feeding output coordinate
    i+1, or 0 if that output coordinate is constantly the identity.
    ``phis[i]`` is a T-automorphism id, present exactly when theta[i] != 0.
    Entries of both are ints proper: a bool is refused, though Python
    counts it as an int.

    ``rows`` holds, in coordinate order, the row of coordinate_images(group,
    n) that each output coordinate reads: 1 + (t-1)|Aut T| + p, or 0 where
    theta is 0.  It is set by the validation loop at construction, not a
    field (eq, hash and repr ignore it) and not computed lazily: a value
    written into the instance dict after construction slows every later
    attribute read on the instance about 4x, and the fpf routes, the
    census and the pair route read theta, phis and rows on every call.
    """

    group: FiniteGroup
    n: int
    theta: tuple
    phis: tuple

    def __post_init__(self):
        n, theta, phis = self.n, self.theta, self.phis
        if n < 1:
            raise ValueError("n must be at least 1")
        if len(theta) != n or len(phis) != n:
            raise ValueError("theta and phis must both have length n")
        nauts = len(self.group.automorphisms())
        rows = [0] * n
        for i, t in enumerate(theta):
            p = phis[i]
            if type(t) is not int or not 0 <= t <= n:
                raise ValueError(f"theta[{i}] = {t!r} is outside 0..{n}")
            if t == 0:
                if p is not None:
                    raise ValueError(f"phis[{i}] must be None when theta[{i}] = 0")
            elif type(p) is int and 0 <= p < nauts:
                rows[i] = 1 + (t - 1) * nauts + p
            else:
                raise ValueError(f"phis[{i}] = {p!r} is not an automorphism id")
        object.__setattr__(self, "rows", tuple(rows))

    def apply(self, x):
        """Image of the coordinate tuple ``x``."""
        auts = self.group.automorphisms()
        return tuple([
            0 if t == 0 else auts[p][x[t - 1]]
            for t, p in zip(self.theta, self.phis)
        ])

    def __str__(self):
        bits = ",".join(
            f"{t}:{'-' if p is None else p}" for t, p in zip(self.theta, self.phis)
        )
        return f"<endo {self.group.name}^{self.n} {bits}>"


def identity_endo(T, n):
    return StructuredEndo(T, n, tuple(range(1, n + 1)), (0,) * n)


def trivial_endo(T, n):
    return StructuredEndo(T, n, (0,) * n, (None,) * n)


def is_automorphism(e):
    """True iff theta avoids 0 and permutes the coordinates."""
    return 0 not in e.theta and len(set(e.theta)) == e.n


def compose(e1, e2):
    """The endomorphism applying e2 first, then e1."""
    if e1.group is not e2.group or e1.n != e2.n:
        raise ValueError("endomorphisms live over different powers")
    T, n = e1.group, e1.n
    auts = T.automorphisms()
    theta, phis = [], []
    for i in range(n):
        t1 = e1.theta[i]
        if t1 == 0:
            theta.append(0)
            phis.append(None)
            continue
        t2 = e2.theta[t1 - 1]
        if t2 == 0:
            theta.append(0)
            phis.append(None)
            continue
        theta.append(t2)
        composed = tuple(auts[e1.phis[i]][v] for v in auts[e2.phis[t1 - 1]])
        phis.append(T.aut_index(composed))
    return StructuredEndo(T, n, tuple(theta), tuple(phis))


def count_end0(T, n):
    return (1 + n * len(T.automorphisms())) ** n


def count_aut0(T, n):
    return len(T.automorphisms()) ** n * math.factorial(n)


def _check_budget(T, n, kind, total):
    """Refuse up front to enumerate ``total`` elements of ``kind`` ("End0"
    or "Aut0") when they exceed ENDO_BUDGET."""
    if total > ENDO_BUDGET:
        raise BudgetError(
            f"{kind}({T.name}^{n}) has {total} elements, over the budget of {ENDO_BUDGET}; "
            f"count_{kind.lower()} counts them and census.formula_F the fixed point free pairs"
        )


def enumerate_end0(T, n):
    """Stream all structured endomorphisms of T^n.

    Order: theta lexicographic, then phi ids lexicographic coordinate by
    coordinate.  Raises BudgetError up front when the count (1+n|Aut T|)^n
    exceeds ENDO_BUDGET, so callers can switch to formula-only paths.
    """
    _check_budget(T, n, "End0", count_end0(T, n))
    ids = range(len(T.automorphisms()))
    for theta in itertools.product(range(n + 1), repeat=n):
        for phis in itertools.product(*[ids if t else (None,) for t in theta]):
            yield StructuredEndo(T, n, theta, phis)


def enumerate_aut0(T, n):
    """Stream the invertible structured endomorphisms (theta permutations)."""
    _check_budget(T, n, "Aut0", count_aut0(T, n))
    ids = range(len(T.automorphisms()))
    for theta in itertools.permutations(range(1, n + 1)):
        for phis in itertools.product(ids, repeat=n):
            yield StructuredEndo(T, n, theta, phis)


# ── Vectorised application over all of T^n ──────────────────────────────


def coordinate_images(T, n):
    """Every value one output coordinate of a structured endomorphism of
    T^n can take, on every element of T^n at once.

    A read-only (1 + n|Aut T|, |T|^n) array of the smallest unsigned
    dtype that holds |T| - 1 (uint8 for every catalog group), elements in
    all_coords order.  Row 0 is the identity (a collapsed coordinate); row
    1 + (t-1)|Aut T| + p is automorphism p applied to input coordinate t.
    Built once per n from T.aut_array() and all_coords alone and kept on
    T: 4.1 KB for S3^3, 7.3 KB for A5, 0.87 MB for A5^2.  Flat power
    indices reach |T|^n - 1, so readers widen them (image_indices by its
    int64 dot).
    """

    def build():
        dtype = np.min_scalar_type(T.order - 1)
        auts, cols = T.aut_array().astype(dtype), all_coords(T, n).T
        images = auts[:, cols].swapaxes(0, 1).reshape(-1, T.order**n)
        return _read_only(np.concatenate([np.zeros((1, T.order**n), dtype), images]))

    return T.memo(("coordinate_images", n), build)


def _place_values(T, n):
    """Read-only int64 array (|T|^(n-1), ..., |T|, 1): its dot with a
    coordinate column is the flat power index; kept on T."""
    return T.memo(
        ("place_values", n),
        lambda: _read_only(T.order ** np.arange(n - 1, -1, -1, dtype=np.int64)),
    )


def image_indices(e, *more):
    """Images of every element of T^n under ``e``, as an int64 array of
    flat power indices, elements in all_coords order; for the holomorph
    subgroup of a pair and the Aut0 permutations of the power-lemma suite.
    With ``more`` endomorphisms of the same power, a (1 + len(more), |T|^n)
    array, row k for the k-th endomorphism.

    One gather of the endomorphisms' ``rows`` from coordinate_images,
    whatever the count, then one dot with T's place values: the dot's int64
    operand widens the narrow table, so no flat index wraps.  For n = 1 the
    gathered rows are the flat indices already and one cast widens them.
    Both arrays are read from T's memo directly once built, so a call
    builds nothing but the row index and its results."""
    T, n = e.group, e.n
    rows = e.rows
    for other in more:
        if other.group is not T or other.n != n:
            raise ValueError("endomorphisms live over different powers")
        rows += other.rows
    table, places = T._memo.get(("coordinate_images", n)), T._memo.get(("place_values", n))
    if table is None or places is None:
        table, places = coordinate_images(T, n), _place_values(T, n)
    images = table[np.array(rows)]
    if n == 1:  # the place value is 1: the rows hold the flat indices, only widened
        images = images.astype(np.int64)
        return images if more else images[0]
    if more:
        images = images.reshape(1 + len(more), n, -1)
    return places @ images


# ── Pair files ─────────────────────────────────────────────────────
#
# Text format consumed by the CLI:
#
#     n=<k>
#     theta_f=<k comma-separated ints in 0..k>
#     phi_f=<k comma-separated entries: automorphism id, or "-" where theta is 0>
#     theta_g=...
#     phi_g=...


def _split_list(value, what, n):
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != n:
        raise PairFileError(f"{what} must have {n} entries, found {len(parts)}")
    return parts


def _parse_int_list(value, what, n):
    parts = _split_list(value, what, n)  # a PairFileError is a ValueError: split outside the try
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise PairFileError(f"{what} contains a non-integer entry") from None


def _parse_phi_list(value, what, theta, n):
    out = []
    for i, p in enumerate(_split_list(value, what, n)):
        if p == "-":
            if theta[i] != 0:
                raise PairFileError(
                    f'{what}[{i}] is "-" but the matching theta entry is {theta[i]}, not 0'
                )
            out.append(None)
        else:
            if theta[i] == 0:
                raise PairFileError(
                    f'{what}[{i}] must be "-" because the matching theta entry is 0'
                )
            try:
                out.append(int(p))
            except ValueError:
                raise PairFileError(f"{what}[{i}] is neither an id nor \"-\"") from None
    return out


def parse_pair_file(text, T):
    """Parse pair-file text into two StructuredEndos over T."""
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise PairFileError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in fields:
            raise PairFileError(f"line {lineno}: key {key} is given a second time")
        fields[key] = value.strip()
    for key in ("n", "theta_f", "phi_f", "theta_g", "phi_g"):
        if key not in fields:
            raise PairFileError(f"missing field {key}")
    try:
        n = int(fields["n"])
    except ValueError:
        raise PairFileError("n must be an integer") from None
    if n < 1:
        raise PairFileError("n must be at least 1")
    endos = []
    for tag in ("f", "g"):
        theta = _parse_int_list(fields[f"theta_{tag}"], f"theta_{tag}", n)
        phis = _parse_phi_list(fields[f"phi_{tag}"], f"phi_{tag}", theta, n)
        try:
            endos.append(StructuredEndo(T, n, tuple(theta), tuple(phis)))
        except ValueError as exc:
            raise PairFileError(f"invalid endomorphism {tag}: {exc}") from None
    return endos[0], endos[1]
