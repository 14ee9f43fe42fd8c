"""Finite groups as explicit multiplication tables.

Everything downstream (structured endomorphisms, pair graphs, holomorph
searches) works with element *indices* into a validated Cayley table, with
the identity pinned at index 0.  This module provides the table type, a
small catalog of named groups, one generator-image backtracker that
enumerates homomorphisms, automorphisms and crossed homomorphisms (maps
with c(st) = c(s)·a_s(c(t)), a homomorphism being the case of the trivial
action) on each group's one generating sequence, direct powers T^n and
their coordinate arrays, and the closure of a set of elements to the
subgroup it generates.

A table is kept once, as a read-only int64 numpy array, ``np_mul``, which
every reader gathers from.  Walks by right products, which visit one
element at a time, read each generator's column x ↦ x·g as a Python list
gathered from it on first use.  Everything computed from a table (those
columns, the generating sequence, automorphisms, their array, Aut as a
table group and the fpf routes' rows, element orders and least generators
of cyclic subgroups, each automorphism's least non-identity fixed point
and so whether one is fixed point free, the powers T^n and their
coordinate arrays, the holomorph) lives in one memo on the group itself,
exactly as long as the group does.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

__all__ = [
    "GroupValidationError",
    "BudgetError",
    "FiniteGroup",
    "compose_perm",
    "invert_perm",
    "load_group",
    "catalog_names",
    "enumerate_homomorphisms",
    "crossed_homomorphisms",
    "automorphism_table_group",
    "find_isomorphism",
    "has_fpf_automorphism",
    "lowest_fixed_points",
    "power_group",
    "power_base",
    "power_identity",
    "power_index",
    "power_coords",
    "all_coords",
    "subgroup_closure",
    "row_finder",
]

class GroupValidationError(ValueError):
    """A multiplication table failed one of the group axioms."""


class BudgetError(RuntimeError):
    """An enumeration would exceed its configured work budget."""


def compose_perm(a, b):
    """Composite of permutation tuples, applying ``b`` first, then ``a``."""
    return tuple(a[x] for x in b)


def _read_only(arr):
    arr.setflags(write=False)
    return arr


def _is_prime(k):
    return k >= 2 and all(k % d for d in range(2, int(k**0.5) + 1))


def invert_perm(a):
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


# ── The table type ──────────────────────────────────────────────────────


def _check_closure(arr):
    """Refuse the first entry of the square table ``arr`` outside 0..order-1."""
    m = len(arr)
    outside = (arr < 0) | (arr >= m)
    if outside.any():
        x, y = map(int, np.argwhere(outside)[0])
        raise GroupValidationError(
            f"closure violated: mul[{x}][{y}] = {arr[x, y]} is outside 0..{m - 1}"
        )


class FiniteGroup:
    """A finite group given by its full multiplication table.

    Elements are the integers ``0 .. order-1`` with 0 the identity.  The
    instance is immutable in practice: all public operations are pure, and
    whatever is computed from the table is kept in :meth:`memo`.
    """

    def __init__(self, mul, name="?"):
        self.order = len(mul)
        self.name = name
        for x, row in enumerate(mul):
            if len(row) != self.order:
                raise GroupValidationError(
                    f"table is not square: row {x} has {len(row)} entries, "
                    f"expected {self.order}"
                )
        try:
            arr = np.array(mul, dtype=np.int64).reshape(self.order, self.order)
        except OverflowError:  # an entry past int64 is outside 0..order-1 as well
            _check_closure(np.array(mul, dtype=object).reshape(self.order, self.order))
            raise
        self.np_mul = _read_only(arr)
        self._memo = {}
        self.inv = self._validate()

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"

    @property
    def mul(self):
        """The table as a tuple of tuples of ints, built from ``np_mul`` on
        first read and kept in the memo; the package itself never reads it."""
        return self.memo("mul", lambda: tuple(map(tuple, self.np_mul.tolist())))

    def memo(self, key, build):
        """The derived value stored under ``key``, from ``build()`` on first use.

        This is the one store for data computed from the table, here and in
        the modules built on top (powers, coordinate arrays, Aut as a table
        group, holomorph); it lives and dies with the group.  A hit is
        one dict lookup; readers on a per-pair path read ``_memo`` with
        ``get`` first, so that a hit builds no ``build`` closure either.
        """
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    # -- validation ------------------------------------------------------

    def _validate(self):
        m = self.order
        arr = self.np_mul
        if m == 0:
            raise GroupValidationError("empty multiplication table")
        _check_closure(arr)
        # Identity must be index 0, acting trivially on both sides.
        rng = np.arange(m)
        if (arr[0] != rng).any():
            y = int(np.argwhere(arr[0] != rng)[0, 0])
            raise GroupValidationError(
                f"identity violated: mul[0][{y}] = {arr[0, y]}, expected {y}"
            )
        if (arr[:, 0] != rng).any():
            x = int(np.argwhere(arr[:, 0] != rng)[0, 0])
            raise GroupValidationError(
                f"identity violated: mul[{x}][0] = {arr[x, 0]}, expected {x}"
            )
        self._check_associativity(arr)
        # Every element needs a two-sided inverse; validation returns them.
        inv = (arr == 0).argmax(axis=1)
        bad = (arr[rng, inv] != 0) | (arr[inv, rng] != 0)
        if bad.any():
            raise GroupValidationError(
                f"inverses violated: element {int(np.argwhere(bad)[0, 0])} has no two-sided inverse"
            )
        return tuple(inv.tolist())

    def _check_associativity(self, arr):
        """Light's test (Clifford & Preston, The Algebraic Theory of
        Semigroups, §1.2): the g with (x·g)·y = x·(g·y) for all x, y include
        the identity and are closed under products ((x·ab)·y = ((x·a)·b)·y =
        (x·a)·(b·y) = x·(a·(b·y)) = x·((a·b)·y)), and every element is a
        left-normed product of the closure sequence, so checking the
        sequence decides associativity exactly."""
        for g in self._closure_sequence():
            left = arr[arr[:, g]]     # left[x, y] = (x·g)·y
            right = arr[:, arr[g]]    # right[x, y] = x·(g·y)
            bad = left != right
            if bad.any():
                a, c = map(int, np.argwhere(bad)[0])
                raise GroupValidationError(
                    f"associativity violated at ({a}, {g}, {c}): "
                    f"(ab)c = {int(left[a, c])} but a(bc) = {int(right[a, c])}"
                )

    # -- basic element arithmetic -----------------------------------------

    def right_products(self, gens):
        """For each g in ``gens`` the column x ↦ x·g, a list indexed by x,
        read from ``np_mul`` on first use and kept on the group.  Walks by
        right products read these."""
        columns = self.memo("columns", dict)
        try:
            return [columns[g] for g in gens]
        except KeyError:
            for g in gens:
                if g not in columns:
                    columns[g] = self.np_mul[:, g].tolist()
            return [columns[g] for g in gens]

    def element_orders(self):
        return self.memo("powers", self._power_walk)[0]

    def least_generators(self):
        """Read-only bool array: entry x says x is the least generator of <x>."""
        return self.memo("powers", self._power_walk)[1]

    def _power_walk(self):
        """(element orders, least-generator flags) from one walk over the
        powers x, x^2, ..., x^J of every x at once, J doubling (x^(j+i) =
        x^j·x^i) until each x has met the identity.  The order of x is its
        first power that is 0; the generators of <x> are its powers of the
        same order."""
        mul = self.np_mul
        x = mul[0]  # every x, as 1·x
        powers = np.array((x, mul.diagonal()))  # row k holds every x^(k+1)
        while powers.all(axis=0).any():  # some x has no power 0 yet
            powers = np.concatenate((powers, mul[powers[-1], powers]))
        orders = powers.argmin(axis=0) + 1
        same = orders[powers] == orders
        least = np.minimum.reduce(powers, initial=self.order, where=same)
        return tuple(orders.tolist()), _read_only(least == x)

    def is_abelian(self):
        return bool((self.np_mul == self.np_mul.T).all())

    # -- generation ---------------------------------------------------------

    def generating_sequence(self):
        """The generating sequence every generator-image search runs on: the
        lowest-index element of order |G| when there is one, else the first
        generating pair by index, else :meth:`_closure_sequence`.  The pair
        scan skips each j inside a proper subgroup already met with i, <i>
        or a proper <i, j'>, as <i, j> is proper too.  Short sequences give
        the shallowest search trees; built once and kept on the group."""
        return self.memo("gens", self._find_generators)

    def _find_generators(self):
        if self.order == 1:
            return ()
        orders = self.element_orders()
        if self.order in orders:
            return (orders.index(self.order),)
        for i in range(1, self.order):
            covered = set(subgroup_closure(self, (i,)))
            for j in range(i + 1, self.order):
                sub = () if j in covered else subgroup_closure(self, (i, j))
                if len(sub) == self.order:
                    return (i, j)
                covered.update(sub)
        return self._closure_sequence()

    def _closure_sequence(self):
        """Repeatedly append the lowest-index element not reached by right
        products of 0 and the elements so far (``subgroup_closure``; for a
        group, the subgroup they generate).  It assumes no axiom beyond the
        identity at 0, so validation can use it: every element is a
        left-normed product of the sequence."""
        gens, have = [], {0}
        for gen in range(1, self.order):
            if gen not in have:
                gens.append(gen)
                have = set(subgroup_closure(self, gens))
        return tuple(gens)

    def _word_levels(self, gens):
        """Closure bookkeeping for generator-image backtracking, no product
        table.  Level k covers the subgroup generated by ``gens[:k+1]`` (an
        irredundant sequence) and is (elems, gen, waves, closing): its
        elements, gens[k], the spanning steps new = parent·g that extend a
        map to the new elements, and the closing triples (x, g, x·g) whose
        product was already known.  The steps come in waves by word depth,
        so every parent in a wave is known before the wave; a wave is
        (new, [parents, gens]) and the closing triples are the index rows
        [x·g, x, g].  Each pair of an element x ≠ 1 and a generator is a
        step or a closing triple at exactly one level."""
        return self.memo(("levels", gens), lambda: self._build_levels(gens))

    def _build_levels(self, gens):
        levels, elems, known = [], [0], {0}
        columns = list(zip(gens, self.right_products(gens)))
        for k, gen in enumerate(gens):
            start = len(elems)  # pairs of these with gens[:k] closed at earlier levels
            known.add(gen)
            elems.append(gen)
            depth = dict.fromkeys(elems, 0)
            steps, closing, ends = [], [], []
            for i, x in enumerate(elems):  # runs over the elements appended below too
                for g, col in columns[k : k + 1] if i < start else columns[: k + 1]:
                    y = col[x]
                    if y not in known:
                        known.add(y)
                        elems.append(y)
                        depth[y] = depth[x] + 1
                        if depth[y] > len(ends):  # found breadth first: depths never fall
                            ends.append(len(steps))
                        steps.append((y, x, g))
                    elif x:
                        closing.append((y, x, g))
            ends.append(len(steps))
            cols = _read_only(np.array(steps + closing, dtype=np.intp).reshape(-1, 3).T.copy())
            waves = tuple((cols[0, a:b], cols[1:, a:b]) for a, b in zip(ends, ends[1:]))
            elem_ids = _read_only(np.array(elems, dtype=np.intp))
            levels.append((elem_ids, gen, waves, cols[:, len(steps):]))
        return levels

    # -- automorphisms -------------------------------------------------------

    def automorphisms(self):
        """All automorphisms, as image tuples sorted lexicographically.

        The position in this list is the automorphism id used everywhere
        else (file formats, wreath coordinates, holomorph elements); the
        identity automorphism always lands at id 0.  A kept list is read
        from the memo directly, building no closure: every structured
        endomorphism reads it once.
        """
        auts = self._memo.get("auts")
        return auts if auts is not None else self.memo(
            "auts", lambda: tuple(sorted(enumerate_homomorphisms(self, self, bijective=True)))
        )

    def aut_array(self):
        """The automorphisms as a read-only (|Aut|, order) int64 array, row i
        holding the images of automorphism id i."""
        return self.memo(
            "aut_array", lambda: _read_only(np.array(self.automorphisms(), dtype=np.int64))
        )

    def aut_index(self, images):
        index = self.memo(
            "aut_index", lambda: {a: i for i, a in enumerate(self.automorphisms())}
        )
        try:
            return index[tuple(images)]
        except KeyError:
            raise ValueError("images tuple is not an automorphism of this group") from None

    def conjugation_images(self, g):
        return tuple(self.np_mul[self.np_mul[g], self.inv[g]].tolist())

    def conjugation_aut_ids(self):
        """Read-only int64 array whose entry g is the aut id of conjugation
        by g, built once and kept on the group."""
        return self.memo("conj_aut_ids", lambda: _read_only(np.array(
            [self.aut_index(self.conjugation_images(x)) for x in range(self.order)], dtype=np.int64
        )))

    def conjugation_aut_id(self, g):
        return int(self.conjugation_aut_ids()[g])

    def inner_automorphism_ids(self):
        """Sorted, deduplicated list of aut ids realized by conjugation."""
        return self.memo(
            "inner_ids", lambda: tuple(np.unique(self.conjugation_aut_ids()).tolist())
        )


# ── Catalog and file loading ───────────────────────────────────────────


def _table_from_perms(perms, name):
    """The group of the permutation tuples ``perms``, element i the i-th
    in sorted order, product i·j the composite applying j first: one
    gather composes every pair and one ``row_finder`` query names them."""
    perms = np.array(sorted(perms), dtype=np.int64)
    mul = row_finder(perms, perms.shape[1])(perms[:, perms])  # [i, j, x]: perms[i][perms[j][x]]
    return FiniteGroup(mul, name=name)


def _cyclic(k):
    return FiniteGroup([[(i + j) % k for j in range(k)] for i in range(k)], name=f"c{k}")


def _symmetric(k):
    return _table_from_perms(itertools.permutations(range(k)), f"s{k}")


def _alternating(k):
    evens = []
    for p in itertools.permutations(range(k)):
        inversions = sum(1 for i in range(k) for j in range(i + 1, k) if p[i] > p[j])
        if inversions % 2 == 0:
            evens.append(p)
    return _table_from_perms(evens, f"a{k}")


def _dihedral(k):
    """Symmetries of the regular k-gon as vertex permutations, order 2k."""
    perms = set()
    for s in range(k):
        perms.add(tuple((i + s) % k for i in range(k)))
        perms.add(tuple((s - i) % k for i in range(k)))
    return _table_from_perms(perms, f"d{k}")


def _quaternion8():
    # Elements in the order +1, -1, +i, -i, +j, -j, +k, -k; index 2u+s for
    # unit u in (1,i,j,k) and sign bit s.
    unit = {
        (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
        (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
        (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
        (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
    }
    mul = [[0] * 8 for _ in range(8)]
    for u1, s1 in itertools.product(range(4), range(2)):
        for u2, s2 in itertools.product(range(4), range(2)):
            s3, u3 = unit[(u1, u2)]
            mul[2 * u1 + s1][2 * u2 + s2] = 2 * u3 + ((s1 + s2 + s3) % 2)
    return FiniteGroup(mul, name="q8")


_BUILDERS = {f"c{k}": (lambda k=k: _cyclic(k)) for k in range(2, 13)}
_BUILDERS.update(
    s3=lambda: _symmetric(3),
    s4=lambda: _symmetric(4),
    s5=lambda: _symmetric(5),
    d4=lambda: _dihedral(4),
    d5=lambda: _dihedral(5),
    q8=_quaternion8,
    a4=lambda: _alternating(4),
    a5=lambda: _alternating(5),
)

_CATALOG_CACHE: dict[str, FiniteGroup] = {}


def catalog_names():
    return sorted(_BUILDERS)


def load_group(source):
    """Load a group by catalog name or from a Cayley-table file.

    File format: line 1 is the order m; each of the next m lines holds m
    space-separated 0-based element indices (row x is mul[x][0..m-1]).
    Index 0 must be the identity.  The table is validated axiom by axiom
    and the first violation is named in the error.
    """
    key = str(source)
    if key in _BUILDERS:
        if key not in _CATALOG_CACHE:
            _CATALOG_CACHE[key] = _BUILDERS[key]()
        return _CATALOG_CACHE[key]
    path = Path(key)
    if not path.is_file():
        raise GroupValidationError(
            f"unknown group source {key!r}: not a catalog name "
            f"({', '.join(catalog_names())}) and not a file"
        )
    return _parse_cayley_file(path)


def _parse_cayley_file(path):
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if not lines:
        raise GroupValidationError(f"{path}: empty file")
    try:
        m = int(lines[0].split()[0])
    except ValueError:
        raise GroupValidationError(f"{path}: line 1 must be the group order") from None
    if m <= 0:
        raise GroupValidationError(f"{path}: order must be positive, got {m}")
    if len(lines) != m + 1:
        raise GroupValidationError(f"{path}: expected {m} table rows, found {len(lines) - 1}")
    rows = []
    for x, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) != m:
            raise GroupValidationError(
                f"{path}: row {x} has {len(parts)} entries, expected {m}"
            )
        try:
            rows.append([int(v) for v in parts])
        except ValueError:
            raise GroupValidationError(f"{path}: row {x} contains a non-integer") from None
    return FiniteGroup(rows, name=path.stem)


# ── Homomorphism search ─────────────────────────────────────────────────


_FIRST_BLOCK_ROWS = 32  # maps in a search's first block (at least one parent)
_BLOCK_ROWS = 256  # maps a block grows to (more only when one parent has more candidates)


def _backtrack_images(src, dst, gens, candidates, action=None, injective=False):
    """Yield every map c: src → dst with c(st) = c(s)·a_s(c(t)), as a full
    image tuple.

    ``action`` is an (|src|, |dst|) array whose row s is the permutation
    a_s of dst, with s ↦ a_s a homomorphism into Aut(dst); None stands for
    the trivial action, whose maps are the homomorphisms.  The image of
    gens[k] is taken from ``candidates[k]``.

    The search runs on blocks of partial maps, held as the int32 columns
    of an (|src|, block) array.  At level k a block repeats each of its
    parent maps (fixed on the subgroup generated by gens[:k]) once per
    candidate for gens[k], fills the level's new elements one wave of
    ``FiniteGroup._word_levels`` at a time, each wave one gather from
    dst's table, and keeps the maps that satisfy every closing triple of
    the level, compared in one array operation.  That is exact: given
    c(x·g) = c(x)·a_x(c(g)) for every x and generator g, induction on the
    word length of t gives the law for every pair s, t.  ``injective``
    drops the maps that repeat an image on the level's elements, found
    with one mark array per block.

    The survivors of a block are searched to the last level before the
    next block is built.  A block takes as many parents as fit in its
    size in maps, and at least one; the size starts at
    ``_FIRST_BLOCK_ROWS`` and doubles per block until the search first
    reaches the last level, and is ``_BLOCK_ROWS`` from then on, so the
    first map costs one small block per level.  Maps come out in the
    depth-first order of the candidate lists: lexicographic in the
    positions of c(gens[0]) in candidates[0], c(gens[1]) in
    candidates[1], and so on.  ``find_isomorphism`` returns the first
    map, and callers that keep a prefix rely on the order.
    """
    if not gens:
        yield (0,) * src.order
        return
    levels = src._word_levels(gens)
    dmul = dst.np_mul
    act = None if action is None else np.asarray(action)
    cands = [np.asarray(c, dtype=np.int32) for c in candidates]
    block_rows = _FIRST_BLOCK_ROWS

    def product(cx, cg, xs):  # c(x)·a_x(c(g)) for each (x, g) and each map
        return dmul[cx, cg if act is None else act[xs[:, None], cg]]

    def children(k, parents):
        elems, gen, waves, closing = levels[k]
        maps = np.repeat(parents, len(cands[k]), axis=1)
        maps.reshape(src.order, parents.shape[1], len(cands[k]))[gen] = cands[k]
        for new, pairs in waves:
            maps[new] = product(*maps[pairs], pairs[0])
        cxg, cx, cg = maps[closing]
        maps = maps[:, (cxg == product(cx, cg, closing[1])).all(axis=0)]
        if injective and maps.shape[1]:
            marks = np.zeros((maps.shape[1], dst.order), dtype=bool)
            marks[np.arange(maps.shape[1]), maps[elems]] = True
            maps = maps[:, marks.sum(axis=1) == len(elems)]
        return maps

    def descend(k, parents):
        nonlocal block_rows
        start, c = 0, max(1, len(cands[k]))
        while start < parents.shape[1]:
            stop = start + max(1, block_rows // c)
            maps = children(k, parents[:, start:stop])
            start = stop
            if k + 1 == len(gens):
                block_rows = _BLOCK_ROWS
                yield from map(tuple, maps.T.tolist())
            else:
                block_rows = min(2 * block_rows, _BLOCK_ROWS)
                if maps.shape[1]:
                    yield from descend(k + 1, maps)

    yield from descend(0, np.zeros((src.order, 1), dtype=np.int32))


def enumerate_homomorphisms(src, dst, bijective=False):
    """Yield all homomorphisms src → dst as full image tuples, searched on
    the generating sequence of src in the backtracker's order.

    Each generator of ``src`` may only go to an element whose order
    divides its own (equals it, with ``bijective=True``, which yields only
    isomorphisms onto dst; orders must already match).
    """
    if bijective and src.order != dst.order:
        return
    gens = src.generating_sequence()
    src_orders = src.element_orders()
    dst_orders = dst.element_orders()
    candidates = []
    for g in gens:
        o = src_orders[g]
        if bijective:
            cand = [y for y in range(dst.order) if dst_orders[y] == o]
        else:
            cand = [y for y in range(dst.order) if o % dst_orders[y] == 0]
        candidates.append(cand)
    yield from _backtrack_images(src, dst, gens, candidates, injective=bijective)


def crossed_homomorphisms(N, f_perm_rows, bijective=False):
    """All crossed maps g: N -> N relative to a homomorphism f into Aut(N),
    i.e. g(st) = g(s)·f(s)(g(t)) with g(identity) = 1, as image tuples
    (only the bijective ones with ``bijective=True``).

    ``f_perm_rows`` is an (|N|, |N|) int array: row s is the permutation
    f(s).  Every element is a candidate image of each generator.  The
    backtracker checks the law only on (x, generator) pairs, which is exact
    only when f is a homomorphism into Aut(N); so, over the same generators
    g, this first checks f(x·g) = f(x)∘f(g) for every x and that f(g) is a
    bijection preserving products, and raises ValueError naming the check
    that fails.
    """
    gens = N.generating_sequence()
    F, mul = np.asarray(f_perm_rows, dtype=np.int64), N.np_mul
    for g in gens:
        a = F[g]
        if (np.sort(a) != np.arange(N.order)).any() or (a[mul] != mul[a[:, None], a]).any():
            raise ValueError(f"f({g}) is not an automorphism of {N.name}")
        if (F[mul[:, g]] != F[:, a]).any():
            raise ValueError(f"f is not a homomorphism: f(x·{g}) != f(x)∘f({g}) for some x")
    return _backtrack_images(
        N, N, gens, [np.arange(N.order)] * len(gens), action=F, injective=bijective
    )


def automorphism_table_group(N):
    """Aut(N) as a FiniteGroup whose element i is automorphism id i and
    whose product i·j applies j first, built once and kept on N."""

    def build():
        auts = N.aut_array()
        # An automorphism is fixed by its images of a generating sequence.
        gen_images = auts[:, list(N.generating_sequence())]
        mul = row_finder(gen_images, N.order)(auts[:, gen_images])  # [i, j]: images of i∘j
        if mul is None:
            raise RuntimeError(f"a composite of two automorphisms of {N.name} is not among them")
        return FiniteGroup(mul, name=f"Aut({N.name})")

    return N.memo("aut_group", build)


def row_finder(keys, radix):
    """``find(rows)``: the position of each row (last axis) among the distinct
    rows of ``keys``, all ints below ``radix``, or None if one is missing.
    One sorted search of radix codes; a code too wide for int64 raises."""
    weights = np.array([radix**k for k in range(keys.shape[-1], -1, -1)], dtype=np.int64)[1:]
    codes = keys @ weights
    order = np.argsort(codes)
    codes = codes[order]

    def find(rows):
        query = rows @ weights
        at = np.minimum(np.searchsorted(codes, query), len(codes) - 1)
        return order[at] if (codes[at] == query).all() else None

    return find


def find_isomorphism(src, dst):
    """An isomorphism src → dst as an image tuple, or None."""
    if src.order != dst.order:
        return None
    if sorted(src.element_orders()) != sorted(dst.element_orders()):
        return None
    return next(enumerate_homomorphisms(src, dst, bijective=True), None)


# ── Fixed-point-freeness of automorphisms ───────────────────────────────


def lowest_fixed_points(G):
    """Per automorphism id, its least fixed point other than the identity,
    or None when it fixes only the identity; built once and kept on G."""

    def build():
        fixed = G.aut_array() == np.arange(G.order)
        fixed[:, 0] = False  # every automorphism fixes the identity; it never counts
        return tuple(int(k) if row.any() else None for k, row in zip(fixed.argmax(axis=1), fixed))

    return G.memo("lowest_fixed_points", build)


def has_fpf_automorphism(G):
    """Whether some automorphism of G fixes only the identity, read off
    ``lowest_fixed_points`` once and kept on G."""
    return G.memo("has_fpf_aut", lambda: None in lowest_fixed_points(G))


# ── Direct powers T^n ───────────────────────────────────────────────────
#
# A power element is a plain tuple of n T-indices.  power_group builds the
# same group as an honest FiniteGroup whose element k encodes the tuple in
# row-major order, so tuple arithmetic and table arithmetic interconvert
# through power_index / power_coords, and all_coords lists every tuple.


def power_identity(n):
    return (0,) * n

def power_index(T, coords):
    """Row-major index of a coordinate tuple.  ``coords`` may also be an
    array whose first axis runs over the coordinates; the result is then
    the array of indices."""
    k = 0
    for c in coords:
        k = k * T.order + c
    return k

def power_coords(T, n, k):
    out = [0] * n
    for i in range(n - 1, -1, -1):
        out[i] = k % T.order
        k //= T.order
    return tuple(out)

def all_coords(T, n):
    """Read-only (|T|^n, n) int64 array whose row k is power_coords(T, n, k);
    built once per n and kept on T."""
    return T.memo(
        ("coords", n),
        lambda: _read_only(np.indices((T.order,) * n, dtype=np.int64).reshape(n, -1).T),
    )


def power_group(T, n):
    """The direct power T^n as a FiniteGroup (T itself when n = 1), built
    once per n and kept on T; the power keeps (T, n) for ``power_base``."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return T

    def build():
        cols = all_coords(T, n).T  # cols[i] holds coordinate i of every element
        mul = power_index(T, T.np_mul[cols[:, :, None], cols[:, None, :]])
        G = FiniteGroup(mul, name=f"{T.name}^{n}")
        G.memo("power_of", lambda: (T, n))
        return G

    return T.memo(("power", n), build)


def power_base(N):
    """(T, n) when N was built by ``power_group(T, n)``, else (N, 1); a read
    that stores nothing on N."""
    return N._memo.get("power_of", (N, 1))


# ── Subgroup closure ────────────────────────────────────────────────────


def subgroup_closure(G, seed, limit=None):
    """Sorted tuple of the subgroup generated by ``seed`` (indices), or None
    as soon as it has more than ``limit`` elements.

    The words in the seed are walked from the identity by right
    multiplication (in a finite group the inverses are positive powers),
    |H|·|seed| products for a subgroup H."""
    limit = G.order if limit is None else limit
    columns = G.right_products(set(seed) - {0})
    have, work = {0}, [0]
    for x in work:
        for col in columns:
            y = col[x]
            if y not in have:
                have.add(y)
                work.append(y)
                if len(have) > limit:
                    return None
    return tuple(sorted(have)) if len(have) <= limit else None
