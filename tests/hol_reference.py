"""Hol(N) from its definition alone, the reference that the tests check the
package's holomorph tables and routes against.

The element (t, a) of Hol(N) is the permutation x ↦ a(x)·t⁻¹ of N, where
a is row a of ``N.automorphisms()``.  Elements compose as maps, and a
composite is named by the (t, a) whose permutation it is.  Nothing here
reads the package's Aut(N) or holomorph tables.
"""

from hopfgalois.holomorph import HolElement


def compose_perm(a, b):
    """Composite of permutation tuples, applying ``b`` first, then ``a``."""
    return tuple(a[x] for x in b)


def invert_perm(a):
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


class HolReference:
    def __init__(self, N):
        self.N = N
        mul, inv = N.mul, N.inv
        self.perm = {  # each element's permutation of N, computed once
            HolElement(t, i): tuple(mul[y][inv[t]] for y in a)
            for t in range(N.order) for i, a in enumerate(N.automorphisms())
        }
        self.name = {p: e for e, p in self.perm.items()}

    def compose(self, e1, e2):
        """The element applying e2 first, then e1."""
        return self.name[compose_perm(self.perm[e1], self.perm[e2])]

    def lambda_image(self):
        """The left translations x ↦ s·x."""
        return frozenset(map(self.name.__getitem__, self.N.mul))

    def rho_image(self):
        """The right translations x ↦ x·s."""
        return frozenset(map(self.name.__getitem__, zip(*self.N.mul)))
