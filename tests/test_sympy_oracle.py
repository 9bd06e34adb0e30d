"""The permutation-group routines against sympy's, on every graph with up
to five vertices: group order and orbits of each automorphism group.

sympy is a test-only dependency (the ``test`` extra); the library itself
stays on the standard library.
"""

from __future__ import annotations

from sympy.combinatorics import Permutation, PermutationGroup

from quograph import automorphism_group, generated_elements, orbit_partition
from quograph.verify import enumerate_graphs


def test_order_and_orbits_agree_with_sympy():
    for g in enumerate_graphs(5):
        aut = automorphism_group(g)
        index = g.index
        images = [[index[f[v]] for v in g.vertices] for f in aut.generators]
        sym = PermutationGroup([Permutation(p) for p in images] or [Permutation(len(g.vertices) - 1)])
        assert sym.order() == len(generated_elements(aut)), g
        orbits = sorted(tuple(sorted(orbit)) for orbit in sym.orbits())
        assert tuple(tuple(g.vertices[x] for x in orbit) for orbit in orbits) == orbit_partition(aut).blocks, g
