"""The permutation-group routines against sympy's, on every graph with up
to five vertices: group order and orbits of each automorphism group.  The
Cayley-table builders against sympy's named groups: element orders, power
graph edges and the product convention.

sympy is a test-only dependency (the ``test`` extra); the library itself
stays on the standard library.
"""

from __future__ import annotations

import itertools

import pytest
from sympy.combinatorics import Permutation, PermutationGroup
from sympy.combinatorics.named_groups import CyclicGroup, SymmetricGroup

from quograph import automorphism_group, generated_elements, orbit_partition
from quograph.groups import make_cyclic, make_symmetric, power_graph
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


def _cyclic(n):
    """C_n with element "k" as the k-th power of sympy's n-cycle."""
    g = CyclicGroup(n).generators[0]
    images = [g**0]
    for _ in range(n - 1):
        images.append(images[-1] * g)
    return make_cyclic(n), CyclicGroup(n), dict(zip(map(str, range(n)), images))


def _symmetric(n):
    """S_n with the one-line element "231" as the array form [1, 2, 0]."""
    group = make_symmetric(n)
    return group, SymmetricGroup(n), {a: Permutation([int(c) - 1 for c in a]) for a in group.elements}


@pytest.mark.parametrize(
    "build,n", [(_cyclic, n) for n in range(1, 61)] + [(_symmetric, n) for n in range(1, 6)]
)
def test_named_groups_agree_with_sympy(build, n):
    group, sym_group, to_sym = build(n)
    label = {p: a for a, p in to_sym.items()}
    assert set(label) == set(sym_group.generate())
    powers = {}
    for a, p in to_sym.items():
        order, q, powers[a] = p.order(), p, set()
        for _ in range(order):
            powers[a].add(label[q])
            q *= p
        assert group.powers(a) == powers[a] and len(powers[a]) == order, a
    edges = {(x, y) if x < y else (y, x) for x in powers for y in powers[x] if y != x}
    assert set(power_graph(group).sorted_edges()) == edges
    # (a*b)(i) = a(b(i)), which sympy writes b*a.  Both tables are
    # associative, so the products with sympy's generators on either side
    # fix every product; S5's 14,400 are left to them.
    if group.order() <= 60:
        pairs = itertools.product(group.elements, repeat=2)
    else:
        generators = [label[s] for s in sym_group.generators]
        pairs = [pair for a in group.elements for s in generators for pair in ((a, s), (s, a))]
    for a, b in pairs:
        assert group.op(a, b) == label[to_sym[b] * to_sym[a]], (a, b)
