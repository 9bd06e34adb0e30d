"""Finite groups by Cayley table, their power graphs, and conjugation actions.

This is the demonstration layer: the directed "is a power of" relation on a
finite group, symmetrized, gives a reflexive graph on which conjugation acts
by automorphisms, so the orbit machinery of the rest of the package applies.
"""

from __future__ import annotations

from .errors import HypothesisError, InternalCheckError
from .graphs import Graph
from .perms import PermGroup, Permutation, verify_automorphisms

MAX_ORDER = 120


class FiniteGroup:
    """A finite group given by its full Cayley table.

    Validation happens at construction and proves the group axioms: closure,
    the identity and inverses are checked on the whole table, and
    associativity by Light's test on the generators ``generating_set`` finds,
    O(|S|·n²) lookups instead of n³.  Those generators are kept as
    ``generators``.
    """

    __slots__ = ("elements", "identity", "generators", "_table")

    def __init__(self, elements, identity, table):
        self.elements = tuple(elements)
        if len(self.elements) != len(set(self.elements)):
            raise ValueError("duplicate group element")
        if not self.elements:
            raise ValueError("a group needs at least one element")
        if len(self.elements) > MAX_ORDER:
            raise ValueError(f"group order {len(self.elements)} exceeds the cap {MAX_ORDER}")
        if identity not in self.elements:
            raise ValueError(f"identity {identity!r} is not an element")
        self.identity = identity
        universe = set(self.elements)
        self._table = {}
        for a in self.elements:
            row = table.get(a)
            if row is None:
                raise ValueError(f"Cayley table has no row for {a!r}")
            for b in self.elements:
                if b not in row:
                    raise ValueError(f"Cayley table misses the product {a!r}*{b!r}")
                c = row[b]
                if c not in universe:
                    raise ValueError(f"product {a!r}*{b!r} = {c!r} is not an element")
                self._table[(a, b)] = c
        self._validate()

    def _validate(self):
        e, table = self.identity, self._table
        for a in self.elements:
            if table[(e, a)] != a or table[(a, e)] != a:
                raise ValueError(f"{e!r} does not act as the identity on {a!r}")
        units = {ab for ab, c in table.items() if c == e}
        invertible = {a for a, b in units if (b, a) in units}
        for a in self.elements:
            if a not in invertible:
                raise ValueError(f"element {a!r} has no inverse")
        # Light's test.  The middle factors s with (x*s)*y == x*(s*y) for all
        # x, y are closed under the product and hold the identity, and
        # generating_set closes the identity under products with its
        # generators until every element is reached; so passing the test on
        # the generators proves the whole table associative.
        self.generators = tuple(generating_set(self))
        for s in self.generators:
            for x in self.elements:
                xs = table[(x, s)]
                for y in self.elements:
                    if table[(xs, y)] != table[(x, table[(s, y)])]:
                        raise ValueError(f"associativity fails on ({x!r}, {s!r}, {y!r})")

    # ------------------------------------------------------------ operations

    def op(self, a: str, b: str) -> str:
        return self._table[(a, b)]

    def inverse(self, a: str) -> str:
        for b in self.elements:
            if self._table[(a, b)] == self.identity:
                return b
        raise InternalCheckError(f"no inverse found for {a!r} after validation")

    def powers(self, a: str) -> frozenset[str]:
        """All positive powers of a; always contains a and the identity."""
        out = {a}
        x = a
        while x != self.identity:
            x = self._table[(x, a)]
            out.add(x)
        return frozenset(out)

    def order(self) -> int:
        return len(self.elements)

    def __repr__(self):
        return f"FiniteGroup(order {len(self.elements)})"


# ------------------------------------------------------------------ builders

def make_cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n (1 <= n <= 60), elements "0".."n-1", addition mod n."""
    if not 1 <= n <= 60:
        raise ValueError(f"cyclic order {n} out of the supported range 1..60")
    elements = [str(i) for i in range(n)]
    table = {a: {b: str((int(a) + int(b)) % n) for b in elements} for a in elements}
    return FiniteGroup(elements, "0", table)


def make_symmetric(n: int) -> FiniteGroup:
    """Symmetric group on {1..n} (1 <= n <= 5) in one-line notation.

    The element "231" is the permutation sending 1->2, 2->3, 3->1; products
    compose right to left, (a*b)(i) = a(b(i)).
    """
    if not 1 <= n <= 5:
        raise ValueError(f"symmetric degree {n} out of the supported range 1..5")
    import itertools
    from operator import itemgetter

    identity = "12345"[:n]
    elements = ["".join(p) for p in itertools.permutations(identity)]
    # a*b picks the letters a[b(1)-1], ..., a[b(n)-1] of a's label
    picks = {b: itemgetter(*(int(i) - 1 for i in b)) for b in elements}
    table = {a: {b: "".join(pick(a)) for b, pick in picks.items()} for a in elements}
    return FiniteGroup(elements, identity, table)


def make_klein_four() -> FiniteGroup:
    """The Klein four-group: three commuting involutions."""
    elements = ["e", "a", "b", "c"]
    table = {
        "e": {"e": "e", "a": "a", "b": "b", "c": "c"},
        "a": {"e": "a", "a": "e", "b": "c", "c": "b"},
        "b": {"e": "b", "a": "c", "b": "e", "c": "a"},
        "c": {"e": "c", "a": "b", "b": "a", "c": "e"},
    }
    return FiniteGroup(elements, "e", table)


# ---------------------------------------------------------------- power graphs

def _power_edges(group: FiniteGroup, elements) -> frozenset[frozenset[str]]:
    """Distinct x, y among ``elements`` where one is a positive power of the other."""
    pows = {a: group.powers(a) for a in elements}
    return frozenset(
        frozenset((x, y))
        for i, x in enumerate(elements)
        for y in elements[i + 1 :]
        if x in pows[y] or y in pows[x]
    )


def power_graph(group: FiniteGroup) -> Graph:
    """Undirected power graph: distinct x, y joined when one is a positive
    power of the other.  The identity is adjacent to everything."""
    return Graph(group.elements, _power_edges(group, group.elements))


def proper_power_graph(group: FiniteGroup) -> Graph:
    """The power graph with the identity deleted (induced on the rest)."""
    if group.order() < 2:
        raise HypothesisError("the trivial group has no proper power graph")
    rest = tuple(x for x in group.elements if x != group.identity)
    return Graph(rest, _power_edges(group, rest))


def generating_set(group: FiniteGroup) -> list[str]:
    """A small generating set, found greedily by closure.

    Every element is reached from the identity by multiplying, on either
    side, by generators; ``FiniteGroup``'s associativity proof rests on it.
    """
    gens: list[str] = []
    closed = {group.identity}
    for a in group.elements:
        if a in closed:
            continue
        gens.append(a)
        frontier = list(closed)
        closed.add(a)
        frontier.append(a)
        while frontier:
            x = frontier.pop()
            for s in gens:
                for y in (group.op(x, s), group.op(s, x)):
                    if y not in closed:
                        closed.add(y)
                        frontier.append(y)
        if len(closed) == group.order():
            break
    return gens


def conjugation_group(group: FiniteGroup, on_graph: Graph) -> PermGroup:
    """Conjugation x -> s^-1 x s, restricted to the power graph's vertices.

    ``on_graph`` must be the power graph or the proper power graph of the
    group; its vertex set and edges are checked against the power relation
    itself, so no second graph is built.  One permutation per member of a
    generating set of the group; the orbits of the result are the conjugacy
    classes (intersected with the graph's vertices).  Every permutation is
    checked to be an automorphism of ``on_graph`` before returning.
    """
    universe = frozenset(group.elements)
    verts = tuple(x for x in group.elements if x in on_graph.vertex_set)
    if on_graph.vertex_set not in (universe, universe - {group.identity}) or (
        on_graph.proper_edges != _power_edges(group, verts)
    ):
        raise ValueError("graph is not a power graph of this group")
    gens = []
    for s in group.generators:
        s_inv = group.inverse(s)
        gens.append(Permutation({x: group.op(group.op(s_inv, x), s) for x in verts}))
    grp = PermGroup(verts, gens)
    if not verify_automorphisms(on_graph, grp):
        raise InternalCheckError("conjugation failed the automorphism check on the power graph")
    return grp
