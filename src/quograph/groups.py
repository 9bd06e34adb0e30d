"""Finite groups by Cayley table, their power graphs, and conjugation actions.

This is the demonstration layer: the directed "is a power of" relation on a
finite group, symmetrized, gives a reflexive graph on which conjugation acts
by automorphisms, so the orbit machinery of the rest of the package applies.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

from .errors import HypothesisError, InternalCheckError
from .graphs import Graph
from .perms import PermGroup, verify_automorphisms

MAX_ORDER = 120


class FiniteGroup:
    """A finite group given by its full Cayley table.

    Labels live only at the edges: ``elements`` holds them in order,
    ``_index`` maps each back to its position, and ``_rows[a][b]`` is the
    index of the product of elements a and b, a tuple of n integer tuples.

    Validation happens at construction and proves the group axioms: closure,
    the identity and inverses are checked on the whole table, and
    associativity by Light's test on the generators ``generating_set`` finds,
    one comparison of two n-tuples per (x, s) instead of n³ lookups.  Those
    generators are kept as ``generators``.
    """

    __slots__ = ("elements", "identity", "generators", "_index", "_rows")

    def __init__(self, elements, identity, table):
        try:
            if isinstance(elements, (str, dict)):  # "ea" would be read as the elements e and a
                raise TypeError
            elements = tuple(elements)
        except TypeError:
            raise ValueError(f"group elements {elements!r} are not a list") from None
        for a in elements:  # they become vertex labels of the power graphs
            if not isinstance(a, str):
                raise ValueError(f"group element {a!r} is not a string")
        # the table's own shape, in its own order, rows of non-elements included
        if not hasattr(table, "keys"):
            raise ValueError(f"Cayley table {table!r} is not an object")
        for row in table.values():
            if not hasattr(row, "keys"):
                raise ValueError(f"table row {row!r} is not an object")
            for c in row.values():
                if not isinstance(c, str):
                    raise ValueError(f"product {c!r} is not a string")
        if len(elements) != len(set(elements)):
            raise ValueError("duplicate group element")
        if not elements:
            raise ValueError("a group needs at least one element")
        if len(elements) > MAX_ORDER:
            raise ValueError(f"group order {len(elements)} exceeds the cap {MAX_ORDER}")
        if identity not in elements:
            raise ValueError(f"identity {identity!r} is not an element")
        index = {a: i for i, a in enumerate(elements)}
        _refuse_table(table, elements, index)
        rows = tuple([tuple([index[row[b]] for b in elements]) for row in map(table.get, elements)])
        self._validate(index, index[identity], rows)

    @classmethod
    def _from_rows(cls, elements, e, rows):
        """A group from labels, the identity's index e and integer rows that
        the caller built itself; the group axioms are still proved."""
        group = cls.__new__(cls)
        group._validate({a: i for i, a in enumerate(elements)}, e, rows)
        return group

    def _validate(self, index, e, rows):
        """Keep the label index and the rows, and prove the group axioms on
        them; e is the identity's index."""
        self.elements = elements = tuple(index)
        self.identity, self._index, self._rows = elements[e], index, rows
        ident = tuple(range(len(rows)))
        if rows[e] != ident or tuple(row[e] for row in rows) != ident:
            a = next(a for a in ident if rows[e][a] != a or rows[a][e] != a)
            raise ValueError(f"{elements[e]!r} does not act as the identity on {elements[a]!r}")
        for a, row in enumerate(rows):
            # the first right inverse settles a group's row; a table that is
            # no group may need another of a's right units
            if e not in row or (
                rows[row.index(e)][a] != e and not any(rows[b][a] == e for b in ident if row[b] == e)
            ):
                raise ValueError(f"element {elements[a]!r} has no inverse")
        # Light's test.  The middle factors s with (x*s)*y == x*(s*y) for all
        # x, y are closed under the product and hold the identity, and
        # generating_set closes the identity under products with its
        # generators until every element is reached; so passing the test on
        # the generators proves the whole table associative.  Row x*s must
        # equal row x read through row s.  A generator exists only when
        # n >= 2, so itemgetter always returns a tuple here.
        self.generators = tuple(generating_set(self))
        for s in map(index.__getitem__, self.generators):
            through_s = itemgetter(*rows[s])
            for x, row in enumerate(rows):
                if rows[row[s]] != through_s(row):
                    y = next(y for y in ident if rows[row[s]][y] != row[rows[s][y]])
                    raise ValueError(
                        f"associativity fails on ({elements[x]!r}, {elements[s]!r}, {elements[y]!r})"
                    )

    # ------------------------------------------------------------ operations

    def op(self, a: str, b: str) -> str:
        return self.elements[self._rows[self._index[a]][self._index[b]]]

    def inverse(self, a: str) -> str:
        return self.elements[self._rows[self._index[a]].index(self._index[self.identity])]

    def powers(self, a: str) -> frozenset[str]:
        """All positive powers of a; always contains a and the identity."""
        return frozenset(map(self.elements.__getitem__, _cyclic_subgroup(self._rows, self._index[a])))

    def order(self) -> int:
        return len(self.elements)

    def __repr__(self):
        return f"FiniteGroup(order {len(self.elements)})"


def _refuse_table(table, elements, index):
    """Word the first missing row, missing product or product that is no
    element, row by row and cell by cell in element order, or return when
    there is none.  Every cell is checked before any is read, so a row that
    would supply a missing product is refused for it."""
    for a in elements:
        row = table.get(a)
        if row is None:
            raise ValueError(f"Cayley table has no row for {a!r}")
        for b in elements:
            if b not in row:
                raise ValueError(f"Cayley table misses the product {a!r}*{b!r}")
            c = row[b]
            if c not in index:
                raise ValueError(f"product {a!r}*{b!r} = {c!r} is not an element")


def _cyclic_subgroup(rows, a):
    """Indices of a, a², ... through the identity, until the powers return to a."""
    row = rows[a]
    out = [a]
    x = row[a]
    while x != a:
        out.append(x)
        x = row[x]
    return out


# ------------------------------------------------------------------ builders

def make_cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n (1 <= n <= 60), elements "0".."n-1", addition mod n."""
    if not 1 <= n <= 60:
        raise ValueError(f"cyclic order {n} out of the supported range 1..60")
    # row a is range(n) rotated left by a: a + b mod n
    twice = tuple(range(n)) * 2
    return FiniteGroup._from_rows([str(i) for i in range(n)], 0, tuple(twice[a : a + n] for a in range(n)))


def make_symmetric(n: int) -> FiniteGroup:
    """Symmetric group on {1..n} (1 <= n <= 5) in one-line notation.

    The element "231" is the permutation sending 1->2, 2->3, 3->1; products
    compose right to left, (a*b)(i) = a(b(i)).
    """
    if not 1 <= n <= 5:
        raise ValueError(f"symmetric degree {n} out of the supported range 1..5")
    perms = list(itertools.permutations(range(n)))
    # picks[j](a) is a∘b for the j-th permutation b: (a[b[0]], ..., a[b[n-1]]),
    # or the bare a[b[0]] when n == 1, so the index is keyed on picks[0](a),
    # a composed with the identity
    picks = [itemgetter(*b) for b in perms]
    index = {picks[0](a): i for i, a in enumerate(perms)}
    rows = tuple(tuple([index[pick(a)] for pick in picks]) for a in perms)
    return FiniteGroup._from_rows(["".join(str(i + 1) for i in p) for p in perms], 0, rows)


# ---------------------------------------------------------------- power graphs

def _power_pairs(group: FiniteGroup, vertices: tuple) -> list[tuple[int, int]]:
    """The power relation on ``vertices``, sorted distinct group elements,
    as position pairs (i, j), i < j: distinct elements where one is a
    positive power of the other, each x joined to the rest of its cyclic
    subgroup.

    A pair is listed once: from the element of larger order, or from the
    larger index when both generate the same cyclic subgroup (a power of x
    has order at most that of x).
    """
    index, rows = group._index, group._rows
    cyclic = [_cyclic_subgroup(rows, x) for x in range(len(rows))]
    where = [None] * len(rows)  # None off the vertices
    for p, a in enumerate(vertices):
        where[index[a]] = p
    pairs = []
    for p, a in enumerate(vertices):
        x = index[a]
        for y in cyclic[x]:
            q = where[y]
            if q is not None and y != x and (len(cyclic[y]) < len(cyclic[x]) or y < x):
                pairs.append((p, q) if p < q else (q, p))
    return pairs


def power_graph(group: FiniteGroup) -> Graph:
    """Undirected power graph: distinct x, y joined when one is a positive
    power of the other.  The identity is adjacent to everything."""
    vertices = tuple(sorted(group.elements))
    return Graph._from_edges(vertices, _power_pairs(group, vertices))


def proper_power_graph(group: FiniteGroup) -> Graph:
    """The power graph with the identity deleted (induced on the rest)."""
    if group.order() < 2:
        raise HypothesisError("the trivial group has no proper power graph")
    vertices = tuple(sorted(x for x in group.elements if x != group.identity))
    return Graph._from_edges(vertices, _power_pairs(group, vertices))


def generating_set(group: FiniteGroup) -> list[str]:
    """A small generating set, found greedily by closure.

    Every element is reached from the identity by multiplying, on either
    side, by generators; ``FiniteGroup``'s associativity proof rests on it.
    """
    rows = group._rows
    gens: list[int] = []
    closed = {group._index[group.identity]}
    for a in range(len(rows)):
        if a in closed:
            continue
        gens.append(a)
        frontier = list(closed)
        closed.add(a)
        frontier.append(a)
        while frontier:
            x = frontier.pop()
            for s in gens:
                for y in (rows[x][s], rows[s][x]):
                    if y not in closed:
                        closed.add(y)
                        frontier.append(y)
        if len(closed) == len(rows):
            break
    return [group.elements[a] for a in gens]


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
    verts, nbhd = on_graph.vertices, on_graph._nbhd
    if on_graph.vertex_set not in (universe, universe - {group.identity}):
        raise ValueError("graph is not a power graph of this group")
    # the pairs are distinct, so they are the graph's edges when there are
    # as many of them and each is an edge
    pairs = _power_pairs(group, verts)
    if len(pairs) != len(on_graph._edges) or any(q not in nbhd[p] for p, q in pairs):
        raise ValueError("graph is not a power graph of this group")
    index, rows = group._index, group._rows
    e = index[group.identity]
    where = [on_graph.index.get(a) for a in group.elements]  # conjugation fixes e, so stays on the graph
    elements = [index[a] for a in verts]
    gens = []
    for s in map(index.__getitem__, group.generators):
        by_s_inv = rows[rows[s].index(e)]
        gens.append(tuple([where[rows[by_s_inv[x]][s]] for x in elements]))
    grp = PermGroup._from_positions(verts, gens)
    if not verify_automorphisms(on_graph, grp):
        raise InternalCheckError("conjugation failed the automorphism check on the power graph")
    return grp
