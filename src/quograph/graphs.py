"""Finite reflexive graphs (neighborhoods, components, induced subgraphs,
isomorphism) and ``Partition``, the one type for a graph's components, a
group's orbits and a loaded partition file."""

from __future__ import annotations

from collections import deque


class Graph:
    """A finite reflexive undirected simple graph.

    Every vertex carries an implicit loop, so only proper edges between
    distinct vertices are stored.  Vertex labels are opaque strings, and all
    derived sequences (vertex tuple, component blocks, canonical edge list)
    come out in lexicographic label order, which keeps every downstream
    computation deterministic.
    """

    __slots__ = (
        "vertices", "vertex_set", "proper_edges", "_neighborhoods", "_components", "_induced",
    )

    def __init__(self, vertices, proper_edges=()):
        labels = list(vertices)
        if not labels:
            raise ValueError("a graph needs at least one vertex")
        if set(map(type, labels)) != {str}:
            _refuse_labels(labels)
        self.vertex_set = vertex_set = frozenset(labels)
        if len(vertex_set) != len(labels):
            _refuse_labels(labels)
        self.vertices = tuple(sorted(labels))

        # One pass builds the edge set and the neighbourhoods; a repeated
        # edge shows as an endpoint already in the other's neighbourhood.
        edges = []
        nbhd = {v: {v} for v in self.vertices}
        for raw in proper_edges:
            u, v = raw
            if u not in vertex_set or v not in vertex_set:
                end = u if u not in vertex_set else v
                raise ValueError(f"edge endpoint {end!r} is not a declared vertex")
            if u == v:
                raise ValueError(f"loop at {u!r} supplied as a proper edge; loops are implicit")
            nu = nbhd[u]
            if v in nu:
                raise ValueError(f"duplicate edge ({min(u, v)!r}, {max(u, v)!r})")
            nu.add(v)
            nbhd[v].add(u)
            edges.append(frozenset((u, v)))
        self.proper_edges = frozenset(edges)
        self._neighborhoods = {v: frozenset(s) for v, s in nbhd.items()}
        self._components = None
        self._induced = None

    # ------------------------------------------------------------- queries

    def neighborhood(self, x: str) -> frozenset[str]:
        """Closed neighborhood of x: the vertex itself plus everything adjacent."""
        try:
            return self._neighborhoods[x]
        except KeyError:
            raise ValueError(f"unknown vertex {x!r}") from None

    def has_edge(self, u: str, v: str) -> bool:
        """Edge test including the implicit loops."""
        if u not in self.vertex_set or v not in self.vertex_set:
            raise ValueError(f"unknown vertex in edge test: ({u!r}, {v!r})")
        return u == v or frozenset((u, v)) in self.proper_edges

    def components(self) -> "Partition":
        """The partition into connected components, by breadth-first traversal.

        Each seed is the smallest vertex not yet reached, so the blocks come
        out ordered by smallest member and the partition needs no check.
        The result is computed once and cached (the graph is immutable).
        """
        if self._components is None:
            unseen = set(self.vertices)
            blocks = []
            for seed in self.vertices:
                if seed not in unseen:
                    continue
                unseen.discard(seed)
                block = [seed]
                queue = deque([seed])
                while queue:
                    x = queue.popleft()
                    for u in self._neighborhoods[x]:
                        if u in unseen:
                            unseen.discard(u)
                            block.append(u)
                            queue.append(u)
                blocks.append(tuple(sorted(block)))
            self._components = Partition._from_sorted(tuple(blocks), self.vertex_set)
        return self._components

    def induced(self, subset) -> "Graph":
        """Subgraph induced by a nonempty subset of the vertices.

        The result is computed once per distinct subset and cached (the
        graph is immutable), so equal subsets share one subgraph object.
        """
        sub = frozenset(subset)
        cache = self._induced
        if cache is not None and sub in cache:
            return cache[sub]
        if not sub:
            raise ValueError("cannot induce a subgraph on an empty vertex set")
        for v in sub:
            if v not in self.vertex_set:
                raise ValueError(f"unknown vertex {v!r}")
        if cache is None:
            cache = self._induced = {}
        sub_graph = cache[sub] = Graph(sorted(sub), [e for e in self.proper_edges if e <= sub])
        return sub_graph

    def sorted_edges(self) -> list[tuple[str, str]]:
        """Proper edges as sorted pairs, in sorted order (the canonical form)."""
        return sorted(tuple(sorted(e)) for e in self.proper_edges)

    # ------------------------------------------------------------- plumbing

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.proper_edges == other.proper_edges

    def __hash__(self):
        return hash((self.vertices, self.proper_edges))

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {len(self.proper_edges)} proper edges)"


def _refuse_labels(labels) -> None:
    """Raise for the first label that is not a string or repeats an earlier one."""
    seen = set()
    for v in labels:
        if not isinstance(v, str):
            raise ValueError(f"vertex labels must be strings, got {v!r}")
        if v in seen:
            raise ValueError(f"duplicate vertex label {v!r}")
        seen.add(v)


class Partition:
    """A partition of a vertex set into nonempty blocks.

    Blocks are stored sorted and ordered by their smallest member, so each
    partition has exactly one representation; ``block_of`` maps each vertex
    to its block ordinal.  This one type holds a graph's components, a
    group's orbits and a loaded partition file.
    """

    __slots__ = ("blocks", "block_of", "universe")

    def __init__(self, blocks, universe):
        self.universe = frozenset(universe)
        normalized = [tuple(sorted(set(raw))) for raw in blocks]
        members = set().union(*normalized)
        if not all(normalized) or members != self.universe or sum(map(len, normalized)) != len(members):
            _refuse_cells(normalized, self.universe)
        normalized.sort(key=lambda b: b[0])
        self.blocks = tuple(normalized)
        self.block_of = {v: i for i, block in enumerate(self.blocks) for v in block}

    @classmethod
    def _from_sorted(cls, blocks, universe: frozenset) -> "Partition":
        """A partition from blocks that already are one: sorted tuples, ordered
        by smallest member, covering ``universe``.  Nothing is checked."""
        p = cls.__new__(cls)
        p.universe, p.blocks = universe, blocks
        p.block_of = {v: i for i, block in enumerate(blocks) for v in block}
        return p

    @classmethod
    def singletons(cls, universe) -> "Partition":
        return cls([[v] for v in universe], universe)

    @property
    def count(self) -> int:
        return len(self.blocks)

    def block_containing(self, v: str) -> tuple[str, ...]:
        return self.blocks[self.block_of[v]]

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.blocks == other.blocks and self.universe == other.universe

    def __hash__(self):
        return hash((self.blocks, self.universe))

    def __repr__(self):
        return f"Partition({self.count} blocks over {len(self.universe)} vertices)"


def _refuse_cells(blocks, universe) -> None:
    """Raise for the first fault of sorted blocks, in block order: an empty
    block, a member outside the universe, a member of two blocks; then for
    the smallest vertex no block covers."""
    seen: set[str] = set()
    for block in blocks:
        if not block:
            raise ValueError("empty cell in partition")
        for v in block:
            if v not in universe:
                raise ValueError(f"cell member {v!r} is outside the universe")
            if v in seen:
                raise ValueError(f"vertex {v!r} appears in two cells")
            seen.add(v)
    missing = sorted(universe - seen)[0]
    raise ValueError(f"vertex {missing!r} is not covered by any cell")


def find_isomorphism(g1: Graph, g2: Graph) -> dict[str, str] | None:
    """Search for a graph isomorphism from g1 onto g2.

    Returns the witnessing vertex map as a plain dict from g1's labels to
    g2's, or None when the graphs are not isomorphic.  After the size and
    degree prechecks this is one run of ``_extend_map``.  Intended for the
    small graphs this package works with.
    """
    if len(g1.vertices) != len(g2.vertices) or len(g1.proper_edges) != len(g2.proper_edges):
        return None
    order, pool1 = _degree_layout(g1)
    _, pool = _degree_layout(g2)
    if {d: len(ws) for d, ws in pool1.items()} != {d: len(ws) for d, ws in pool.items()}:
        return None
    assigned: dict[str, str] = {}
    start = pool[len(g1._neighborhoods[order[0]])]
    if _extend_map(g1._neighborhoods, g2._neighborhoods, pool, order, 0, start, assigned, set()):
        return assigned
    return None


def _degree_layout(g: Graph) -> tuple[list[str], dict[int, list[str]]]:
    """The search order (by decreasing degree, then label) and each degree's vertices."""
    nbhd = g._neighborhoods
    pool: dict[int, list[str]] = {}
    for w in g.vertices:
        pool.setdefault(len(nbhd[w]), []).append(w)
    return sorted(g.vertices, key=lambda v: (-len(nbhd[v]), v)), pool


def _extend_map(nbhd1, nbhd2, pool, order, pos, candidates, assigned, used) -> bool:
    """Backtrack to extend the injective partial map ``assigned`` over ``order[pos:]``.

    ``order[pos]`` tries the unused ``candidates``, each later vertex the
    ``pool`` vertices of its degree, in label order.  A candidate must agree
    with every placed vertex on adjacency; as the map is injective, closed
    neighbourhood membership tests a proper edge.  ``used`` holds the placed
    images.  On failure ``assigned`` is left as it was given.
    """
    v = order[pos]
    nv = nbhd1[v]
    for w in candidates:
        nw = nbhd2[w]
        if w in used or any((u in nv) != (wu in nw) for u, wu in assigned.items()):
            continue
        assigned[v] = w
        used.add(w)
        if pos + 1 == len(order) or _extend_map(
            nbhd1, nbhd2, pool, order, pos + 1, pool[len(nbhd1[order[pos + 1]])], assigned, used
        ):
            return True
        del assigned[v]
        used.discard(w)
    return False
