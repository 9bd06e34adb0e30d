"""Finite reflexive graphs (neighborhoods, components, induced subgraphs,
isomorphism) and ``Partition``, the one type for a graph's components, a
group's orbits and a loaded partition file."""

from __future__ import annotations


class Graph:
    """A finite reflexive undirected simple graph.

    Every vertex carries an implicit loop, so only proper edges between
    distinct vertices are stored.  Vertex labels are opaque strings, and all
    derived sequences (vertex tuple, component blocks, canonical edge list)
    come out in lexicographic label order, which keeps every downstream
    computation deterministic.

    The graph is stored by vertex position: ``index`` maps each label to its
    position in the sorted ``vertices``, ``_nbhd[i]`` is the closed
    neighbourhood of position i as a set of positions (i included), and
    ``_edges`` holds each proper edge once as a pair (i, j) with i < j.  The
    label views (``proper_edges``, ``neighborhood``, ``has_edge``,
    ``sorted_edges``) are derived from them.
    """

    __slots__ = (
        "vertices", "vertex_set", "index", "_nbhd", "_edges", "_components", "_component_of", "_induced",
    )

    def __init__(self, vertices, proper_edges=()):
        labels = list(vertices)
        if not labels:
            raise ValueError("a graph needs at least one vertex")
        if set(map(type, labels)) != {str}:
            _refuse_labels(labels)
        verts = tuple(sorted(labels))
        index = {v: i for i, v in enumerate(verts)}
        if len(index) != len(labels):
            _refuse_labels(labels)

        # One pass builds the edge pairs and the neighbourhoods; a repeated
        # edge shows as an endpoint already in the other's neighbourhood.
        nbhd = [{i} for i in range(len(verts))]
        edges = []
        for raw in proper_edges:
            if isinstance(raw, (str, dict)):  # "ab" or {"a": 1, "b": 2} would unpack into the edge a-b
                _refuse_edge(raw, index)
            try:
                u, v = raw
                a, b = index[u], index[v]
            except (TypeError, ValueError, KeyError):
                _refuse_edge(raw, index)
            if a == b:
                raise ValueError(f"loop at {u!r} supplied as a proper edge; loops are implicit")
            na = nbhd[a]
            if b in na:
                raise ValueError(f"duplicate edge ({min(u, v)!r}, {max(u, v)!r})")
            na.add(b)
            nbhd[b].add(a)
            edges.append((a, b) if a < b else (b, a))
        self._store(verts, index, nbhd, edges)

    @classmethod
    def _from_edges(cls, vertices: tuple, edges) -> "Graph":
        """A graph from sorted distinct labels and its proper edges as
        position pairs (i, j), i < j, each given once.  Nothing is checked."""
        nbhd = [{i} for i in range(len(vertices))]
        for a, b in edges:
            nbhd[a].add(b)
            nbhd[b].add(a)
        g = cls.__new__(cls)
        g._store(vertices, {v: i for i, v in enumerate(vertices)}, nbhd, list(edges))
        return g

    def _store(self, verts, index, nbhd, edges) -> None:
        self.vertices = verts
        self.vertex_set = frozenset(verts)
        self.index = index
        self._nbhd = nbhd
        self._edges = edges
        self._components = None
        self._component_of = None
        self._induced = None

    # ------------------------------------------------------------- queries

    @property
    def proper_edges(self) -> frozenset[frozenset[str]]:
        """The proper edges as two-label sets."""
        verts = self.vertices
        return frozenset(frozenset((verts[a], verts[b])) for a, b in self._edges)

    def neighborhood(self, x: str) -> frozenset[str]:
        """Closed neighborhood of x: the vertex itself plus everything adjacent."""
        i = self.index.get(x)
        if i is None:
            raise ValueError(f"unknown vertex {x!r}")
        return frozenset(map(self.vertices.__getitem__, self._nbhd[i]))

    def has_edge(self, u: str, v: str) -> bool:
        """Edge test including the implicit loops."""
        index = self.index
        if u not in index or v not in index:
            raise ValueError(f"unknown vertex in edge test: ({u!r}, {v!r})")
        return index[v] in self._nbhd[index[u]]

    def components(self) -> "Partition":
        """The partition into connected components, by breadth-first traversal.

        Each seed is the smallest vertex not yet reached, so the blocks come
        out ordered by smallest member and the partition needs no check.
        The traversal also leaves ``_component_of``, the block ordinal of
        each vertex position.  Both are computed once and cached (the graph
        is immutable).
        """
        if self._components is None:
            verts, nbhd = self.vertices, self._nbhd
            comp = [-1] * len(verts)
            count = 0
            for seed in range(len(verts)):
                if comp[seed] >= 0:
                    continue
                comp[seed] = count
                reached = [seed]
                for x in reached:  # the list grows as the search reaches vertices
                    for u in nbhd[x]:
                        if comp[u] < 0:
                            comp[u] = count
                            reached.append(u)
                count += 1
            blocks = [[] for _ in range(count)]
            for v, b in zip(verts, comp):  # in label order, so each block comes out sorted
                blocks[b].append(v)
            self._component_of = comp
            self._components = Partition._from_sorted(
                tuple(map(tuple, blocks)), self.vertex_set, dict(zip(verts, comp))
            )
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
        index = self.index
        for v in sub:
            if v not in index:
                raise ValueError(f"unknown vertex {v!r}")
        if cache is None:
            cache = self._induced = {}
        keep = sorted(map(index.__getitem__, sub))
        position = {a: i for i, a in enumerate(keep)}
        nbhd = self._nbhd
        edges = [(position[a], position[b]) for a in keep for b in nbhd[a] if b > a and b in position]
        sub_graph = cache[sub] = Graph._from_edges(tuple(map(self.vertices.__getitem__, keep)), edges)
        return sub_graph

    def sorted_edges(self) -> list[tuple[str, str]]:
        """Proper edges as sorted pairs, in sorted order (the canonical form).

        Positions follow label order, so sorting the position pairs sorts
        the label pairs."""
        verts = self.vertices
        return [(verts[a], verts[b]) for a, b in sorted(self._edges)]

    # ------------------------------------------------------------- plumbing

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and set(self._edges) == set(other._edges)

    def __hash__(self):
        return hash((self.vertices, frozenset(self._edges)))

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {len(self._edges)} proper edges)"


def _refuse_edge(raw, index) -> None:
    """Raise for a proper edge that is not a pair of declared vertex labels,
    in the loader's words: the shape first, then each endpoint in turn."""
    try:
        ends = () if isinstance(raw, (str, dict)) else tuple(raw)
    except TypeError:
        ends = ()
    if len(ends) != 2:
        raise ValueError(f"edge {raw!r} is not a two-element list")
    for end in ends:
        if not isinstance(end, str):
            raise ValueError(f"edge endpoint {end!r} is not a string")
        if end not in index:
            raise ValueError(f"edge endpoint {end!r} is not a declared vertex")


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
        normalized = []
        for raw in blocks:
            if isinstance(raw, (str, dict)):  # "ab" or {"a": 1, "b": 2} would be the block {a, b}
                raise ValueError(f"block {raw!r} is not a list")
            normalized.append(tuple(sorted(set(raw))))
        members = set().union(*normalized)
        if not all(normalized) or members != self.universe or sum(map(len, normalized)) != len(members):
            _refuse_cells(normalized, self.universe)
        normalized.sort(key=lambda b: b[0])
        self.blocks = tuple(normalized)
        self.block_of = {v: i for i, block in enumerate(self.blocks) for v in block}

    @classmethod
    def _from_sorted(cls, blocks, universe: frozenset, block_of: dict) -> "Partition":
        """A partition from blocks that already are one: sorted tuples, ordered
        by smallest member, covering ``universe``, with ``block_of`` naming
        each vertex's block.  Nothing is checked."""
        p = cls.__new__(cls)
        p.universe, p.blocks, p.block_of = universe, blocks, block_of
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
    if len(g1.vertices) != len(g2.vertices) or len(g1._edges) != len(g2._edges):
        return None
    order, pool1 = _degree_layout(g1)
    _, pool = _degree_layout(g2)
    if {d: len(ws) for d, ws in pool1.items()} != {d: len(ws) for d, ws in pool.items()}:
        return None
    assigned: dict[int, int] = {}
    start = pool[len(g1._nbhd[order[0]])]
    if not _extend_map(g1._nbhd, g2._nbhd, pool, order, 0, start, assigned, set()):
        return None
    v1, v2 = g1.vertices, g2.vertices
    return {v1[a]: v2[b] for a, b in assigned.items()}


def _degree_layout(g: Graph) -> tuple[list[int], dict[int, list[int]]]:
    """The search order of the vertex positions (by decreasing degree, then
    label) and each degree's positions, in label order."""
    nbhd = g._nbhd
    pool: dict[int, list[int]] = {}
    for w, nw in enumerate(nbhd):
        pool.setdefault(len(nw), []).append(w)
    return sorted(range(len(nbhd)), key=lambda v: (-len(nbhd[v]), v)), pool


def _extend_map(nbhd1, nbhd2, pool, order, pos, candidates, assigned, used) -> bool:
    """Backtrack to extend the injective partial map ``assigned`` over ``order[pos:]``.

    Works on vertex positions: ``nbhd1`` and ``nbhd2`` are the two graphs'
    ``_nbhd``.  ``order[pos]`` tries the unused ``candidates``, each later
    vertex the ``pool`` vertices of its degree, in label order.  A candidate
    must agree with every placed vertex on adjacency; as the map is
    injective, closed neighbourhood membership tests a proper edge.
    ``used`` holds the placed images.  On failure ``assigned`` is left as it
    was given.
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
