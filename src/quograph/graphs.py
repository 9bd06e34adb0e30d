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
    ``sorted_edges``) are derived from them, and ``vertex_set`` is built on
    first read and cached.
    """

    __slots__ = (
        "vertices", "index", "_vertex_set", "_nbhd", "_edges", "_components", "_induced",
    )

    def __init__(self, vertices, proper_edges=()):
        try:  # a fault reads the edges again, so the graph reads them into a list of its own
            labels, edges = list(vertices), list(proper_edges)
        except TypeError:
            raise ValueError(f"a graph needs lists of vertices and edges, got {vertices!r} and {proper_edges!r}") from None
        if not labels or not all(issubclass(t, str) for t in set(map(type, labels))):
            _refuse_graph(labels, edges)
        verts = tuple(sorted(labels))
        index = {v: i for i, v in enumerate(verts)}
        if len(index) != len(labels):
            _refuse_graph(labels, edges)

        # One pass builds the edge pairs and the neighbourhoods; a repeated
        # edge shows as an endpoint already in the other's neighbourhood.
        nbhd = [{i} for i in range(len(verts))]
        pairs = []
        for k, raw in enumerate(edges):
            try:
                if type(raw) is not tuple and type(raw) is not list:
                    if isinstance(raw, (str, dict)):  # "ab" or {"a": 1, "b": 2} would unpack into a-b
                        raise ValueError
                    raw = edges[k] = tuple(raw)  # read once: _refuse_graph reads what was read here
                u, v = raw
                a, b = index[u], index[v]
            except (TypeError, ValueError, KeyError):
                _refuse_graph(labels, edges)
            na = nbhd[a]
            if a == b or b in na:
                _refuse_graph(labels, edges)
            na.add(b)
            nbhd[b].add(a)
            pairs.append((a, b) if a < b else (b, a))
        self._store(verts, index, nbhd, pairs)

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
        self.index = index
        self._nbhd = nbhd
        self._edges = edges
        self._vertex_set = self._components = self._induced = None

    # ------------------------------------------------------------- queries

    @property
    def vertex_set(self) -> frozenset[str]:
        """The vertex labels as a set."""
        if self._vertex_set is None:
            self._vertex_set = frozenset(self.vertices)
        return self._vertex_set

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

        Each seed is the smallest position not yet reached, so the blocks are
        numbered by smallest member, the seeds are those members, and the
        partition needs no check.  It is computed once and cached (the graph
        is immutable).
        """
        if self._components is None:
            nbhd = self._nbhd
            comp = [-1] * len(nbhd)
            seeds = []
            for seed in range(len(nbhd)):
                if comp[seed] >= 0:
                    continue
                count = len(seeds)
                comp[seed] = count
                seeds.append(seed)
                reached = [seed]
                for x in reached:  # the list grows as the search reaches vertices
                    for u in nbhd[x]:
                        if comp[u] < 0:
                            comp[u] = count
                            reached.append(u)
            self._components = Partition._from_positions(self.vertices, tuple(comp), tuple(seeds))
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


def _refuse_graph(labels, edges) -> None:
    """Raise for the first fault of a graph, in the loader's order: a malformed
    edge or a non-string endpoint anywhere in the list; then no labels, a
    non-string or repeated label; then, edge by edge, an undeclared endpoint,
    a loop or a repeated edge.  Return if there is none."""
    for raw in edges:
        ends = () if isinstance(raw, (str, dict)) or not hasattr(raw, "__iter__") else tuple(raw)
        if len(ends) != 2:
            raise ValueError(f"edge {raw!r} is not a two-element list")
        for end in ends:
            if not isinstance(end, str):
                raise ValueError(f"edge endpoint {end!r} is not a string")
    if not labels:
        raise ValueError("a graph needs at least one vertex")
    seen = set()
    for v in labels:
        if not isinstance(v, str):
            raise ValueError(f"vertex labels must be strings, got {v!r}")
        if v in seen:
            raise ValueError(f"duplicate vertex label {v!r}")
        seen.add(v)
    done = set()
    for u, v in edges:
        for end in (u, v):
            if end not in seen:
                raise ValueError(f"edge endpoint {end!r} is not a declared vertex")
        if u == v:
            raise ValueError(f"loop at {u!r} supplied as a proper edge; loops are implicit")
        if (edge := frozenset((u, v))) in done:
            raise ValueError(f"duplicate edge ({min(u, v)!r}, {max(u, v)!r})")
        done.add(edge)


class Partition:
    """A partition of a vertex set into nonempty blocks.

    The partition is stored by position, like ``PermGroup``: ``vertices``
    holds the labels in sorted order, and ``_of`` the block ordinal of each
    position.  Blocks are numbered by their smallest member, which is their
    smallest position, so each partition has exactly one representation;
    ``_leaders`` holds those smallest positions, in block order, as each
    builder meets them anyway (a quotient names its blocks by them).
    The label views ``blocks`` (sorted tuples, in block order) and
    ``block_of`` (each label's block ordinal) are built on first use and
    cached, as the partition is immutable.  This one type holds a graph's
    components, a group's orbits and a loaded partition file.
    """

    __slots__ = ("vertices", "_of", "_leaders", "count", "_blocks", "_block_of")

    def __init__(self, blocks, universe):
        """Each block is a collection of labels; a label listed twice in one
        block counts once."""
        try:  # sorted() is linear on labels already in order; dict.fromkeys drops repeats
            verts, cells = tuple(dict.fromkeys(sorted(universe))), iter(blocks)
            if not all(isinstance(v, str) for v in verts):
                raise TypeError
        except TypeError:  # not iterable, or labels that are not strings
            raise ValueError(f"a partition needs lists of blocks and labels, got {blocks!r} and {universe!r}") from None
        self._store(verts, dict(zip(verts, range(len(verts)))), cells)

    @classmethod
    def _on_graph(cls, g: Graph, blocks) -> "Partition":
        """``Partition(blocks, g.vertices)``, checked the same way, but built
        on the graph's own label-to-position ``index``."""
        p = cls.__new__(cls)
        p._store(g.vertices, g.index, blocks)
        return p

    def _store(self, verts: tuple, index: dict, blocks) -> None:
        """Number the blocks on ``index``, the label to position map of the
        sorted distinct labels ``verts``, and store the partition; any fault
        is refused by ``_refuse_cells``.  Blocks listed by smallest member
        keep their input ordinals."""
        blocks = list(blocks)
        n = len(verts)
        of = [-1] * n
        least = []  # the smallest position of each input block
        try:
            for b, raw in enumerate(blocks):
                if type(raw) is not list:
                    if isinstance(raw, (str, dict)):  # "ab" or {"a": 1, "b": 2} would be the block {a, b}
                        raise ValueError
                    raw = blocks[b] = tuple(raw)  # read once: _refuse_cells reads what was read here
                low = n
                for v in raw:
                    i = index[v]
                    if of[i] != b:
                        if of[i] >= 0:
                            raise ValueError
                        of[i] = b
                        if i < low:
                            low = i
                least.append(low)
            leaders = sorted(least)
            # an empty block keeps the smallest position n, an uncovered position the block -1
            if (leaders and leaders[-1] == n) or -1 in of:
                raise ValueError
        except (TypeError, KeyError, ValueError):
            _refuse_cells(blocks, verts)
        if leaders != least:  # renumber unless the input lists the blocks by smallest member
            rank = [0] * len(blocks)  # input block -> its ordinal by smallest member
            for k, i in enumerate(leaders):
                rank[of[i]] = k
            of = map(rank.__getitem__, of)
        self._set(verts, tuple(of), tuple(leaders))

    @classmethod
    def _from_positions(cls, vertices: tuple, of: tuple, leaders: tuple) -> "Partition":
        """A partition of sorted distinct labels from the block ordinal of
        each position and the smallest position of each block, in increasing
        order, which numbers the blocks.  Nothing is checked."""
        p = cls.__new__(cls)
        p._set(vertices, of, leaders)
        return p

    def _set(self, vertices: tuple, of: tuple, leaders: tuple) -> None:
        self.vertices, self._of, self._leaders, self.count = vertices, of, leaders, len(leaders)
        self._blocks = self._block_of = None

    @classmethod
    def singletons(cls, universe) -> "Partition":
        return cls([[v] for v in universe], universe)

    @property
    def universe(self) -> frozenset[str]:
        return frozenset(self.vertices)

    @property
    def blocks(self) -> tuple[tuple[str, ...], ...]:
        if self._blocks is None:
            members = [[] for _ in range(self.count)]
            for v, b in zip(self.vertices, self._of):  # in label order, so each block comes out sorted
                members[b].append(v)
            self._blocks = tuple(map(tuple, members))
        return self._blocks

    @property
    def block_of(self) -> dict[str, int]:
        if self._block_of is None:
            self._block_of = dict(zip(self.vertices, self._of))
        return self._block_of

    def block_containing(self, v: str) -> tuple[str, ...]:
        return self.blocks[self.block_of[v]]

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.vertices == other.vertices and self._of == other._of

    def __hash__(self):
        return hash((self.vertices, self._of))

    def __repr__(self):
        return f"Partition({self.count} blocks over {len(self.vertices)} vertices)"


def _refuse_cells(blocks, universe) -> None:
    """Raise for the first fault of a list of blocks: in input order, a
    block that is a string, a dict or not iterable, or a member that is not a
    string, worded as the loader words them; then, with each block sorted,
    in block order, an empty block, a member outside the universe, a member
    of two blocks; then for the smallest vertex no block covers."""
    normalized = []
    for raw in blocks:
        if isinstance(raw, (str, dict)) or not hasattr(raw, "__iter__"):
            raise ValueError(f"block {raw!r} is not a list")
        for v in raw:
            if not isinstance(v, str):
                raise ValueError(f"block member {v!r} is not a string")
        normalized.append(tuple(sorted(set(raw))))
    universe = frozenset(universe)
    seen: set[str] = set()
    for block in normalized:
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
