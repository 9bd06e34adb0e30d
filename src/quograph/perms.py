"""Vertex permutations, generated groups, orbits, and automorphism search."""

from __future__ import annotations

from .graphs import Graph, Partition, _degree_layout, _extend_map

# Largest graph ``automorphism_group`` searches: the search is plain backtracking.
MAX_AUTOMORPHISM_VERTICES = 10
# Largest group ``generated_elements`` materializes.
MAX_GENERATED_ELEMENTS = 100_000


class Permutation:
    """A bijection on a fixed universe of vertex labels."""

    __slots__ = ("mapping",)

    def __init__(self, mapping):
        self.mapping = dict(mapping)
        if self.mapping.keys() != set(self.mapping.values()):
            raise ValueError("mapping is not a bijection of its domain")

    @classmethod
    def identity(cls, universe) -> "Permutation":
        return cls({v: v for v in universe})

    def is_identity(self) -> bool:
        return all(k == v for k, v in self.mapping.items())

    def sort_key(self) -> tuple:
        return tuple(sorted(self.mapping.items()))

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.mapping == other.mapping

    def __hash__(self):
        return hash(tuple(sorted(self.mapping.items())))

    def __repr__(self):
        moved = {k: v for k, v in self.mapping.items() if k != v}
        return f"Permutation({moved!r})" if moved else "Permutation(identity)"


class PermGroup:
    """A permutation group on a vertex set, given by generators.

    Only generators are stored; orbits are computed by closure, and the full
    element list is materialized only on request (``generated_elements``,
    which ``verify`` uses to draw subgroups of small automorphism groups).
    ``_on_positions`` caches the generators on vertex positions (see
    ``_positions``).
    """

    __slots__ = ("universe", "generators", "_on_positions")

    def __init__(self, universe, generators):
        self.universe = frozenset(universe)
        gens = []
        for f in generators:
            if not isinstance(f, Permutation):
                f = Permutation(f)
            if set(f.mapping) != self.universe:
                raise ValueError("generator domain does not match the universe")
            gens.append(f)
        self.generators = tuple(gens)
        self._on_positions = None

    @classmethod
    def trivial(cls, universe) -> "PermGroup":
        return cls(universe, [])

    def __repr__(self):
        return f"PermGroup({len(self.generators)} generators on {len(self.universe)} points)"


def _positions(grp: PermGroup, g: Graph) -> list[tuple[int, ...]]:
    """Each generator as the tuple of image positions of g's vertex positions
    (see ``Graph.index``), made once per group.  The group acts on g's
    vertex set, and positions follow label order, so they are the same for
    every graph on that set."""
    if grp._on_positions is None:
        index, verts = g.index, g.vertices
        grp._on_positions = [tuple([index[f.mapping[v]] for v in verts]) for f in grp.generators]
    return grp._on_positions


def verify_automorphisms(g: Graph, grp: PermGroup) -> bool:
    """True iff every generator maps proper edges of g onto proper edges.

    A bijection sending proper edges into proper edges hits all of them, so
    checking one direction suffices on a finite graph.
    """
    if grp.universe != g.vertex_set:
        raise ValueError("group universe does not match the graph's vertices")
    # A closed neighbourhood also holds its own vertex, but a generator is a
    # bijection, so the images of the two ends of a proper edge differ and
    # membership means a proper edge.
    nbhd = g._nbhd
    for f in _positions(grp, g):
        for a, b in g._edges:
            if f[b] not in nbhd[f[a]]:
                return False
    return True


def _orbit(seed, gens) -> set:
    """The orbit of seed under the generators, by forward closure; a
    generator is anything indexed by a point (a label mapping or a tuple of
    positions).

    Repeated application of a permutation cycles back, so forward closure
    already accounts for inverses and the full group is never materialized.
    """
    orbit = {seed}
    frontier = [seed]
    while frontier:
        x = frontier.pop()
        for f in gens:
            y = f[x]
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


def orbit_partition(grp: PermGroup) -> Partition:
    """Orbits of the generated group, one ``_orbit`` closure per orbit."""
    gens = [f.mapping for f in grp.generators]
    unseen = set(grp.universe)
    cells = []
    for seed in sorted(grp.universe):
        if seed in unseen:
            orbit = _orbit(seed, gens)
            unseen -= orbit
            cells.append(orbit)
    return Partition(cells, grp.universe)


def automorphism_group(g: Graph) -> PermGroup:
    """A generating set for the automorphism group of g.

    Pass i keeps the first i vertices of the search order pointwise fixed
    and runs the backtracking of ``find_isomorphism`` once for each feasible
    image w of vertex i, with vertex i placed at w.  The maps found generate
    the full group (each pass contributes coset representatives for the next
    pointwise stabilizer).
    """
    n = len(g.vertices)
    if n > MAX_AUTOMORPHISM_VERTICES:
        raise ValueError(f"graph has {n} vertices, above the search bound {MAX_AUTOMORPHISM_VERTICES}")
    nbhd, verts = g._nbhd, g.vertices
    order, pool = _degree_layout(g)
    gens = []
    for i, v in enumerate(order):
        fixed = {u: u for u in order[:i]}
        for w in pool[len(nbhd[v])]:  # label order, deterministic
            if w == v or w in fixed:
                continue
            assigned = dict(fixed)
            if _extend_map(nbhd, nbhd, pool, order, i, (w,), assigned, set(fixed)):
                gens.append(Permutation({verts[a]: verts[b] for a, b in assigned.items()}))
    return PermGroup(g.vertex_set, gens)


def is_consistent(m, grp: PermGroup) -> bool:
    """True iff the fibres of the map are exactly the orbits of the group.

    First every generator must leave the map unchanged, so that each orbit
    lies inside one fibre.  Then the fibres are single orbits exactly when
    the orbits of one member per fibre, which are disjoint, cover the source.
    """
    source = m.source
    if grp.universe != source.vertex_set:
        raise ValueError("group universe does not match the map's source vertices")
    index_map = m._index_map
    gens = _positions(grp, source)
    if any(tuple([index_map[x] for x in f]) != index_map for f in gens):
        return False
    members = {y: x for x, y in enumerate(index_map)}.values()
    return sum(len(_orbit(x, gens)) for x in members) == len(index_map)


def generated_elements(grp: PermGroup) -> list[Permutation]:
    """Materialize every element of the generated group (test-scale only)."""
    universe = sorted(grp.universe)
    identity = Permutation.identity(universe)
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for p in frontier:
            for f in grp.generators:
                q = Permutation({v: f.mapping[p.mapping[v]] for v in universe})
                if q not in seen:
                    if len(seen) >= MAX_GENERATED_ELEMENTS:
                        raise ValueError(f"group exceeds the materialization limit {MAX_GENERATED_ELEMENTS}")
                    seen.add(q)
                    new.append(q)
        frontier = new
    return sorted(seen, key=Permutation.sort_key)
