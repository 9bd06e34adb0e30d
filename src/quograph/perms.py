"""Permutation groups on vertex positions: generated groups, orbits, and automorphism search."""

from __future__ import annotations

from .graphs import Graph, Partition, _degree_layout, _extend_map

# Largest graph ``automorphism_group`` searches: the search is plain backtracking.
MAX_AUTOMORPHISM_VERTICES = 10
# Largest group ``generated_elements`` materializes.
MAX_GENERATED_ELEMENTS = 100_000


class PermGroup:
    """A permutation group on a vertex set, given by generators.

    The group is stored by position, like ``HomMap``: ``vertices`` holds the
    labels in sorted order, and ``_gens`` each generator as the tuple of the
    image positions of positions 0, 1, ...  Positions follow label order, so
    for a group acting on a graph's vertex set they are the graph's
    positions (see ``Graph.index``).  The label view ``generators`` is
    derived on each call.  Only generators are stored; orbits are computed
    by closure, and the full element list is materialized only on request
    (``generated_elements``, which ``verify`` uses to draw subgroups of small
    automorphism groups).
    """

    __slots__ = ("vertices", "_gens")

    def __init__(self, universe, generators):
        """Each generator is a label mapping, a bijection of the universe."""
        try:  # sorted() is linear on labels already in order; dict.fromkeys drops repeats
            verts, gens = tuple(dict.fromkeys(sorted(universe))), iter(generators)
            if isinstance(universe, (str, dict)) or not all(isinstance(v, str) for v in verts):
                raise TypeError
        except TypeError:  # not iterable, a str or dict (read as its characters or keys), or non-string labels
            raise ValueError(f"a group needs lists of labels and generators, got {universe!r} and {generators!r}") from None
        self._store(verts, dict(zip(verts, range(len(verts)))), gens)

    @classmethod
    def _on_graph(cls, g: Graph, generators) -> "PermGroup":
        """``PermGroup(g.vertices, generators)``, checked the same way, but
        built on the graph's own label-to-position ``index``."""
        grp = cls.__new__(cls)
        grp._store(g.vertices, g.index, generators)
        return grp

    def _store(self, verts: tuple, index: dict, generators) -> None:
        """Check each label-mapping generator against ``index``, the label
        to position map of the sorted distinct labels ``verts``, and store
        the group."""
        gens = list(generators)
        _refuse_generators(gens, index)
        self.vertices, self._gens = verts, tuple([tuple(map(index.__getitem__, map(f.__getitem__, verts))) for f in gens])

    @classmethod
    def _from_positions(cls, vertices: tuple, gens) -> "PermGroup":
        """A group on sorted distinct labels from generators given as tuples
        of image positions.  Nothing is checked."""
        grp = cls.__new__(cls)
        grp.vertices, grp._gens = vertices, tuple(gens)
        return grp

    @property
    def generators(self) -> tuple[dict[str, str], ...]:
        """Each generator as a label mapping, keyed in label order."""
        verts = self.vertices
        return tuple(dict(zip(verts, map(verts.__getitem__, f))) for f in self._gens)

    def __repr__(self):
        return f"PermGroup({len(self._gens)} generators on {len(self.vertices)} points)"


def _refuse_generators(gens, index: dict) -> None:
    """Raise for the first generator that is no bijection of ``index``'s
    labels: anywhere in the list, a generator that is no mapping, then an
    image that is no string; then, generator by generator, a mapping that
    is no bijection of its domain, then a domain that is not the universe."""
    for f in gens:
        if not hasattr(f, "keys"):
            raise ValueError(f"generator {f!r} is not an object")
        for y in f.values():
            if not isinstance(y, str):
                raise ValueError(f"generator image {y!r} is not a string")
    for f in gens:
        if f.keys() != set(f.values()):
            raise ValueError("bad generator: mapping is not a bijection of its domain")
        if f.keys() != index.keys():
            raise ValueError("bad generator: generator domain does not match the universe")


def verify_automorphisms(g: Graph, grp: PermGroup) -> bool:
    """True iff every generator maps proper edges of g onto proper edges.

    A bijection sending proper edges into proper edges hits all of them, so
    checking one direction suffices on a finite graph.
    """
    if grp.vertices != g.vertices:
        raise ValueError("group universe does not match the graph's vertices")
    # A closed neighbourhood also holds its own vertex, but a generator is a
    # bijection, so the images of the two ends of a proper edge differ and
    # membership means a proper edge.
    nbhd = g._nbhd
    for f in grp._gens:
        for a, b in g._edges:
            if f[b] not in nbhd[f[a]]:
                return False
    return True


def _orbit(seed: int, gens) -> set[int]:
    """The orbit of position seed under the generators, by forward closure.

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
    """Orbits of the generated group, one ``_orbit`` closure per orbit.

    Each seed is the smallest position not yet reached, so the blocks are
    numbered by smallest member, the seeds are those members, and the
    partition needs no check.
    """
    of = [-1] * len(grp.vertices)
    seeds = []
    for seed in range(len(of)):
        if of[seed] < 0:
            for x in _orbit(seed, grp._gens):
                of[x] = len(seeds)
            seeds.append(seed)
    return Partition._from_positions(grp.vertices, tuple(of), tuple(seeds))


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
    nbhd = g._nbhd
    order, pool = _degree_layout(g)
    gens = []
    for i, v in enumerate(order):
        fixed = {u: u for u in order[:i]}
        for w in pool[len(nbhd[v])]:  # label order, deterministic
            if w == v or w in fixed:
                continue
            assigned = dict(fixed)
            if _extend_map(nbhd, nbhd, pool, order, i, (w,), assigned, set(fixed)):
                gens.append(tuple(map(assigned.__getitem__, range(n))))
    return PermGroup._from_positions(g.vertices, gens)


def is_consistent(m, grp: PermGroup) -> bool:
    """True iff the fibres of the map are exactly the orbits of the group.

    First every generator must leave the map unchanged, so that each orbit
    lies inside one fibre.  Then the fibres are single orbits exactly when
    the orbits of one member per fibre, which are disjoint, cover the source.
    """
    if grp.vertices != m.source.vertices:
        raise ValueError("group universe does not match the map's source vertices")
    index_map, gens = m._index_map, grp._gens
    if any(tuple([index_map[x] for x in f]) != index_map for f in gens):
        return False
    members = {y: x for x, y in enumerate(index_map)}.values()
    return sum(len(_orbit(x, gens)) for x in members) == len(index_map)


def generated_elements(grp: PermGroup) -> list[tuple[int, ...]]:
    """Every element of the generated group as a tuple of image positions
    over ``grp.vertices``, in sorted order (test-scale only)."""
    identity = tuple(range(len(grp.vertices)))
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for p in frontier:
            for f in grp._gens:
                q = tuple(map(f.__getitem__, p))  # f after p
                if q not in seen:
                    if len(seen) >= MAX_GENERATED_ELEMENTS:
                        raise ValueError(f"group exceeds the materialization limit {MAX_GENERATED_ELEMENTS}")
                    seen.add(q)
                    new.append(q)
        frontier = new
    return sorted(seen)
