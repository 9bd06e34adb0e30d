"""Vertex maps between reflexive graphs and their classification.

A ``HomMap`` is always a homomorphism: its constructor refuses a map that
does not preserve edges.  The predicates here sort a homomorphism into the
classes that drive the component-counting results: surjective, complete,
tame, the local surjective/injective/bijective variants, locally strong,
pseudo-covering, equitable, and component equitable.  Edge preservation and
completeness come from one pass over the source edges, made when the map is
built, the local classes from one cached pass over the maps N(x) -> N(m(x)),
the component classes from one cached table of the source components each
fibre meets.  ``classify`` evaluates every class at once and cross-checks
the implications that must hold between them.  Given a group whose orbits
are the fibres and which acts by automorphisms, it runs the local pass on
one member per fibre and skips the equitability test, since the group moves
any fibre member onto any other while fixing the map.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import perms
from .errors import HypothesisError, InternalCheckError
from .graphs import Graph


class HomMap:
    """A homomorphism between two reflexive graphs.

    The constructor raises ValueError for a map that is not total or leaves
    the graphs' vertex sets, and HypothesisError for a total map that does
    not preserve edges.  A proper source edge may land on a proper target
    edge or collapse onto a single vertex (its implicit loop); implicit
    source loops are preserved automatically.

    The map is stored as ``_index_map``, the target position of each source
    vertex by source position (see ``Graph.index``), and ``_image``, the set
    of target positions it hits.  The predicates read those.  The label
    views ``mapping``, ``image``, ``fibres`` and ``fibre(y)`` are derived
    from them on each call, for callers that hand labels out.
    """

    __slots__ = ("source", "target", "_index_map", "_image", "_edge_classes", "_local_classes", "_fibre_blocks")

    def __init__(self, source: Graph, target: Graph, mapping: dict[str, str]):
        if mapping.keys() != source.vertex_set or not target.vertex_set.issuperset(mapping.values()):
            _refuse_map(source, target, mapping)
        self._index_map = tuple([target.index[mapping[v]] for v in source.vertices])
        self._finish(source, target)

    @classmethod
    def _from_index_map(cls, source: Graph, target: Graph, index_map: tuple[int, ...]) -> "HomMap":
        """The map sending source position i to target position
        ``index_map[i]``; totality holds by construction, edge preservation
        is checked as in the constructor."""
        m = cls.__new__(cls)
        m._index_map = index_map
        m._finish(source, target)
        return m

    def _finish(self, source: Graph, target: Graph) -> None:
        self.source = source
        self.target = target
        self._image = frozenset(self._index_map)
        self._local_classes = None
        self._fibre_blocks = None
        if not _edge_classes(self)[0]:
            raise HypothesisError("map is not a homomorphism (an edge is not preserved)")

    @property
    def mapping(self) -> dict[str, str]:
        """The image of each source vertex, in source label order."""
        labels = self.target.vertices
        return {v: labels[y] for v, y in zip(self.source.vertices, self._index_map)}

    @property
    def image(self) -> frozenset[str]:
        """The target vertices the map hits."""
        labels = self.target.vertices
        return frozenset([labels[y] for y in self._image])

    @property
    def fibres(self) -> dict[str, tuple[str, ...]]:
        """The nonempty fibres: each image vertex's sorted preimage, keyed in
        the order of their first members."""
        labels = self.target.vertices
        fibres: dict[str, list[str]] = {}
        for v, y in zip(self.source.vertices, self._index_map):
            fibres.setdefault(labels[y], []).append(v)
        return {y: tuple(vs) for y, vs in fibres.items()}

    def fibre(self, y: str) -> tuple[str, ...]:
        """Preimage of a target vertex (possibly empty)."""
        p = self.target.index.get(y)
        if p is None:
            raise ValueError(f"unknown target vertex {y!r}")
        return tuple([v for v, t in zip(self.source.vertices, self._index_map) if t == p])

    def __repr__(self):
        return f"HomMap({len(self.source.vertices)} -> {len(self.target.vertices)} vertices)"


def _refuse_map(source: Graph, target: Graph, mapping) -> None:
    """Raise for the first vertex that keeps ``mapping`` from being a total map into the target."""
    for v in source.vertices:
        if v not in mapping:
            raise ValueError(f"map is not total: no image for {v!r}")
    for v in mapping:
        if v not in source.vertex_set:
            raise ValueError(f"map defined on unknown vertex {v!r}")
    for y in mapping.values():
        if y not in target.vertex_set:
            raise ValueError(f"image vertex {y!r} is not in the target")


def _edge_classes(m: HomMap) -> tuple[bool, bool]:
    """(edge preserving, complete) of the map, from one pass over the source edges.

    The pass collects the target position pairs the proper source edges
    land on when they do not collapse.  The map preserves edges when every
    such pair is a proper target edge, and is complete when it also covers
    them all and the map is surjective.  ``HomMap`` runs the pass once, when
    it is built, and the pair stays cached on the map, where ``is_complete``
    reads it.
    """
    index_map = m._index_map
    covered = set()
    for a, b in m.source._edges:
        ya, yb = index_map[a], index_map[b]
        if ya != yb:
            covered.add((ya, yb) if ya < yb else (yb, ya))
    target = m.target
    preserving = covered.issubset(target._edges)
    complete = preserving and len(covered) == len(target._edges) and len(m._image) == len(target.vertices)
    m._edge_classes = (preserving, complete)
    return m._edge_classes


# ----------------------------------------------------------------- classes

def is_surjective(m: HomMap) -> bool:
    """True iff every target vertex has a preimage."""
    return len(m._image) == len(m.target.vertices)


def is_complete(m: HomMap) -> bool:
    """True iff the image of the source, edges included, is the whole target.

    On top of vertex surjectivity this needs every proper target edge to be
    the image of some proper source edge (loops take care of themselves once
    the map is surjective).
    """
    return m._edge_classes[1]


def _fibre_blocks(m: HomMap) -> dict[int, dict[int, int]]:
    """For each image vertex, by target position y, the source components
    its fibre meets.

    Maps y to {component ordinal: |C ∩ fibre(y)|}, built in one pass over
    ``_index_map`` beside the source's component array, and cached on the
    map.  The counts of an entry sum to the fibre size k_X.  Tameness,
    component equitability, the admissible components and the counting
    ratios are all read off this table.
    """
    if m._fibre_blocks is None:
        source = m.source
        source.components()  # fills source._component_of
        table: dict[int, dict[int, int]] = {}
        for y, b in zip(m._index_map, source._component_of):
            counts = table.get(y)
            if counts is None:
                table[y] = {b: 1}
            else:
                counts[b] = counts.get(b, 0) + 1
        m._fibre_blocks = table
    return m._fibre_blocks


def is_tame(m: HomMap) -> bool:
    """True iff every fibre lies inside a single source component."""
    return all(len(counts) == 1 for counts in _fibre_blocks(m).values())


def _local_pass(m: HomMap, positions) -> tuple[bool, bool, bool]:
    """(locally surjective, locally injective, locally strong) over the
    source vertices at ``positions``.

    Builds each local image m(N(x)) once, as target positions, and compares
    it with N(m(x)), at O(deg x + deg m(x)) per vertex.
    """
    index_map, image = m._index_map, m._image
    source_nbhds, target_nbhds = m.source._nbhd, m.target._nbhd
    surjective = injective = strong = True
    for x in positions:
        nbhd = source_nbhds[x]
        local_image = {index_map[u] for u in nbhd}
        target_nbhd = target_nbhds[index_map[x]]
        injective = injective and len(local_image) == len(nbhd)
        if not target_nbhd <= local_image:
            surjective = False
            strong = strong and (target_nbhd & image) <= local_image
    return surjective, injective, strong


def _local_classes(m: HomMap) -> tuple[bool, bool, bool]:
    """(locally surjective, locally injective, locally strong) of the map.

    One ``_local_pass`` over every source vertex; the triple is cached on
    the map, like edge preservation.
    """
    if m._local_classes is None:
        m._local_classes = _local_pass(m, range(len(m.source.vertices)))
    return m._local_classes


def is_locally_surjective(m: HomMap) -> bool:
    """True iff each restriction N(x) -> N(m(x)) is onto."""
    return _local_classes(m)[0]


def is_locally_injective(m: HomMap) -> bool:
    """True iff each restriction N(x) -> N(m(x)) is injective."""
    return _local_classes(m)[1]


def is_locally_bijective(m: HomMap) -> bool:
    """True iff each restriction N(x) -> N(m(x)) is a bijection."""
    return is_locally_surjective(m) and is_locally_injective(m)


def is_locally_strong(m: HomMap) -> bool:
    """True iff every edge between images lifts against any chosen preimage.

    Pointwise: whenever {m(x1), m(x2)} is a target edge, x1 must have a
    neighbor inside the fibre of m(x2).  Equivalently, every neighbor of
    m(x1) in the image lies in the local image m(N(x1)), a test that does
    not depend on the fibre sizes.
    """
    return _local_classes(m)[2]


def is_pseudo_covering(m: HomMap) -> bool:
    """True iff the map is locally strong and surjective."""
    return is_locally_strong(m) and is_surjective(m)


def _is_equitable(g: Graph, block_of) -> bool:
    """True iff all members of each block see every block through equally many edges.

    ``block_of`` names the block of each vertex position (a map's
    ``_index_map`` names its fibres).  Each vertex counts its closed
    neighbourhood into a dict keyed by block, so the test takes
    O(|V| + |E|) whatever the number of blocks.
    """
    nbhd = g._nbhd
    reference: dict = {}
    for x, b in enumerate(block_of):
        row: dict = {}
        for u in nbhd[x]:
            c = block_of[u]
            row[c] = row.get(c, 0) + 1
        first = reference.get(b)
        if first is None:
            reference[b] = row
        elif first != row:
            return False
    return True


def is_component_equitable(m: HomMap) -> bool:
    """True iff each target vertex meets all its admissible components equally.

    For a target vertex y, every source component containing part of the
    fibre of y must contain the same number of fibre members.
    """
    return all(len(set(counts.values())) == 1 for counts in _fibre_blocks(m).values())


# ----------------------------------------------------------------- reports

@dataclass(frozen=True)
class ClassificationReport:
    """All class memberships of one homomorphism.

    ``orbit`` is None when no candidate group was supplied, otherwise it
    records whether the map's fibres are exactly the orbits of the group and
    the group acts by automorphisms of the source.
    """

    surjective: bool
    complete: bool
    isomorphism: bool
    tame: bool
    locally_surjective: bool
    locally_injective: bool
    locally_bijective: bool
    locally_strong: bool
    pseudo_covering: bool
    equitable: bool
    component_equitable: bool
    orbit: bool | None = None


def _check_report(r: ClassificationReport) -> None:
    """Cross-check implications that must hold between the class predicates."""
    rules = [
        ("complete implies surjective", (not r.complete) or r.surjective),
        (
            "isomorphism implies surjective and complete",
            (not r.isomorphism) or (r.surjective and r.complete),
        ),
        (
            "locally surjective implies locally strong",
            (not r.locally_surjective) or r.locally_strong,
        ),
        (
            "locally bijective = locally surjective + locally injective",
            r.locally_bijective == (r.locally_surjective and r.locally_injective),
        ),
        (
            "pseudo-covering = locally strong + surjective",
            r.pseudo_covering == (r.locally_strong and r.surjective),
        ),
        (
            "pseudo-covering = locally strong + complete",
            r.pseudo_covering == (r.locally_strong and r.complete),
        ),
        (
            "pseudo-covering = locally surjective + complete",
            r.pseudo_covering == (r.locally_surjective and r.complete),
        ),
        (
            "complete equitable implies pseudo-covering",
            (not (r.complete and r.equitable)) or r.pseudo_covering,
        ),
    ]
    for name, ok in rules:
        if not ok:
            raise InternalCheckError(f"classification self-check failed: {name}")


def classify(m: HomMap, grp=None) -> ClassificationReport:
    """Evaluate every class predicate on the map.

    The orbit test comes first.  On an orbit map each generator g fixes the
    map and is an automorphism, so it carries N(x) onto N(g·x) fibre by
    fibre: all members of a fibre have the same local classes and see every
    fibre through equally many edges.  The local classes are then read off
    one member per fibre, and the map is equitable without a test.  This
    representative pass is not cached on the map, so a later
    ``is_locally_*`` call still makes its own pass over every vertex.  On any
    other map both passes run over the whole source.

    Raises InternalCheckError if the computed memberships contradict each
    other (which would mean a bug in the predicates, not in the input).
    """
    orbit = None if grp is None else is_orbit_map(m, grp)
    if orbit:
        # one member per fibre (any will do on an orbit map)
        local = _local_pass(m, {y: x for x, y in enumerate(m._index_map)}.values())
        equitable = True
    else:
        local = _local_classes(m)
        equitable = _is_equitable(m.source, m._index_map)
    locally_surjective, locally_injective, locally_strong = local
    surjective = is_surjective(m)
    complete = is_complete(m)
    bijective = len(m._image) == len(m.source.vertices) and surjective
    report = ClassificationReport(
        surjective=surjective,
        complete=complete,
        isomorphism=bijective and complete,
        tame=is_tame(m),
        locally_surjective=locally_surjective,
        locally_injective=locally_injective,
        locally_bijective=locally_surjective and locally_injective,
        locally_strong=locally_strong,
        pseudo_covering=locally_strong and surjective,
        equitable=equitable,
        component_equitable=is_component_equitable(m),
        orbit=orbit,
    )
    _check_report(report)
    return report


def is_orbit_map(m: HomMap, grp) -> bool:
    """True iff ``grp`` acts by automorphisms of the source and its orbits are the fibres."""
    return perms.verify_automorphisms(m.source, grp) and perms.is_consistent(m, grp)
