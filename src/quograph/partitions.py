"""Vertex partitions, quotient graphs, and the equitable predicate."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalCheckError
from .graphs import Graph
from .homs import HomMap, is_complete


class Partition:
    """A partition of a vertex set into nonempty cells.

    Cells are stored sorted and ordered by their smallest member, so each
    partition has exactly one representation.
    """

    __slots__ = ("cells", "cell_of", "universe")

    def __init__(self, cells, universe):
        self.universe = frozenset(universe)
        normalized = []
        seen: set[str] = set()
        for raw in cells:
            cell = tuple(sorted(set(raw)))
            if not cell:
                raise ValueError("empty cell in partition")
            for v in cell:
                if v not in self.universe:
                    raise ValueError(f"cell member {v!r} is outside the universe")
                if v in seen:
                    raise ValueError(f"vertex {v!r} appears in two cells")
                seen.add(v)
            normalized.append(cell)
        if seen != self.universe:
            missing = sorted(self.universe - seen)[0]
            raise ValueError(f"vertex {missing!r} is not covered by any cell")
        normalized.sort(key=lambda c: c[0])
        self.cells = tuple(normalized)
        self.cell_of = {v: i for i, cell in enumerate(self.cells) for v in cell}

    @classmethod
    def singletons(cls, universe) -> "Partition":
        return cls([[v] for v in universe], universe)

    def cell_containing(self, v: str) -> tuple[str, ...]:
        return self.cells[self.cell_of[v]]

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.cells == other.cells and self.universe == other.universe

    def __hash__(self):
        return hash((self.cells, self.universe))

    def __repr__(self):
        return f"Partition({len(self.cells)} cells over {len(self.universe)} vertices)"


@dataclass(frozen=True)
class QuotientResult:
    quotient: Graph
    projection: HomMap


def quotient(g: Graph, p: Partition) -> QuotientResult:
    """Collapse each cell of the partition to a single vertex.

    The quotient vertex for a cell is named "[<smallest member>]".  Two
    distinct cells are joined exactly when some proper edge of g crosses
    between them; edges inside a cell disappear into the implicit loop.  The
    returned projection maps each vertex to its cell and is always a complete
    homomorphism, which is asserted before returning.
    """
    if p.universe != g.vertex_set:
        raise ValueError("partition universe does not match the graph's vertices")
    names = ["[" + cell[0] + "]" for cell in p.cells]
    qedges = set()
    for e in g.proper_edges:
        u, v = tuple(e)
        cu, cv = p.cell_of[u], p.cell_of[v]
        if cu != cv:
            qedges.add(frozenset((names[cu], names[cv])))
    q = Graph(names, [tuple(e) for e in qedges])
    projection = HomMap(g, q, {v: names[p.cell_of[v]] for v in g.vertices})
    if not is_complete(projection):
        raise InternalCheckError("quotient projection failed the completeness check")
    return QuotientResult(q, projection)


def is_equitable(g: Graph, p: Partition) -> bool:
    """True iff all members of a cell see every cell through equally many edges.

    Counts use closed neighborhoods, so a vertex contributes its implicit
    loop to the count against its own cell.
    """
    if p.universe != g.vertex_set:
        raise ValueError("partition universe does not match the graph's vertices")
    k = len(p.cells)
    for cell in p.cells:
        reference = None
        for x in cell:
            row = [0] * k
            for u in g.neighborhood(x):
                row[p.cell_of[u]] += 1
            if reference is None:
                reference = row
            elif row != reference:
                return False
    return True


def partition_of_map(m: HomMap) -> Partition:
    """The partition of the source into the map's nonempty fibres."""
    return Partition(list(m.fibres.values()), m.source.vertex_set)
