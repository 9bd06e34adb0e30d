"""Vertex partitions, quotient graphs, and the equitable predicate."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalCheckError
from .graphs import Graph
from .homs import HomMap, _is_equitable, is_complete


class Partition:
    """A partition of a vertex set into nonempty cells.

    Cells are stored sorted and ordered by their smallest member, so each
    partition has exactly one representation.
    """

    __slots__ = ("cells", "cell_of", "universe")

    def __init__(self, cells, universe):
        self.universe = frozenset(universe)
        normalized = [tuple(sorted(set(raw))) for raw in cells]
        members = set().union(*normalized)
        if not all(normalized) or members != self.universe or sum(map(len, normalized)) != len(members):
            _refuse_cells(normalized, self.universe)
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


def _refuse_cells(cells, universe) -> None:
    """Raise for the first fault of sorted cells, in cell order: an empty
    cell, a member outside the universe, a member of two cells; then for
    the smallest vertex no cell covers."""
    seen: set[str] = set()
    for cell in cells:
        if not cell:
            raise ValueError("empty cell in partition")
        for v in cell:
            if v not in universe:
                raise ValueError(f"cell member {v!r} is outside the universe")
            if v in seen:
                raise ValueError(f"vertex {v!r} appears in two cells")
            seen.add(v)
    missing = sorted(universe - seen)[0]
    raise ValueError(f"vertex {missing!r} is not covered by any cell")


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
    for u, v in g.proper_edges:
        cu, cv = p.cell_of[u], p.cell_of[v]
        if cu != cv:
            qedges.add(frozenset((names[cu], names[cv])))
    q = Graph(names, qedges)
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
    return _is_equitable(g, p.cells, p.cell_of)

