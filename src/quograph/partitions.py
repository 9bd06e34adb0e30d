"""Quotient graphs and the equitable predicate.

Both take a graph and a ``Partition`` of its vertices (the type lives in
``graphs``); ``quotient`` collapses each block to a vertex and proves the
projection complete.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalCheckError
from .graphs import Graph, Partition
from .homs import HomMap, _edge_image, _is_equitable, is_complete


@dataclass(frozen=True)
class QuotientResult:
    quotient: Graph
    projection: HomMap


def quotient(g: Graph, p: Partition) -> QuotientResult:
    """Collapse each block of the partition to a single vertex.

    The quotient vertex for a block is named "[<smallest member>]".  Two
    distinct blocks are joined exactly when some proper edge of g crosses
    between them; edges inside a block disappear into the implicit loop.  The
    returned projection maps each vertex to its block and is always a complete
    homomorphism, which is asserted before returning.
    """
    if p.vertices != g.vertices:
        raise ValueError("partition universe does not match the graph's vertices")
    verts = g.vertices
    names = ["[" + verts[i] + "]" for i in p._leaders]
    # The names need not sort in block order ("[1+]" < "[1]"), so each
    # block's quotient vertex is its name's position in sorted order.
    order = sorted(range(len(names)), key=names.__getitem__)
    position = [0] * len(order)
    for i, b in enumerate(order):
        position[b] = i
    index_map = tuple(map(position.__getitem__, p._of))
    q = Graph._from_edges(tuple(map(names.__getitem__, order)), _edge_image(g._edges, index_map))
    projection = HomMap._from_index_map(g, q, index_map)
    if not is_complete(projection):
        raise InternalCheckError("quotient projection failed the completeness check")
    return QuotientResult(q, projection)


def is_equitable(g: Graph, p: Partition) -> bool:
    """True iff all members of a block see every block through equally many edges.

    Counts use closed neighborhoods, so a vertex contributes its implicit
    loop to the count against its own block.
    """
    if p.vertices != g.vertices:
        raise ValueError("partition universe does not match the graph's vertices")
    return _is_equitable(g, p._of)

