"""Quotient graphs and the equitable predicate.

Both take a graph and a ``Partition`` of its vertices (the type lives in
``graphs``); ``quotient`` collapses each block to a vertex and proves the
projection complete.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalCheckError
from .graphs import Graph, Partition
from .homs import HomMap, _is_equitable, is_complete


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
    if p.universe != g.vertex_set:
        raise ValueError("partition universe does not match the graph's vertices")
    names = ["[" + block[0] + "]" for block in p.blocks]
    block_of = p.block_of
    qedges = set()
    for u, v in g.proper_edges:
        bu, bv = block_of[u], block_of[v]
        if bu != bv:
            qedges.add(frozenset((names[bu], names[bv])))
    q = Graph(names, qedges)
    projection = HomMap(g, q, {v: names[block_of[v]] for v in g.vertices})
    if not is_complete(projection):
        raise InternalCheckError("quotient projection failed the completeness check")
    return QuotientResult(q, projection)


def is_equitable(g: Graph, p: Partition) -> bool:
    """True iff all members of a block see every block through equally many edges.

    Counts use closed neighborhoods, so a vertex contributes its implicit
    loop to the count against its own block.
    """
    if p.universe != g.vertex_set:
        raise ValueError("partition universe does not match the graph's vertices")
    return _is_equitable(g, p.blocks, p.block_of)

