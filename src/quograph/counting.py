"""Component counting through a homomorphism.

The counting formulas need different hypotheses:

* ``count_admissible`` works for any locally surjective map and sums, over
  one representative vertex per target component, the number of source
  components whose intersection with the representative's fibre is nonempty.
* ``count_orbit`` works when the map is complete and its fibres are the
  orbits of an automorphism group; each term is the fibre size divided by
  the multiplicity inside one admissible component.
* ``count_ce`` needs locally surjective plus component equitable and uses
  the same ratio terms without any group.

All three return a CountBreakdown whose total is checked against the
number of source components before it is handed back.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import homs
from .errors import HypothesisError, InternalCheckError
from .homs import HomMap


@dataclass(frozen=True)
class CountTerm:
    """One summand of a component count.

    ``component_leader``, ``fibre_size`` (k_X) and ``component_multiplicity``
    (k_C) are populated by the ratio-based counts; the admissibility count
    leaves them as None because its term is a number of components, not a
    ratio.
    """

    representative: str
    component_leader: str | None
    fibre_size: int | None
    component_multiplicity: int | None
    value: int

    def as_dict(self) -> dict:
        return {
            "y": self.representative,
            "component_leader": self.component_leader,
            "kX": self.fibre_size,
            "kC": self.component_multiplicity,
            "value": self.value,
        }


@dataclass(frozen=True)
class CountBreakdown:
    terms: tuple[CountTerm, ...]
    total: int

    def as_dict(self) -> dict:
        return {"terms": [t.as_dict() for t in self.terms], "total": self.total}


def multiplicity(m: HomMap, u, y: str) -> int:
    """Number of vertices of u inside the fibre of y."""
    index, p = m.source.index, m.target.index.get(y)
    members = set(u)
    for v in members:
        if v not in index:
            raise ValueError(f"unknown source vertex {v!r}")
    if p is None:
        raise ValueError(f"unknown target vertex {y!r}")
    return sum(m._index_map[index[v]] == p for v in members)


def admissible_components(m: HomMap, y: str) -> list[tuple[str, ...]]:
    """Source components meeting the fibre of y, in component order."""
    counts = homs._fibre_blocks(m)
    p = m.target.index.get(y)
    if p is None:
        raise ValueError(f"unknown target vertex {y!r}")
    blocks = m.source.components().blocks
    return [blocks[i] for i in sorted(counts.get(p, ()))]


def _require_locally_surjective(m: HomMap) -> None:
    if not homs.is_locally_surjective(m):
        raise HypothesisError("hypotheses not satisfied: locally_surjective")


def _component_block(m: HomMap, c) -> tuple[str, ...]:
    block = tuple(sorted(set(c)))
    comp = m.source.components()
    if not block or block[0] not in comp.block_of or comp.block_containing(block[0]) != block:
        raise ValueError("argument is not a component of the source graph")
    return block


def image_of_component(m: HomMap, c) -> tuple[str, ...]:
    """The target component a source component lands on.

    For a locally surjective map the image of a component is a full target
    component; the direct image is compared against it before returning.
    """
    _require_locally_surjective(m)
    block = _component_block(m, c)
    index_map, index, target = m._index_map, m.source.index, m.target
    target_block = target.components().blocks[_target_component(m, block[0])]
    direct = {index_map[index[v]] for v in block}
    if direct != set(map(target.index.__getitem__, target_block)):
        raise InternalCheckError("component image is not a full target component")
    return target_block


def _target_component(m: HomMap, v: str) -> int:
    """The ordinal of the target component source vertex v lands in."""
    m.target.components()  # fills target._component_of
    return m.target._component_of[m._index_map[m.source.index[v]]]


def preimage_of_component_vertices(m: HomMap, c) -> frozenset[str]:
    """All vertices of the source components that map into the image of c.

    Computed as a union of component blocks and cross-checked against the
    plain preimage of the image component's vertex set.
    """
    return _preimage_union(m, m.target.components().block_of[image_of_component(m, c)[0]])


def _preimage_union(m: HomMap, t: int) -> frozenset[str]:
    """The source components mapping into target component t, checked as above."""
    union: set[str] = set()
    for other in m.source.components().blocks:
        if _target_component(m, other[0]) == t:
            union.update(other)
    comp_of = m.target._component_of
    direct = {v for v, y in zip(m.source.vertices, m._index_map) if comp_of[y] == t}
    if union != direct:
        raise InternalCheckError("component preimage union differs from the direct preimage")
    return frozenset(union)


def count_admissible(m: HomMap) -> CountBreakdown:
    """Component count via admissible components, one term per target component.

    Requires local surjectivity.  The representative of each target
    component is its smallest label; a term may be 0 when a whole target
    component misses the image.
    """
    _require_locally_surjective(m)
    terms = []
    for block in m.target.components().blocks:
        y = block[0]
        terms.append(CountTerm(y, None, None, None, len(admissible_components(m, y))))
    total = sum(t.value for t in terms)
    if total != m.source.components().count:
        raise InternalCheckError("admissibility count disagrees with the component index")
    return CountBreakdown(tuple(terms), total)


def count_orbit(m: HomMap, grp) -> CountBreakdown:
    """Component count via fibre-size ratios for an orbit map.

    Requires the map to be complete and its fibres to be exactly the orbits
    of ``grp`` acting by automorphisms of the source.  Each term does not
    depend on which representative and admissible component are picked;
    ``verify`` checks that over every choice.
    """
    report = homs.classify(m, grp)
    if not report.complete:
        raise HypothesisError("hypotheses not satisfied: complete")
    if not report.orbit:
        raise HypothesisError("hypotheses not satisfied: orbit")
    return _ratio_count(m)


def count_ce(m: HomMap) -> CountBreakdown:
    """Component count via fibre-size ratios for a component-equitable map.

    Requires local surjectivity and component equitability; no group is
    involved.
    """
    _require_locally_surjective(m)
    if not homs.is_component_equitable(m):
        raise HypothesisError("hypotheses not satisfied: component_equitable")
    return _ratio_count(m)


def _exact_div(a: int, b: int) -> int:
    if b == 0 or a % b:
        raise InternalCheckError(f"multiplicity {b} does not divide fibre size {a}")
    return a // b


def _ratio_count(m: HomMap) -> CountBreakdown:
    """Walk the target components in order, one term per component.

    Each term takes the component's smallest label y and the first source
    component admissible for it, and contributes fibre size over
    multiplicity, both read off y's ``homs._fibre_blocks`` entry (the fibre
    size is the sum of its counts).
    """
    table = homs._fibre_blocks(m)
    blocks = m.source.components().blocks
    index = m.target.index
    terms = []
    for block in m.target.components().blocks:
        y = block[0]
        counts = table.get(index[y])
        if counts is None:
            raise InternalCheckError("no admissible component for a target vertex")
        first = min(counts)
        k_x, k_c = sum(counts.values()), counts[first]
        terms.append(CountTerm(y, blocks[first][0], k_x, k_c, _exact_div(k_x, k_c)))
    total = sum(t.value for t in terms)
    if total != m.source.components().count:
        raise InternalCheckError("ratio count disagrees with the component index")
    return CountBreakdown(tuple(terms), total)


def component_iso_check(m: HomMap, c) -> bool:
    """For a pseudo-covering: is a source component a copy of its image?

    True exactly when every vertex of the image component has multiplicity 1
    in the component.
    """
    if not homs.is_pseudo_covering(m):
        raise HypothesisError("hypotheses not satisfied: pseudo_covering")
    block = _component_block(m, c)
    i, table = m.source.components().block_of[block[0]], homs._fibre_blocks(m)
    index = m.target.index
    return all(table[index[y]].get(i) == 1 for y in image_of_component(m, block))


def connectedness_criterion(m: HomMap) -> bool:
    """Connectedness of the source from a map onto a connected target.

    Requires the target to be connected and the map to be a pseudo-covering.
    Returns True when some fibre lies inside a single source component, which
    forces the source to be connected; False means the test is inconclusive
    (the source may or may not be connected).
    """
    if m.target.components().count != 1:
        raise HypothesisError("hypotheses not satisfied: target is not connected")
    if not homs.is_pseudo_covering(m):
        raise HypothesisError("hypotheses not satisfied: map is not a pseudo-covering")
    return any(len(counts) == 1 for counts in homs._fibre_blocks(m).values())
