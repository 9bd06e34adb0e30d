"""Component counting through a homomorphism.

The counting formulas need different hypotheses:

* ``count_admissible`` works for any locally surjective map and sums, over
  one representative vertex per target component, the number of source
  components whose intersection with the representative's fibre is nonempty.
* ``count_orbit`` works when the map is complete and its fibres are the
  orbits of an automorphism group; each term is the fibre size divided by
  the multiplicity inside one admissible component.
* ``count_ce`` needs locally surjective, component equitable and surjective,
  and uses the same ratio terms without any group.

Each counter tests the map's ``homs`` predicates by name through ``_require``,
and checks its CountBreakdown's total against the source's component count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

from . import homs
from .errors import HypothesisError, InternalCheckError
from .homs import HomMap


class CountTerm(NamedTuple):
    """One summand of a component count.

    ``component_leader``, ``fibre_size`` (k_X) and ``component_multiplicity``
    (k_C) are populated by the ratio-based counts; the admissibility count
    leaves them as None because its term is a number of components, not a
    ratio.  A named tuple, as a count builds one per target component.
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
    members = dict.fromkeys(u)  # once each, in u's order, so the first unknown is named
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


def _require(m: HomMap, *names: str) -> None:
    for name in names:  # ClassificationReport fields, each tested by homs.is_<name>, in order
        if not getattr(homs, f"is_{name}")(m):
            raise HypothesisError(f"hypotheses not satisfied: {name}")


def image_of_component(m: HomMap, c) -> tuple[str, ...]:
    """The target component a source component lands on.

    For a locally surjective map the image of a component is a full target
    component; the direct image is compared against it before returning.
    """
    return m.target.components().blocks[_image_component(m, c)[1]]


def _image_component(m: HomMap, c) -> tuple[int, int]:
    """The ordinals (i, t) of source component c and of the target component
    it lands on, checked as above."""
    _require(m, "locally_surjective")
    block, scomp = tuple(sorted(set(c))), m.source.components()
    i = scomp.block_of.get(block[0]) if block else None
    if i is None or scomp.blocks[i] != block:
        raise ValueError("argument is not a component of the source graph")
    t, full = _landing(m, i)
    if not full:
        raise InternalCheckError("component image is not a full target component")
    return i, t


def _landing(m: HomMap, i: int) -> tuple[int, bool]:
    """The target component t that source component i lands in, read at its
    leader, and whether i's image (from ``homs._fibre_blocks``) is all of t."""
    tcomp = m.target.components()._of
    t = tcomp[m._index_map[m.source.components()._leaders[i]]]
    image = {y for y, counts in homs._fibre_blocks(m).items() if i in counts}
    return t, image == {y for y, s in enumerate(tcomp) if s == t}


def preimage_of_component_vertices(m: HomMap, c) -> frozenset[str]:
    """All vertices of the source components that map into the image of c.

    Computed as a union of component blocks and cross-checked against the
    plain preimage of the image component's vertex set.
    """
    return _preimage_union(m, _image_component(m, c)[1])


def _preimage_union(m: HomMap, t: int) -> frozenset[str]:
    """The source components mapping into target component t, checked as above."""
    scomp, tcomp, index_map = m.source.components(), m.target.components()._of, m._index_map
    union = {v for block, x in zip(scomp.blocks, scomp._leaders) if tcomp[index_map[x]] == t for v in block}
    if union != {v for v, y in zip(m.source.vertices, index_map) if tcomp[y] == t}:
        raise InternalCheckError("component preimage union differs from the direct preimage")
    return frozenset(union)


def count_admissible(m: HomMap) -> CountBreakdown:
    """Component count via admissible components, one term per target component.

    Requires local surjectivity.  The representative of each target
    component is its smallest label; a term may be 0 when a whole target
    component misses the image.
    """
    _require(m, "locally_surjective")
    table, names, leaders = homs._fibre_blocks(m), m.target.vertices, m.target.components()._leaders
    terms = [CountTerm(names[y], None, None, None, len(table.get(y, ()))) for y in leaders]
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
    _require(m, "complete")
    if not homs.classify(m, grp).orbit:  # the one refusal that needs the group
        raise HypothesisError("hypotheses not satisfied: orbit")
    return _ratio_count(m)


def count_ce(m: HomMap) -> CountBreakdown:
    """Component count via fibre-size ratios for a component-equitable map.

    Requires local surjectivity, component equitability and surjectivity
    (each ratio term reads a fibre); no group is involved.
    """
    _require(m, "locally_surjective", "component_equitable", "surjective")
    return _ratio_count(m)


def _exact_div(a: int, b: int) -> int:
    if b == 0 or a % b:
        raise InternalCheckError(f"multiplicity {b} does not divide fibre size {a}")
    return a // b


def _ratio_count(m: HomMap) -> CountBreakdown:
    """Walk the target components in order, one term per component.

    Each term takes the component's smallest member y and the first source
    component admissible for it, and contributes fibre size over
    multiplicity, both read off y's ``homs._fibre_blocks`` entry (the fibre
    size is the sum of its counts).  Each stage runs over all the terms at
    once, and each term is built by ``tuple.__new__``, which skips the named
    tuple's Python-level constructor.
    """
    table = homs._fibre_blocks(m)
    ys = m.target.components()._leaders
    rows = list(map(table.get, ys))
    if None in rows:  # an invariant: both callers require a surjective map
        raise InternalCheckError("no admissible component for a target vertex")
    firsts = list(map(min, rows))
    k_x = list(map(sum, map(dict.values, rows)))
    k_c = list(map(dict.__getitem__, rows, firsts))
    values = list(map(_exact_div, k_x, k_c))
    names = map(m.target.vertices.__getitem__, ys)
    leaders = map(m.source.vertices.__getitem__, map(m.source.components()._leaders.__getitem__, firsts))
    terms = tuple(map(tuple.__new__, repeat(CountTerm), zip(names, leaders, k_x, k_c, values)))
    total = sum(values)
    if total != m.source.components().count:
        raise InternalCheckError("ratio count disagrees with the component index")
    return CountBreakdown(terms, total)


def component_iso_check(m: HomMap, c) -> bool:
    """For a pseudo-covering: is a source component a copy of its image?

    True exactly when every vertex of the image component has multiplicity 1
    in the component.
    """
    _require(m, "pseudo_covering")
    i, t = _image_component(m, c)
    table = homs._fibre_blocks(m)
    return all(table[y].get(i) == 1 for y, s in enumerate(m.target.components()._of) if s == t)


def connectedness_criterion(m: HomMap) -> bool:
    """Connectedness of the source from a map onto a connected target.

    Requires the target to be connected and the map to be a pseudo-covering.
    Returns True when some fibre lies inside a single source component, which
    forces the source to be connected; False means the test is inconclusive
    (the source may or may not be connected).
    """
    if m.target.components().count != 1:
        raise HypothesisError("hypotheses not satisfied: target is not connected")
    _require(m, "pseudo_covering")
    return any(len(counts) == 1 for counts in homs._fibre_blocks(m).values())
